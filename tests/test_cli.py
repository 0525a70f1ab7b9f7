import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import preorder_bca
from preorder_bca import TooLarge, bca_auto, cli, parse_document
from preorder_bca.documents import (document_to_json, document_to_preorder,
                                    render_dot)
from conftest import random_preorder
from worked_examples import spec

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = DATA / "fixtures"
GOLDEN = DATA / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def test_check_valid(capsys):
    code, out, _ = run_cli(capsys, "check", fixture("chain3"))
    assert code == 0
    assert out.startswith("ok")


def test_check_total_flag(capsys):
    code, _, _ = run_cli(capsys, "check", fixture("chain3"), "--total")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", fixture("ex5_base"), "--total")
    assert code == 2
    assert "incomparable" in out


def test_check_transitivity_violation(capsys):
    code, out, _ = run_cli(capsys, "check", fixture("broken_transitivity"))
    assert code == 2
    assert "transitivity 0 1 2" in out


def test_check_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 3
    assert "error:" in err
    code, _, _ = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


def test_metric_example1(capsys):
    code, out, _ = run_cli(capsys, "metric", fixture("ex1_base"),
                           fixture("ex1_swap_top"))
    assert code == 0 and out.strip() == "16"
    code, out, _ = run_cli(capsys, "metric", fixture("ex1_base"),
                           fixture("ex1_swap_bottom"))
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "metric", fixture("ex1_base"),
                           fixture("ex1_base"))
    assert code == 0 and out.strip() == "0"


def test_metric_variants(capsys):
    for which, want in (("top-diff-direct", "16"), ("ksb", "2")):
        code, out, _ = run_cli(capsys, "metric", fixture("ex1_base"),
                               fixture("ex1_swap_top"), "--metric", which)
        assert code == 0 and out.strip() == want
    code, out, _ = run_cli(capsys, "metric", fixture("ex1_base"),
                           fixture("ex1_swap_bottom"), "--metric", "ksb")
    assert code == 0 and out.strip() == "2"


def test_metric_label_mismatch(capsys):
    code, _, err = run_cli(capsys, "metric", fixture("ex1_base"),
                           fixture("ex2_base"))
    assert code == 2
    assert "ground" in err


def test_bca_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "--max-n", "4", "bca",
                           fixture("ex6_fence"), "--method", "bruteforce")
    assert code == 4
    assert "guard" in err
    # a negative override is a bad argument, not a refusal
    code, _, err = run_cli(capsys, "--max-n", "-1", "bca", fixture("chain3"),
                           "--method", "bruteforce")
    assert code == 2
    assert err == "error: guard override must be a nonnegative integer, got -1\n"


def test_bca_auto_refusal_is_the_completion_guard(tmp_path, capsys):
    # auto has no brute-force fallback: condition (*)'s inner completion guard
    # refuses a Y of 11 classes before duality could see all 64
    message = ("layer 3, Y: enumerating completions on 11 indifference classes "
               "exceeds the guard (9)")
    with pytest.raises(TooLarge, match=f"^{re.escape(message)}$"):
        bca_auto(spec("coordinatewise", m=8).build())
    code, out, _ = run_cli(capsys, "generate", "coordinatewise", "--m", "8")
    assert code == 0
    doc = tmp_path / "coordinatewise8.json"
    doc.write_text(out)
    code, out, err = run_cli(capsys, "bca", str(doc))
    assert (code, out, err) == (4, "", f"guard: {message}\n")


def test_bca_theorem5_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "bca", fixture("ex8_base"),
                           "--method", "theorem5")
    assert code == 2
    assert "not applicable" in out


def test_bca_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "--emit", "json", "bca",
                           fixture("ex2_base"))
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bca-report/1"
    assert payload["distance"] == 3
    docs = [parse_document(json.dumps(d)) for d in payload["candidates"]]
    assert len(docs) == 1
    assert docs[0].labels == ("x", "a", "a1", "a2")


def test_bca_unicode_flag(capsys):
    code, out, _ = run_cli(capsys, "--unicode", "bca", fixture("ex2_base"),
                           "--method", "duality")
    assert code == 0
    assert "≻" in out


def test_index_and_canonical(capsys):
    code, out, _ = run_cli(capsys, "index", fixture("ex8_base"))
    assert code == 0 and out.strip() == "322"
    code, out, _ = run_cli(capsys, "canonical", fixture("ex4_base"))
    assert code == 0 and out.strip() == "[x] > [a1,a2] > [y]"


def test_generate_families(capsys):
    code, out, _ = run_cli(capsys, "generate", "containment", "--z", "2")
    assert code == 0
    doc = parse_document(out)
    assert len(doc.labels) == 4

    code, out, _ = run_cli(capsys, "generate", "crown", "--k", "6")
    assert code == 0
    doc = parse_document(out)
    assert doc.labels == tuple(f"x{i}" for i in range(1, 7))

    code, _, err = run_cli(capsys, "generate", "containment", "--k", "2")
    assert code == 2
    code, out, err = run_cli(capsys, "generate", "containment", "--z", "0")
    assert (code, out) == (2, "") and err.startswith("error:")


def test_generate_unknown_family_lists_the_known_kinds(capsys):
    code, out, err = run_cli(capsys, "generate", "bogus")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown family kind: 'bogus'")
    for kind in ("containment", "word_prefix", "crown", "indifferent"):
        assert kind in err


@pytest.mark.parametrize("argv", [
    ("containment", "--z", "7"), ("refinement", "--z", "6"),
    ("word_prefix", "--alphabet", "2", "--k", "6"), ("coordinatewise", "--m", "9"),
    ("fence", "--k", "100"), ("crown", "--k", "66"), ("chain", "--n", "65"),
    ("equality", "--n", "65"), ("indifferent", "--n", "65"),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_generate_family_beyond_64_elements_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_generate_expected_bca_pair(capsys):
    code, out, _ = run_cli(capsys, "generate", "coordinatewise", "--m", "2",
                           "--expected-bca")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "family-pair/1"
    family = parse_document(json.dumps(payload["family"]))
    expected = parse_document(json.dumps(payload["expected_bca"]))
    assert family.labels == expected.labels == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")


def test_generate_random_uses_seed(capsys):
    code, out1, _ = run_cli(capsys, "--seed", "5", "generate", "random", "--n", "6")
    assert code == 0
    code, out2, _ = run_cli(capsys, "--seed", "5", "generate", "random", "--n", "6")
    assert out1 == out2
    code, out3, _ = run_cli(capsys, "--seed", "6", "generate", "random", "--n", "6")
    assert out1 != out3
    parse_document(out1)


def test_covering_radius_command(capsys):
    code, out, _ = run_cli(capsys, "--emit", "json", "covering-radius", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == 0


def test_goldens_byte_stable(capsys):
    from regen_goldens import GOLDEN_COMMANDS

    for name, argv in GOLDEN_COMMANDS.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(), name


def test_cli_json_roundtrip_many_documents(tmp_path, capsys):
    rng = random.Random(2023)
    for trial in range(40):
        p = random_preorder(rng, rng.randint(1, 7))
        from preorder_bca import document_from_relation

        doc = document_from_relation(p)
        path = tmp_path / f"doc{trial}.json"
        path.write_text(document_to_json(doc))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        assert parse_document(path.read_text()) == doc


def test_bca_dot_emission(capsys):
    code, out, _ = run_cli(capsys, "--emit", "dot", "bca", fixture("ex5_base"),
                           "--method", "duality")
    assert code == 0
    assert out.count("digraph") == 2
    assert "bca0" in out and "bca1" in out


def test_canonical_json_emission(capsys):
    code, out, _ = run_cli(capsys, "--emit", "json", "canonical",
                           fixture("ex5_base"))
    assert code == 0
    doc = parse_document(out)
    assert doc.labels == ("x", "a", "a1", "a2")
    from preorder_bca import canonical_completion, document_to_preorder
    import worked_examples as wx

    assert document_to_preorder(doc).rows == \
        canonical_completion(wx.example5_base()).rows


def test_generate_word_prefix_requires_both_params(capsys):
    code, _, err = run_cli(capsys, "generate", "word_prefix", "--alphabet", "2")
    assert code == 2
    code, out, _ = run_cli(capsys, "generate", "word_prefix",
                           "--alphabet", "2", "--k", "2")
    assert code == 0
    assert len(parse_document(out).labels) == 6


def test_generate_word_prefix_alphabet_stops_at_z(capsys):
    code, out, err = run_cli(capsys, "generate", "word_prefix",
                             "--alphabet", "27", "--k", "1")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_generate_dot_emission(capsys):
    code, out, _ = run_cli(capsys, "--emit", "dot", "generate", "fence", "--k", "6")
    assert code == 0
    assert out.count("->") == 5


def test_generate_random_shares_the_family_emission(capsys):
    code, doc, _ = run_cli(capsys, "--seed", "3", "generate", "random", "--n", "5")
    assert code == 0
    code, out, _ = run_cli(capsys, "--seed", "3", "--emit", "dot",
                           "generate", "random", "--n", "5")
    assert code == 0
    assert out == render_dot(document_to_preorder(parse_document(doc)),
                             name="random")
    # a random preorder has no closed-form answer to pair it with, and DOT
    # has no form for a family-answer pair
    for argv in (("generate", "random", "--n", "3", "--expected-bca"),
                 ("--emit", "dot", "generate", "fence", "--k", "4", "--expected-bca")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "--expected-bca" in err


def test_condition_star_strict_has_no_witness_line(capsys):
    code, out, _ = run_cli(capsys, "condition-star", fixture("chain3"))
    assert code == 0
    assert out == "verdict: strict\n"


def test_condition_star_answers_wide_layers_of_classes_with_nothing_below(
        tmp_path, capsys):
    # the sweep counts classes with something below, not elements: none of
    # these layers has two, so each is strict
    star = {"schema": "preorder-doc/1", "labels": [f"x{i}" for i in range(18)],
            "pairs": [[0, i] for i in range(1, 18)], "reflexive_closure": True}
    docs = {"star.json": json.dumps(star)}
    for family in ("equality", "indifferent"):
        code, out, _ = run_cli(capsys, "generate", family, "--n", "64")
        docs[f"{family}.json"] = out
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
        code, out, err = run_cli(capsys, "condition-star", str(tmp_path / name))
        assert (code, out, err) == (0, "verdict: strict\n", ""), name


def test_bca_auto_answers_equality_17_by_theorem5(tmp_path, capsys):
    from preorder_bca import FamilySpec

    code, out, _ = run_cli(capsys, "generate", "equality", "--n", "17")
    doc = tmp_path / "equality17.json"
    doc.write_text(out)
    code, out, err = run_cli(capsys, "bca", str(doc))
    (block,) = FamilySpec("equality", {"n": 17}).expected_bca().render().split(" > ")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["method: theorem5", "distance: 0", "candidates:",
                                    f"  {block}  (index {17 << 17})"]


def test_non_utf8_document_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"schema": "preorder-doc/1", "labels": ["\xe9"], "pairs": []}')
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 3
    assert err.startswith("error:")


def test_generate_random_rejects_n_out_of_range(capsys):
    for n in ("0", "65"):
        code, _, err = run_cli(capsys, "generate", "random", "--n", n)
        assert code == 2
        assert err.startswith("error:")


def test_generate_family_n_is_checked_by_the_family(capsys):
    code, out, err = run_cli(capsys, "generate", "chain", "--n", "65")
    assert (code, out) == (2, "")
    assert err == "error: chain parameter n must be in 1..64, got 65\n"


def test_covering_radius_rejects_n_out_of_range(capsys):
    for n in ("0", "65"):
        code, _, err = run_cli(capsys, "covering-radius", "--n", n)
        assert code == 2
        assert err.startswith("error:")


def test_generate_random_rejects_density_out_of_range(capsys):
    for density in ("7", "-0.5", "nan"):
        code, out, err = run_cli(capsys, "generate", "random", "--n", "3",
                                 "--density", density)
        assert code == 2
        assert out == "" and err.startswith("error:")
    code, _, _ = run_cli(capsys, "generate", "random", "--n", "3", "--density", "1")
    assert code == 0


@pytest.mark.parametrize("argv, flag", [
    (("random", "--n", "3", "--alphabet", "2"), "--alphabet"),
    (("random", "--n", "3", "--z", "2"), "--z"),
    (("random", "--n", "3", "--k", "4"), "--k"),
    (("random", "--n", "3", "--m", "2"), "--m"),
    (("chain", "--n", "3", "--density", "0.5"), "--density"),
    (("fence", "--k", "4", "--density", "0.3"), "--density"),
])
def test_generate_refuses_a_flag_its_family_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, "generate", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and flag in err, err


def test_generate_random_density_defaults_to_0_3(capsys):
    _, default, _ = run_cli(capsys, "--seed", "4", "generate", "random", "--n", "6")
    _, given, _ = run_cli(capsys, "--seed", "4", "generate", "random", "--n", "6",
                          "--density", "0.3")
    assert default == given


def test_covering_radius_has_no_dot_output(capsys):
    code, out, err = run_cli(capsys, "--emit", "dot", "covering-radius", "--n", "2")
    assert (code, out, err) == (2, "", "error: covering-radius writes text or "
                                       "json, not dot\n")


# the formats each subcommand writes, and one run of it on a fixture
WRITES = {"check": "text", "metric": "text", "index": "text",
          "condition-star": "text", "dot": "text dot",
          "covering-radius": "text json", "generate": "text json dot",
          "bca": "text json dot", "canonical": "text json dot"}
SUBCOMMAND_ARGV = {
    "check": ("check", fixture("chain3")),
    "metric": ("metric", fixture("ex1_base"), fixture("ex1_swap_top")),
    "bca": ("bca", fixture("ex5_base")),
    "index": ("index", fixture("ex8_base")),
    "canonical": ("canonical", fixture("ex4_base")),
    "condition-star": ("condition-star", fixture("ex7_k3")),
    "generate": ("generate", "chain", "--n", "3"),
    "dot": ("dot", fixture("chain3")),
    "covering-radius": ("covering-radius", "--n", "2"),
}


@pytest.mark.parametrize("emit", ["text", "json", "dot"])
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_each_subcommand_writes_its_formats_and_refuses_the_rest(capsys, command, emit):
    code, out, err = run_cli(capsys, "--emit", emit, *SUBCOMMAND_ARGV[command])
    formats = WRITES[command].split()
    assert list(cli.COMMANDS[command][2]) == formats
    if emit in formats:
        assert (code, err) == (0, ""), err
        assert out
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {command} writes {' or '.join(formats)}, not {emit}\n"


def test_a_refused_format_wins_over_a_missing_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (("--emit", "json", "check", "/nonexistent.json"),
                 ("--emit", "dot", "metric", missing, missing)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "writes text, not" in err, err


def test_family_flags_and_readme_table_match_the_family_table():
    from preorder_bca.families import FAMILIES

    names = {name for params, _ in FAMILIES.values() for name in params}
    assert sorted(cli._FAMILY_FLAGS) == sorted(names)
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("`generate`'s FAMILY is", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    flags = {kind: sorted(re.findall(r"`--(\w+)`", cell))
             for kinds, cell in rows for kind in re.findall(r"`(\w+)`", kinds)}
    assert flags == {kind: sorted(params) for kind, (params, _) in FAMILIES.items()}


@pytest.mark.parametrize("argv, route, flag", [
    (("--max-n", "12", "bca", "FILE"), "bca --method auto", "--max-n"),
    (("--max-n", "3", "bca", "FILE", "--method", "auto"), "bca --method auto",
     "--max-n"),
    (("--max-n", "3", "check", "FILE"), "check", "--max-n"),
    (("--max-n", "3", "canonical", "FILE"), "canonical", "--max-n"),
    (("--max-n", "3", "dot", "FILE"), "dot", "--max-n"),
    (("--max-n", "3", "generate", "chain", "--n", "3"), "generate chain",
     "--max-n"),
    (("--max-n", "3", "generate", "random", "--n", "3"), "generate random",
     "--max-n"),
    (("--max-n", "3", "metric", "FILE", "FILE"), "metric --metric top-diff",
     "--max-n"),
    (("--max-n", "3", "metric", "FILE", "FILE", "--metric", "ksb"),
     "metric --metric ksb", "--max-n"),
    (("--seed", "2", "check", "FILE"), "check", "--seed"),
    (("--seed", "2", "bca", "FILE", "--method", "bruteforce"),
     "bca --method bruteforce", "--seed"),
    (("--seed", "2", "index", "FILE"), "index", "--seed"),
    (("--seed", "0", "generate", "chain", "--n", "3"), "generate chain", "--seed"),
    (("--seed", "2", "covering-radius", "--n", "2"), "covering-radius", "--seed"),
    (("--max-n", "3", "bca", "FILE", "--method", "theorem5"),
     "bca --method theorem5", "--max-n"),
    (("--max-n", "3", "condition-star", "FILE"), "condition-star", "--max-n"),
])
def test_a_flag_the_route_does_not_read_is_refused(capsys, tmp_path, argv,
                                                    route, flag):
    # the file is missing, so a refusal after reading it would exit 3
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, *(missing if a == "FILE" else a for a in argv))
    assert (code, out, err) == (2, "", f"error: {route} does not read {flag}\n")


def test_bca_computes_condition_star_once(tmp_path, capsys, monkeypatch):
    from preorder_bca import solver

    calls = []
    reports = []

    def counting(real, log):
        def counted(*args, **kwargs):
            log.append(args)
            return real(*args, **kwargs)
        return counted

    # the CLI may bind the solver's function under its own name as well
    counted = counting(solver.condition_star, calls)
    monkeypatch.setattr(solver, "condition_star", counted)
    monkeypatch.setattr(cli, "condition_star", counted, raising=False)
    # every route builds its report through this one helper: (base, ties, method...)
    monkeypatch.setattr(solver, "_report", counting(solver._report, reports))
    for method in ("auto", "theorem5"):
        calls.clear()
        code, _, _ = run_cli(capsys, "bca", fixture("ex5_base"), "--method", method)
        assert code == 0
        assert len(calls) == 1, method
    # ex5's verdict is weak: auto answers by duality and builds no canonical
    # completion it would discard
    reports.clear()
    code, _, _ = run_cli(capsys, "bca", fixture("ex5_base"))
    assert (code, [args[2] for args in reports]) == (0, ["duality"])
    # a refusal of condition (*)'s guard is not retried
    code, out, _ = run_cli(capsys, "generate", "coordinatewise", "--m", "8")
    doc = tmp_path / "coordinatewise8.json"
    doc.write_text(out)
    calls.clear()
    code, out, err = run_cli(capsys, "bca", str(doc))
    assert (code, out, len(calls)) == (4, "", 1)
    assert err == ("guard: layer 3, Y: enumerating completions on 11 "
                   "indifference classes exceeds the guard (9)\n")


def test_deeply_nested_json_is_a_document_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, "check", str(deep))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_usage_errors_return_2_and_help_returns_0(capsys):
    assert cli.main(["bca"]) == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert cli.main(["generate", "--help"]) == 0
    assert "family" in capsys.readouterr().out


def test_lone_surrogate_label_is_a_document_error(tmp_path, capsys):
    doc = tmp_path / "surrogate.json"
    doc.write_text(json.dumps({"schema": "preorder-doc/1", "labels": ["\ud800"],
                               "pairs": [], "reflexive_closure": True}))
    code, out, err = run_cli(capsys, "dot", str(doc))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def _doc_text(**fields):
    doc = {"schema": "preorder-doc/1", "labels": ["a", "b"], "pairs": []}
    doc.update(fields)
    return json.dumps(doc)


def run_process(*argv, env=None, text=True):
    """Run the CLI in a fresh process, as a user does, with ``env`` added to
    its environment."""
    src = str(pathlib.Path(preorder_bca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "preorder_bca.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          capture_output=True, text=text)


def test_output_is_utf8_whatever_the_locale(tmp_path, capsys):
    # labels and --unicode glyphs are written as UTF-8, not as a traceback
    doc = tmp_path / "accent.json"
    doc.write_text(_doc_text(labels=["é", "b"], pairs=[[0, 1]], reflexive_closure=True))
    for argv, shown in ((("canonical", str(doc)), "[é] > [b]\n"),
                        (("--unicode", "bca", fixture("ex2_base")), " ≻ ")):
        _, out, _ = run_cli(capsys, *argv)
        assert shown in out
        proc = run_process(*argv, env={"PYTHONIOENCODING": "ascii"}, text=False)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.encode("utf-8")


@pytest.mark.parametrize("text, message", [
    # 950 levels parse in a fresh process and reach the pair check; about
    # 990 run the parser out of stack first (the "nests too deeply" error)
    (_doc_text(pairs=[[0, "N"]]).replace('"N"', "[" * 950 + "]" * 950),
     "bad pair entry"),
    (_doc_text(schema="x" * 10_000), "unsupported schema"),
    (_doc_text(schema=[["x" * 1000] * 6] * 6), "schema must be a string"),
    (_doc_text(labels=["\ud800" * 5000]), "not valid Unicode"),
    (_doc_text(reflexive_closure=list(range(10_000))), "reflexive_closure must"),
    (_doc_text(pairs=[[0, int("9" * 4000)]]), "out of range"),
    (_doc_text(pairs=[[0, "N"]]).replace('"N"', "9" * 5000), "invalid JSON"),
    ("[]", "document must be a JSON object"),
    (_doc_text(labels=[]), "document needs at least one label"),
], ids=["nested-pair", "long-schema", "wide-schema", "long-label",
        "long-flag", "huge-index", "over-long-integer", "json-array", "no-labels"])
def test_offending_values_give_one_short_error_line(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    proc = run_process("check", str(path))
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200, proc.stderr
    assert lines[0].startswith("error:") and message in lines[0]


def test_short_offending_values_keep_their_repr(tmp_path, capsys):
    for text, shown in ((_doc_text(schema="preorder-doc/2"), "'preorder-doc/2'"),
                        (_doc_text(pairs=[[0, "b"]]), "[0, 'b']"),
                        (_doc_text(pairs=[[0, 2]]), "(0, 2)"),
                        (_doc_text(transitive_closure=1), "got 1")):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 3 and shown in err, err
