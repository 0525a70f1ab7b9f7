"""Package surface: lazy public names, what the CLI imports at start-up, and
the frozen-record semantics of the public value classes."""

import contextlib
import copy
import importlib
import io
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import preorder_bca
from preorder_bca import (
    ApproximationReport,
    ConditionStarReport,
    DocumentError,
    GroundSet,
    Preorder,
    Relation,
    RelationDocument,
    ViolationError,
    parse_document,
    to_total,
)
from preorder_bca import cli

SRC = str(pathlib.Path(preorder_bca.__file__).resolve().parents[1])
ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "data" / "fixtures"


def _run_python(script: str, *argv: str) -> str:
    """stdout of ``script`` run in a fresh interpreter on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_no_solver_stack():
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import preorder_bca.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = set(json.loads(_run_python(script)))
    assert "preorder_bca.cli" in loaded
    for heavy in ("dataclasses", "preorder_bca.solver", "preorder_bca.families",
                  "preorder_bca.scoring", "preorder_bca.metrics",
                  "preorder_bca.completions"):
        assert heavy not in loaded, heavy


def _readme_table(header: str) -> dict[str, set[str]]:
    """The README table under ``header``: subcommand -> the names its second
    column lists."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(header)
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        commands, names = line.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = set(re.findall(r"`([^`]+)`", names))
    return table


def _readme_load_table() -> dict[str, set[str]]:
    """README's "What each subcommand loads" table: subcommand -> modules."""
    return _readme_table("| subcommand | modules added on top |")


def test_readme_format_table_is_the_cli_format_table():
    formats = {command: set(formats)
               for command, (_, _, formats) in cli.COMMANDS.items()}
    assert _readme_table("| subcommand | formats |") == formats


# One run of each subcommand on a fixture; the modules every process loads
# come with ``import preorder_bca.cli`` and are not listed in the table.
_SUBCOMMAND_RUNS = {
    "check": ["check", "chain3.json"],
    "dot": ["dot", "chain3.json"],
    "canonical": ["canonical", "ex5_base.json"],
    "index": ["index", "ex5_base.json"],
    "metric": ["metric", "ex1_base.json", "ex1_swap_top.json"],
    "bca": ["bca", "ex5_base.json"],
    "condition-star": ["condition-star", "ex5_base.json"],
    "covering-radius": ["covering-radius", "--n", "3"],
    "generate": ["generate", "chain", "--n", "3"],
}
_ALWAYS_LOADED = {"cli", "core", "documents", "errors", "_record"}


def test_readme_load_table_names_every_subcommand():
    assert set(_readme_load_table()) == set(cli.COMMANDS) == set(_SUBCOMMAND_RUNS)


def test_help_lists_the_command_table_in_order(monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["--help"]) == 0
    listed = re.findall(r"^    (\S+) +(.+)$", out.getvalue(), re.MULTILINE)
    assert listed == [(command, text)
                      for command, (text, _, _) in cli.COMMANDS.items()]


def test_readme_usage_block_lists_the_command_table_in_order():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("Subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^preorder-bca (\S+)", block, re.MULTILINE) == \
        list(cli.COMMANDS)


def test_console_script_is_cli_main():
    # a regex, not tomllib, which Python 3.10 lacks
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    target = re.match(r'preorder-bca = "([\w.]+):(\w+)"\n', scripts)
    assert target is not None, scripts
    module, name = target.groups()
    main = getattr(importlib.import_module(module), name)
    assert main is cli.main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--help"]) == 0


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_RUNS))
def test_subcommand_loads_what_the_readme_says(command):
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg
            for arg in _SUBCOMMAND_RUNS[command]]
    script = (
        "import contextlib, io, json, sys\n"
        "from preorder_bca import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    code, modules = json.loads(_run_python(script, *argv))
    assert code == 0
    loaded = {name.split(".", 1)[1] for name in modules
              if name.startswith("preorder_bca.")}
    readme = _readme_load_table()[command]
    assert loaded - _ALWAYS_LOADED == readme
    assert _ALWAYS_LOADED <= loaded


def _readme_tour() -> str:
    """The code block of README's "Library quick tour"."""
    section = (ROOT / "README.md").read_text().split("## Library quick tour\n")[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _says(comment: str, printed: str) -> bool:
    # "..." stands for elided text; what follows ": " explains the value
    return any(re.fullmatch(".*".join(map(re.escape, claim.split("..."))),
                            printed)
               for claim in (comment, comment.split(": ", 1)[0]))


def test_readme_quick_tour_prints_what_its_comments_say():
    tour = _readme_tour()
    comments = [line.split("#", 1)[1].strip() for line in tour.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(tour, {})
    printed = out.getvalue().splitlines()
    assert comments and len(printed) == len(comments)
    for comment, line in zip(comments, printed):
        assert _says(comment, line), (comment, line)


def test_every_public_name_resolves_and_is_listed():
    listed = dir(preorder_bca)
    assert len(set(preorder_bca.__all__)) == len(preorder_bca.__all__)
    for name in preorder_bca.__all__:
        assert getattr(preorder_bca, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        preorder_bca.no_such_name  # noqa: B018


def _pair():
    ground = GroundSet(("a", "b"))
    return ground, Preorder(ground, (3, 2))


def test_preorder_record_semantics():
    ground, p = _pair()
    assert Preorder(ground=ground, rows=[3, 2]) == p
    assert Preorder(ground, rows=(3, 2)) == p
    assert hash(Preorder(ground, (3, 2))) == hash(p) == hash((ground, (3, 2)))
    assert p != Preorder(ground, (3, 3))
    assert p != Relation(ground, (3, 2)) and Relation(ground, (3, 2)) != p
    assert repr(p) == "Preorder(ground=GroundSet(labels=('a', 'b')), rows=(3, 2))"
    with pytest.raises(ViolationError):
        Preorder(GroundSet(("a", "b", "c")), (3, 6, 4))
    with pytest.raises(TypeError):
        Preorder(ground)
    with pytest.raises(TypeError):
        Preorder(ground, (3, 2), rows=(3, 2))
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        p.rows = (3, 3)
    with pytest.raises(AttributeError, match="cannot delete field 'rows'"):
        del p.rows
    assert p.strict_up == (0, 1)  # lazy fields still work


def test_relation_document_record_semantics():
    doc = RelationDocument(labels=("a", "b"), pairs=((0, 1),))
    assert doc.reflexive_closure and doc.transitive_closure
    same = RelationDocument(("a", "b"), ((0, 1),), True, True)
    assert doc == same and hash(doc) == hash(same)
    assert doc != RelationDocument(("a", "b"), ((0, 1),), transitive_closure=False)
    assert repr(doc) == (
        "RelationDocument(labels=('a', 'b'), pairs=((0, 1),), "
        "reflexive_closure=True, transitive_closure=True)")
    # the schema is checked where it is read, in the JSON text
    with pytest.raises(DocumentError, match="unsupported schema: 'preorder-doc/2'"):
        parse_document('{"schema": "preorder-doc/2", "labels": ["a"], "pairs": []}')
    with pytest.raises(TypeError):
        RelationDocument(labels=("a",), pairs=(), schema="preorder-doc/1")
    with pytest.raises(TypeError):
        RelationDocument(labels=("a",), pairs=(), colour="red")
    with pytest.raises(AttributeError):
        doc.labels = ("c",)


def test_approximation_report_record_semantics():
    ground, p = _pair()
    total = to_total(p)
    report = ApproximationReport(bca_set=(total,), distance=3, index=12,
                                 method="duality")
    assert report.condition_star is None and report.complete_set is True
    weak = ConditionStarReport("weak", ())
    assert report == ApproximationReport((total,), 3, 12, "duality", None)
    assert report != ApproximationReport((total,), 3, 12, "duality", weak)
    assert len({report, ApproximationReport((total,), 3, 12, "duality")}) == 1
    # complete_set is derived: False only for theorem 5 under a weak verdict
    assert ApproximationReport((total,), 3, 12, "duality", weak).complete_set
    assert not ApproximationReport((total,), 3, 12, "theorem5", weak).complete_set
    assert repr(report) == (
        "ApproximationReport(bca_set=(TotalPreorder(ground=GroundSet("
        "labels=('a', 'b')), blocks=(1, 2)),), distance=3, index=12, "
        "method='duality', condition_star=None)")
    with pytest.raises(AttributeError):
        report.distance = 0
    with pytest.raises(TypeError):
        ApproximationReport((total,), 3, 12, "duality", complete_set=True)


def _record_samples():
    """One instance of every exported record class, lazy fields unread."""
    pb = preorder_bca
    ground = GroundSet(("a", "b", "c"))
    base = Preorder(ground, (0b111, 0b010, 0b110))
    return [
        ground,
        Relation(ground, (0b001, 0b011, 0b100)),
        base,
        pb.TotalPreorder(ground, (0b101, 0b010)),
        RelationDocument(("a", "b"), ((0, 1),)),
        pb.FamilySpec("fence", {"k": 4}),
        pb.verify_strict_optimality(base),
        pb.bca_auto(base),
        pb.bca_bruteforce(base),
        pb.condition_star(pb.FamilySpec("fence", {"k": 4}).build()),
        pb.ConditionStarWitness(1, 0b1, 0b100, 4, 4),
        pb.covering_radius(GroundSet(("a", "b"))),
    ]


# the lazy fields of each record class that has some
LAZY_FIELDS = {
    "Preorder": ("strict_up", "strict_down", "quotient"),
    "TotalPreorder": ("rows", "strict_up", "strict_down", "quotient"),
}


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # FamilySpec holds a dict
        return str(exc)


def test_record_samples_cover_every_exported_record_class():
    exported = {name for name in preorder_bca.__all__
                if isinstance(getattr(preorder_bca, name), type)
                and getattr(getattr(preorder_bca, name).__init__, "__module__", None)
                == "preorder_bca._record"}
    assert {type(x).__name__ for x in _record_samples()} == exported
    assert len(exported) == 11


def test_records_pickle_and_deep_copy_to_an_equal_value():
    for x in _record_samples():
        for name in LAZY_FIELDS.get(type(x).__name__, ()):
            getattr(x, name)  # a filled lazy slot is not part of the value
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(y) is type(x) and y is not x, repr(x)
            assert y == x, repr(x)
            assert _hash_or_error(y) == _hash_or_error(x), repr(x)
            assert repr(y) == repr(x)


def test_records_have_no_instance_dict():
    for x in _record_samples():
        assert not hasattr(x, "__dict__"), type(x).__name__
        with pytest.raises(TypeError):
            vars(x)


def test_lazy_fields_are_computed_once():
    for x in _record_samples():
        for name in LAZY_FIELDS.get(type(x).__name__, ()):
            assert getattr(x, name) is getattr(x, name), name
    p = _record_samples()[2]
    assert p.quotient is p.quotient
    assert p.strict_up is p.strict_up
    # a brute-force solve reads only strict_up: the other lazy fields stay empty
    q = Preorder(p.ground, p.rows)
    preorder_bca.bca_bruteforce(q)
    assert object.__getattribute__(q, "strict_up") == p.strict_up
    for name in ("strict_down", "quotient"):
        with pytest.raises(AttributeError):
            object.__getattribute__(q, name)
    with pytest.raises(AttributeError, match="no attribute 'quotients'"):
        p.quotients  # noqa: B018
