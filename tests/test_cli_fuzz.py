"""The CLI exit-code contract holds for every input: ``cli.main`` returns one
of 0, 2, 3, 4 and never raises, whatever the argument vector and whatever the
documents it names hold (arbitrary bytes, text, JSON values, or
document-shaped JSON with arbitrary field values).  Output keeps the format
asked for: a success under ``--emit json`` writes JSON, one under ``--emit
dot`` writes DOT, and a format the subcommand does not write is refused with
nothing on stdout."""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from preorder_bca import cli
from preorder_bca.families import FAMILIES

FIXTURES = sorted(str(p) for p in
                  (pathlib.Path(__file__).parent / "data" / "fixtures").glob("*.json"))

# --max-n stays at most 4: raising a guard is the caller insisting on an
# exponential sweep, which would only test patience.
MAX_N = st.integers(-2, 4).map(str)
SIZE = st.one_of(st.integers(-2, 9), st.sampled_from([64, 65])).map(str)
JUNK = st.text(min_size=1, max_size=6)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

# Labels may hold any code point, lone surrogates included (json.dumps
# escapes them, so the document text itself is still valid JSON).
LABEL = st.text(st.one_of(st.sampled_from("abxy"),
                          st.characters(exclude_categories=()),
                          st.characters(categories=["Cs"])), max_size=3)
INDEX = st.one_of(st.integers(-1, 7), st.booleans(), st.just(10**20))


@st.composite
def document_shaped(draw):
    """A well-formed document on 1..6 labels with up to two fields deleted
    or replaced by arbitrary JSON."""
    n = draw(st.integers(1, 6))
    doc = {
        "schema": "preorder-doc/1",
        "labels": draw(st.lists(LABEL, min_size=n, max_size=n, unique=True)),
        "pairs": draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                        max_size=2), max_size=2 * n)),
        "reflexive_closure": draw(st.booleans()),
        "transitive_closure": draw(st.booleans()),
    }
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2,
                             unique=True)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(st.one_of(
                JSON_VALUES, st.lists(st.lists(INDEX, max_size=3), max_size=3)))
    return doc


CONTENTS = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    document_shaped().map(lambda v: json.dumps(v).encode()),
)

GLOBAL_OPTIONS = st.lists(st.one_of(
    st.tuples(st.just("--emit"), st.sampled_from(["text", "json", "dot", "svg"])),
    st.tuples(st.just("--seed"), SIZE),
    st.tuples(st.just("--max-n"), MAX_N),
    st.just(("--unicode",)),
), max_size=3)

FAMILY_ARGUMENTS = [*FAMILIES, "random", "bogus"]

# subcommand -> (number of document arguments, strategies for its options)
COMMANDS = {
    "check": (1, [st.just(("--total",))]),
    "metric": (2, [st.tuples(st.just("--metric"), st.sampled_from(
        ["top-diff", "top-diff-direct", "ksb", "kendall"]))]),
    "bca": (1, [st.tuples(st.just("--method"), st.sampled_from(
        ["auto", "bruteforce", "duality", "theorem5", "exact"]))]),
    "index": (1, []),
    "canonical": (1, []),
    "condition-star": (1, []),
    "dot": (1, []),
    "generate": (0, [
        *(st.tuples(st.just(f"--{name}"), SIZE)
          for name in ("z", "k", "m", "n", "alphabet")),
        st.tuples(st.just("--density"),
                  st.sampled_from(["0", "0.3", "1", "-1", "2", "nan", "x"])),
        st.just(("--expected-bca",)),
    ]),
    "covering-radius": (0, [st.tuples(st.just("--n"), SIZE)]),
}


def test_every_subcommand_is_fuzzed():
    assert set(COMMANDS) == set(cli.COMMANDS)


def test_a_failing_property_reports_its_example(tmp_path):
    # under the project's pytest settings, which make warnings errors, a
    # failing property prints its falsifying example (exit 1), not an
    # INTERNALERROR from the plugin's report hook (exit 3)
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, settings, strategies as st\n\n\n"
                    "@settings(database=None, derandomize=True)\n"
                    "@given(st.integers())\n"
                    "def test_fails(x):\n"
                    "    assert x < 0\n")
    config = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config),
                          "-p", "no:cacheprovider", "-q", str(test)],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout


def requested(argv):
    """(subcommand, format) of ``argv``, or None when argparse refuses it or
    prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(argv)
    except SystemExit:
        return None
    return args.command, args.emit


@st.composite
def invocations(draw):
    """An argument vector plus the bytes of the documents it names."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    n_docs, options = COMMANDS[command]
    contents, argv = [], []
    for t in draw(GLOBAL_OPTIONS):
        argv += t
    argv.append(command)
    if command == "generate":
        argv.append(draw(st.sampled_from(FAMILY_ARGUMENTS)))
    for _ in range(n_docs):
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(FIXTURES)))
        else:
            contents.append(draw(CONTENTS))
            argv.append(len(contents) - 1)  # replaced by a file path
    if options:
        for t in draw(st.lists(st.one_of(options), max_size=4)):
            argv += t
    if draw(st.integers(0, 9)) == 0:  # now and then, a stray or missing token
        tokens = draw(st.lists(st.one_of(JUNK, st.sampled_from(FIXTURES)),
                               max_size=2))
        argv = argv[:draw(st.integers(0, len(argv)))] + tokens
    return argv, contents


@pytest.fixture(scope="module")
def docdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=5000)
@given(invocations())
def test_cli_main_returns_a_contract_exit_code(docdir, invocation):
    argv, contents = invocation
    for i, data in enumerate(contents):
        (docdir / f"doc{i}.json").write_bytes(data)
    argv = [str(docdir / f"doc{t}.json") if isinstance(t, int) else t
            for t in argv]
    # strict UTF-8 streams, as a process writing to a pipe has
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
        out.flush()
        err.flush()
    finally:
        sys.stdout, sys.stderr = saved
    assert code in (0, 2, 3, 4), (argv, code)
    out, err = out.buffer.getvalue(), err.buffer.getvalue()
    if code in (3, 4):
        assert err.startswith(b"error:" if code == 3 else b"guard:")
    pair = requested(argv)
    if pair is None:
        return
    command, emit = pair
    if emit not in cli.COMMANDS[command][2]:
        assert (code, out) == (2, b""), argv
        assert err.startswith(f"error: {command} writes ".encode()), err
    elif code == 0 and emit == "json":
        json.loads(out)
    elif code == 0 and emit == "dot":
        assert out.startswith(b"digraph"), out
