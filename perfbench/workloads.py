"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` and lays its
operations out in round patterns (each holds the whole mix once, shuffled).
The harness runs the patterns in turn, so every operation of a pattern runs
again every ``len(patterns)`` rounds.  In-process operations get a freshly
renamed copy of their input each time (``prepare``): the same order with its
elements permuted, which costs the same to solve but is a different value, so
no cache in the package can answer a repeat.  Every answer is checked
afterwards by a route that does not share the code being timed.  Operations
reach the package only through names exported by ``preorder_bca`` or through
the ``preorder-bca`` command line, looked up at call time so that the tracer
can wrap them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference as ref

PACKAGE = "preorder_bca"


def fresh_import(name: str, *extra: str):
    """Import ``name`` from scratch, dropping every cached package module
    (and the ``extra`` helper modules) first, so each set-up pays the
    import again."""
    for mod in list(sys.modules):
        if mod == PACKAGE or mod.startswith(PACKAGE + ".") or mod in extra:
            del sys.modules[mod]
    return importlib.import_module(name)


@dataclass(frozen=True)
class Op:
    """One operation: a public function name (or CLI argv) and the key of
    its input."""

    call: str | tuple[str, ...]
    input: str


@dataclass(frozen=True)
class Variant:
    """What one execution of an operation is given: the call's arguments,
    and the renaming applied to the input (None if it was not renamed)."""

    args: tuple
    perm: tuple[int, ...] | None = None


class Workload:
    name = ""
    in_process = True  # False: each operation is a fresh process

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.pb = None
        self.inputs: dict[str, object] = {}
        self._refs: dict[str, object] = {}

    def setup(self) -> float:
        """Import the package and build the inputs; return the milliseconds
        spent building order families."""
        raise NotImplementedError

    def rounds(self) -> list[list[Op]]:
        """The round patterns."""
        return self._rounds

    def prepare(self, op: Op, instance: str, execution: int) -> Variant:
        """The input of one execution: the op's preorder with its elements
        renamed by a permutation drawn from the seed, the instance and the
        execution number."""
        p = self.inputs[op.input]
        rng = random.Random(f"{self.seed}:{instance}:{execution}")
        perm = rng.sample(range(p.n), p.n)
        renamed = self.pb.validate_preorder(
            self.pb.Relation(p.ground, ref.permute_rows(p.rows, perm)))
        return Variant((renamed,), tuple(perm))

    def execute(self, op: Op, variant: Variant, in_process: bool):
        return getattr(self.pb, op.call)(*variant.args)

    def check(self, op: Op, variant: Variant, result) -> str | None:
        """None when the answer is right, else what is wrong."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def trace_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def _reference(self, key: str, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _preorder(self, rows):
        pb = self.pb
        ground = pb.GroundSet(tuple(f"x{i}" for i in range(1, len(rows) + 1)))
        return pb.validate_preorder(pb.Relation(ground, tuple(rows)))


def _bca_error(report, want_blocks: set, want_distance: int) -> str | None:
    got = {c.blocks for c in report.bca_set}
    if got != want_blocks:
        return f"bca set {sorted(got)} != {sorted(want_blocks)}"
    if report.distance != want_distance:
        return f"distance {report.distance} != {want_distance}"
    return None


def _star_error(verdict: str, want, canonical: tuple, blocks: set) -> str | None:
    """The verdict must match the benchmark's own reading of condition (*),
    and agree with theorem 5: a strict verdict makes the canonical completion
    the unique answer, a weak one makes it a member."""
    if verdict != want.verdict:
        return f"condition (*) verdict {verdict!r}, expected {want.verdict!r}"
    if verdict == "strict" and blocks != {canonical}:
        return "strict verdict, but the canonical completion is not the answer"
    if verdict == "weak" and canonical not in blocks:
        return "weak verdict, but the canonical completion is not in the answer"
    return None


class _ReferenceBca:
    """Known answer for one input: the tie set as block tuples, its distance
    and its index."""

    def __init__(self, rows, blocks: set):
        self.rows = tuple(rows)
        self.blocks = blocks
        member = next(iter(blocks))
        self.distance = ref.distance(self.rows, ref.rows_of_blocks(len(rows), member))
        self.index = ref.index_of_blocks(member)
        self.canonical = ref.canonical_blocks(self.rows)

    @functools.cached_property
    def verdict(self) -> str:
        return ref.star_verdict(self.rows)

    def renamed(self, perm) -> tuple[set, tuple]:
        """Tie set and canonical blocks of the input renamed by ``perm``."""
        if perm is None:
            return self.blocks, self.canonical
        rename = lambda blocks: tuple(ref.permute_mask(b, perm) for b in blocks)
        return {rename(b) for b in self.blocks}, rename(self.canonical)


def _check_solver(op: Op, variant: Variant, result, want: _ReferenceBca) -> str | None:
    """Check a solver, condition (*) or index answer on a renamed input."""
    blocks, canonical = want.renamed(variant.perm)
    if op.call == "index_general":
        return None if result == want.index else f"index {result} != {want.index}"
    if op.call == "condition_star":
        return _star_error(result.verdict, want, canonical, blocks)
    return _bca_error(result, blocks, want.distance)


# -- sweep -------------------------------------------------------------------

# The latency mix of one round (80 ops), with the pure-Python kernels:
# n = 4 (0.2 ms) is the first 37.5%; n = 5 (1 ms) spans 37.5-62.5% and holds
# p50; covering_radius(3) (1.6 ms) and n = 6 (5 ms) follow; n = 7 and
# covering_radius(4) (50-60 ms) span 85-96% and hold p90; the three n = 8
# scans (a random order, fence and crown, 0.6 s each) are the top 4%.  Each
# quantile sits inside a run of calls of one kind, not between two kinds.
SWEEP_RANDOM = {4: 30, 5: 20, 6: 8, 7: 6, 8: 1}
SWEEP_COVERING = {3: 10, 4: 3}
SWEEP_FAMILIES = (("fence", {"k": 8}), ("crown", {"k": 8}))
SWEEP_DENSITIES = (0.1, 0.2, 0.3)
# Checking a random input streams its completions; the cap bounds that cost.
SWEEP_MAX_COMPLETIONS = 20_000
SWEEP_PATTERNS = 4
# Frozen covering radii (acceptance criterion 9).
COVERING_RADIUS = {3: 1, 4: 4}


class SweepWorkload(Workload):
    """In-process brute-force scans (``bca_bruteforce``) on random preorders
    and two n = 8 families, plus ``covering_radius`` for n = 3, 4."""

    name = "sweep"

    def setup(self) -> float:
        self.pb = pb = fresh_import(PACKAGE)
        t0 = perf_counter()
        self.families = {f"{kind}{params['k']}": pb.FamilySpec(kind, params)
                         for kind, params in SWEEP_FAMILIES}
        self.inputs = {key: spec.build() for key, spec in self.families.items()}
        build_ms = (perf_counter() - t0) * 1000
        rng = random.Random(f"sweep:{self.seed}")
        self._rounds = []
        for r in range(SWEEP_PATTERNS):
            ops = []
            for n, count in SWEEP_RANDOM.items():
                for c in range(count):
                    key = f"random{n}.{r}.{c}"
                    self.inputs[key] = self._preorder(ref.sample_rows(
                        rng, n, SWEEP_DENSITIES, False, 1, SWEEP_MAX_COMPLETIONS))
                    ops.append(Op("bca_bruteforce", key))
            ops += [Op("bca_bruteforce", key) for key in self.families]
            for n, count in SWEEP_COVERING.items():
                ops += [Op("covering_radius", f"covering{n}")] * count
            self._rounds.append(rng.sample(ops, len(ops)))
        return build_ms

    def prepare(self, op, instance, execution):
        if op.call != "covering_radius":
            return super().prepare(op, instance, execution)
        # a ground set with labels of its own, so that no repeat is cached
        n = int(op.input.removeprefix("covering"))
        labels = tuple(f"x{i}.{instance}.{execution}" for i in range(1, n + 1))
        return Variant((self.pb.GroundSet(labels),))

    def check(self, op, variant, result):
        if op.call == "covering_radius":
            n = variant.args[0].n
            if result.radius != COVERING_RADIUS[n]:
                return f"covering radius {result.radius} != {COVERING_RADIUS[n]}"
            attained = self.pb.bca_duality(result.witness).distance
            if attained != result.radius:
                return f"witness is at distance {attained}, not {result.radius}"
            return None
        want = self._reference(op.input, lambda: self._sweep_reference(op.input))
        return _check_solver(op, variant, result, want)

    def _sweep_reference(self, key):
        p = self.inputs[key]
        if key in self.families:
            return _ReferenceBca(p.rows, {self.families[key].expected_bca().blocks})
        dual = self.pb.bca_duality(p)
        return _ReferenceBca(p.rows, {c.blocks for c in dual.bca_set})


# -- families ------------------------------------------------------------------

# (kind, params, {public function: repeats per round}).  The closed-form
# families run the theorem-5 route; duality and the index run only where the
# order has at most 9 classes, so that no brute-force sweep is reached.
# Repeats set the latency mix of a round (98 ops): the 2-4 ms duality and
# index calls on the small families hold p50; duality and the index on
# fence(8) and crown(8) and condition (*) on fence(14), 60-140 ms, span about
# 80-98% of the ops and hold p90; condition (*) on fence(16), about 0.7 s, is
# the top 2%.  Spreading a quantile over calls of different cost keeps it
# from jumping when the machine slows down for part of a run.
FULL = {"bca_auto": 1, "condition_star": 1, "bca_duality": 1, "index_general": 1}
STAR = {"bca_auto": 1, "condition_star": 1}
QUANTILE = {"bca_auto": 1, "condition_star": 1, "bca_duality": 3, "index_general": 3}
STAR3 = {"bca_auto": 3, "condition_star": 3}
FAMILY_OPS = [
    ("containment", {"z": 3}, QUANTILE),
    ("containment", {"z": 4}, STAR),
    ("refinement", {"z": 3}, FULL),
    ("refinement", {"z": 4}, STAR),
    ("word_prefix", {"alphabet": 2, "k": 2}, QUANTILE),
    ("word_prefix", {"alphabet": 2, "k": 3}, STAR),
    ("word_prefix", {"alphabet": 3, "k": 2}, STAR),
    ("coordinatewise", {"m": 3}, QUANTILE),
    ("coordinatewise", {"m": 4}, STAR),
    ("fence", {"k": 8}, QUANTILE),
    ("crown", {"k": 8}, QUANTILE),
    *((kind, {"k": k}, STAR3 if (kind, k) == ("fence", 14) else STAR)
      for kind in ("fence", "crown") for k in (10, 12, 14, 16)),
]
# Random partial orders: (n, count, completion band).  The band keeps each
# size at a similar duality cost; checking them runs the brute-force sweep.
FAMILY_RANDOM = ((7, 2, 600, 1000), (8, 3, 1500, 2500), (9, 1, 2000, 3000))
FAMILY_DENSITIES = (0.3, 0.4, 0.5)
FAMILY_PATTERNS = 2


def _family_key(kind: str, params: dict) -> str:
    return kind + "".join(f"_{k}{v}" for k, v in sorted(params.items()))


class FamiliesWorkload(Workload):
    """In-process ``bca_auto``, ``bca_duality``, ``condition_star`` and
    ``index_general`` on the closed-form families and on random partial
    orders with n = 7..9.

    Not in the ``BENCHMARK.json`` list: on a 2-vCPU KVM guest its 10-run
    spread stayed above the 0.25 bounds at the 30-s runs that three listed
    workloads leave room for.  Run it by name to measure condition (*),
    duality and the index end to end."""

    name = "families"

    def setup(self) -> float:
        self.pb = pb = fresh_import(PACKAGE)
        t0 = perf_counter()
        self.specs = {}
        self.inputs = {}
        for kind, params, _ in FAMILY_OPS:
            key = _family_key(kind, params)
            self.specs[key] = pb.FamilySpec(kind, params)
            self.inputs[key] = self.specs[key].build()
        build_ms = (perf_counter() - t0) * 1000
        rng = random.Random(f"families:{self.seed}")
        for n, count, low, high in FAMILY_RANDOM:
            for c in range(count):
                rows = ref.sample_rows(rng, n, FAMILY_DENSITIES, True, low, high)
                self.inputs[f"random{n}.{c}"] = self._preorder(rows)
        ops = []
        for kind, params, calls in FAMILY_OPS:
            key = _family_key(kind, params)
            for call, repeats in calls.items():
                ops += [Op(call, key)] * repeats
        for key in self.inputs:
            if key.startswith("random"):
                ops += [Op(call, key) for call in FULL]
        self._rounds = [rng.sample(ops, len(ops)) for _ in range(FAMILY_PATTERNS)]
        return build_ms

    def check(self, op, variant, result):
        want = self._reference(op.input, lambda: self._family_reference(op.input))
        return _check_solver(op, variant, result, want)

    def _family_reference(self, key: str):
        p = self.inputs[key]
        if key in self.specs:
            return _ReferenceBca(p.rows, {self.specs[key].expected_bca().blocks})
        brute = self.pb.bca_bruteforce(p)
        return _ReferenceBca(p.rows, {c.blocks for c in brute.bca_set})


# -- cli -----------------------------------------------------------------------

CLI_FIXTURES = ("ex4_base", "ex6_crown", "ex7_k3", "ex8_base")
CLI_GENERATED = (6, 7, 8)
CLI_DENSITIES = (0.1, 0.2, 0.3)
CLI_MAX_COMPLETIONS = 3000
CONTROL_SPAWNS = 15
CLI_PATTERNS = 2


def _rows_from_document(payload: dict) -> tuple[int, ...]:
    """Relation of a preorder-doc/1 payload, closures applied by hand."""
    n = len(payload["labels"])
    rows = [0] * n
    for i, j in payload["pairs"]:
        rows[i] |= 1 << j
    if payload.get("reflexive_closure"):
        rows = [r | (1 << i) for i, r in enumerate(rows)]
    if payload.get("transitive_closure"):
        rows = list(ref.closure(rows))
    return tuple(rows)


class CliWorkload(Workload):
    """Fresh ``python -m preorder_bca.cli`` processes, timed from spawn to
    exit: the golden commands, six subcommands on fixtures and generated
    documents, and the three error exits."""

    name = "cli"
    in_process = False

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.tests = root / "tests"
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def setup(self) -> float:
        sys.path.insert(0, str(self.tests))
        try:
            goldens = fresh_import("regen_goldens", "regen_goldens",
                                   "worked_examples").GOLDEN_COMMANDS
        finally:
            sys.path.remove(str(self.tests))
        self.cli = sys.modules[PACKAGE + ".cli"]
        self.pb = sys.modules[PACKAGE]
        fixtures = self.tests / "data" / "fixtures"
        golden_dir = self.tests / "data" / "golden"
        self.expected = {}
        docs = {}
        for name in CLI_FIXTURES:
            path = fixtures / f"{name}.json"
            payload = json.loads(path.read_text())
            docs[name] = (path, _rows_from_document(payload), tuple(payload["labels"]))
        rng = random.Random(f"cli:{self.seed}")
        for n in CLI_GENERATED:
            rows = ref.sample_rows(rng, n, CLI_DENSITIES, False,
                                   1, CLI_MAX_COMPLETIONS)
            labels = tuple(f"x{i}" for i in range(1, n + 1))
            path = self.tmp / f"random{n}.json"
            path.write_text(self._document(labels, rows))
            docs[f"random{n}"] = (path, rows, labels)
        ops = []
        for name, argv in goldens.items():
            ops.append(Op(tuple(argv), f"golden:{name}"))
            self.expected[f"golden:{name}"] = (golden_dir / name).read_bytes()
        self.docs = {}
        for name, (path, rows, labels) in docs.items():
            canon_path = self.tmp / f"{name}.canonical.json"
            canon_path.write_text(self._document(labels, ref.rows_of_blocks(
                len(rows), ref.canonical_blocks(rows))))
            self.docs[name] = rows
            for sub, argv in (
                    ("check", ("check", str(path))),
                    ("bca", ("--emit", "json", "bca", str(path))),
                    ("condition-star", ("condition-star", str(path))),
                    ("index", ("index", str(path))),
                    ("canonical", ("--emit", "json", "canonical", str(path))),
                    ("metric", ("metric", str(path), str(canon_path)))):
                ops.append(Op(argv, f"{sub}:{name}"))
        malformed = self.tmp / "malformed.json"
        malformed.write_text("{ not json")
        ops += [
            Op(("check", str(fixtures / "broken_transitivity.json")), "exit:2"),
            Op(("check", str(malformed)), "exit:3"),
            Op(("--max-n", "4", "bca", "--method", "bruteforce",
                str(fixtures / "ex1_base.json")), "exit:4"),
        ]
        self._rounds = [rng.sample(ops, len(ops)) for _ in range(CLI_PATTERNS)]
        return 0.0

    def _document(self, labels, rows) -> str:
        pb = self.pb
        relation = pb.Relation(pb.GroundSet(labels), tuple(rows))
        return pb.document_to_json(pb.document_from_relation(relation))

    def warm_up(self) -> None:
        # the first process compiles the bytecode cache; users pay that once
        self._spawn(["-m", PACKAGE + ".cli", "--help"])

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=120)

    def prepare(self, op, instance, execution):
        # a fresh process caches nothing, so the command stays as it is
        return Variant(op.call)

    def execute(self, op, variant, in_process):
        if not in_process:
            proc = self._spawn(["-m", PACKAGE + ".cli", *variant.args])
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(variant.args))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, op, variant, result):
        code, out, err = result
        kind, _, name = op.input.partition(":")
        if kind == "exit":
            want = int(name)
            marker = {2: (out, b"violation:"), 3: (err, b"error:"), 4: (err, b"guard:")}
            stream, prefix = marker[want]
            if code != want or not stream.startswith(prefix):
                return f"exit {code} {out[:80]!r} {err[:80]!r}, want exit {want}"
            return None
        if code != 0:
            return f"exit {code}: {err[:200]!r}"
        if kind == "golden":
            return None if out == self.expected[op.input] else "output differs from golden"
        rows = self.docs[name]
        text = out.decode()
        if kind == "check":
            want = f"ok: preorder on {len(rows)} elements\n"
            return None if text == want else f"check printed {text!r}"
        if kind == "canonical":
            got = _rows_from_document(json.loads(text))
            want = ref.rows_of_blocks(len(rows), ref.canonical_blocks(rows))
            return None if got == want else "canonical completion differs"
        if kind == "metric":
            want = ref.distance(rows, ref.rows_of_blocks(
                len(rows), ref.canonical_blocks(rows)))
            return None if int(text) == want else f"metric {text.strip()} != {want}"
        want = self._reference(name, lambda: self._cli_reference(rows))
        if kind == "index":
            return None if int(text) == want.index else f"index {text.strip()} != {want.index}"
        if kind == "condition-star":
            verdict = text.splitlines()[0].removeprefix("verdict: ")
            return _star_error(verdict, want, want.canonical, want.blocks)
        payload = json.loads(text)
        got = {_rows_from_document(c) for c in payload["candidates"]}
        want_rows = {ref.rows_of_blocks(len(rows), b) for b in want.blocks}
        if got != want_rows:
            return "bca candidates differ"
        if payload["distance"] != want.distance:
            return f"distance {payload['distance']} != {want.distance}"
        return None

    def _cli_reference(self, rows):
        brute = self.pb.bca_bruteforce(self._preorder(rows))
        return _ReferenceBca(rows, {c.blocks for c in brute.bca_set})

    def trace_extras(self):
        bare, imported = [], []
        for _ in range(CONTROL_SPAWNS):
            for args, into in ((["-c", "pass"], bare),
                               (["-c", f"import {PACKAGE}.cli"], imported)):
                t0 = perf_counter()
                proc = self._spawn(args)
                into.append((perf_counter() - t0) * 1000)
                if proc.returncode != 0:
                    raise RuntimeError(f"control process {args} exited "
                                       f"{proc.returncode}: {proc.stderr[:200]!r}")
        interpreter = statistics.median(bare)
        return {"cli.interpreter_ms": interpreter,
                "cli.import_ms": statistics.median(imported) - interpreter}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliWorkload, SweepWorkload, FamiliesWorkload)}
