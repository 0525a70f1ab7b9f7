"""Command-line front end.

Subcommands wrap the library operations one-for-one:

  check, metric, bca, index, canonical, condition-star, generate, dot,
  covering-radius

Exit codes are a stable contract: 0 success, 2 semantic error (violations,
mismatched labels, bad parameters), 3 I/O or parse error, 4 feasibility
guard.  Output is deterministic UTF-8: labels pass through unchanged, and
--unicode selects relation glyphs.
No color is ever emitted, so NO_COLOR is honored trivially.

Each command imports the solver-side modules it calls when it runs, so a
process loads only what its subcommand needs: ``check`` and ``dot`` stop at
documents and core, ``canonical`` adds completions.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    MAX_GROUND,
    GroundSet,
    Preorder,
    incomparable_witness,
    transitive_closure_rows,
)
from .documents import (
    RelationDocument,
    document_from_relation,
    document_payload,
    document_to_json,
    document_to_preorder,
    parse_document,
    render_dot,
)
from .errors import (BadParameter, DocumentError, PreorderBcaError, TooLarge,
                     ViolationError)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .solver import ApproximationReport

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_IO = 3
EXIT_GUARD = 4

# The parameter flags of ``generate``; each family takes the ones its kind
# names in ``families.FAMILIES``.
_FAMILY_FLAGS = ("z", "k", "m", "n", "alphabet")


def _read_document(path: str) -> RelationDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_document(text)


def _load_preorder(path: str) -> Preorder:
    return document_to_preorder(_read_document(path))


def _strict_sep(args) -> str:
    return " ≻ " if args.unicode else " > "


def _ground_size(n: int) -> int:
    if not 1 <= n <= MAX_GROUND:
        raise BadParameter(f"--n must be in 1..{MAX_GROUND}, got {n}")
    return n


def _render_report(report: ApproximationReport, args, verdict: str | None) -> str:
    lines = [f"method: {report.method}", f"distance: {report.distance}"]
    if verdict is not None:
        lines.insert(0, f"condition-star: {verdict}")
    if not report.complete_set:
        lines.append("note: canonical completion is a member; the tie set "
                      "may be larger")
    lines.append("candidates:")
    for cand in report.bca_set:
        lines.append(f"  {cand.render(_strict_sep(args))}  (index {report.index})")
    return "\n".join(lines) + "\n"


def _report_json(report: ApproximationReport, verdict: str | None) -> str:
    payload = {
        "schema": "bca-report/1",
        "method": report.method,
        "distance": report.distance,
        "complete_set": report.complete_set,
        "condition_star": verdict,
        "indices": [str(report.index)] * len(report.bca_set),
        "candidates": [
            document_payload(document_from_relation(c)) for c in report.bca_set
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_check(args) -> int:
    try:
        preorder = document_to_preorder(_read_document(args.file))
    except ViolationError as exc:
        for w in exc.witnesses:
            print("violation:", " ".join(str(t) for t in w))
        return EXIT_SEMANTIC
    if args.total:
        pair = incomparable_witness(preorder)
        if pair is not None:
            i, j = pair
            print(f"not total: {preorder.ground.labels[i]} and "
                  f"{preorder.ground.labels[j]} are incomparable")
            return EXIT_SEMANTIC
    print(f"ok: preorder on {preorder.n} elements")
    return EXIT_OK


def cmd_metric(args) -> int:
    from .metrics import ksb_distance, top_difference_direct, top_difference_fast

    p = _load_preorder(args.file_a)
    q = _load_preorder(args.file_b)
    if args.metric == "top-diff":
        value = top_difference_fast(p, q)
    elif args.metric == "top-diff-direct":
        value = top_difference_direct(p, q, max_n=args.max_n)
    else:
        value = ksb_distance(p, q)
    print(value)
    return EXIT_OK


def cmd_bca(args) -> int:
    from .solver import bca_auto, bca_bruteforce, bca_duality, bca_theorem5

    base = _load_preorder(args.file)
    if args.method == "auto":
        report = bca_auto(base)
    elif args.method == "bruteforce":
        report = bca_bruteforce(base, max_n=args.max_n)
    elif args.method == "duality":
        report = bca_duality(base, max_classes=args.max_n)
    else:
        report = bca_theorem5(base, max_layer=args.max_n)
        if report is None:
            print("not applicable: condition (*) fails for this relation")
            return EXIT_SEMANTIC
    star = report.condition_star
    verdict = None if star is None else star.verdict
    if args.emit == "json":
        sys.stdout.write(_report_json(report, verdict))
    elif args.emit == "dot":
        parts = [
            render_dot(c, name=f"bca{i}")
            for i, c in enumerate(report.bca_set)
        ]
        sys.stdout.write("".join(parts))
    else:
        sys.stdout.write(_render_report(report, args, verdict))
    return EXIT_OK


def cmd_index(args) -> int:
    from .scoring import index_general

    base = _load_preorder(args.file)
    print(index_general(base, max_classes=args.max_n))
    return EXIT_OK


def cmd_canonical(args) -> int:
    from .completions import canonical_completion

    base = _load_preorder(args.file)
    total = canonical_completion(base)
    if args.emit == "json":
        sys.stdout.write(document_to_json(document_from_relation(total)))
    elif args.emit == "dot":
        sys.stdout.write(render_dot(total, name="canonical"))
    else:
        print(total.render(_strict_sep(args)))
    return EXIT_OK


def cmd_condition_star(args) -> int:
    from .solver import condition_star

    base = _load_preorder(args.file)
    report = condition_star(base, max_layer=args.max_n)
    print(f"verdict: {report.verdict}")
    if report.witnesses:
        w = report.witnesses[0]
        labels = base.ground.label_set
        print(f"witness: layer {w.layer}, S={{{','.join(labels(w.subset))}}}, "
              f"Y={{{','.join(labels(w.below))}}}, index {w.index_value}, "
              f"bound {w.bound}")
    return EXIT_OK


def _random_preorder(n: int, density: float, seed: int) -> Preorder:
    import random

    rng = random.Random(seed)
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    labels = tuple(f"x{i}" for i in range(1, n + 1))
    return Preorder(GroundSet(labels), tuple(transitive_closure_rows(rows)))


def cmd_generate(args) -> int:
    params = {name: getattr(args, name) for name in _FAMILY_FLAGS
              if getattr(args, name) is not None}
    if args.family == "random":
        extra = [f"--{name}" for name in params if name != "n"]
        if extra or args.n is None:
            raise BadParameter("random family takes --n and --density, got "
                               f"{', '.join(extra) or 'no --n'}")
        _ground_size(args.n)
        density = 0.3 if args.density is None else args.density
        if not 0 <= density <= 1:
            raise BadParameter(f"--density must be in [0, 1], got {density}")
        if args.expected_bca:
            raise BadParameter("random family has no closed-form best "
                               "approximation; drop --expected-bca")
        built = _random_preorder(args.n, density, args.seed)
    else:
        from .families import FamilySpec

        spec = FamilySpec(args.family, params)
        if args.density is not None:
            raise BadParameter(f"--density is for the random family, not {args.family}")
        built = spec.build()
    if args.emit == "dot":
        if args.expected_bca:
            raise BadParameter("--emit dot draws the family only; drop --expected-bca")
        sys.stdout.write(render_dot(built, name=args.family))
        return EXIT_OK
    doc = document_from_relation(built)
    if args.expected_bca:
        payload = {
            "schema": "family-pair/1",
            "family": document_payload(doc),
            "expected_bca": document_payload(
                document_from_relation(spec.expected_bca())),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(document_to_json(doc))
    return EXIT_OK


def cmd_dot(args) -> int:
    base = _load_preorder(args.file)
    sys.stdout.write(render_dot(base))
    return EXIT_OK


def cmd_covering_radius(args) -> int:
    from .solver import covering_radius

    if args.emit == "dot":
        raise BadParameter("covering-radius has no diagram to draw: use text or json")
    n = _ground_size(args.n)
    ground = GroundSet(tuple(f"x{i}" for i in range(1, n + 1)))
    report = covering_radius(ground, max_n=args.max_n)
    if args.emit == "json":
        payload = {
            "schema": "covering-radius/1",
            "n": args.n,
            "radius": report.radius,
            "witness": document_payload(document_from_relation(report.witness)),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        print(f"radius: {report.radius}")
        print("witness:")
        sys.stdout.write(document_to_json(document_from_relation(report.witness)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preorder-bca",
        description="Best complete approximations of finite preorders under "
                    "the top-difference semimetric.",
    )
    parser.add_argument("--emit", choices=["text", "json", "dot"],
                        default="text", help="output format where supported")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized fixtures (generate random)")
    parser.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="override the feasibility guard of the wrapped "
                             "operation")
    parser.add_argument("--unicode", action="store_true",
                        help="use relation glyphs in text output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a relation document")
    p.add_argument("file")
    p.add_argument("--total", action="store_true",
                   help="additionally require totality")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("metric", help="distance between two documents")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", choices=["top-diff", "top-diff-direct", "ksb"],
                   default="top-diff")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("bca", help="best complete approximations")
    p.add_argument("file")
    p.add_argument("--method",
                   choices=["auto", "bruteforce", "duality", "theorem5"],
                   default="auto")
    p.set_defaults(func=cmd_bca)

    p = sub.add_parser("index", help="index of a preorder")
    p.add_argument("file")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("canonical", help="canonical completion")
    p.add_argument("file")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("condition-star", help="layer condition verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_condition_star)

    p = sub.add_parser("generate", help="emit a family document")
    p.add_argument("family",
                   help="a family kind (an unknown one lists them), or random")
    for name in _FAMILY_FLAGS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--density", type=float,
                   help="edge density for the random family (default 0.3)")
    p.add_argument("--expected-bca", action="store_true", dest="expected_bca",
                   help="also emit the closed-form best approximation")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dot", help="Hasse diagram as Graphviz DOT")
    p.add_argument("file")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("covering-radius", help="covering radius sweep")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_covering_radius)

    return parser


def main(argv=None) -> int:
    # labels and --unicode glyphs are written as UTF-8 whatever the locale;
    # a stream without ``reconfigure`` (an io.StringIO) is left as it is
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (OSError, DocumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TooLarge as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PreorderBcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
