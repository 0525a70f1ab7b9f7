"""Command-line front end.

Subcommands wrap the library operations one-for-one.  ``COMMANDS`` declares
each once: its help text, the command, which returns its value, and the
``--emit`` formats it writes with the text of each.

Exit codes are a stable contract: 0 success, 2 semantic error (violations,
mismatched labels, bad parameters), 3 I/O or parse error, 4 feasibility
guard.  Output is deterministic UTF-8: labels pass through unchanged, and
--unicode selects relation glyphs.
No color is ever emitted, so NO_COLOR is honored trivially.

Each command imports the solver-side modules it calls when it runs, so a
process loads only what its subcommand needs: ``check``, ``dot`` and
``canonical`` stop at documents and core.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    MAX_GROUND,
    GroundSet,
    Preorder,
    TotalPreorder,
    canonical_completion,
    class_label,
    incomparable_witness,
    transitive_closure_rows,
)
from .documents import (
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
    from .solver import (ApproximationReport, ConditionStarReport,
                         CoveringRadiusReport)

EXIT_OK = 0
EXIT_SEMANTIC = 2
EXIT_IO = 3
EXIT_GUARD = 4

# The parameter flags of ``generate``; each family takes the ones its kind
# names in ``families.FAMILIES``.
_FAMILY_FLAGS = ("z", "k", "m", "n", "alphabet")

# The routes that read each global flag; ``main`` refuses the flag on any
# other route before the command runs.
_READ_BY = {
    "--max-n": ("metric --metric top-diff-direct", "bca --method bruteforce",
                "bca --method duality", "index", "covering-radius"),
    "--seed": ("generate random",),
}


def _load_preorder(path: str) -> Preorder:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    return document_to_preorder(parse_document(text))


def _strict_sep(args) -> str:
    return " ≻ " if args.unicode else " > "


def _numbered_ground(n: int) -> GroundSet:
    """The ground set x1..xn that ``--n`` asks for."""
    if not 1 <= n <= MAX_GROUND:
        raise BadParameter(f"--n must be in 1..{MAX_GROUND}, got {n}")
    return GroundSet(tuple(f"x{i}" for i in range(1, n + 1)))


def _payload(relation) -> dict:
    return document_payload(document_from_relation(relation))


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _report_text(report: ApproximationReport, args) -> str:
    star = report.condition_star
    lines = [f"method: {report.method}", f"distance: {report.distance}"]
    if star is not None:
        lines.insert(0, f"condition-star: {star.verdict}")
    if not report.complete_set:
        lines.append("note: canonical completion is a member; the tie set "
                      "may be larger")
    lines.append("candidates:")
    for cand in report.bca_set:
        lines.append(f"  {cand.render(_strict_sep(args))}  (index {report.index})")
    return "\n".join(lines) + "\n"


def _report_json(report: ApproximationReport, args) -> str:
    star = report.condition_star
    return _json({
        "schema": "bca-report/1",
        "method": report.method,
        "distance": report.distance,
        "complete_set": report.complete_set,
        "condition_star": None if star is None else star.verdict,
        "indices": [str(report.index)] * len(report.bca_set),
        "candidates": [_payload(c) for c in report.bca_set],
    })


def _refuse_unread_flags(args) -> None:
    """Refuse ``--max-n`` or ``--seed`` on a route that would drop it."""
    route = args.command
    if route == "metric":
        route += f" --metric {args.metric}"
    elif route == "bca":
        route += f" --method {args.method}"
    elif route == "generate":
        route += f" {args.family}"
    for flag, value in (("--max-n", args.max_n), ("--seed", args.seed)):
        if value is not None and route not in _READ_BY[flag]:
            raise BadParameter(f"{route} does not read {flag}")


class _Rejected(Exception):
    """A failed check of a well-formed input: its reason goes to stdout, exit 2."""


def cmd_check(args) -> Preorder:
    try:
        preorder = _load_preorder(args.file)
    except ViolationError as exc:
        raise _Rejected("".join(f"violation: {' '.join(str(t) for t in w)}\n"
                                for w in exc.witnesses)) from None
    if args.total and (pair := incomparable_witness(preorder)) is not None:
        i, j = pair
        raise _Rejected(f"not total: {preorder.ground.labels[i]} and "
                        f"{preorder.ground.labels[j]} are incomparable\n")
    return preorder


def cmd_metric(args) -> int:
    from .metrics import ksb_distance, top_difference_direct, top_difference_fast

    p = _load_preorder(args.file_a)
    q = _load_preorder(args.file_b)
    if args.metric == "top-diff":
        return top_difference_fast(p, q)
    if args.metric == "top-diff-direct":
        return top_difference_direct(p, q, max_n=args.max_n)
    return ksb_distance(p, q)


def cmd_bca(args) -> ApproximationReport:
    from .solver import bca_auto, bca_bruteforce, bca_duality, bca_theorem5

    base = _load_preorder(args.file)
    if args.method == "auto":
        return bca_auto(base)
    if args.method == "bruteforce":
        return bca_bruteforce(base, max_n=args.max_n)
    if args.method == "duality":
        return bca_duality(base, max_classes=args.max_n)
    report = bca_theorem5(base)
    if report is None:
        raise _Rejected("not applicable: condition (*) fails for this relation\n")
    return report


def cmd_index(args) -> int:
    from .scoring import index_general

    return index_general(_load_preorder(args.file), max_classes=args.max_n)


def cmd_canonical(args) -> TotalPreorder:
    return canonical_completion(_load_preorder(args.file))


def cmd_condition_star(args) -> tuple[Preorder, ConditionStarReport]:
    from .solver import condition_star

    base = _load_preorder(args.file)
    return base, condition_star(base)


def _star_text(value: tuple[Preorder, ConditionStarReport], args) -> str:
    base, report = value
    text = f"verdict: {report.verdict}\n"
    if report.witnesses:
        w = report.witnesses[0]
        text += (f"witness: layer {w.layer}, S={{{class_label(base, w.subset)}}}, "
                 f"Y={{{class_label(base, w.below)}}}, index {w.index_value}, "
                 f"bound {w.bound}\n")
    return text


def _random_preorder(ground: GroundSet, density: float, seed: int) -> Preorder:
    import random

    rng = random.Random(seed)
    n = ground.n
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    return Preorder(ground, tuple(transitive_closure_rows(rows)))


def cmd_generate(args) -> tuple[Preorder, TotalPreorder | None]:
    """The family and, with --expected-bca, its closed-form answer."""
    params = {name: getattr(args, name) for name in _FAMILY_FLAGS
              if getattr(args, name) is not None}
    if args.family == "random":
        extra = [f"--{name}" for name in params if name != "n"]
        if extra or args.n is None:
            raise BadParameter("random family takes --n and --density, got "
                               f"{', '.join(extra) or 'no --n'}")
        ground = _numbered_ground(args.n)
        density = 0.3 if args.density is None else args.density
        if not 0 <= density <= 1:
            raise BadParameter(f"--density must be in [0, 1], got {density}")
        if args.expected_bca:
            raise BadParameter("random family has no closed-form best "
                               "approximation; drop --expected-bca")
        return _random_preorder(ground, density, args.seed or 0), None
    from .families import FamilySpec

    spec = FamilySpec(args.family, params)
    if args.density is not None:
        raise BadParameter(f"--density is for the random family, not {args.family}")
    return spec.build(), spec.expected_bca() if args.expected_bca else None


def _family_json(value: tuple[Preorder, TotalPreorder | None], args) -> str:
    built, expected = value
    if expected is None:
        return _document_json(built, args)
    return _json({"schema": "family-pair/1", "family": _payload(built),
                  "expected_bca": _payload(expected)})


def _family_dot(value: tuple[Preorder, TotalPreorder | None], args) -> str:
    built, expected = value
    if expected is not None:
        raise BadParameter("--emit dot draws the family only; drop --expected-bca")
    return render_dot(built, name=args.family)


def cmd_dot(args) -> Preorder:
    return _load_preorder(args.file)


def cmd_covering_radius(args) -> CoveringRadiusReport:
    from .solver import covering_radius

    return covering_radius(_numbered_ground(args.n), max_n=args.max_n)


def _document_json(relation, args) -> str:
    return document_to_json(document_from_relation(relation))


def _diagram(relation, args) -> str:
    return render_dot(relation)


# subcommand -> (help text, command, {--emit format: renderer(value, args) ->
# stdout text}), in ``--help`` order: ``main`` refuses a format missing from a
# row before the command runs.
COMMANDS = {
    "check": ("validate a relation document", cmd_check, {
        "text": lambda p, args: f"ok: preorder on {p.n} elements\n"}),
    "metric": ("distance between two documents", cmd_metric, {
        "text": lambda distance, args: f"{distance}\n"}),
    "bca": ("best complete approximations", cmd_bca, {
        "text": _report_text,
        "json": _report_json,
        "dot": lambda report, args: "".join(
            render_dot(c, name=f"bca{i}") for i, c in enumerate(report.bca_set)),
    }),
    "index": ("index of a preorder", cmd_index, {
        "text": lambda index, args: f"{index}\n"}),
    "canonical": ("canonical completion", cmd_canonical, {
        "text": lambda total, args: total.render(_strict_sep(args)) + "\n",
        "json": _document_json,
        "dot": lambda total, args: render_dot(total, name="canonical"),
    }),
    "condition-star": ("layer condition verdict", cmd_condition_star, {
        "text": _star_text}),
    "dot": ("Hasse diagram as Graphviz DOT", cmd_dot, {
        "text": _diagram, "dot": _diagram}),
    "generate": ("emit a family document", cmd_generate, {
        "text": _family_json, "json": _family_json, "dot": _family_dot}),
    "covering-radius": ("covering radius sweep", cmd_covering_radius, {
        "text": lambda report, args: (f"radius: {report.radius}\nwitness:\n"
                                      + _document_json(report.witness, args)),
        "json": lambda report, args: _json({
            "schema": "covering-radius/1", "n": args.n, "radius": report.radius,
            "witness": _payload(report.witness)}),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preorder-bca",
        description="Best complete approximations of finite preorders under "
                    "the top-difference semimetric.",
    )
    parser.add_argument("--emit", choices=["text", "json", "dot"], default="text",
                        help="output format, if the subcommand writes it")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized fixtures (generate random, "
                             "default 0)")
    parser.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="override the feasibility guard of the wrapped "
                             "operation")
    parser.add_argument("--unicode", action="store_true",
                        help="use relation glyphs in text output")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=text)
         for name, (text, _, _) in COMMANDS.items()}

    for name in ("check", "bca", "index", "canonical", "condition-star", "dot"):
        p[name].add_argument("file")
    p["check"].add_argument("--total", action="store_true",
                            help="additionally require totality")
    p["metric"].add_argument("file_a")
    p["metric"].add_argument("file_b")
    p["metric"].add_argument("--metric",
                             choices=["top-diff", "top-diff-direct", "ksb"],
                             default="top-diff")
    p["bca"].add_argument("--method",
                          choices=["auto", "bruteforce", "duality", "theorem5"],
                          default="auto")
    p["generate"].add_argument(
        "family", help="a family kind (an unknown one lists them), or random")
    for name in _FAMILY_FLAGS:
        p["generate"].add_argument(f"--{name}", type=int)
    p["generate"].add_argument(
        "--density", type=float,
        help="edge density for the random family (default 0.3)")
    p["generate"].add_argument(
        "--expected-bca", action="store_true", dest="expected_bca",
        help="also emit the closed-form best approximation")
    p["covering-radius"].add_argument("--n", type=int, required=True)
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
    _, command, formats = COMMANDS[args.command]
    if args.emit not in formats:
        print(f"error: {args.command} writes {' or '.join(formats)}, "
              f"not {args.emit}", file=sys.stderr)
        return EXIT_SEMANTIC
    try:
        _refuse_unread_flags(args)
        sys.stdout.write(formats[args.emit](command(args), args))
        return EXIT_OK
    except _Rejected as exc:
        sys.stdout.write(str(exc))
        return EXIT_SEMANTIC
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
