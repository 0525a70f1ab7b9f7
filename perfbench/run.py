"""Benchmark of preorder-bca: end-to-end numbers per workload, and per-layer
numbers from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cli,sweep,families} --seed N \\
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout; nothing needs to
be installed or built.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones (see ``catalog.py``).  Lines starting with
``#`` describe the run; the last line of standard output is the result as
one JSON object.  The exit code is 0 when a result was printed, also when
some answers were wrong (``correct`` is then false).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "preorder_bca"

import catalog  # noqa: E402  (perfbench modules sit next to this file)
import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _metadata(args) -> dict:
    pkg = sys.modules.get(PACKAGE)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        # read as the package reports it; the environment is passed through
        # unchanged, so the backend is never forced
        "backend": getattr(pkg, "BACKEND_NAME", None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.trace:
            outcome = harness.measure_traced(workload, args.seconds)
        else:
            outcome = harness.measure(workload, args.seconds)
    finally:
        workload.close()
    imported = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC not in imported.parents:
        print(f"perfbench: imported {imported}, not the checkout's source",
              file=sys.stderr)
        return 2

    units = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}
    print("# meta " + json.dumps(_metadata(args)))
    harness.print_notes(outcome)
    if outcome.missing:
        print("# missing metrics (their targets are gone): "
              + ", ".join(outcome.missing))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
