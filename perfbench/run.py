"""Benchmark launcher for the metaphrase ablation ladder.

Run from the repository root:

    python3 perfbench/run.py --workload maml_second --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of one traced unit instead, and the spans are written to
``.perfbench_work/spans-<workload>.npz``. The line before it records the
interpreter, numpy, OpenBLAS and CPU count the numbers were measured with.

BLAS is pinned to one thread here, before numpy is imported, so the load is
one single-threaded process whatever the machine.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metaphrase" / "autodiff.py").is_file():
        print(f"perfbench: no metaphrase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    checks = wl.Checks()
    try:
        if args.trace:
            spans = work_root / f"spans-{args.workload}.npz"
            layers = wl.trace(args.workload, args.seed, work_dir, checks, spans)
            metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
        else:
            e2e = wl.measure(args.workload, args.seed, args.seconds, work_dir, checks)
            metrics = {k: {"value": v, "unit": wl.UNITS[k]} for k, v in e2e.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
