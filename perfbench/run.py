"""Layer benchmark of the self-join engine: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload selfjoin_lowdim --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and writes the spans to
``.perfbench/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with host metadata, op counts and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` ("unknown" outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    import numpy as np
    from repro.engine import get_backend

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "kernel_tier": get_backend("vectorized").kernel_tier(),
            "git_commit": git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    # Server and worker processes import repro from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # One BLAS thread in this process and the ones it starts: idle BLAS
    # threads spin, which adds CPU time that depends on host load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run, config = WORKLOADS[args.workload]
    result = run(config, args.seed, args.seconds, bool(args.trace))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed_frac": result.failed / max(result.attempted, 1),
              **result.info, "host": host_metadata()}
    if result.tracer is not None:
        trace_file = ROOT / ".perfbench" / \
            f"trace-{args.workload}-seed{args.seed}.json"
        result.tracer.write(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result.failed == 0 and result.attempted > 0,
                      "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
