"""Pipeline benchmark for sskgqa.

    python3 pipebench/run.py --workload chain3_overlap --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. One
diagnostics line (JSON) is printed, then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. The exit code is 1 when an output check fails and 2
when the program cannot be found. See pipebench/README.md.
"""

from __future__ import annotations

import os

# One thread for BLAS/OpenMP pools, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def load_program():
    """Import sskgqa from this checkout's src/, and nothing else."""
    if not (SRC / "sskgqa" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sskgqa

    if Path(sskgqa.__file__).resolve().parent != SRC / "sskgqa":
        return None
    return sskgqa


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if load_program() is None:
        print(f"error: no sskgqa package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    res = run(args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for m in declared_metrics(args.trace):
        if m["name"] in res.metrics:
            value, unit = res.metrics[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
        else:
            res.diagnostics.setdefault("absent_metrics", []).append(m["name"])
    if res.failed:
        res.problems.append(f"{res.failed} of {res.attempted} questions failed")
    res.diagnostics.update(workload=args.workload, seed=args.seed, trace=args.trace, problems=res.problems)
    print(json.dumps({"diagnostics": res.diagnostics}, sort_keys=True, default=str))
    correct = not res.problems
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
