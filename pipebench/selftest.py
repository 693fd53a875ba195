"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 pipebench/selftest.py

Checks that every workload, untraced and traced, emits each metric that
BENCHMARK.json declares with the declared unit and passes its output checks;
that the tracer replaces a function at every import site; and that it puts
every original back, leaving answers unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _snapshot():
    """Identity of every attribute of every sskgqa module and class."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "sskgqa" and not name.startswith("sskgqa."):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = id(cvalue)
    return snap


def main() -> int:
    if run.load_program() is None:
        print("error: no sskgqa package to test", file=sys.stderr)
        return 2
    import layertrace
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = []
    before = _snapshot()

    with layertrace.Tracer() as tr:
        import sskgqa.querygraph as qg

        wrapped = qg.canonicalize
        for name, mod in sys.modules.items():
            if name.startswith("sskgqa.") and "canonicalize" in vars(mod):
                if vars(mod)["canonicalize"] is not wrapped:
                    failures.append(f"canonicalize not replaced in {name}")
        if tr.absent:
            failures.append(f"targets missing at this commit: {tr.absent}")

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            res = workloads.WORKLOADS[name](3, 0.05, bool(trace), workloads.TINY)
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = res.metrics.get(m["name"])
                if got is None:
                    failures.append(f"{name} trace={trace}: {m['name']} missing")
                elif got[1] != m["unit"]:
                    failures.append(f"{name} trace={trace}: {m['name']} unit {got[1]} != {m['unit']}")
            extra = set(res.metrics) - {m["name"] for m in declared}
            if extra:
                failures.append(f"{name} trace={trace}: undeclared metrics {sorted(extra)}")
            if res.problems or res.failed:
                failures.append(f"{name} trace={trace}: {res.problems} failed={res.failed}")
            print(f"{name} trace={trace}: {len(res.metrics)} metrics, digest {res.diagnostics.get('answer_digest')}")

    if _snapshot() != before:
        failures.append("the tracer left a patched attribute behind")
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
