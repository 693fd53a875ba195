"""The heap setting made at import: on glibc, `import sskgqa` fixes malloc's
mmap and trim thresholds, so memory freed at the heap top stays mapped and
the next allocation of the same size takes no page faults."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sskgqa

SRC = str(Path(sskgqa.__file__).resolve().parents[1])
GLIBC = sys.platform.startswith("linux") and (
    "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {})
    and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
)

# Minor page faults per call of `make`, after one call to warm up, in a
# process that has imported the package and numpy and nothing else.
FAULTS = """
import resource
import sskgqa
import numpy as np

make = {make}
make()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    make()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


def run_python(code: str) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not GLIBC, reason="the heap setting applies to glibc only")
@pytest.mark.parametrize(
    "make",
    [
        "lambda: np.ones(250_000)",  # one 2 MB array
        "lambda: np.ones(350_000)",  # one 2.8 MB array, an off-mode forward's attention array
        # 1.9 MB in arrays below glibc's default 128 KiB mmap threshold, freed
        # together at the heap top, as an encoder forward frees its own
        "lambda: [np.ones(12_000) for _ in range(20)]",
    ],
    ids=["one_2mb_array", "one_2_8mb_array", "twenty_96kb_arrays"],
)
def test_freed_memory_is_not_faulted_in_again(make):
    assert float(run_python(FAULTS.format(make=make))) < 1.0


def test_import_works_without_mallopt():
    code = "import ctypes\nctypes.CDLL = lambda name: object()\nimport sskgqa.pipeline\nprint('ok')"
    assert run_python(code).strip() == "ok"


def test_pin_off_glibc_loads_no_library(monkeypatch):
    def refuse(name):
        raise AssertionError("loaded a C library off glibc")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    monkeypatch.setattr(os, "confstr_names", {}, raising=False)
    sskgqa._pin_heap()
