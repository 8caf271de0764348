"""The golden bytes at numpy's lower SIMD dispatch levels.

numpy picks its SIMD kernels (on x86-64: AVX-512, AVX2, or the SSE4.2
baseline) when it is imported, and its math functions return different last
bits at different levels. The output bytes must not differ. Each level here
runs every case of ``test_golden.py`` in a child interpreter whose
``NPY_DISABLE_CPU_FEATURES`` turns off the targets above that level, and
compares the same digests. The setting goes to the child's environment only.
A level this host cannot dispatch to is skipped; the test ids name the levels.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from test_golden import GOLDEN

import uavcov

# level -> the dispatch targets above it, which the child turns off
LEVELS = {
    "X86_V3": ("AVX512_SPR", "AVX512_ICL", "X86_V4"),
    "X86_V2": ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"),
}
TESTS = pathlib.Path(__file__).parent
SRC = pathlib.Path(uavcov.__file__).parents[1]

# argv: the tests directory, then the file that receives the JSON report
CHILD = """
import json, pathlib, sys, tempfile
sys.path.insert(0, sys.argv[1])
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import test_golden
with tempfile.TemporaryDirectory() as tmp:
    digests = {name: test_golden._digests(name, pathlib.Path(tmp)) for name in test_golden.CASES}
pathlib.Path(sys.argv[2]).write_text(json.dumps(
    {"dispatch": [t for t in __cpu_dispatch__ if __cpu_features__[t]], "digests": digests}))
"""


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_golden_bytes_hold_at_a_lower_dispatch_level(level, tmp_path):
    # also skips a host that is not x86-64, whose numpy names none of these levels
    if not __cpu_features__.get(level):
        pytest.skip(f"this host cannot dispatch to {level}")
    # only targets this host has, so that numpy has nothing to warn about
    disabled = [target for target in LEVELS[level] if __cpu_features__.get(target)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    report = tmp_path / "report.json"
    subprocess.run([sys.executable, "-c", CHILD, str(TESTS), str(report)], env=env, check=True,
                   timeout=120)
    child = json.loads(report.read_text())
    # the child dispatched to this level and to nothing above it
    assert child["dispatch"] == [target for target in __cpu_dispatch__
                                 if __cpu_features__[target] and target not in disabled]
    assert child["digests"] == GOLDEN
