"""What a fresh ``uavcov`` process loads, and the heap state its planners run in.

The model's one call outside numpy is scipy's ``erfc`` ufunc. ``coverage`` loads it from
``scipy.special._special_ufuncs`` without running ``scipy/__init__.py`` or
``scipy/special/__init__.py``, whose array-API backends cost ~0.25 s and ~20 MB of every
invocation's start-up. These tests
check, in child interpreters where the import order matters, that the narrow load
happens, that it leaves the whole package importable, and that it never stands in for a
package already imported.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import uavcov
from uavcov import coverage

SRC = pathlib.Path(uavcov.__file__).parents[1]

# loaded by scipy/special/__init__.py, or (_ufuncs) linked against scipy's OpenBLAS
HEAVY = ("scipy.special._support_alternative_backends", "scipy._lib._array_api",
         "numpy.f2py", "scipy.special._ufuncs")


def _child(code: str, *argv: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object, returned here."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_only_the_erfc_ufunc():
    loaded = _child("import json, sys\nimport uavcov.cli\nprint(json.dumps(sorted(sys.modules)))")
    # the ufunc's module leaves with its stand-in parents
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    assert [name for name in HEAVY if name in loaded] == []
    # the planners never draw, so numpy's lazy random module stays unloaded
    assert "numpy.random" not in loaded
    # the unexecuted stand-in packages are gone, so a later import runs the real ones
    assert "scipy.special" not in loaded
    assert "scipy" not in loaded


def test_the_kernel_ufunc_is_scipys_erfc():
    import scipy.special

    assert coverage._erfc is scipy.special.erfc
    assert scipy.special.gamma(5.0) == 24.0


def test_a_later_full_import_gets_the_same_ufunc():
    child = _child("""
import json, sys
from uavcov import coverage
import scipy.special
print(json.dumps({"same": coverage._erfc is scipy.special.erfc,
                  "bound": scipy.special._special_ufuncs.erfc is coverage._erfc,
                  "gamma": float(scipy.special.gamma(5.0)),
                  "backends": "scipy.special._support_alternative_backends" in sys.modules}))
""")
    assert child == {"same": True, "bound": True, "gamma": 24.0, "backends": True}


def test_an_imported_package_is_kept():
    child = _child("""
import json, sys
import scipy.special
package = sys.modules["scipy.special"]
from uavcov import coverage
print(json.dumps({"kept": sys.modules["scipy.special"] is package,
                  "same": coverage._erfc is package.erfc}))
""")
    assert child == {"kept": True, "same": True}


def test_a_scipy_without_special_ufuncs_takes_the_plain_import():
    # the first load of the submodule fails, as on a scipy that has none; the plain
    # import that follows runs the whole package, which then loads it itself
    child = _child("""
import json, sys

class Missing:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special._special_ufuncs":
            sys.meta_path.remove(self)
            raise ImportError(name)

sys.meta_path.insert(0, Missing())
from uavcov import coverage
package = sys.modules["scipy.special"]
print(json.dumps({"same": coverage._erfc is package.erfc,
                  "gamma": float(package.gamma(5.0))}))
""")
    assert child == {"same": True, "gamma": 24.0}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_planner_blocks_reuse_heap_memory(tmp_path):
    # a block's temporaries are 2**14 doubles, exactly glibc's initial 128 KiB mmap
    # threshold; cli raises the threshold at import. Without that, this run took a median
    # of ~3900 minor faults in cli.main (1190-5201 over 16 runs), each block's arrays
    # mapped and faulted in again; with it, ~740
    child = _child("""
import json, resource, sys
from uavcov import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = cli.main(sys.argv[1:])
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"code": code, "faults": after - before}))
""", "optimize-altitude", "--env", "all", "--steps", "2000000", "--workers", "2",
        "--out", str(tmp_path / "out.csv"))
    assert child["code"] == 0
    assert child["faults"] < 1500
