"""The package's public names and its import-time environment."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triline


def test_all_names_resolve_without_duplicates():
    # a name left in __all__ after its definition is gone fails here
    assert len(triline.__all__) == len(set(triline.__all__))
    assert [name for name in triline.__all__ if not hasattr(triline, name)] == []


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _after_import(code: str, **preset: str) -> str:
    """stdout of ``import triline`` then ``code`` in a fresh interpreter whose
    BLAS variables are unset except ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", "import os, triline; " + code],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60)
    return out.stdout.strip()


def test_import_pins_blas_to_one_thread():
    show = "print([os.environ.get(v) for v in %r])" % (BLAS_VARS,)
    assert _after_import(show) == str(["1", "1", "1"])
    # a value the user set is kept
    assert _after_import(show, OPENBLAS_NUM_THREADS="2") == str(["2", "1", "1"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc task list on this platform")
def test_import_starts_no_blas_threads():
    assert _after_import("print(len(os.listdir('/proc/self/task')))") == "1"
