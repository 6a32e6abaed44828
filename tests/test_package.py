"""The package's import-time behaviour, its environment and its source rules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triline

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh(code: str, **preset: str) -> str:
    """stdout of ``code`` in a fresh interpreter whose BLAS variables are
    unset except ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(triline.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_no_module():
    # each name is imported from its own module; the package re-exports none
    show = ("import sys, triline; print(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('triline.')))")
    assert _fresh(show) == "[]"


def test_series_and_knots_load_no_reference_tracer():
    # the census, the series and the knot export need neither the reference
    # tracer (diagrams) nor the counterterm check (mixed)
    show = ("import sys, triline.series, triline.knots; print(sorted(m for m "
            "in sys.modules if m in ('triline.diagrams', 'triline.mixed')))")
    assert _fresh(show) == "[]"


def test_reference_tracer_loads_no_fast_path():
    # verify euler checks the census and the series against the reference
    # tracer, so the tracer must not be built from them
    show = ("import sys, triline.diagrams; print(sorted(m for m in sys.modules "
            "if m in ('triline.census', 'triline.series', 'triline.knots')))")
    assert _fresh(show) == "[]"


def test_cli_binds_the_reference_tracer():
    # verify euler traces through cli's own binding, which tests and the
    # benchmark's call counter patch
    from triline import cli, diagrams
    assert cli.components_and_genus is diagrams.components_and_genus


def test_import_pins_blas_to_one_thread():
    show = "import os, triline; print([os.environ.get(v) for v in %r])" % (
        BLAS_VARS,)
    assert _fresh(show) == str(["1", "1", "1"])
    # a value the user set is kept
    assert _fresh(show, OPENBLAS_NUM_THREADS="2") == str(["2", "1", "1"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="no /proc task list on this platform")
def test_import_starts_no_blas_threads():
    # triline.oracle loads numpy, and with it the BLAS library
    show = ("import os, triline.oracle; "
            "print(len(os.listdir('/proc/self/task')))")
    assert _fresh(show) == "1"


def test_source_has_no_bare_assert():
    # internal checks raise the package's errors: an assert vanishes under -O
    paths = sorted(Path(triline.__file__).parent.glob("*.py"))
    assert "series.py" in {path.name for path in paths}
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_and_unread(path: Path) -> list[str]:
    """``file:line name`` for each name an import binds and nothing reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name not in read]
    return found


def test_source_and_tests_import_no_unused_name():
    src = Path(triline.__file__).parent
    paths = sorted([*src.glob("*.py"), *Path(__file__).parent.glob("*.py")])
    assert {"series.py", "test_package.py"} <= {path.name for path in paths}
    assert [hit for path in paths for hit in _imported_and_unread(path)] == []
