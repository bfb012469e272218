"""The public names of the package and the import boundaries between its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import stjac

SRC = Path(stjac.__file__).parent
# references that only the tests run; they live in tests/oracles.py
TEST_ONLY = {"gauss_jacobi_check", "gauss_sum", "jacobi_sum", "embed", "char_eval"}


def _imports(path):
    """(module, name) per imported name of a source file; name is None for ``import m``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return out


def test_every_public_name_resolves_and_none_is_a_test_reference():
    assert len(stjac.__all__) == len(set(stjac.__all__))
    for name in stjac.__all__:
        getattr(stjac, name)
    assert not TEST_ONLY & set(stjac.__all__)
    assert not [name for name in TEST_ONLY if hasattr(stjac, name)]


def test_no_module_imports_cmath_and_ffield_imports_nothing_from_cyclo():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 13
    for path in modules:
        assert "cmath" not in {module for module, _ in _imports(path)}, path.name
    assert not [
        (module, name) for module, name in _imports(SRC / "ffield.py")
        if module.endswith("cyclo") or name == "cyclo"
    ]


def test_import_loads_no_process_pool():
    # trace_sweep imports the pool only when it starts one (workers > 1)
    script = (
        "import sys, stjac; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
