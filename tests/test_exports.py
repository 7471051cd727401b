"""Every exported name resolves, every top-level export is one the package itself reads,
every callable the benchmark tracer wraps exists, the engine holds no branch on its target's type,
and no module keeps a registry of matrices."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import kaczfact
from kaczfact import _engine

REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [kaczfact] + [importlib.import_module(f"kaczfact.{m.name}") for m in pkgutil.iter_modules(kaczfact.__path__)]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len(exported) > len(kaczfact.__all__)
    assert [f"{mod.__name__}.{name}" for mod, name in exported if not hasattr(mod, name)] == []


def test_every_top_level_export_is_read_by_the_package():
    """Read means loaded as a name, or accessed as an attribute, in a benchmark script
    or in a package module other than ``__init__``."""
    package = [p for p in sorted((REPO / "src" / "kaczfact").glob("*.py")) if p.name != "__init__.py"]
    read = set()
    for path in package + sorted((REPO / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(kaczfact.__all__) - read - {"__version__"}) == []


def test_traced_callables_resolve():
    """Each (module, attribute path) in ``benchmarks/tracing.TRACED`` names a callable, checked without
    installing the tracer, and ``run_trials`` keeps the parameters the tracer binds."""
    spec = importlib.util.spec_from_file_location("tracing", REPO / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, path, *_ in tracing.TRACED:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
    assert {"method", "trials"} <= set(inspect.signature(_engine.run_trials).parameters)


def test_package_loads_no_scipy():
    """numpy is the one runtime dependency: importing the package and its CLI loads no scipy module.

    scipy is a test-only extra; importing scipy.linalg would add about 28 MB of resident memory to every run.
    """
    code = "import sys, kaczfact, kaczfact.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_engine_holds_no_type_branch():
    """``_engine`` reads a target only through the members SingleSystem and FactoredSystem share:
    it imports nothing from ``interlaced`` and calls no ``isinstance``."""
    tree = ast.parse((REPO / "src" / "kaczfact" / "_engine.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [getattr(node, "module", None) or "" for node in imports] + [a.name for node in imports for a in node.names]
    assert "interlaced" not in {part for name in modules for part in name.split(".")}
    assert "isinstance" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_level_weak_key_registry():
    """What is derived from a matrix lives in the matrix's own memo (``DenseMatrix.memo``), so no module
    binds a ``WeakKeyDictionary`` at its top level."""
    bound = []
    for path in sorted((REPO / "src" / "kaczfact").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and "WeakKeyDictionary" in ast.dump(node):
                bound.append(f"{path.name}:{node.lineno}")
    assert bound == []
