"""The names by which the benchmark under `perfbench/` reaches into the
program: its tracer rebinds them, its workloads import them, and its
self-test reads them.  A rename or deletion here would make every traced
benchmark run fail at `Tracer.install`.  The perfbench files are only
read: tracing.py is executed from its source text (it imports nothing
but the standard library), the other two are parsed."""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = "rainbowdepth"


def _tracing_module():
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _tree(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def test_tracer_targets_resolve():
    tracing = _tracing_module()
    assert tracing.PACKAGE == PACKAGE and tracing.TARGETS
    for mod_name, attr, *_ in tracing.TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(owner, cls_name))[meth]
        else:
            target = getattr(owner, attr)
        assert callable(target), (mod_name, attr)


def test_workload_imports_resolve():
    imported = set()
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                imported.add(alias.name)
    assert imported >= {
        "cli_main",
        "load_configuration",
        "rainbow_depth_at",
        "SCHEMA_VERSION",
        "is_separated_family",
    }


def test_perfbench_self_test_attributes_resolve():
    tree = _tree("test_perfbench.py")
    aliases = {
        alias.asname or alias.name: importlib.import_module(alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith(PACKAGE + ".")
    }
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert ("pipeline", "orientation") in read
    for alias, attr in read:
        assert hasattr(aliases[alias], attr), (alias, attr)
