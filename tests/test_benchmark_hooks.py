"""The names by which the benchmark under `perfbench/` reaches into the
program: its tracer rebinds them, its workloads import them, and its
self-test reads them; the tracer's count hooks also read attributes of
the results and errors.  A rename or deletion here would make every
traced benchmark run fail at `Tracer.install` or in a hook.  The
perfbench files are only read: tracing.py is executed from its source
text (it imports nothing but the standard library), the other two are
parsed."""

import ast
import importlib
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rainbowdepth import (
    GeneratorSpec,
    PipelineParams,
    PipelineStageError,
    TrimExhaustedError,
    deepest_point,
    extract_dense_exact,
    generate,
    partite_hypergraph,
    pipeline,
    run_pipeline,
    trim_to_separated,
)

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


def test_tracer_count_hooks_read_real_results(monkeypatch):
    """Each count hook of `TARGETS`, called as the tracer calls it, on
    real results and errors of the function it is attached to."""
    hooks = {
        attr: hook for _, attr, _, _, hook in _tracing_module().TARGETS if hook
    }
    assert set(hooks) == {
        "deepest_point", "partite_hypergraph", "extract_dense_exact",
        "trim_to_separated", "run_pipeline",
    }
    counts = Counter()

    def call(attr, args, result=None, exc=None):
        hooks[attr](counts, args, {}, result, exc)

    cfg = generate(GeneratorSpec(seed=0, n=4, d=2))
    deep = deepest_point(cfg, seed=0)
    call("deepest_point", (cfg,), deep)
    params = PipelineParams()
    bundle = run_pipeline(cfg, params)
    call("run_pipeline", (cfg, params), bundle)
    h = bundle.hypergraph
    rebuilt = partite_hypergraph(h.part_sizes, h.edges)
    call("partite_hypergraph", (h.part_sizes, h.edges), rebuilt)
    eps = Fraction(1, 4)
    call("extract_dense_exact", (h, eps), extract_dense_exact(h, eps))
    sets = [list(c) for c in cfg.colors]
    trimmed = trim_to_separated(sets, deep.witness)
    call("trim_to_separated", (sets, deep.witness), trimmed)
    with pytest.raises(TrimExhaustedError) as trim_error:
        trim_to_separated(sets, deep.witness, max_steps=1)
    call("trim_to_separated", (sets, deep.witness), exc=trim_error.value)
    # Whole classes as S: here the trimmed Q does not verify.
    whole = (tuple(range(6)),) * 3
    monkeypatch.setattr(pipeline, "extract_dense_exact", lambda h, eps: whole)
    failing, params = generate(GeneratorSpec(seed=1, n=6, d=2)), PipelineParams(seed=1)
    with pytest.raises(PipelineStageError) as stage_error:
        run_pipeline(failing, params)
    call("run_pipeline", (failing, params), exc=stage_error.value)

    assert counts == {
        "depth.candidates": deep.candidates_examined,
        "pipeline.verified": 1,
        "pipeline.attempts": 2,
        "hypergraph.edges": len(h.edges),
        "hypergraph.extract_exact.tuples": 4**3 + 6**3 + 4**3 + 1,
        "separation.trim.steps": trimmed[1].step_count + 1,
        "separation.trim.fired": 2,
    }
    assert deep.candidates_examined > 0 and len(h.edges) > 0
