"""Self-tests of the benchmark on tiny inputs (n = 4 or 5).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_program()
import tracing  # noqa: E402

TINY = {"plane-sampled": 4, "plane-exact": 4, "trim-direct": 5}


def tiny(name: str):
    return dataclasses.replace(
        workloads.WORKLOADS[name], n=TINY[name], bases_per_distribution=1
    )


def bench(name, tmp_path, trace=False, seed=3):
    return run.run_benchmark(workloads, tiny(name), seed, 1, trace, tmp_path / "work")


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    result = bench(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3 and result["attempted"] % 3 == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    line = json.loads(run.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_repeats_counts_and_restores_the_program(name, tmp_path):
    import rainbowdepth.config as config
    import rainbowdepth.pipeline as pipeline

    before = (pipeline.run_pipeline, pipeline.orientation, config.ColoredConfiguration.validate)
    result = bench(name, tmp_path, trace=True)
    assert result["correct"] and result["extra"]["counts_repeat"]
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert (tmp_path / "work" / "trace.jsonl").stat().st_size > 0
    after = (pipeline.run_pipeline, pipeline.orientation, config.ColoredConfiguration.validate)
    assert before == after
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "trim-direct":
        assert m["separation.trim.s"] > 0 and m["lp.solve.calls"] > 0
        assert m["depth.deepest_point.s"] == m["hypergraph.edges"] == 0
    else:
        assert m["depth.deepest_point.s"] > 0 and m["pipeline.attempts"] >= 1
        assert m["config.validate.calls"] > 0 and m["geometry.orientation.calls"] > 0


def test_same_seed_gives_same_outputs_and_any_seed_the_same_quality(tmp_path):
    a = bench("trim-direct", tmp_path / "a", seed=3)
    b = bench("trim-direct", tmp_path / "b", seed=3)
    c = bench("trim-direct", tmp_path / "c", seed=4)
    digests = [[op["digest"] for op in r["ops"][:3]] for r in (a, b, c)]
    assert digests[0] == digests[1] and set(digests[0]).isdisjoint(digests[2])
    for key in ("q_ratio_min", "depth_frac", "certified_frac"):
        assert a["metrics"][key]["value"] == c["metrics"][key]["value"]


def _corrupting(real, corrupt):
    def cli_main(argv):
        rc = real(argv)
        corrupt(argv)
        return rc

    return cli_main


def test_corrupted_run_report_is_a_failed_op(tmp_path, monkeypatch):
    def corrupt(argv):
        if argv[0] == "run":
            path = Path(argv[argv.index("--output") + 1])
            report = json.loads(path.read_text())
            report["depth"] += 1
            path.write_text(json.dumps(report))

    monkeypatch.setattr(workloads, "cli_main", _corrupting(workloads.cli_main, corrupt))
    result = bench("plane-exact", tmp_path)
    assert result["failed"] > 0 and not result["correct"]
    assert result["extra"]["fail_frac"] > 0
    assert "depth" in result["ops"][0]["failure"]


def test_corrupted_separate_output_is_a_failed_op(tmp_path, monkeypatch):
    def corrupt(argv):
        if argv[0] == "separate":
            path = Path(argv[argv.index("--output") + 1])
            if path.exists():
                out = json.loads(path.read_text())
                out["q"][0][0] = out["q"][1][0]  # a point of another colour
                path.write_text(json.dumps(out))

    monkeypatch.setattr(workloads, "cli_main", _corrupting(workloads.cli_main, corrupt))
    result = bench("trim-direct", tmp_path)
    assert result["extra"]["fail_frac"] > 0 and not result["correct"]


def test_accepting_a_tampered_report_is_a_failed_op(tmp_path, monkeypatch):
    real = workloads.cli_main

    def cli_main(argv):
        if argv[0] == "verify" and "tampered" in argv[-1]:
            print(json.dumps({"verified": True}))
            return 0
        return real(argv)

    monkeypatch.setattr(workloads, "cli_main", cli_main)
    result = bench("plane-exact", tmp_path)
    assert result["extra"]["fail_frac"] > 0
    assert any("tampered" in (op["failure"] or "") for op in result["ops"])


def test_escaped_exception_is_a_failed_op(tmp_path, monkeypatch):
    real = workloads.cli_main

    def cli_main(argv):
        if argv[0] == "separate":
            raise AssertionError("separation LP returned unbounded")
        return real(argv)

    monkeypatch.setattr(workloads, "cli_main", cli_main)
    result = bench("trim-direct", tmp_path)
    assert result["failed"] == result["attempted"]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9, 0)
    assert run.tail(list(range(100))) == (90, 89)


def test_tracer_self_time_excludes_children():
    t = tracing.Tracer()
    t.spans = [(0, None, "cli.run", 0, 10), (1, 0, "a", 2, 8), (2, 1, "a", 3, 5)]
    summary = t.summarize()
    assert summary["cli.run"]["self_s"] == pytest.approx(4e-9)
    assert summary["a"]["s"] == pytest.approx(6e-9)  # nested "a" counted once


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plane-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
