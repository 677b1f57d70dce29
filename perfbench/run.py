#!/usr/bin/env python3
"""Planar-pipeline benchmark for rainbowdepth (stdlib only).

Run from the repository root:

    python3 perfbench/run.py --workload plane-sampled --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): plane-sampled,
plane-exact, trim-direct.  Every op goes through the public
`rainbowdepth.cli.cli_main`, in this process, with no threads: a closed
loop with one client, where the next op starts only when the previous one
has ended.  The loop runs whole rounds (one input per generator
distribution), enough to run every base configuration once, and starts
another round only while the timed total is expected to stay within
--seconds.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics.  A traced run runs each input untraced and then traced
(tracing.py), pair by pair, and afterwards the traced ops once more: the
per-op counts of the two traced passes must repeat exactly, and the gap
in ops/s between the untraced and the traced ops is the trace overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result (environment, every
metric, per-op records with output digests) and the trace spans are
written under .perfbench_work/ in the repository root.  Without a result
and with a non-zero exit code when the package cannot be imported from
src/ (1) or an input cannot be set up (2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "verify_p50_s": "s",
    "certified_frac": "ratio",
    "q_ratio_min": "ratio",
    "depth_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {}
for _name in (
    "config.load.calls", "config.validate.calls", "depth.candidates",
    "depth.rainbow_depth_at.calls", "hypergraph.extract_exact.tuples",
    "hypergraph.edges", "separation.trim.steps",
    "separation.is_separated_family.calls", "separation.strict_sep.calls",
    "separation.ham_sandwich.calls", "lp.solve.calls", "pipeline.attempts",
    "geometry.orientation.calls",
):
    LAYER_UNITS[_name] = "count/op"
for _name in (
    "config.load.s", "config.validate.s", "depth.deepest_point.s",
    "depth.rainbow_depth_at.s", "hypergraph.extract_exact.s",
    "hypergraph.extract_local.s", "hypergraph.edge_count.s", "separation.trim.s",
    "separation.is_separated_family.s", "separation.strict_sep.s",
    "separation.ham_sandwich.s", "lp.solve.s", "pipeline.run_pipeline.self_s",
    "pipeline.verify_certificate.s", "pipeline.configuration_hash.s", "cli.self_s",
):
    LAYER_UNITS[_name] = "s/op"
LAYER_UNITS.update({
    "depth.candidates_per_s": "1/s",
    "hypergraph.extract_exact.tuples_per_s": "1/s",
    "separation.trim_fire_frac": "ratio",
    "pipeline.retry_frac": "ratio",
    "trace.overhead_frac": "ratio",
})


def import_program():
    """Import rainbowdepth from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rainbowdepth
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rainbowdepth from {src}: {exc}")
    if Path(rainbowdepth.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: rainbowdepth imported from {rainbowdepth.__file__}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


SETUP_SAMPLES = 9  # fewest set-ups whose median is setup_s


class Inputs:
    """The workload's bases, prepared in set-up, and the seed's inputs
    made from them on first use (untimed)."""

    def __init__(self, workloads, wl, seed: int, workdir: Path):
        self.w, self.wl, self.seed, self.workdir = workloads, wl, seed, workdir
        self.bases, self.setup_times, self.items = [], [], {}

    def set_up(self, samples: int) -> None:
        """Prepare every base, each several times when there are few, so
        that the set-up is timed at least `samples` times."""
        count = self.wl.bases_per_distribution * len(self.w.DISTRIBUTIONS)
        repeats = -(-samples // count)
        for b in range(count):
            for _ in range(repeats):
                base = self.w.prepare_base(self.wl, b, self.workdir)
                self.setup_times.append(base.setup_s)
            self.bases.append(base)

    def get(self, index: int):
        if index not in self.items:
            base = self.bases[index % len(self.bases)]
            self.items[index] = self.w.make_input(self.wl, base, self.seed, index, self.workdir)
        return self.items[index]


def closed_loop(inputs: Inputs, op, *, seconds: float, min_rounds: int) -> list:
    """Whole rounds (one input per distribution each), one op after
    another: at least `min_rounds`, and more while the timed total plus
    the mean round time stays within `seconds` (and the wall time, which
    adds the untimed checks and inputs, within twice that).  `op(input)`
    returns the list of OpResults it made."""
    per_round = len(inputs.w.DISTRIBUTIONS)
    results, timed, done = [], 0.0, 0
    start = time.perf_counter()
    while True:
        wall = time.perf_counter() - start
        if done >= min_rounds and (
            timed + timed / done > seconds or wall + wall / done > 2 * seconds
        ):
            break
        for k in range(per_round):
            for res in op(inputs.get(done * per_round + k)):
                timed += (res.primary_s or 0.0) + sum(res.verify_s)
                results.append(res)
        done += 1
    return results


def ops_per_s(results) -> float:
    return len(results) / sum(r.primary_s for r in results)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    k = len(values) - 10
    if k < 1:
        return None
    ordered = sorted(values)
    return 100 * k // len(values), ordered[k - 1]


def end_to_end(inputs: Inputs, results) -> dict:
    quality = results[: len(inputs.bases)]
    verify = [t for r in results for t in r.verify_s]
    return {
        "setup_s": statistics.median(inputs.setup_times),
        "ops_per_s": ops_per_s(results),
        "op_p50_s": statistics.median(r.primary_s for r in results),
        # 0 only when no op got as far as verify, which fails the run.
        "verify_p50_s": statistics.median(verify) if verify else 0.0,
        "certified_frac": statistics.fmean(r.certified for r in quality),
        "q_ratio_min": statistics.fmean(r.q_ratio_min for r in quality),
        "depth_frac": statistics.fmean(r.depth_frac for r in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, results, untraced_ops_per_s) -> dict:
    ops = len(results)
    counts = {}
    for r in results:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
    spans = tracer.summarize()

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def c(name):
        return counts.get(name, 0)

    out = {}
    for name, unit in LAYER_UNITS.items():
        if unit == "count/op":
            out[name] = c(name) / ops
        elif name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            roots = ("cli.run", "cli.verify", "cli.separate") if base == "cli" else (base,)
            out[name] = sum(spans.get(b, {}).get("self_s", 0.0) for b in roots) / ops
        elif unit == "s/op":
            out[name] = s(name[: -len(".s")]) / ops
    dp, ex = s("depth.deepest_point"), s("hypergraph.extract_exact")
    out["depth.candidates_per_s"] = c("depth.candidates") / dp if dp else 0.0
    out["hypergraph.extract_exact.tuples_per_s"] = (
        c("hypergraph.extract_exact.tuples") / ex if ex else 0.0
    )
    trims, attempts = c("separation.trim.calls"), c("pipeline.attempts")
    out["separation.trim_fire_frac"] = c("separation.trim.fired") / trims if trims else 0.0
    out["pipeline.retry_frac"] = (
        (attempts - c("pipeline.verified")) / attempts if attempts else 0.0
    )
    out["trace.overhead_frac"] = 1 - ops_per_s(results) / untraced_ops_per_s
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the package sources, which names the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(wl, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": wl.name,
        "n": wl.n,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def run_benchmark(workloads, wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the full result (see `summary_line`)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    inputs = Inputs(workloads, wl, seed, workdir)
    inputs.set_up(1 if trace else SETUP_SAMPLES)

    def untraced(inp):
        return [workloads.run_op(wl, inp, workdir)]

    extra = {}
    if not trace:
        results = closed_loop(
            inputs, untraced, seconds=seconds, min_rounds=wl.bases_per_distribution
        )
        metrics, units = end_to_end(inputs, results), E2E_UNITS
        times = [r.primary_s for r in results]
        extra["fail_frac"] = sum(r.failure is not None for r in results) / len(results)
        extra["op_tail"] = tail(times)
        extra["samples"] = len(times)
        correct = metrics["verify_p50_s"] > 0
    else:
        from tracing import Tracer

        tracer = Tracer()

        def traced(inp):
            tracer.install()
            try:
                return [workloads.run_op(wl, inp, workdir, tracer)]
            finally:
                tracer.remove()

        # Each input runs untraced and then traced, so that drift in the
        # machine's speed falls on both sides of the overhead alike.
        pairs = closed_loop(
            inputs, lambda inp: untraced(inp) + traced(inp), seconds=2 * seconds / 3,
            min_rounds=1,
        )
        plain, first = pairs[0::2], pairs[1::2]
        spans = tracer.spans
        tracer.spans = []
        second = [traced(inputs.get(i))[0] for i in range(len(first))]
        tracer.spans = spans
        tracer.write(workdir / "trace.jsonl")
        metrics = per_layer(tracer, first, ops_per_s(plain))
        units = LAYER_UNITS
        correct = all(a.counts == b.counts for a, b in zip(first, second))
        extra["counts_repeat"] = correct
        results = pairs + second
    failed = sum(r.failure is not None for r in results)
    return {
        "env": environment(wl, seed, seconds, int(trace)),
        "correct": correct and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "ops": [
            {
                "index": r.index,
                "distribution": r.distribution,
                "primary_s": r.primary_s,
                "verify_s": r.verify_s,
                "certified": r.certified,
                "failure": r.failure,
                "digest": r.digest,
            }
            for r in results
        ],
    }


def summary_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def print_report(result: dict) -> None:
    env, extra = result["env"], result["extra"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if "fail_frac" in extra:
        print(f"  {'fail_frac':<40} {extra['fail_frac']:>14.6g} failed/attempted")
        t = extra["op_tail"]
        if t is None:
            print(f"  {'op_tail_s':<40} {'n/a':>14} s  ({extra['samples']} samples, "
                  "fewer than 11)")
        else:
            print(f"  {'op_tail_s':<40} {t[1]:>14.6g} s  (p{t[0]} of {extra['samples']} samples)")
    else:
        print(f"  counts repeat across the two traced passes: {extra['counts_repeat']}")
    for op in result["ops"]:
        if op["failure"]:
            print(f"  FAILED op {op['index']} ({op['distribution']}): {op['failure']}")
    digests = hashlib.sha256(
        "".join(op["digest"] or "-" for op in result["ops"]).encode()
    ).hexdigest()[:16]
    print(f"  outputs sha256 (combined): {digests}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    try:
        result = run_benchmark(workloads, wl, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
