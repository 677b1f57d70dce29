"""Workloads of the planar-pipeline benchmark: input set-up, one
operation through `rainbowdepth.cli.cli_main`, and the independent
checks of every output.

An op is one primary CLI call (`run` or `separate`) followed by a
separately timed `verify` of what it produced.  Checks run untimed, after
the op, with the tracer switched off.  An op fails on an escaped
exception, an unexpected exit code or an output that fails a check.
Retry exhaustion of `run` and trim exhaustion of `separate` are allowed
outcomes: the op then counts as uncertified, not as failed.

Inputs.  Set-up writes each workload's fixed base configurations with
the program's own `gen` subcommand (for trim-direct it also finds O with
`depth`).  Op i runs base i mod len(bases), translated by an integer
vector drawn from (seed, i), so every op gets input bytes of its own and
the same seed gives the same inputs.  Every stage of the pipeline is
translation-equivariant (orientation signs, candidate centroids, the
bounding box of the random candidates, lexicographic tie-breaks, the
slope-then-offset order of cut lines), so the translation moves the
coordinates and the arithmetic but not one decision: the quality metrics
repeat exactly across seeds, and what varies between seeds is time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from rainbowdepth.cli import cli_main
from rainbowdepth.config import load_configuration
from rainbowdepth.depth import rainbow_depth_at
from rainbowdepth.pipeline import SCHEMA_VERSION
from rainbowdepth.separation import is_separated_family

DISTRIBUTIONS = ("uniform-box", "gaussian", "moment-curve-perturbed")
SHIFT = 512  # translations are drawn from [-SHIFT, SHIFT)^2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    primary: str  # "run" or "separate"
    # Base configurations per distribution.  Every untimed run covers
    # each base once (the quality pass) whatever --seconds says.
    bases_per_distribution: int
    # Timed `verify` calls per op.  A 60 ms verify (plane-exact) needs
    # several samples per op for a steady median.
    verify_repeats: int


WORKLOADS = {
    # n=16: candidate sampling (4096 centroids + 1000 random points) is
    # most of `run`; `auto` picks local extraction.  About 7 s per op.
    "plane-sampled": Workload("plane-sampled", 16, "run", 1, 1),
    # n=7: `auto` picks exact extraction over 104,959 subset tuples.
    # About 6 s per op (10 s on the moment curve); two bases per
    # distribution give op_p50_s six samples.
    "plane-exact": Workload("plane-exact", 7, "run", 2, 5),
    # n=6: `separate` on the full colour classes around the sampled
    # deepest point.  About 1 s per op, so more bases fit.
    "trim-direct": Workload("trim-direct", 6, "separate", 4, 1),
}


class SetupError(RuntimeError):
    """The program could not produce a workload input."""


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli_main(argv) with stdout and stderr captured.  An exception that
    escapes cli_main propagates; the op runner counts it as a failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _draw(*key) -> int:
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _pt(coords) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coords)


def _strs(p) -> list[str]:
    return [str(c) for c in p]


def _strictly_inside(o, tri) -> bool:
    """O strictly inside triangle tri, by exact cross products."""
    signs = set()
    for k in range(3):
        (ax, ay), (bx, by) = tri[k], tri[(k + 1) % 3]
        v = (bx - ax) * (o[1] - ay) - (by - ay) * (o[0] - ax)
        signs.add((v > 0) - (v < 0))
    return signs in ({1}, {-1})


@dataclass
class Base:
    index: int
    distribution: str
    classes: list[list[tuple[Fraction, ...]]]
    setup_s: float
    o: tuple[Fraction, ...] | None = None  # trim-direct: the deepest point
    depth: int | None = None  # trim-direct: its rainbow depth


def prepare_base(wl: Workload, index: int, workdir: Path) -> Base:
    """Write base `index` with the program's `gen` (and, for trim-direct,
    find O with its `depth`); the time taken is its set-up time."""
    start = time.perf_counter()
    dist = DISTRIBUTIONS[index % len(DISTRIBUTIONS)]
    gen_seed = _draw(wl.name, "base", index)
    cfg_path = workdir / f"base{index}.json"
    rc, _, err = call_cli(
        ["gen", "--seed", str(gen_seed), "--n", str(wl.n),
         "--distribution", dist, "--output", str(cfg_path)]
    )
    if rc != 0:
        raise SetupError(f"gen failed for base {index}: rc={rc} {err.strip()}")
    colors = json.loads(cfg_path.read_bytes())["colors"]
    base = Base(index, dist, [[_pt(p) for p in cls] for cls in colors], 0.0)
    if wl.primary == "separate":
        depth_path = workdir / f"base{index}.depth.json"
        rc, _, err = call_cli(["depth", "--input", str(cfg_path), "--output", str(depth_path)])
        if rc != 0:
            raise SetupError(f"depth failed for base {index}: rc={rc} {err.strip()}")
        found = json.loads(depth_path.read_bytes())
        base.o, base.depth = _pt(found["O"]), found["depth"]
    base.setup_s = time.perf_counter() - start
    return base


@dataclass
class Input:
    index: int
    base: Base
    cfg_path: Path
    cfg_bytes: bytes
    classes: list[list[tuple[Fraction, ...]]]
    o: tuple[Fraction, ...] | None = None
    sep_path: Path | None = None

    @property
    def distribution(self) -> str:
        return self.base.distribution


def make_input(wl: Workload, base: Base, seed: int, index: int, workdir: Path) -> Input:
    """Input `index`: `base` moved by a translation drawn from (seed, index),
    written in the program's canonical configuration format."""
    draw = _draw(wl.name, seed, index)
    shift = (draw % (2 * SHIFT) - SHIFT, (draw >> 32) % (2 * SHIFT) - SHIFT)

    def move(p):
        return (p[0] + shift[0], p[1] + shift[1])

    classes = [[move(p) for p in cls] for cls in base.classes]
    colors = [[_strs(p) for p in cls] for cls in classes]
    text = json.dumps({"colors": colors, "dimension": 2}, sort_keys=True, separators=(",", ":"))
    cfg_path = workdir / f"in{index}.json"
    cfg_path.write_text(text + "\n")
    inp = Input(index, base, cfg_path, cfg_path.read_bytes(), classes)
    if wl.primary == "separate":
        inp.o = move(base.o)
        inp.sep_path = workdir / f"in{index}.sep.json"
        inp.sep_path.write_text(json.dumps({"o": _strs(inp.o), "sets": colors}))
    return inp


@dataclass
class OpResult:
    index: int
    distribution: str
    primary_s: float | None = None
    verify_s: list[float] = field(default_factory=list)
    certified: bool = False
    q_ratio_min: float = 0.0
    depth_frac: float = 0.0
    failure: str | None = None
    digest: str | None = None  # sha256 of the primary op's output bytes
    counts: dict = field(default_factory=dict)


def _timed(record, tracer, argv):
    """call_cli(argv), traced as the root span cli.<command>; its wall
    time goes to record() even when an exception escapes."""
    start = time.perf_counter()
    try:
        if tracer is None:
            return call_cli(argv)
        tracer.active = True
        return tracer.root(f"cli.{argv[0]}", call_cli, argv)
    finally:
        if tracer is not None:
            tracer.active = False
        record(time.perf_counter() - start)


def _primary(res: OpResult, tracer, argv):
    return _timed(lambda t: setattr(res, "primary_s", t), tracer, argv)


def _verify(wl: Workload, res: OpResult, tracer, inp, report_path: Path):
    """wl.verify_repeats timed `verify` calls, which must answer alike."""
    argv = ["verify", "--input", str(inp.cfg_path), "--report", str(report_path)]
    first = _timed(res.verify_s.append, tracer, argv)
    for _ in range(wl.verify_repeats - 1):
        again = _timed(res.verify_s.append, tracer, argv)
        _require(again[:2] == first[:2], "repeated verify answered differently")
    return first


def _error_kind(err: str) -> str:
    try:
        return json.loads(err.strip().splitlines()[-1])["error"]
    except (ValueError, IndexError, KeyError, TypeError):
        return ""


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_subsets(inp: Input, q) -> None:
    _require(len(q) == len(inp.classes), "wrong number of subsets")
    for i, qi in enumerate(q):
        _require(len(qi) > 0, f"Q_{i} is empty")
        _require(len(set(qi)) == len(qi), f"Q_{i} repeats a point")
        _require(set(qi) <= set(inp.classes[i]), f"Q_{i} is not a subset of P_{i}")


def run_op(wl: Workload, inp: Input, workdir: Path, tracer=None) -> OpResult:
    res = OpResult(inp.index, inp.distribution)
    try:
        if wl.primary == "run":
            _run_op(wl, inp, workdir, tracer, res)
        else:
            _separate_op(wl, inp, workdir, tracer, res)
    except CheckFailed as exc:
        res.failure = f"check: {exc}"
    except Exception as exc:  # escaped from the program: a failed op
        res.failure = f"exception: {type(exc).__name__}: {exc}"
    if tracer is not None:
        res.counts = tracer.take_counts()
    if res.failure is not None:
        res.certified, res.q_ratio_min, res.depth_frac = False, 0.0, 0.0
    return res


def _run_op(wl, inp, workdir, tracer, res) -> None:
    report_path = workdir / f"op{inp.index}.report.json"
    report_path.unlink(missing_ok=True)
    rc, _, err = _primary(
        res, tracer, ["run", "--input", str(inp.cfg_path), "--output", str(report_path)]
    )
    if rc == 1 and _error_kind(err).startswith("pipeline-"):
        return  # retry exhaustion: allowed, uncertified
    _require(rc == 0, f"run exited {rc}: {err.strip()[:200]}")
    data = report_path.read_bytes()
    res.digest = hashlib.sha256(data).hexdigest()
    rc, out, err = _verify(wl, res, tracer, inp, report_path)
    _require(rc == 0, f"verify exited {rc}: {err.strip()[:200]}")
    _require(json.loads(out) == {"verified": True}, f"verify printed {out.strip()[:200]}")

    report = json.loads(data)
    n = wl.n
    _require(report["verified"] is True, "report is not marked verified")
    _require(
        report["input_hash"] == hashlib.sha256(inp.cfg_bytes).hexdigest(),
        "input_hash does not match the input file",
    )
    o = _pt(report["O"])
    q = [[_pt(p) for p in qi] for qi in report["Q"]]
    _check_subsets(inp, q)
    _require(report["sizes"] == [len(qi) for qi in q], "sizes do not match Q")
    depth = rainbow_depth_at(load_configuration(inp.cfg_bytes), o).count
    _require(depth == report["depth"], f"depth {report['depth']} != recount {depth}")

    # Negative control: Q_i := P_i cannot be certified unless every
    # rainbow triangle contains O.
    if depth < n**3:
        tampered = dict(report, Q=[[_strs(p) for p in cls] for cls in inp.classes])
        bad_path = workdir / f"op{inp.index}.tampered.json"
        bad_path.write_text(json.dumps(tampered))
        rc, out, err = call_cli(
            ["verify", "--input", str(inp.cfg_path), "--report", str(bad_path)]
        )
        _require(rc == 1, f"tampered report: verify exited {rc}")
        verdict = json.loads(out)
        _require(verdict.get("verified") is False, "tampered report was accepted")
        t = verdict["counterexample"]["tuple"]
        tri = [inp.classes[i][t[i]] for i in range(3)]
        _require(not _strictly_inside(o, tri), "counterexample triangle contains O")

    res.certified = True
    res.q_ratio_min = min(len(qi) for qi in q) / n
    res.depth_frac = depth / n**3


def _separate_op(wl, inp, workdir, tracer, res) -> None:
    out_path = workdir / f"op{inp.index}.sep-out.json"
    out_path.unlink(missing_ok=True)
    res.depth_frac = inp.base.depth / wl.n**3
    rc, _, err = _primary(
        res, tracer, ["separate", "--input", str(inp.sep_path), "--output", str(out_path)]
    )
    if rc == 1 and _error_kind(err) == "trim-exhausted":
        return  # allowed, uncertified
    _require(rc == 0, f"separate exited {rc}: {err.strip()[:200]}")
    data = out_path.read_bytes()
    res.digest = hashlib.sha256(data).hexdigest()
    result = json.loads(data)
    q_json = result["q"]

    # Certify what was kept: a report holding O and the trimmed Q.
    report_path = workdir / f"op{inp.index}.sep-report.json"
    report_path.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "input_hash": hashlib.sha256(inp.cfg_bytes).hexdigest(),
        "O": _strs(inp.o),
        "Q": q_json,
    }))
    rc, out, err = _verify(wl, res, tracer, inp, report_path)
    _require(rc in (0, 1), f"verify exited {rc}: {err.strip()[:200]}")
    verdict = json.loads(out)
    o = inp.o
    q = [[_pt(p) for p in qi] for qi in q_json]
    if rc == 0:
        _require(verdict == {"verified": True}, f"verify printed {out.strip()[:200]}")
    else:
        t = verdict["counterexample"]["tuple"]
        tri = [q[i][t[i]] for i in range(3)]
        _require(not _strictly_inside(o, tri), "counterexample triangle contains O")

    _check_subsets(inp, q)
    trace = result["trace"]
    sizes = [wl.n] * len(q)
    for step in trace["steps"]:
        sizes = [s - len(dr) for s, dr in zip(sizes, step["discarded"])]
        _require(step["sizes_after"] == sizes, "sizes_after disagrees with discarded")
    _require(trace["step_count"] == len(trace["steps"]), "step_count is wrong")
    _require(
        trace["final_sizes"] == sizes == [len(qi) for qi in q],
        "final sizes disagree with Q",
    )
    _require(is_separated_family([[o]] + q) is None, "{O} + Q is not separated")

    res.certified = True
    res.q_ratio_min = min(len(qi) for qi in q) / wl.n
