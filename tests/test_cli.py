import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowdepth import (
    GeneratorSpec,
    deepest_point,
    depth,
    generate,
    geometry,
    hypergraph,
    pipeline,
    separation,
    tverberg,
)
from rainbowdepth.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFICATION,
    build_parser,
    cli_main,
)
from rainbowdepth.config import json_point, load_configuration
from rainbowdepth.lp import LPResult


def run_cli(*argv):
    return cli_main(list(argv))


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    assert run_cli("gen", "--seed", "7", "--n", "4", "--dim", "2", "--output", str(path)) == EXIT_OK
    return path


def test_gen_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli("gen", "--seed", "7", "--n", "10", "--dim", "2", "--output", str(a))
    run_cli("gen", "--seed", "7", "--n", "10", "--dim", "2", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_check_valid(cfg_path, capsys):
    assert run_cli("check", "--input", str(cfg_path)) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert out["n"] == 4


def test_check_invalid_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"dimension": 2, "colors": [[["0", "0"]], [["1", "0"]], [["2", "0"]]]}
        )
    )
    assert run_cli("check", "--input", str(bad)) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"


def test_missing_file_exit_2(capsys):
    assert run_cli("check", "--input", "/nonexistent/cfg.json") == EXIT_INPUT


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "command, payload",
    [
        ("check", b'{"dimension":"abc","colors":[[["0","0"]],[["1","0"]],[["0","1"]]]}'),
        ("check", b'{"dimension":2.9,"colors":[[["0","0"]],[["1","0"]],[["0","1"]]]}'),
        ("check", b'{"dimension":true,"colors":[[["0"]],[["1"]]]}'),
        ("check", b'{"dimension":2,"colors":[[["\xff","0"]]]}'),
        ("check", DEEP_JSON),
        ("check", None),  # a directory
        ("separate", b'{"o":["\xff"]}'),
        ("separate", DEEP_JSON),
        ("densify", b"\x80"),
    ],
    ids=[
        "dimension-string", "dimension-float", "dimension-bool",
        "check-non-utf8", "check-deep-nesting", "check-directory",
        "separate-non-utf8", "separate-deep-nesting", "densify-non-utf8",
    ],
)
def test_unreadable_input_exit_2(tmp_path, capsys, command, payload):
    path = tmp_path / "input"
    if payload is None:
        path.mkdir()
    else:
        path.write_bytes(payload)
    assert run_cli(command, "--input", str(path)) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "input"


def test_depth_command(cfg_path, capsys):
    assert run_cli("depth", "--input", str(cfg_path), "--seed", "1") == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["depth"] >= 1
    assert len(out["O"]) == 2


def test_run_verify_cycle(cfg_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    svg = tmp_path / "out.svg"
    hg = tmp_path / "hypergraph.json"
    assert (
        run_cli(
            "run",
            "--input", str(cfg_path),
            "--output", str(report),
            "--svg", str(svg),
            "--hypergraph-out", str(hg),
        )
        == EXIT_OK
    )
    data = json.loads(report.read_text())
    assert data["verified"] is True
    assert svg.read_text().startswith("<svg")
    assert json.loads(hg.read_text())["part_sizes"] == [4, 4, 4]
    assert run_cli("verify", "--input", str(cfg_path), "--report", str(report)) == EXIT_OK
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["verified"] is True


def test_run_determinism(cfg_path, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run_cli("run", "--input", str(cfg_path), "--output", str(r1), "--seed", "5")
    run_cli("run", "--input", str(cfg_path), "--output", str(r2), "--seed", "5")
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_tampered_exit_1(cfg_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    run_cli("run", "--input", str(cfg_path), "--output", str(report))
    data = json.loads(report.read_text())
    cfg = json.loads(cfg_path.read_text())
    # replace Q_0 with a different point of color 0 and push O outside
    data["Q"][0] = [cfg["colors"][0][1]]
    data["O"] = ["-1000001", "-999999/2"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert (
        run_cli("verify", "--input", str(cfg_path), "--report", str(tampered))
        == EXIT_VERIFICATION
    )
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is False
    assert "counterexample" in out


@pytest.fixture(scope="module")
def n6_run(tmp_path_factory):
    """A configuration of `gen --seed 0 --n 6` and its genuine report."""
    base = tmp_path_factory.mktemp("n6")
    cfg, report = base / "cfg.json", base / "report.json"
    assert run_cli("gen", "--seed", "0", "--n", "6", "--output", str(cfg)) == EXIT_OK
    assert run_cli("run", "--input", str(cfg), "--output", str(report)) == EXIT_OK
    return cfg, json.loads(report.read_text())


def _cut_q0(data, cfg):
    data["Q"][0] = data["Q"][0][:1]


def _cut_q0_and_sizes(data, cfg):
    _cut_q0(data, cfg)
    data["sizes"][0] = 1


def _cut_q0_sizes_and_ratios(data, cfg):
    _cut_q0_and_sizes(data, cfg)
    data["ratios"][0] = "1/6"


def _add_point_outside_q0(data, cfg):
    kept = {tuple(p) for p in data["Q"][0]}
    data["Q"][0].append(next(p for p in cfg["colors"][0] if tuple(p) not in kept))


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda data, cfg: None, EXIT_OK),
        (_cut_q0, EXIT_INPUT),
        (_cut_q0_and_sizes, EXIT_INPUT),
        (_cut_q0_sizes_and_ratios, EXIT_OK),
        (lambda data, cfg: data.update(depth=data["depth"] + 1), EXIT_INPUT),
        (lambda data, cfg: data.update(depth=str(data["depth"])), EXIT_INPUT),
        (lambda data, cfg: data.update(sizes="all"), EXIT_INPUT),
        (lambda data, cfg: data.update(ratios=[1, 1, 1]), EXIT_INPUT),
        (lambda data, cfg: [data.pop(k) for k in ("sizes", "ratios", "depth")], EXIT_OK),
        # a containment counterexample wins over the stale sizes
        (_add_point_outside_q0, EXIT_VERIFICATION),
    ],
    ids=[
        "genuine", "q0-cut-sizes-stale", "q0-cut-ratios-stale", "q0-cut-consistent",
        "depth-off-by-one", "depth-as-string", "sizes-not-a-list", "ratios-not-strings",
        "no-recorded-numbers", "counterexample-first",
    ],
)
def test_verify_checks_recorded_numbers(n6_run, tmp_path, capsys, edit, expected):
    cfg_path, genuine = n6_run
    data = json.loads(json.dumps(genuine))
    edit(data, json.loads(cfg_path.read_text()))
    report = tmp_path / "edited.json"
    report.write_text(json.dumps(data))
    assert run_cli("verify", "--input", str(cfg_path), "--report", str(report)) == expected
    if expected == EXIT_INPUT:
        assert _one_json_error(capsys)["error"] == "input"


@pytest.mark.parametrize("n", [7, 16])
def test_verify_builds_one_sign_table(tmp_path, capsys, monkeypatch, n):
    # The certificate check and the depth recount share one table of O.
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    assert run_cli("gen", "--seed", "0", "--n", str(n), "--output", str(cfg)) == EXIT_OK
    assert run_cli("run", "--input", str(cfg), "--output", str(report)) == EXIT_OK
    capsys.readouterr()
    original, calls = geometry.pair_sign_table, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (geometry, depth, pipeline):
        monkeypatch.setattr(module, "pair_sign_table", counted)
    assert run_cli("verify", "--input", str(cfg), "--report", str(report)) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"verified": True}
    assert len(calls) == 1


@pytest.mark.parametrize("dump", [False, True])
def test_run_builds_two_sign_tables(tmp_path, capsys, monkeypatch, dump):
    # One table of O for the depth recount, one for the verification;
    # the hypergraph dump is the pipeline's own, not a rebuilt one.
    cfg, report, hg = (tmp_path / name for name in ("cfg.json", "r.json", "h.json"))
    assert run_cli("gen", "--seed", "0", "--n", "8", "--output", str(cfg)) == EXIT_OK
    original, calls = geometry.pair_sign_table, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (geometry, depth, pipeline):
        monkeypatch.setattr(module, "pair_sign_table", counted)
    argv = ["run", "--input", str(cfg), "--output", str(report)]
    assert run_cli(*argv, *(["--hypergraph-out", str(hg)] if dump else [])) == EXIT_OK
    assert len(calls) == 2
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "51d8aea287c19c7dc9ee3227fb2562fe99e64afdff309bab0c199a34def5a04f"
    )
    if dump:
        assert hashlib.sha256(hg.read_bytes()).hexdigest() == (
            "4bf004409432952df7be335ebd4ab37445365b01d34e2bcbbd89d2984d00b66b"
        )
        configuration = load_configuration(cfg.read_bytes())
        info = depth.rainbow_depth_at(
            configuration, json_point(json.loads(report.read_text())["O"])
        )
        h = hypergraph.partite_hypergraph((8, 8, 8), info.tuples)
        assert hg.read_bytes() == hypergraph.hypergraph_to_json(h)


def test_run_refuses_dimension_3_as_input(tmp_path, capsys):
    cfg = tmp_path / "cfg3.json"
    argv = ["gen", "--seed", "1", "--n", "2", "--dim", "3", "--output", str(cfg)]
    assert run_cli(*argv) == EXIT_OK
    assert run_cli("run", "--input", str(cfg)) == EXIT_INPUT
    message = "full pipeline requires dimension 2, got 3"
    assert _one_json_error(capsys) == {"error": "input", "message": message}


def test_densify_gate_refuses_huge_parts_at_once(tmp_path, capsys):
    # The tuple count stops at the gate: it never sums the ~10^5 terms.
    hg = tmp_path / "h.json"
    hg.write_text(json.dumps({"part_sizes": [10**5] * 3, "edges": []}))
    assert run_cli("densify", "--input", str(hg)) == EXIT_BUDGET
    err = _one_json_error(capsys)
    assert err["error"] == "budget"
    assert err["message"] == (
        "more than 10000000 candidate tuples, the gate; "
        "densify cannot extract exactly from parts this large"
    )


def test_densify_edgeless_answers_without_scoring(tmp_path, capsys, monkeypatch):
    # Every tuple ties at zero, so the least size-1 tuple wins; scoring
    # them all would make ~5.5 M comparisons at part sizes 9.
    calls = []
    compare = hypergraph.DensityValue._compare

    def counted(self, other):
        calls.append((self, other))
        return compare(self, other)

    monkeypatch.setattr(hypergraph.DensityValue, "_compare", counted)
    hg = tmp_path / "h.json"
    hg.write_text(json.dumps({"part_sizes": [9, 9, 9], "edges": []}))
    assert run_cli("densify", "--input", str(hg)) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"subsets": [[0], [0], [0]]}
    assert calls == []


_GOOD_HYPERGRAPH = {"part_sizes": [2, 2, 2], "edges": [[0, 1, 0], [1, 1, 1]]}


@pytest.mark.parametrize(
    "change",
    [
        {"edges": [[0.9, 1, 0]]},
        {"edges": [[True, 1, 0]]},
        {"edges": [["1", 1, 0]]},
        {"edges": [[0, 1, None]]},
        {"edges": ["010"]},
        {"edges": {"0": [0, 1, 0]}},
        {"part_sizes": [2.7, 2, 2]},
        {"part_sizes": [2, True, 2]},
        {"part_sizes": "222"},
        {"part_sizes": {"a": 2}},
    ],
)
def test_densify_reads_only_json_integers(tmp_path, capsys, change):
    hg = tmp_path / "h.json"
    hg.write_text(json.dumps(_GOOD_HYPERGRAPH))
    assert run_cli("densify", "--input", str(hg)) == EXIT_OK
    capsys.readouterr()
    hg.write_text(json.dumps({**_GOOD_HYPERGRAPH, **change}))
    assert run_cli("densify", "--input", str(hg)) == EXIT_INPUT
    assert _one_json_error(capsys)["error"] == "input"


def _run_with_dump(tmp_path, n):
    """`gen --seed 0 --n n`, then `run --hypergraph-out`: the
    configuration, the loaded report and the dump's path."""
    cfg, report, hg = (tmp_path / name for name in ("cfg.json", "r.json", "h.json"))
    assert run_cli("gen", "--seed", "0", "--n", str(n), "--output", str(cfg)) == EXIT_OK
    argv = ["run", "--input", str(cfg), "--output", str(report), "--hypergraph-out", str(hg)]
    assert run_cli(*argv) == EXIT_OK
    return json.loads(cfg.read_text()), json.loads(report.read_text()), hg


def test_densify_reproduces_the_run_extraction(tmp_path, capsys):
    # At n = 7 `run` extracts exactly and keeps S whole, so `densify` on
    # the dumped hypergraph prints the indices of the report's Q.
    cfg, data, hg = _run_with_dump(tmp_path, 7)
    assert data["stats"]["attempts"][0]["extraction_mode"] == "exact"
    assert data["stats"]["trim_steps"] == 0
    capsys.readouterr()
    assert run_cli("densify", "--input", str(hg)) == EXIT_OK
    subsets = json.loads(capsys.readouterr().out)["subsets"]
    points = [[cls[j] for j in sub] for cls, sub in zip(cfg["colors"], subsets)]
    assert points == data["Q"]


def test_local_extraction_reproduces_the_run_extraction(tmp_path):
    # At n = 10 `run` extracts by local search; `extract_dense_local` on
    # the dumped hypergraph, with the run's seed, finds attempt 0's box.
    cfg, data, hg = _run_with_dump(tmp_path, 10)
    assert data["stats"]["attempts"][0]["extraction_mode"] == "local"
    assert data["stats"]["trim_steps"] == 0
    h = hypergraph.hypergraph_from_json(hg.read_bytes())
    box = hypergraph.extract_dense_local(h, Fraction(1, 4), seed=0)
    points = [[cls[j] for j in sub] for cls, sub in zip(cfg["colors"], box)]
    assert points == data["Q"]


def test_verify_hash_mismatch(tmp_path, cfg_path, capsys):
    report = tmp_path / "report.json"
    run_cli("run", "--input", str(cfg_path), "--output", str(report))
    other = tmp_path / "other.json"
    run_cli("gen", "--seed", "9", "--n", "4", "--dim", "2", "--output", str(other))
    assert run_cli("verify", "--input", str(other), "--report", str(report)) == EXIT_INPUT


def test_tverberg_command(tmp_path, capsys):
    cfg = tmp_path / "cfg8.json"
    run_cli("gen", "--seed", "0", "--n", "8", "--dim", "2", "--output", str(cfg))
    assert run_cli("tverberg", "--input", str(cfg), "--k", "3") == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert len(out["simplices"]) == 3


def test_tverberg_gate_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg13.json"
    run_cli("gen", "--seed", "0", "--n", "13", "--dim", "2", "--output", str(cfg))
    assert run_cli("tverberg", "--input", str(cfg), "--k", "3") == EXIT_BUDGET


def test_densify_command(cfg_path, tmp_path, capsys):
    report = tmp_path / "report.json"
    hg = tmp_path / "h.json"
    run_cli("run", "--input", str(cfg_path), "--output", str(report), "--hypergraph-out", str(hg))
    capsys.readouterr()
    assert run_cli("densify", "--input", str(hg), "--epsilon", "1/3") == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert len(out["subsets"]) == 3


def test_separate_command(tmp_path, capsys):
    state = {
        "o": ["1", "1"],
        "sets": [
            [["0", "0"], ["5", "1/2"]],
            [["4", "0"], ["1/2", "9/2"]],
            [["0", "4"], ["13/3", "11/3"]],
        ],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert run_cli("separate", "--input", str(path)) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert "trace" in out and len(out["q"]) == 3


SEPARATED_STATE = {"o": ["3", "3"], "sets": [[["0", "0"]], [["10", "0"]], [["0", "10"]]]}


@pytest.mark.parametrize("max_steps, expected", [("0", EXIT_OK), ("1", EXIT_OK)])
def test_separate_max_steps(tmp_path, capsys, max_steps, expected):
    # separate has no step-bound flag; an already separated family needs no
    # step, so its output matches the library trim at step bounds 0 and 1
    path = tmp_path / "state.json"
    path.write_text(json.dumps(SEPARATED_STATE))
    assert run_cli("separate", "--input", str(path)) == expected
    out = json.loads(capsys.readouterr().out)
    assert out["q"] == SEPARATED_STATE["sets"]
    assert out["trace"]["step_count"] == 0
    sets = [[json_point(p) for p in pts] for pts in SEPARATED_STATE["sets"]]
    q_sets, trace = separation.trim_to_separated(
        sets, json_point(SEPARATED_STATE["o"]), max_steps=int(max_steps)
    )
    assert [list(q) for q in q_sets] == sets
    assert trace.to_json_dict() == out["trace"]


def test_separate_one_set_exit_2(tmp_path, capsys):
    # {O} and one set are two bodies; a separated family needs d + 1 = 3
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"o": ["3", "3"], "sets": [[["0", "0"], ["1", "0"]]]}))
    assert run_cli("separate", "--input", str(path)) == EXIT_INPUT
    assert _one_json_error(capsys) == {
        "error": "input",
        "message": "need at least d+1 = 3 bodies, got 2",
    }


def test_run_paper_epsilon(cfg_path, tmp_path):
    report = tmp_path / "report.json"
    assert (
        run_cli("run", "--input", str(cfg_path), "--output", str(report), "--epsilon", "paper")
        == EXIT_OK
    )
    assert json.loads(report.read_text())["params"]["epsilon"] == "1/256"


def test_console_entry_point(tmp_path):
    # one subprocess round-trip through the installed entry point
    out = tmp_path / "cfg.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdepth.cli", "gen", "--seed", "1",
         "--n", "3", "--dim", "2", "--output", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()



def test_python_dash_m_rainbowdepth(tmp_path):
    cfg = tmp_path / "cfg.json"
    assert run_cli("gen", "--seed", "1", "--n", "3", "--output", str(cfg)) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdepth", "check", "--input", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True



def _one_json_error(capsys) -> dict:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    return json.loads(err[0])


def test_verify_names_both_dimensions(n6_run, tmp_path, capsys):
    # A planar configuration against a report whose O has three coordinates.
    cfg_path, genuine = n6_run
    report = tmp_path / "report.json"
    report.write_text(json.dumps({**genuine, "O": genuine["O"] + ["0"]}))
    assert run_cli("verify", "--input", str(cfg_path), "--report", str(report)) == EXIT_INPUT
    assert _one_json_error(capsys) == {
        "error": "input",
        "message": "O has dimension 3, the configuration 2",
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data.pop("Q"), "report missing O/Q fields: 'Q'"),
        (
            lambda data: data.update(Q=5),
            "report has malformed O/Q fields: 'int' object is not iterable",
        ),
    ],
    ids=["missing", "malformed"],
)
def test_verify_report_o_and_q_errors(n6_run, tmp_path, capsys, edit, message):
    cfg_path, genuine = n6_run
    data = json.loads(json.dumps(genuine))
    edit(data)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(data))
    assert run_cli("verify", "--input", str(cfg_path), "--report", str(report)) == EXIT_INPUT
    assert _one_json_error(capsys) == {"error": "input", "message": message}


@pytest.mark.parametrize(
    "command, point, kind",
    [("check", "12", "str"), ("verify", "12", "str"), ("separate", {"3": 0, "4": 0}, "dict")],
    ids=["check", "verify", "separate"],
)
def test_point_must_be_a_json_array(n6_run, tmp_path, capsys, command, point, kind):
    # A string or an object iterates, but is no point: "12" is not (1, 2).
    path = tmp_path / "input.json"
    argv = [command, "--input", str(path)]
    if command == "check":
        path.write_text(json.dumps({"dimension": 2, "colors": [[point], ["35"], ["71"]]}))
    elif command == "separate":
        path.write_text(json.dumps({**SEPARATED_STATE, "o": point}))
    else:
        cfg_path, genuine = n6_run
        path.write_text(json.dumps({**genuine, "O": point}))
        argv = ["verify", "--input", str(cfg_path), "--report", str(path)]
    assert run_cli(*argv) == EXIT_INPUT
    message = f"a point must be a JSON array, got {kind}"
    assert _one_json_error(capsys) == {"error": "input", "message": message}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--input", "cfg.json", "--mode", "exact"], "--mode"),
        (["run"], "--input"),
        (["gen", "--n", "abc"], "--n"),
    ],
    ids=["retired-flag", "missing-flag", "bad-value"],
)
def test_argument_errors_are_one_json_line(capsys, argv, flag):
    assert run_cli(*argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    err = json.loads(captured.err)
    assert err["error"] == "input" and flag in err["message"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rainbowdepth run")


def test_one_parser_serves_every_call(cfg_path, tmp_path, capsys):
    """One parser per process: a value parsed in one call is not the
    default of the next, and a usage error after a good call is still
    one JSON line."""
    assert build_parser() is build_parser()
    seeded, default = tmp_path / "seeded.json", tmp_path / "default.json"
    argv = ["run", "--input", str(cfg_path), "--output"]
    assert run_cli(*argv, str(seeded), "--seed", "5") == EXIT_OK
    assert run_cli(*argv, str(default)) == EXIT_OK
    assert json.loads(seeded.read_text())["params"]["seed"] == 5
    assert json.loads(default.read_text())["params"]["seed"] == 0
    capsys.readouterr()
    assert run_cli("run", "--input", str(cfg_path), "--mode", "exact") == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["error"] == "input"


# Every subcommand's options, in order; a new knob edits this on purpose.
CLI_OPTIONS = {
    "gen": ["--seed", "--n", "--dim", "--distribution", "--format", "--output"],
    "check": ["--input", "--format"],
    "depth": ["--input", "--strategy", "--seed", "--output"],
    "tverberg": ["--input", "--k", "--output"],
    "densify": ["--input", "--epsilon", "--output"],
    "separate": ["--input", "--output"],
    "run": ["--input", "--output", "--svg", "--hypergraph-out", "--epsilon", "--strategy", "--seed"],
    "verify": ["--input", "--report"],
}


def test_cli_surface():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_OPTIONS


def _separate_argv(tmp_path):
    """Full n=6 classes around their sampled deepest point: trimming needs
    the separation LP and at least one ham-sandwich cut."""
    cfg = generate(GeneratorSpec(seed=0, n=6, d=2))
    o_point = deepest_point(cfg, seed=0).witness
    state = {
        "o": [str(c) for c in o_point],
        "sets": [[[str(c) for c in p] for p in cls] for cls in cfg.colors],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    return ["separate", "--input", str(path)]


def _tverberg_3d_argv(tmp_path):
    """A d = 3 search, which decides each tuple with the margin LP (the
    planar search clips and never calls it); small enough for the gate."""
    path = tmp_path / "cfg3d.json"
    run_cli("gen", "--seed", "0", "--n", "2", "--dim", "3", "--output", str(path))
    return ["tverberg", "--input", str(path), "--k", "2"]


def _lp_fails(*args):
    return LPResult("unbounded", None, None)


@pytest.mark.parametrize(
    "argv, module, name, fake, message",
    [
        (_separate_argv, separation, "solve_lp_max", _lp_fails, "separation LP"),
        (_separate_argv, separation, "satisfies_bisection_contract",
         lambda h, sets: False, "ham-sandwich"),
        (_tverberg_3d_argv, tverberg, "solve_lp_max", _lp_fails, "margin LP"),
    ],
    ids=["separation-lp", "ham-sandwich", "margin-lp"],
)
def test_broken_internal_contract_exit_1(
    tmp_path, capsys, monkeypatch, argv, module, name, fake, message
):
    args = argv(tmp_path)
    monkeypatch.setattr(module, name, fake)
    assert run_cli(*args) == EXIT_VERIFICATION
    err = _one_json_error(capsys)
    assert err["error"] == "internal" and message in err["message"]


@pytest.mark.parametrize(
    "coordinate",
    ['"1e400000"', '"1e1000000000"', "1" + "0" * 5000],
    ids=["string-1e400000", "string-1e1000000000", "json-int-5001-digits"],
)
def test_huge_coordinate_exit_3_without_traceback(tmp_path, coordinate):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"dimension": 2, "colors": [[[%s, "0"]], [["1", "0"]], [["0", "1"]]]}'
        % coordinate
    )
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdepth.cli", "check", "--input", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_BUDGET
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "Traceback" not in proc.stderr
    assert json.loads(err[0])["error"] == "budget"


# A JSON integer of 1,501 digits (4,983 bits): under Python's digit
# limit, so it parses, but over MAX_COORDINATE_BITS.
BIG_JSON_INT = "1" + "0" * 1500


def _big_int_check(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(
        '{"dimension": 2, "colors": [[[%s, "0"]], [["1", "0"]], [["0", "1"]]]}'
        % BIG_JSON_INT
    )
    return ["check", "--input", str(path)]


def _big_int_separate(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(
        '{"o": [%s, "0"], "sets": [[["1", "0"]], [["0", "1"]], [["3", "3"]]]}'
        % BIG_JSON_INT
    )
    return ["separate", "--input", str(path)]


def _big_int_verify(tmp_path):
    cfg = tmp_path / "cfg.json"
    report = tmp_path / "report.json"
    assert run_cli("gen", "--seed", "0", "--n", "3", "--output", str(cfg)) == EXIT_OK
    assert run_cli("run", "--input", str(cfg), "--output", str(report)) == EXIT_OK
    text = report.read_text()
    o_field = '"O":[' + text.split('"O":[', 1)[1].split("]", 1)[0] + "]"
    report.write_text(text.replace(o_field, '"O":[%s,"0"]' % BIG_JSON_INT))
    return ["verify", "--input", str(cfg), "--report", str(report)]


@pytest.mark.parametrize(
    "argv",
    [_big_int_check, _big_int_separate, _big_int_verify],
    ids=["check", "separate", "verify-report"],
)
def test_big_json_integer_coordinate_exit_3(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowdepth.cli", *argv(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_BUDGET
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "Traceback" not in proc.stderr
    assert json.loads(err[0])["error"] == "budget"
    assert "integer coordinate" in json.loads(err[0])["message"]


# --- fuzzing the input files of every reading subcommand ---------------------

_coordinate = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-7/3", "10", "1e3", "0.25", "1/0", "x", ""]),
    st.integers(-20, 20),
    st.floats(),
    st.booleans(),
    st.none(),
)
_json_point = st.lists(_coordinate, max_size=3)
_json_points = st.lists(_json_point, max_size=3)
# Planar points and classes that often pass validation, so the fuzz
# reaches the stages behind the readers.
_plane_point = st.lists(
    st.integers(-20, 20) | st.sampled_from(["1/2", "-7/3", "10", "0.25"]),
    min_size=2,
    max_size=2,
)
_plane_classes = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(_plane_point, min_size=n, max_size=n), min_size=3, max_size=3
    )
)
_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=4)
)
_any_json = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["dimension", "colors", "o", "sets", "part_sizes", "edges", "O", "Q"])
        | st.text(max_size=3),
        inner,
        max_size=3,
    ),
    max_leaves=10,
)
_hypergraph = st.lists(st.integers(1, 3), min_size=2, max_size=4).flatmap(
    lambda sizes: st.fixed_dictionaries(
        {
            "part_sizes": st.just(sizes),
            "edges": st.lists(
                st.tuples(*(st.integers(0, size - 1) for size in sizes)), max_size=12
            ),
        }
    )
)
_shaped_json = st.one_of(
    st.fixed_dictionaries({"dimension": st.just(2), "colors": _plane_classes}),
    st.fixed_dictionaries({"o": _plane_point, "sets": _plane_classes}),
    _hypergraph,
    st.fixed_dictionaries(
        {
            "dimension": st.sampled_from([2, 1, 0, -1, "2", 2.5, True, None]),
            "colors": st.lists(_json_points, max_size=4),
        }
    ),
    st.fixed_dictionaries({"o": _json_point, "sets": st.lists(_json_points, max_size=4)}),
    st.fixed_dictionaries(
        {
            "part_sizes": st.lists(
                st.integers(-1, 4) | st.sampled_from(["2", 2.0, None, True]), max_size=4
            ),
            "edges": st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=6),
        }
    ),
    st.fixed_dictionaries(
        {
            "schema_version": st.sampled_from([1, 1, 2, "1", None]),
            "O": _json_point,
            "Q": st.lists(_json_points, max_size=4),
        },
        optional={
            "sizes": _any_json,
            "ratios": _any_json,
            "depth": _any_json,
            "input_hash": _any_json,
        },
    ),
)
_payload = st.one_of(
    st.binary(max_size=64),
    (_shaped_json | _any_json).map(lambda value: json.dumps(value).encode()),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A working directory with one valid n = 3 configuration and its
    report, for `verify` fuzzing that gets past the first reader."""
    path = tmp_path_factory.mktemp("fuzz")
    cfg, report = path / "cfg.json", path / "report.json"
    assert run_cli("gen", "--seed", "0", "--n", "3", "--output", str(cfg)) == EXIT_OK
    assert run_cli("run", "--input", str(cfg), "--output", str(report)) == EXIT_OK
    return path


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(
        ["check", "depth", "tverberg", "densify", "separate", "run", "verify"]
    ),
    payload=_payload,
    report=st.one_of(
        _payload,
        st.none(),
        st.tuples(
            st.sampled_from(["O", "Q", "sizes", "ratios", "depth"]),
            _any_json | _plane_point | _plane_classes,
        ),
    ),
    valid_cfg=st.booleans(),
)
def test_cli_fuzz_exit_codes_and_one_json_error_line(
    fuzz_dir, command, payload, report, valid_cfg
):
    """Arbitrary bytes and JSON-shaped values as input files, in
    process: an exit code in {0, 1, 2, 3}, at most one stderr line and
    that one a JSON object, and no exception out of `cli_main`."""
    path = fuzz_dir / "input"
    path.write_bytes(payload)
    argv = [command, "--input", str(path)]
    if command == "tverberg":
        argv += ["--k", "2"]
    elif command == "verify":
        if valid_cfg:
            argv[2] = str(fuzz_dir / "cfg.json")
        if not isinstance(report, bytes):
            # the valid report, or it with one field replaced
            data = json.loads((fuzz_dir / "report.json").read_text())
            if report is not None:
                data[report[0]] = report[1]
            report = json.dumps(data).encode()
        report_path = fuzz_dir / "fuzzed-report"
        report_path.write_bytes(report)
        argv += ["--report", str(report_path)]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code in (EXIT_OK, EXIT_VERIFICATION, EXIT_INPUT, EXIT_BUDGET)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    if lines:
        assert isinstance(json.loads(lines[0]), dict)
