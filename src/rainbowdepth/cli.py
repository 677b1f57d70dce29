"""Command-line interface.

Subcommands: gen, check, depth, tverberg, densify, separate, run, verify.
Exit codes: 0 success/verified; 1 a failed verification,
TrimExhaustedError, PipelineStageError or AssertionError ("internal");
2 InputError or OSError; 3 BudgetExceededError or GenerationError.
Errors are written to stderr as one-line JSON objects so callers can
parse them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import (
    DISTRIBUTIONS,
    GeneratorSpec,
    generate,
    json_point,
    load_configuration,
    parse_json,
    save_configuration,
)
from .depth import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    DepthResult,
    deepest_point,
)
from .errors import (
    BudgetExceededError,
    GenerationError,
    InputError,
    PipelineStageError,
    TrimExhaustedError,
)
from .geometry import format_rational
from .hypergraph import (
    extract_dense_exact,
    hypergraph_from_json,
    hypergraph_to_json,
)
from .pipeline import (
    PipelineParams,
    configuration_hash,
    load_report,
    report_bytes,
    report_o_and_q,
    resolve_epsilon,
    run_pipeline,
    verify_certificate,
)
from .separation import trim_to_separated
from .tverberg import find_disjoint_rainbow_simplices

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _emit(data, path=None):
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_bytes(data: bytes, path=None):
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "message": str(exc)}
    details = getattr(exc, "details", None) or getattr(exc, "witness", None)
    if details:
        payload["details"] = json.loads(json.dumps(details, default=str))
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _points_json(points) -> list:
    return [[format_rational(c) for c in p] for p in points]


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError, so that it reaches stderr
    as one JSON line like every other error; `--help` still prints."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `rainbowdepth` argument parser, built once per process: every
    default is immutable and parsing leaves the parser unchanged, so
    repeated `cli_main` calls share it instead of paying about a
    millisecond each to rebuild it."""
    parser = _Parser(
        prog="rainbowdepth",
        description=(
            "Find and certify a point O and large colored subsets whose "
            "rainbow simplices all contain O strictly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random configuration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument(
        "--distribution", default=GeneratorSpec.distribution, choices=DISTRIBUTIONS
    )
    p.add_argument("--format", default="json", choices=("json", "plain"))
    p.add_argument("--output")

    p = sub.add_parser("check", help="validate a configuration file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="json", choices=("json", "plain"))

    p = sub.add_parser("depth", help="search for a deep point")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", default=DEFAULT_STRATEGY, choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("tverberg", help="disjoint rainbow simplices search")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("densify", help="exact dense extraction on a hypergraph")
    p.add_argument("--input", required=True, help="hypergraph JSON file")
    p.add_argument("--epsilon", default=PipelineParams.epsilon)
    p.add_argument("--output")

    p = sub.add_parser("separate", help="trim dumped sets to a separated family")
    p.add_argument(
        "--input",
        required=True,
        help='JSON {"o": [...], "sets": [[[x,y],...],...]} with rational strings',
    )
    p.add_argument("--output")

    p = sub.add_parser("run", help="full pipeline on a configuration")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--svg")
    p.add_argument("--hypergraph-out")
    p.add_argument(
        "--epsilon", default=PipelineParams.epsilon, help='rational string or "paper"'
    )
    p.add_argument("--strategy", default=DEFAULT_STRATEGY, choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="re-check a report against its configuration")
    p.add_argument("--input", required=True, help="configuration file")
    p.add_argument("--report", required=True)
    return parser


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        seed=args.seed,
        n=args.n,
        d=args.dim,
        distribution=args.distribution,
    )
    cfg = generate(spec)
    _write_bytes(save_configuration(cfg, args.format), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    cfg = load_configuration(_read(args.input), args.format)
    _emit(
        {
            "valid": True,
            "dimension": cfg.dimension,
            "n": cfg.n,
            "colors": cfg.num_colors,
            "input_hash": configuration_hash(cfg),
        }
    )
    return EXIT_OK


def _cmd_depth(args) -> int:
    cfg = load_configuration(_read(args.input))
    result: DepthResult = deepest_point(cfg, strategy=args.strategy, seed=args.seed)
    _emit(
        {
            "O": [format_rational(c) for c in result.witness],
            "depth": result.depth,
            "candidates_examined": result.candidates_examined,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_tverberg(args) -> int:
    cfg = load_configuration(_read(args.input))
    cert = find_disjoint_rainbow_simplices(cfg.colors, args.k)
    if cert is None:
        _emit({"found": False}, args.output)
        return EXIT_VERIFICATION
    _emit(
        {
            "found": True,
            "simplices": [list(t) for t in cert.simplices],
            "witness": [format_rational(c) for c in cert.witness],
        },
        args.output,
    )
    return EXIT_OK


def _cmd_densify(args) -> int:
    h = hypergraph_from_json(_read(args.input))
    epsilon = resolve_epsilon(args.epsilon, h.d)
    subsets = extract_dense_exact(h, epsilon)
    _emit({"subsets": [list(s) for s in subsets]}, args.output)
    return EXIT_OK


def _cmd_separate(args) -> int:
    data = parse_json(_read(args.input), "trim-state JSON")
    try:
        o_point = json_point(data["o"])
        sets = [[json_point(p) for p in pts] for pts in data["sets"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad trim-state JSON: {exc}") from exc
    q_sets, trace = trim_to_separated(sets, o_point)
    _emit(
        {
            "q": [_points_json(q) for q in q_sets],
            "trace": trace.to_json_dict(),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_configuration(_read(args.input))
    params = PipelineParams(
        epsilon=args.epsilon,
        depth_strategy=args.strategy,
        seed=args.seed,
    )
    bundle = run_pipeline(cfg, params)
    _write_bytes(report_bytes(bundle), args.output)
    if args.hypergraph_out:
        _write_bytes(hypergraph_to_json(bundle.hypergraph), args.hypergraph_out)
    if args.svg:
        from .svg import render_svg

        with open(args.svg, "w") as fh:
            fh.write(render_svg(cfg, bundle))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = load_configuration(_read(args.input))
    data = load_report(_read(args.report))
    recorded_hash = data.get("input_hash")
    if recorded_hash and recorded_hash != configuration_hash(cfg):
        raise InputError("report input_hash does not match the configuration")
    o_point, q_sets = report_o_and_q(data)
    counter = verify_certificate(cfg, o_point, q_sets, report=data)
    if counter is None:
        _emit({"verified": True})
        return EXIT_OK
    _emit(
        {
            "verified": False,
            "counterexample": {
                "tuple": list(counter.index_tuple),
                "vertices": _points_json(counter.vertices),
                "reason": counter.reason,
            },
        }
    )
    return EXIT_VERIFICATION


_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "depth": _cmd_depth,
    "tverberg": _cmd_tverberg,
    "densify": _cmd_densify,
    "separate": _cmd_separate,
    "run": _cmd_run,
    "verify": _cmd_verify,
}


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        _error("input", exc)
        return EXIT_INPUT
    except (BudgetExceededError, GenerationError) as exc:
        _error("budget", exc)
        return EXIT_BUDGET
    except TrimExhaustedError as exc:
        _error("trim-exhausted", exc)
        return EXIT_VERIFICATION
    except PipelineStageError as exc:
        _error(f"pipeline-{exc.stage}", exc)
        return EXIT_VERIFICATION
    except AssertionError as exc:  # a broken internal contract
        _error("internal", exc)
        return EXIT_VERIFICATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
