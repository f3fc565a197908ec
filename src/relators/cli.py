"""Command-line surface.

Subcommands: sample, check-sc, mincond, tau, slopes, certify, embed,
experiment, tau-count.  Relator files hold one word per line in the text
encoding (``x1 x2 X1 X2``); blank lines and ``#`` comments are ignored;
``-`` reads stdin.  Structured results are emitted as JSON, experiment
results as CSV.

Exit status: 0 success, 1 the checked property is false (check-sc,
mincond), 2 bad input or a refused budget (`ValueError`, or `OSError` from
a file that cannot be read or written), 3 a resource cap was hit
(`TermLimitExceeded`).  These errors are reported as one JSON line on
stderr, ``{"error": <exception type>, "message": <text>}``, with no
traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .abelian import Slope, count_slope_classes, enumerate_valid_slopes, slope_basis
from .embed import embed_presentation
from .experiment import (
    ExperimentConfig,
    PredicateSpec,
    parse_config,
    rows_to_csv,
    run_experiment,
    tau_count,
)
from .fox import GroupRingElement, format_ring_element
from .mincond import (
    MinConditionFailure,
    check_minimum_condition,
    tau_deficiency_one,
)
from .novikov import TermLimitExceeded, injectivity_certificate
from .smallcanc import check_small_cancellation
from .words import (
    CyclicWord,
    Presentation,
    Word,
    format_word,
    parse_cyclic_word,
    sample_cyclically_reduced,
)


def to_jsonable(obj):
    """Recursively convert package values to JSON-encodable structures."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (Word, CyclicWord)):
        return format_word(obj)
    if isinstance(obj, GroupRingElement):
        return format_ring_element(obj)
    if isinstance(obj, Slope):
        return list(obj.values)
    if isinstance(obj, Presentation):
        return {"rank": obj.rank, "relators": [format_word(r) for r in obj.relators]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(json.dumps(to_jsonable(obj), indent=2) + "\n", out)


def _read_lines(path: str) -> list[str]:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path) as fh:
            raw = fh.read()
    lines = []
    for line in raw.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    return lines


def _read_relators(path: str, rank: Optional[int]) -> tuple[CyclicWord, ...]:
    lines = _read_lines(path)
    if not lines:
        raise ValueError("no relators in input")
    if rank is None:
        rank = max(
            max(abs(a) for a in parse_cyclic_word(line).letters) for line in lines
        )
    return tuple(parse_cyclic_word(line, rank) for line in lines)


def _parse_phi(text: str) -> Slope:
    return Slope(int(x) for x in text.split(","))


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _cmd_sample(args) -> int:
    rng = random.Random(args.seed)
    lines = [
        format_word(sample_cyclically_reduced(args.rank, args.length, rng))
        for _ in range(args.count)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check_sc(args) -> int:
    relators = _read_relators(args.relators, args.rank)
    ok, report = check_small_cancellation(relators, args.lam)
    _emit_json({"passed": ok, "lambda": args.lam, "report": report}, args.out)
    return 0 if ok else 1


def _cmd_mincond(args) -> int:
    phi = _parse_phi(args.phi)
    relators = _read_relators(args.relators, len(phi))
    result = check_minimum_condition(relators, phi)
    if isinstance(result, MinConditionFailure):
        _emit_json({"satisfied": False, "failure": result}, args.out)
        return 1
    _emit_json({"satisfied": True, "witness": result}, args.out)
    return 0


def _cmd_tau(args) -> int:
    relators = _read_relators(args.relators, args.rank)
    rank = args.rank if args.rank is not None else relators[0].rank
    out = tau_deficiency_one(relators, rank)
    _emit("\n".join(format_word(r) for r in out) + "\n", args.out)
    return 0


def _cmd_slopes(args) -> int:
    relators = _read_relators(args.relators, args.rank)
    p = Presentation(relators[0].rank, relators)
    basis = slope_basis(p)
    valid = enumerate_valid_slopes(p, args.box)
    if valid:
        classes, reps = count_slope_classes(p, valid)
    else:
        classes, reps = 0, []
    _emit_json(
        {
            "rank": p.rank,
            "box": args.box,
            "kernel_basis": basis,
            "valid_slopes": valid,
            "class_count": classes,
            "class_representatives": reps,
        },
        args.out,
    )
    return 0


def _cmd_certify(args) -> int:
    phi = _parse_phi(args.phi)
    relators = _read_relators(args.relators, len(phi))
    p = Presentation(len(phi), relators)
    cert = injectivity_certificate(p, phi, args.order, term_cap=args.term_cap)
    rows = [
        {
            "min_height": row.min_height,
            "lowest_word": format_word(row.lowest_word),
            "lowest_coeff": str(row.lowest_coeff),
            "case": row.case_tag,
        }
        for row in cert.lowest_terms.rows
    ]
    _emit_json(
        {
            "order": cert.truncation_order,
            "error_min_degree": cert.error_min_degree,
            "inverse_term_count": cert.term_count,
            "rows": rows,
            "witness": cert.witness,
        },
        args.out,
    )
    return 0


def _cmd_embed(args) -> int:
    phi = _parse_phi(args.phi)
    relators = _read_relators(args.relators, len(phi))
    p = Presentation(len(phi), relators)
    plan, report = embed_presentation(
        p,
        phi,
        args.epsilon,
        guarantee_c16=args.guarantee_c16,
        max_block_height=args.max_block_height,
    )
    _emit_json(
        {
            "block_growth": plan.block_growth,
            "target_rank": plan.target_rank,
            "target_slope": plan.target_slope,
            "generator_images": [format_word(w) for w in plan.words],
            "target_relators": [format_word(s) for s in report.target],
            "word_piece_length": report.word_piece_report.longest_piece_length,
            "piece_length": report.piece_report.longest_piece_length,
            "small_cancellation_ok": report.small_cancellation_ok,
            "witness": report.witness,
            "psi_min": list(report.psi_min),
            "phi_min": list(report.phi_min),
            "length_stats": report.length_stats,
        },
        args.out,
    )
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.out is not None:
            overrides["out"] = args.out
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
    else:
        if not (args.n and args.m and args.lengths and args.predicate):
            # a usage error, reported like argparse's own (status 2)
            sys.stderr.write(
                "relators experiment: error: experiment needs --config or all"
                " of --n --m --lengths --predicate\n"
            )
            raise SystemExit(2)
        spec = PredicateSpec(
            name=args.predicate,
            lam=args.lam,
            k=args.k,
            box=args.box,
        )
        cfg = ExperimentConfig(
            n=args.n,
            m=args.m,
            lengths=tuple(int(x) for x in args.lengths.split(",")),
            predicate=spec,
            mode=args.mode,
            trials=args.trials,
            seed=args.seed if args.seed is not None else 0,
            workers=args.workers if args.workers is not None else 1,
            budget=args.budget,
            timing=args.timing,
            out=args.out,
        )
    rows = run_experiment(cfg)
    _emit(rows_to_csv(rows), cfg.out)
    return 0


def _cmd_tau_count(args) -> int:
    result = tau_count(args.n, args.l, budget=args.budget)
    _emit_json(
        {
            "n": result.n,
            "l": result.l,
            "tuple_count": result.r_count,
            "betti1_count": result.r_prime_count,
            "tau_image_count": result.tau_image_count,
            "tuple_count_at_l_plus_4": result.r_count_extended,
            "injective": result.injective,
            "image_fraction": result.image_fraction,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relators",
        description="Word combinatorics, small cancellation and graded "
        "certificates for group presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, relators_file=True):
        if relators_file:
            sp.add_argument(
                "relators",
                nargs="?",
                default="-",
                help="relator file, one word per line ('-' = stdin)",
            )
        sp.add_argument("--out", help="write output to this path instead of stdout")

    sp = sub.add_parser("sample", help="sample cyclically reduced words")
    sp.add_argument("-n", "--rank", type=int, required=True)
    sp.add_argument("-l", "--length", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp, relators_file=False)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("check-sc", help="check the C'(lambda) condition")
    sp.add_argument("--lambda", dest="lam", type=_parse_fraction, required=True)
    sp.add_argument("--rank", type=int)
    add_common(sp)
    sp.set_defaults(func=_cmd_check_sc)

    sp = sub.add_parser("mincond", help="decide the minimum condition")
    sp.add_argument("--phi", required=True, help="slope values, e.g. '0,-1'")
    add_common(sp)
    sp.set_defaults(func=_cmd_mincond)

    sp = sub.add_parser("tau", help="apply the commutator insertion map")
    sp.add_argument("--rank", type=int)
    add_common(sp)
    sp.set_defaults(func=_cmd_tau)

    sp = sub.add_parser("slopes", help="kernel basis, valid slopes, classes")
    sp.add_argument("--box", type=int, default=8)
    sp.add_argument("--rank", type=int)
    add_common(sp)
    sp.set_defaults(func=_cmd_slopes)

    sp = sub.add_parser("certify", help="graded truncated-inverse certificate")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--term-cap", type=int, default=1_000_000)
    add_common(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("embed", help="embed into a small-cancellation target")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--guarantee-c16", action="store_true")
    sp.add_argument("--epsilon", type=_parse_fraction)
    sp.add_argument("--max-block-height", type=int, default=64)
    add_common(sp)
    sp.set_defaults(func=_cmd_embed)

    sp = sub.add_parser("experiment", help="seeded batch experiments to CSV")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--lengths", help="comma-separated lengths")
    sp.add_argument(
        "--predicate",
        choices=["c-prime", "b1", "min-condition", "slope-classes", "certificate"],
    )
    sp.add_argument("--lambda", dest="lam", type=_parse_fraction)
    sp.add_argument("--k", type=int)
    sp.add_argument("--box", type=int, default=8)
    sp.add_argument("--mode", choices=["monte-carlo", "exhaustive"], default="monte-carlo")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--budget", type=int, default=1_000_000)
    sp.add_argument("--timing", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("tau-count", help="exact counts for the insertion map")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--budget", type=int, default=1_000_000)
    add_common(sp, relators_file=False)
    sp.set_defaults(func=_cmd_tau_count)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TermLimitExceeded as exc:
        return _error(exc, 3)
    except (ValueError, OSError) as exc:
        return _error(exc, 2)


def _error(exc: Exception, status: int) -> int:
    error = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(error) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
