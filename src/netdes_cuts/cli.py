"""Command-line entry points: run the loop, query the oracle, generate data."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import format_rational, load_instance, save_instance, validate_instance
from .engine import (
    FAMILIES,
    BudgetExceededError,
    Config,
    brute_force_ip,
    cutting_plane_loop,
    generate_instance,
)


class _Parser(argparse.ArgumentParser):
    """Reports bad input as one ``prog: error: ...`` line with exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected):
    """argparse type: ``convert`` the text and keep values passing ``ok``."""

    def parse(text):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _output_path(text):
    """argparse type: a file path that can be written, checked before any work."""
    try:
        open(text, "a").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {text}: {exc.strerror}") from None
    return text


def _int_list(text):
    return tuple(int(c) for c in text.split(","))


def _family_list(text):
    return tuple(f for f in text.split(",") if f)


_ROUNDS = _checked(int, lambda v: v >= 1, "an integer >= 1")
_YBOUND = _checked(int, lambda v: v >= 0, "an integer >= 0")
_EPS = _checked(Fraction, lambda v: v > 0, "a positive rational such as 1/1000000")
_CUTS = _checked(_family_list, lambda fams: set(fams) <= set(FAMILIES), "families from " + ",".join(FAMILIES))
_CAPACITIES = _checked(_int_list, lambda caps: all(c > 0 for c in caps), "positive integers such as 1,3")


def main(argv=None) -> int:
    parser = _Parser(prog="netdes-cuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="cutting-plane loop over an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument(
        "--cuts", type=_CUTS, default=",".join(FAMILIES), help="comma-separated families to enable"
    )
    run.add_argument("--rounds", type=_ROUNDS, default=50)
    run.add_argument("--eps", type=_EPS, default="1/1000000", help="violation threshold (rational)")
    run.add_argument("--report", type=_output_path, help="write a JSON report here")
    run.add_argument("--oracle-ybound", type=_YBOUND, help="also solve the grid oracle with this bound")
    run.add_argument(
        "--dump-lp", type=_output_path, help="write the final relaxation in LP text format"
    )

    oracle = sub.add_parser("oracle", help="brute-force optimum over an installation grid")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--ybound", type=_YBOUND, help="uniform per-variable grid bound")
    oracle.add_argument("--exact", action="store_true", help="price flows in exact arithmetic")

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--facilities", type=_CAPACITIES, default="1,3", help='capacities, e.g. "1,3"')
    gen.add_argument("--demand-scale", type=int, default=1)
    gen.add_argument("--mode", choices=("aggregated", "disaggregated"), default="aggregated")
    gen.add_argument("--unsplittable", action="store_true")
    gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "gen":
        try:
            return _cmd_gen(args)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    try:
        instance = load_instance(args.instance)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load instance {args.instance}: {exc}")
    problems = validate_instance(instance)
    if problems:
        for p in problems:
            print(f"invalid instance: {p}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args, instance)
    return _cmd_oracle(args, instance)


def _cmd_run(args, instance) -> int:
    config = Config(families=args.cuts, max_rounds=args.rounds, eps=args.eps)
    result = cutting_plane_loop(instance, config)

    rounds = []
    for rep in result.reports:
        rounds.append(
            {
                "round": rep.index,
                "bound": rep.bound,
                "cuts": rep.cuts_added,
                "max_violation": rep.max_violation,
                "wall_time": rep.wall_time,
                "exact_fallback": rep.exact_fallback,
            }
        )
        label = ", ".join(f"{fam}:{n}" for fam, n in rep.cuts_added.items()) or "no cuts"
        print(f"round {rep.index}: bound {rep.bound:.6g} ({label})")
    report = {
        "instance": instance.name or args.instance,
        "rounds": rounds,
        "final_bound": result.final_bound,
        "oracle_optimum": None,
        "gap_closed": None,
    }
    if args.oracle_ybound is not None:
        try:
            best = brute_force_ip(instance, ybound=args.oracle_ybound)
        except BudgetExceededError as exc:
            print(f"oracle skipped: {exc}", file=sys.stderr)
            best = None
        if best is not None:
            opt = float(best[0])
            report["oracle_optimum"] = opt
            lp0 = rounds[0]["bound"] if rounds else result.final_bound
            if opt > lp0 + 1e-12:
                report["gap_closed"] = (result.final_bound - lp0) / (opt - lp0)
            else:
                report["gap_closed"] = 1.0
            print(f"oracle optimum {opt:.6g}, gap closed {report['gap_closed']}")
    print(f"final bound {result.final_bound:.6g} with {len(result.pool)} pooled cuts")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.dump_lp:
        from .lp import build_relaxation

        with open(args.dump_lp, "w") as fh:
            fh.write(build_relaxation(instance, result.pool.cuts()).to_lp_format())
            fh.write("\n")
    return 0


def _cmd_oracle(args, instance) -> int:
    try:
        best = brute_force_ip(instance, ybound=args.ybound, exact=args.exact)
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if best is None:
        print("no feasible installation within the grid", file=sys.stderr)
        return 1
    value, point = best
    shown = format_rational(value) if isinstance(value, Fraction) else f"{value:.6g}"
    print(f"optimum {shown}")
    for (ai, mi), cnt in sorted(point.y.items()):
        arc = instance.arcs[ai]
        print(f"  y[{arc.tail}->{arc.head}, facility {mi}] = {cnt}")
    return 0


def _cmd_gen(args) -> int:
    instance = generate_instance(
        seed=args.seed,
        nodes=args.nodes,
        density=args.density,
        facilities=args.facilities,
        demand_scale=args.demand_scale,
        mode=args.mode,
        unsplittable=args.unsplittable,
    )
    save_instance(instance, args.out)
    print(f"wrote {args.out} ({len(instance.nodes)} nodes, {len(instance.arcs)} arcs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
