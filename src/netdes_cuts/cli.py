"""Command-line entry points: run the loop, query the oracle, generate data."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import format_rational, generate_instance, load_instance, save_instance
from .engine import FAMILIES, Config, RelaxationError, cutting_plane_loop
from .oracle import BudgetExceededError, brute_force_ip


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
    """argparse type: a file path that can be written, checked before any
    work; a file the check creates is removed again, so a run that fails
    leaves none behind."""
    created = not os.path.lexists(text)
    try:
        open(text, "a").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {text}: {exc.strerror}") from None
    if created:
        os.remove(text)
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


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built once per process: ``parse_args``
    keeps no state between calls."""
    parser = _Parser(prog="netdes-cuts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="cutting-plane loop over an instance file")
    run.add_argument("--instance", required=True)
    run.add_argument(
        "--cuts", type=_CUTS, default=",".join(FAMILIES), help="comma-separated families to enable"
    )
    run.add_argument("--rounds", type=_ROUNDS, default=50)
    run.add_argument("--eps", type=_EPS, default="1/1000000", help="violation threshold (rational)")
    run.add_argument("--report", type=_output_path, help="write the JSON report here, on one line")
    run.add_argument("--oracle-ybound", type=_YBOUND, help="also solve the grid oracle with this bound")
    run.add_argument(
        "--dump-lp", type=_output_path, help="write the final relaxation in LP text format"
    )

    oracle = sub.add_parser("oracle", help="brute-force optimum over an installation grid")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--ybound", type=_YBOUND, help="uniform per-variable grid bound")

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.5)
    gen.add_argument("--facilities", type=_CAPACITIES, default="1,3", help='capacities, e.g. "1,3"')
    gen.add_argument("--demand-scale", type=int, default=1)
    gen.add_argument("--mode", choices=("aggregated", "disaggregated"), default="aggregated")
    gen.add_argument("--unsplittable", action="store_true")
    gen.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _parser()
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
    if args.command == "run":
        return _cmd_run(args, instance)
    return _cmd_oracle(args, instance)


def _cmd_run(args, instance) -> int:
    config = Config(families=args.cuts, max_rounds=args.rounds, eps=args.eps)
    try:
        result = cutting_plane_loop(instance, config)
    except RelaxationError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    # each round's fields, its count dicts copied: what dataclasses.asdict
    # gives, without its deep copy of every value
    rounds = [
        dict(vars(rep), cuts=dict(rep.cuts), families={name: dict(c) for name, c in rep.families.items()})
        for rep in result.reports
    ]
    if result.inapplicable:
        print(f"not applicable to this instance: {', '.join(result.inapplicable)}")
    for rep in result.reports:
        label = ", ".join(f"{fam}:{n}" for fam, n in rep.cuts.items()) or "no cuts"
        print(f"round {rep.round}: bound {rep.bound:.6g} ({label})")
    report = {
        "instance": instance.name or args.instance,
        "rounds": rounds,
        "stop": result.stop,
        "inapplicable": result.inapplicable,
        "final_bound": result.final_bound,
        "oracle_optimum": None,
        "gap_closed": None,
    }
    if args.oracle_ybound is not None:
        try:
            best = brute_force_ip(instance, ybound=args.oracle_ybound)
        except BudgetExceededError as exc:
            print(f"oracle skipped: {exc}", file=sys.stderr)
        else:
            if best is None:
                print("no feasible installation within the grid", file=sys.stderr)
            else:
                opt = float(best[0])
                report["oracle_optimum"] = opt
                lp0 = rounds[0]["bound"] if rounds else result.final_bound
                gap = opt - lp0
                report["gap_closed"] = (result.final_bound - lp0) / gap if gap > 1e-12 else 1.0
                print(f"oracle optimum {format_rational(best[0])}, gap closed {report['gap_closed']}")
    print(f"final bound {result.final_bound:.6g} with {len(result.pool)} pooled cuts")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(json.dumps(report) + "\n")
    if args.dump_lp:
        with open(args.dump_lp, "w") as fh:
            fh.write(result.final_model.to_lp_format())
            fh.write("\n")
    return 0


def _cmd_oracle(args, instance) -> int:
    try:
        best = brute_force_ip(instance, ybound=args.ybound)
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if best is None:
        print("no feasible installation within the grid", file=sys.stderr)
        return 1
    value, point = best
    print(f"optimum {format_rational(value)}")
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
