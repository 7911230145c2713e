"""Command-line entry point: generate instances, solve them clairvoyantly,
run agents over seeded replications, and summarize trace directories.

Exit codes: 0 success, 1 usage error, 2 runtime or numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import generators
from .dp import (
    QuadratureSpec,
    policy_records,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .elimination import solve_mesp_offline, entropy_objective
from .envs import _atomic_open
from .harness import (
    AGENTS,
    ExperimentConfig,
    collect_run_summaries,
    format_report,
    run_replications,
    scaling_ratios,
)
from .models import load_instance, save_instance


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gsub = gen.add_subparsers(dest="generator", required=True)

    p = gsub.add_parser("pareto", help="binary tests with Pareto-weighted outcomes")
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--shape", type=float, default=generators.PARETO_SHAPE_DEFAULT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("single-lb", help="single-test hard instance")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("stacked-lb", help="two-test stacked hard instance")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--support-size", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("gaussian-lowrank", help="Sigma = LL^T + I entropy instance")
    p.add_argument("--d", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--cost", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("gaussian-quadratic", help="Gaussian instance with quadratic loss")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost", type=float, default=0.1)
    p.add_argument("--grid-points", type=int, default=5)
    p.add_argument("--grid-span", type=float, default=2.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="clairvoyant solution of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-policy", default=None, help="write the policy records JSON here")
    p.add_argument("--state-cap", type=int, default=10**7)
    p.add_argument("--nodes-per-test", type=int, default=16)
    p.add_argument("--max-depth", type=int, default=6)

    p = sub.add_parser("simulate", help="run an agent over seeded replications")
    p.add_argument("--instance", required=True)
    p.add_argument("--agent", required=True, choices=AGENTS)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated replication seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel replications (default: available processors)")
    p.add_argument("--support-hint", type=int, default=None)
    p.add_argument("--sigma-hint", type=float, default=None)
    p.add_argument("--override-N", dest="override_n", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--bernstein-c", type=float, default=1.0)
    p.add_argument("--nodes-per-test", type=int, default=16)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--assume-zero-mean", action="store_true")
    p.add_argument("--state-cap", type=int, default=10**7)
    p.add_argument("--emit-dataset", action="store_true")

    p = sub.add_parser("report", help="summarize trace directories")
    p.add_argument("--dir", required=True)
    return parser


def _cmd_gen(args) -> int:
    if args.generator == "pareto":
        inst = generators.gen_discrete_pareto(
            d=args.d, shape=args.shape, seed=args.seed, cost=args.cost
        )
    elif args.generator == "single-lb":
        inst = generators.gen_lower_bound_single(eps=args.eps, which=args.which)
    elif args.generator == "stacked-lb":
        inst = generators.gen_lower_bound_stacked(
            eps=args.eps, support_size=args.support_size, pattern=args.pattern
        )
    elif args.generator == "gaussian-lowrank":
        inst = generators.gen_gaussian_lowrank(
            d=args.d, seed=args.seed, lam=args.lam, cost=args.cost
        )
    else:
        inst = generators.gen_gaussian_quadratic(
            d=args.d, seed=args.seed, cost=args.cost,
            grid_points=args.grid_points, grid_span=args.grid_span,
        )
    save_instance(inst, args.out)
    print(args.out)
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    if instance.is_discrete:
        policy, table = solve_dp_discrete(instance, state_cap=args.state_cap)
        kind, which = table.root_action
        out = {
            "value": table.root_value,
            "action": f"{kind}:{which}",
            "states": len(table),
        }
        if args.dump_policy:
            with _atomic_open(args.dump_policy) as fh:
                json.dump(policy_records(policy), fh, indent=1, allow_nan=False)
                fh.write("\n")
    elif instance.reward.kind == "entropy":
        subset = solve_mesp_offline(
            instance.model.covariance, instance.reward.lam, instance.costs
        )
        value = entropy_objective(
            subset, instance.model.covariance, instance.reward.lam, instance.costs
        )
        out = {"value": value, "subset": list(subset)}
    else:
        quadrature = QuadratureSpec.from_params(vars(args))
        policy, table = solve_dp_gaussian(instance, quadrature, args.state_cap)
        kind, which = table.root_action
        out = {"value": table.root_value, "action": f"{kind}:{which}"}
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s != "")
    except ValueError as exc:
        raise UsageError(f"bad --seeds value {args.seeds!r}") from exc
    params = {
        "delta": args.delta,
        "bernstein_c": args.bernstein_c,
        "nodes_per_test": args.nodes_per_test,
        "max_depth": args.max_depth,
        "assume_zero_mean": args.assume_zero_mean,
        "state_cap": args.state_cap,
    }
    if args.support_hint is not None:
        params["support_hint"] = args.support_hint
    if args.sigma_hint is not None:
        params["sigma_hint"] = args.sigma_hint
    if args.override_n is not None:
        params["override_n"] = args.override_n
    config = ExperimentConfig(
        instance=instance,
        agent=args.agent,
        horizon=args.horizon,
        seeds=seeds,
        out_dir=Path(args.out),
        jobs=args.jobs,
        agent_params=params,
        emit_dataset=args.emit_dataset,
        instance_source=args.instance,
    )
    report = run_replications(config)
    if report.failures:
        for seed, err in sorted(report.failures.items()):
            print(f"seed {seed} failed:\n{err}", file=sys.stderr)
        return 2
    print(args.out)
    return 0


def _cmd_report(args) -> int:
    summaries = collect_run_summaries(args.dir)
    if not summaries:
        print(f"no finished runs found under {args.dir}", file=sys.stderr)
        return 1
    sys.stdout.write(format_report(summaries, scaling_ratios(summaries)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_report(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # domain validation and numerical failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
