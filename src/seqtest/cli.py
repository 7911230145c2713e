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

from .harness import (
    AGENTS,
    ExperimentConfig,
    collect_run_summaries,
    format_report,
    run_replications,
    scaling_ratios,
)
from .models import ParameterError, _atomic_open, load_instance, save_instance

# each command imports the modules it runs (harness imports the agent's), so
# a call loads only those: gen none of the solvers

# gen subcommand -> name of its function in ``generators``: names, not
# functions, so the call goes to whatever the module binds at that time
_GENERATORS = {
    "pareto": "gen_discrete_pareto",
    "single-lb": "gen_lower_bound_single",
    "stacked-lb": "gen_lower_bound_stacked",
    "gaussian-lowrank": "gen_gaussian_lowrank",
    "gaussian-quadratic": "gen_gaussian_quadratic",
}


# agent parameter -> the flag that sets it, where that is not the name in dashes
_FLAGS = {"override_n": "--override-N"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag without a default is left out when not given, so the generator
    # or the harness applies its own default
    unset = {"argument_default": argparse.SUPPRESS}

    gen = sub.add_parser("gen", help="generate an instance file")
    gsub = gen.add_subparsers(dest="generator", required=True)

    p = gsub.add_parser("pareto", help="binary tests with Pareto-weighted outcomes", **unset)
    p.add_argument("--d", type=int)
    p.add_argument("--shape", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--cost", type=float)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("single-lb", help="single-test hard instance", **unset)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("stacked-lb", help="two-test stacked hard instance", **unset)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--support-size", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("gaussian-lowrank", help="Sigma = LL^T + I entropy instance", **unset)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--cost", type=float)
    p.add_argument("--out", required=True)

    p = gsub.add_parser("gaussian-quadratic", help="Gaussian instance with quadratic loss", **unset)
    p.add_argument("--d", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cost", type=float)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--grid-span", type=float)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="clairvoyant solution of an instance", **unset)
    p.add_argument("--instance", required=True)
    p.add_argument("--dump-policy", default=None, help="write the policy records JSON here")
    p.add_argument("--state-cap", type=int)
    p.add_argument("--nodes-per-test", type=int)
    p.add_argument("--max-depth", type=int)

    p = sub.add_parser("simulate", help="run an agent over seeded replications", **unset)
    p.add_argument("--instance", required=True)
    p.add_argument("--agent", required=True, choices=AGENTS)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seeds", required=True, help="comma-separated replication seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel replications (default: available processors)")
    p.add_argument("--support-hint", type=int)
    p.add_argument("--sigma-hint", type=float)
    p.add_argument("--override-N", dest="override_n", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--bernstein-c", type=float)
    p.add_argument("--nodes-per-test", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--assume-zero-mean", action="store_true")
    p.add_argument("--state-cap", type=int)
    p.add_argument("--emit-dataset", action="store_true", default=False)

    p = sub.add_parser("report", help="summarize trace directories")
    p.add_argument("--dir", required=True)
    return parser


def _given(args, *skip) -> dict:
    """The flags given on the command line, but those named in ``skip``."""
    return {k: v for k, v in vars(args).items() if k not in ("command",) + skip}


def _cmd_gen(args) -> int:
    from . import generators

    generate = getattr(generators, _GENERATORS[args.generator])
    save_instance(generate(**_given(args, "generator", "out")), args.out)
    print(args.out)
    return 0


def _cmd_solve(args) -> int:
    from .dp import (
        DEFAULT_STATE_CAP,
        QuadratureSpec,
        check_state_cap,
        policy_records,
        solve_dp_discrete,
        solve_dp_gaussian,
    )

    budget = _given(args, "instance", "dump_policy")
    state_cap = budget.pop("state_cap", DEFAULT_STATE_CAP)
    check_state_cap(state_cap)
    instance = load_instance(args.instance)
    if budget and (instance.is_discrete or instance.reward.kind == "entropy"):
        # the quadrature flags are read by the Gaussian scenario-tree solve only
        raise ParameterError(min(budget), "applies only to Gaussian quadratic instances")
    if args.dump_policy and not instance.is_discrete:
        raise ParameterError("dump_policy", "applies only to discrete instances")
    if instance.reward.kind == "entropy":
        from .elimination import entropy_objective, solve_mesp_offline

        cov, lam, costs = instance.model.covariance, instance.reward.lam, instance.costs
        subset = solve_mesp_offline(cov, lam, costs, state_cap=state_cap)
        out = {"value": entropy_objective(subset, cov, lam, costs), "subset": list(subset)}
    else:
        if instance.is_discrete:
            policy, table = solve_dp_discrete(instance, state_cap)
        else:
            policy, table = solve_dp_gaussian(instance, QuadratureSpec(**budget), state_cap)
        kind, which = table.root_action
        out = {"value": table.root_value, "action": f"{kind}:{which}"}
        if instance.is_discrete:
            out["states"] = len(table)
            if args.dump_policy:
                with _atomic_open(args.dump_policy) as fh:
                    json.dump(policy_records(policy), fh, indent=1, allow_nan=False)
                    fh.write("\n")
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    instance = load_instance(args.instance)
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s != "")
    except ValueError as exc:
        raise UsageError(f"bad --seeds value {args.seeds!r}") from exc
    config = ExperimentConfig(
        instance=instance,
        agent=args.agent,
        horizon=args.horizon,
        seeds=seeds,
        out_dir=Path(args.out),
        jobs=args.jobs,
        agent_params=_given(
            args, "instance", "agent", "horizon", "seeds", "out", "jobs", "emit_dataset"
        ),
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
    except ParameterError as exc:  # named by the flag that set it
        name, rule = exc.args
        print(f"error: {_FLAGS.get(name, '--' + name.replace('_', '-'))} {rule}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain validation and numerical failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
