"""CLI surface: subcommands, flags, exit codes, machine-readable outputs."""

import json
import time

import numpy as np
import pytest

import seqtest.dp as dp
import seqtest.elimination as elimination
import seqtest.generators as generators
from seqtest.cli import main
from seqtest.harness import ExperimentConfig, run_replications
from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    RewardSpec,
    load_instance,
    save_instance,
)


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_pareto_valid_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli("gen", "pareto", "--d", "4", "--seed", "7", "--out", str(out)) == 0
        inst = load_instance(out)
        assert abs(inst.model.probs.sum() - 1.0) <= 1e-9
        assert inst.model.support_size == 16

    def test_single_lb_p0(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(out)) == 0
        inst = load_instance(out)
        assert abs(inst.model.probs[0] - 0.6) <= 1e-12

    def test_gaussian_lowrank_pd(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("gen", "gaussian-lowrank", "--d", "6", "--seed", "3", "--out", str(out)) == 0
        inst = load_instance(out)
        assert np.linalg.eigvalsh(inst.model.covariance)[0] > 0

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run_cli("gen", "single-lb", "--eps", "1.5", "--which", "1", "--out", str(out))
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, generate",
        [
            (["pareto"], lambda: generators.gen_discrete_pareto()),
            (["single-lb", "--eps", "0.2", "--which", "2"],
             lambda: generators.gen_lower_bound_single(eps=0.2, which=2)),
            (["stacked-lb", "--eps", "0.2", "--support-size", "8", "--pattern", "1010"],
             lambda: generators.gen_lower_bound_stacked(eps=0.2, support_size=8, pattern="1010")),
            (["gaussian-lowrank"], lambda: generators.gen_gaussian_lowrank()),
            (["gaussian-quadratic"], lambda: generators.gen_gaussian_quadratic()),
        ],
    )
    def test_required_flags_only_take_generator_defaults(self, tmp_path, argv, generate):
        assert run_cli("gen", *argv, "--out", str(tmp_path / "cli.json")) == 0
        save_instance(generate(), tmp_path / "lib.json")
        assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_unknown_generator_exit_1(self, capsys):
        assert run_cli("gen", "nope", "--out", "x.json") == 1


class TestSolve:
    def test_single_test_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "s.json"
        run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(inst_path))
        capsys.readouterr()
        assert run_cli("solve", "--instance", str(inst_path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["value"] - (-0.4)) <= 1e-12
        assert out["action"] == "decide:0"

    def test_policy_dump_flag(self, tmp_path, capsys):
        inst_path = tmp_path / "s.json"
        run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(inst_path))
        dump = tmp_path / "policy.json"
        assert run_cli("solve", "--instance", str(inst_path), "--dump-policy", str(dump)) == 0
        records = json.loads(dump.read_text())
        assert {"state_key", "action", "value"} == set(records[0])

    def test_policy_dump_is_strict_json(self, tmp_path, capsys):
        # the third point has no mass, so the state it alone makes up has no
        # value: the dump writes null there, never NaN
        inst_path = tmp_path / "z.json"
        save_instance(
            ProblemInstance(
                model=DiscreteOutcomeModel(
                    support=np.array([[0.0], [1.0], [2.0]]), probs=np.array([0.5, 0.5, 0.0])
                ),
                costs=np.array([0.1]),
                decisions=(0, 1),
                reward=RewardSpec(kind="table", table=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])),
            ),
            inst_path,
        )
        dump = tmp_path / "policy.json"
        assert run_cli("solve", "--instance", str(inst_path), "--dump-policy", str(dump)) == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        records = json.loads(dump.read_text(), parse_constant=refuse)
        values = {r["state_key"]: r["value"] for r in records}
        assert values["2"] is None
        assert values["0"] == 1.0 and values["1"] == 1.0

    def test_failed_policy_dump_leaves_old_file(self, tmp_path, capsys, monkeypatch):
        # the records serialize partway, then fail; the old dump must survive
        # and no temporary file may be left behind
        inst_path = tmp_path / "s.json"
        run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(inst_path))
        dump = tmp_path / "policy.json"
        dump.write_text("old\n")
        monkeypatch.setattr(dp, "policy_records", lambda policy: [{"value": 1.0}] * 100 + [object()])
        assert run_cli("solve", "--instance", str(inst_path), "--dump-policy", str(dump)) == 2
        assert "not JSON serializable" in capsys.readouterr().err
        assert dump.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["policy.json", "s.json"]

    def test_blowup_guard_exit_2(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "6", "--seed", "0", "--out", str(inst_path))
        capsys.readouterr()
        code = run_cli("solve", "--instance", str(inst_path), "--state-cap", "3")
        assert code == 2
        assert "blowup" in capsys.readouterr().err

    def test_state_cap_boundary_exit_codes(self, tmp_path, capsys):
        # the d=4 Pareto instance has 81 canonical states
        inst_path = tmp_path / "p4.json"
        run_cli("gen", "pareto", "--d", "4", "--seed", "0", "--out", str(inst_path))
        assert run_cli("solve", "--instance", str(inst_path), "--state-cap", "80") == 2
        assert "blowup" in capsys.readouterr().err
        assert run_cli("solve", "--instance", str(inst_path), "--state-cap", "81") == 0

    def test_solve_reads_value_table_arrays(self, tmp_path, capsys, monkeypatch):
        # value, action and state count come from the table's arrays; only
        # --dump-policy needs the per-state entries view
        inst_path = tmp_path / "p4.json"
        run_cli("gen", "pareto", "--d", "4", "--seed", "0", "--out", str(inst_path))
        capsys.readouterr()

        def refuse(table):
            raise AssertionError("the entries view was built")

        monkeypatch.setattr(dp.ValueTable, "entries", property(refuse))
        assert run_cli("solve", "--instance", str(inst_path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["states"] == 81 and out["action"].startswith("test:")

    @staticmethod
    def _identity_quadratic(path, d):
        save_instance(
            ProblemInstance(
                model=GaussianOutcomeModel(mean=np.zeros(d), covariance=np.eye(d)),
                costs=np.full(d, 0.1),
                decisions=(tuple([0.0] * d), tuple([1.0] * d)),
                reward=RewardSpec(kind="quadratic"),
            ),
            path,
        )

    def test_gaussian_tree_budget_exit_2(self, tmp_path, capsys):
        inst_path = tmp_path / "g6.json"
        self._identity_quadratic(inst_path, 6)
        start = time.perf_counter()
        code = run_cli("solve", "--instance", str(inst_path), "--nodes-per-test", "16")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "state cap" in capsys.readouterr().err

    def test_gaussian_tree_within_budget_solves(self, tmp_path, capsys):
        inst_path = tmp_path / "g4.json"
        self._identity_quadratic(inst_path, 4)
        capsys.readouterr()
        assert run_cli("solve", "--instance", str(inst_path), "--nodes-per-test", "4") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["action"].split(":")[0] in ("test", "decide")

    def test_entropy_instance_solved_offline(self, tmp_path, capsys):
        inst_path = tmp_path / "g.json"
        run_cli("gen", "gaussian-lowrank", "--d", "4", "--seed", "1", "--cost", "1.7",
                "--out", str(inst_path))
        capsys.readouterr()
        assert run_cli("solve", "--instance", str(inst_path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert "subset" in out

    def test_entropy_state_cap_boundary(self, tmp_path, capsys):
        # the offline search scores the 2^11 = 2048 subsets of a d=11 instance
        inst_path = tmp_path / "g11.json"
        run_cli("gen", "gaussian-lowrank", "--d", "11", "--seed", "0", "--cost", "2.0",
                "--out", str(inst_path))
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli("solve", "--instance", str(inst_path), "--state-cap", "2047") == 2
        assert time.perf_counter() - start < 1.0
        assert "state cap" in capsys.readouterr().err
        assert run_cli("solve", "--instance", str(inst_path), "--state-cap", "2048") == 0
        assert "subset" in json.loads(capsys.readouterr().out)

    def test_missing_instance_exit_2(self, tmp_path, capsys):
        assert run_cli("solve", "--instance", str(tmp_path / "none.json")) == 2

    @pytest.mark.parametrize("instance", ["pareto3", "lowrank4"])
    @pytest.mark.parametrize("flags", [["--nodes-per-test", "0"], ["--max-depth", "0"], ["--nodes-per-test", "16"]])
    def test_quadrature_flags_refused_where_unread(self, tmp_path, capsys, instance_files, instance, flags):
        # only the Gaussian quadratic solve reads them; elsewhere they are
        # refused with one line naming the flag, before anything is written
        dump = tmp_path / "policy.json"
        code = run_cli(
            "solve", "--instance", str(instance_files / f"{instance}.json"), *flags,
            "--dump-policy", str(dump),
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {flags[0]} applies only to Gaussian quadratic instances"
        ]
        assert not dump.exists()

    def test_quadrature_flags_read_on_gaussian_quadratic(self, capsys, instance_files):
        argv = ["solve", "--instance", str(instance_files / "quad2.json")]
        assert run_cli(*argv, "--nodes-per-test", "0") == 2
        assert capsys.readouterr().err.splitlines() == ["error: --nodes-per-test must be >= 1"]
        assert run_cli(*argv, "--nodes-per-test", "4", "--max-depth", "2") == 0
        assert json.loads(capsys.readouterr().out)["action"].split(":")[0] in ("test", "decide")


class TestSimulate:
    def test_trace_files_and_aggregate(self, tmp_path):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        out_dir = tmp_path / "run"
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "etc-discrete",
            "--horizon", "64", "--seeds", "0,1,2,3,4", "--out", str(out_dir),
        )
        assert code == 0
        traces = sorted(p.name for p in out_dir.glob("trace_seed*.csv"))
        assert len(traces) == 5
        assert (out_dir / "aggregate.csv").exists()
        assert (out_dir / "effective-config.json").exists()

    def test_explore_row_count_matches_schedule(self, tmp_path):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        out_dir = tmp_path / "run"
        run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "etc-discrete",
            "--horizon", "512", "--seeds", "0", "--out", str(out_dir),
            "--support-hint", "8",
        )
        rows = (out_dir / "trace_seed0.csv").read_text().splitlines()[1:]
        explore = [r for r in rows if r.split(",")[1] == "explore"]
        assert len(explore) == 128  # floor(8^(1/3) * 512^(2/3))

    def test_rerun_identical_bytes(self, tmp_path):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        args = [
            "simulate", "--instance", str(inst_path), "--agent", "etc-doubling",
            "--horizon", "100", "--seeds", "0,1", "--jobs", "2",
        ]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_clairvoyant_respects_state_cap(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "4", "--seed", "0", "--out", str(inst_path))
        capsys.readouterr()
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "clairvoyant",
            "--horizon", "16", "--seeds", "0", "--jobs", "1", "--state-cap", "5",
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "blowup" in capsys.readouterr().err

    def test_bad_seed_list_exit_1(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "etc-discrete",
            "--horizon", "16", "--seeds", "0,x", "--out", str(tmp_path / "r"),
        )
        assert code == 1

    def test_agent_instance_mismatch_exit_2(self, tmp_path, capsys):
        # refused when the config is built: no seed runs, no run directory
        for agent, gen_argv in (
            ("ocmesp", ["pareto", "--d", "3", "--seed", "2"]),
            ("etc-discrete", ["gaussian-quadratic", "--d", "2"]),
            ("etc-gaussian", ["gaussian-lowrank", "--d", "3"]),
        ):
            inst_path = tmp_path / f"{agent}.json"
            run_cli("gen", *gen_argv, "--out", str(inst_path))
            capsys.readouterr()
            code = run_cli(
                "simulate", "--instance", str(inst_path), "--agent", agent,
                "--horizon", "16", "--seeds", "0,1", "--out", str(tmp_path / "r"),
            )
            assert code == 2
            err = capsys.readouterr().err
            assert f"agent '{agent}' runs on" in err and "Traceback" not in err
            assert not (tmp_path / "r").exists()


    @pytest.mark.parametrize(
        "agent, gen_argv",
        [
            ("etc-discrete", ["pareto", "--d", "3", "--seed", "2"]),
            ("clairvoyant", ["pareto", "--d", "3", "--seed", "2"]),
            ("etc-gaussian", ["gaussian-quadratic", "--d", "2"]),
            ("ocmesp", ["gaussian-lowrank", "--d", "4", "--cost", "1.8"]),
        ],
    )
    def test_effective_config_matches_library_defaults(
        self, tmp_path, monkeypatch, capsys, agent, gen_argv
    ):
        # the CLI without optional flags and the library with no agent
        # parameters resolve the same defaults, in one place
        monkeypatch.chdir(tmp_path)
        run_cli("gen", *gen_argv, "--out", "inst.json")
        assert run_cli(
            "simulate", "--instance", "inst.json", "--agent", agent, "--horizon", "16",
            "--seeds", "0,1", "--jobs", "1", "--out", "cli",
        ) == 0
        report = run_replications(
            ExperimentConfig(
                instance=load_instance("inst.json"), agent=agent, horizon=16, seeds=(0, 1),
                out_dir=tmp_path / "lib", jobs=1, agent_params={},
                instance_source="inst.json",
            )
        )
        assert not report.failures
        cli_config = (tmp_path / "cli" / "effective-config.json").read_bytes()
        assert cli_config == (tmp_path / "lib" / "effective-config.json").read_bytes()
        assert set(json.loads(cli_config)["agent_params"]) >= {
            "delta", "bernstein_c", "nodes_per_test", "max_depth", "assume_zero_mean", "state_cap"
        }

    def test_override_n_with_doubling_refused(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        capsys.readouterr()
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "etc-doubling",
            "--horizon", "64", "--seeds", "0", "--jobs", "1", "--override-N", "40",
            "--out", str(tmp_path / "r"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --override-N "), err
        assert not (tmp_path / "r").exists()

    def test_ocmesp_beyond_power_set_cap_exit_2(self, tmp_path, capsys):
        # 2^21 candidates would not fit; the agent refuses before allocating
        inst_path = tmp_path / "g21.json"
        run_cli("gen", "gaussian-lowrank", "--d", "21", "--seed", "0", "--out", str(inst_path))
        capsys.readouterr()
        start = time.perf_counter()
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "ocmesp",
            "--horizon", "64", "--seeds", "0", "--jobs", "1", "--out", str(tmp_path / "r"),
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert "d <= 20" in capsys.readouterr().err

    def test_ocmesp_state_cap_boundary(self, tmp_path, capsys):
        # a d=11 instance starts from 2^11 = 2048 candidates
        inst_path = tmp_path / "g11.json"
        run_cli("gen", "gaussian-lowrank", "--d", "11", "--seed", "0", "--cost", "2.0",
                "--out", str(inst_path))
        argv = ["simulate", "--instance", str(inst_path), "--agent", "ocmesp",
                "--horizon", "16", "--seeds", "0", "--jobs", "1"]
        capsys.readouterr()
        assert run_cli(*argv, "--state-cap", "2047", "--out", str(tmp_path / "r2047")) == 2
        assert "state cap" in capsys.readouterr().err
        assert not (tmp_path / "r2047").exists()
        assert run_cli(*argv, "--state-cap", "2048", "--out", str(tmp_path / "r2048")) == 0
        assert (tmp_path / "r2048" / "trace_seed0.csv").stat().st_size > 0


# gen argv of the instances the refusal table runs on
INSTANCES = {
    "lowrank4": ["gaussian-lowrank", "--d", "4", "--cost", "1.8"],
    "lowrank21": ["gaussian-lowrank", "--d", "21", "--seed", "0"],
    "pareto3": ["pareto", "--d", "3", "--seed", "2"],
    "quad2": ["gaussian-quadratic", "--d", "2"],
}
# (instance, agent, agent parameters) of runs outside the agent's domain,
# refused when the config is built, and of runs at the domain's boundary
REFUSED = [
    ("lowrank4", "ocmesp", {"delta": 2.0}),
    ("lowrank4", "ocmesp", {"bernstein_c": 0.0}),
    ("lowrank4", "ocmesp", {"sigma_hint": 0.5}),
    ("lowrank21", "ocmesp", {}),  # 2^21 candidates
    ("pareto3", "etc-discrete", {"support_hint": -5}),
    ("pareto3", "etc-discrete", {"support_hint": 0}),
    ("pareto3", "etc-discrete", {"override_n": 0}),
    ("pareto3", "etc-discrete", {"override_n": -3}),
    ("pareto3", "etc-discrete", {"state_cap": 0}),
    ("quad2", "etc-gaussian", {"sigma_hint": -2.0}),
    ("quad2", "etc-gaussian", {"nodes_per_test": 0}),
    ("quad2", "etc-gaussian", {"max_depth": 1}),
    ("quad2", "etc-gaussian", {"state_cap": 544}),  # the d=2 tree has 545 nodes
]
ACCEPTED = [
    ("lowrank4", "ocmesp", {"delta": 0.999}),
    ("lowrank4", "ocmesp", {"sigma_hint": 1.0}),
    ("quad2", "etc-gaussian", {"sigma_hint": 1.0}),
    ("quad2", "etc-gaussian", {"max_depth": 2, "state_cap": 545}),
    ("pareto3", "etc-discrete", {"support_hint": 1}),
    ("pareto3", "etc-discrete", {"override_n": 1}),
    ("pareto3", "etc-discrete", {"state_cap": 1}),
]


def _cases(table) -> list:
    return [
        pytest.param(
            instance, agent, params,
            id="-".join([agent, instance] + [f"{k}={v}" for k, v in params.items()]),
        )
        for instance, agent, params in table
    ]


def _flags(params) -> list:
    flag = {"support_hint": "--support-hint", "override_n": "--override-N"}
    return [
        arg for name, value in params.items()
        for arg in (flag.get(name, "--" + name.replace("_", "-")), str(value))
    ]


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    for name, gen_argv in INSTANCES.items():
        assert run_cli("gen", *gen_argv, "--out", str(root / f"{name}.json")) == 0
    return root


class TestBuildTimeRefusal:
    @pytest.mark.parametrize("instance, agent, params", _cases(REFUSED))
    def test_library_refuses(self, instance_files, instance, agent, params):
        with pytest.raises((ValueError, dp.StateSpaceError)):
            ExperimentConfig(
                instance=load_instance(instance_files / f"{instance}.json"), agent=agent,
                horizon=16, seeds=(0, 1), agent_params=params,
            )

    @pytest.mark.parametrize("instance, agent, params", _cases(REFUSED))
    def test_cli_refuses(self, tmp_path, capsys, instance_files, instance, agent, params):
        capsys.readouterr()
        start = time.perf_counter()
        code = run_cli(
            "simulate", "--instance", str(instance_files / f"{instance}.json"),
            "--agent", agent, "--horizon", "16", "--seeds", "0,1", "--jobs", "1",
            *_flags(params), "--out", str(tmp_path / "r"),
        )
        assert time.perf_counter() - start < 5.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()
        # a value outside its domain is named by the flag the user typed; the
        # tree budget (state_cap=544) names the node count it is short of
        if params and params != {"state_cap": 544}:
            assert err.startswith(f"error: {_flags(params)[0]} "), err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seeds", "0,1", "--jobs", "0"], "error: --jobs must be >= 1, got 0\n"),
            (["--seeds", "1,1", "--jobs", "1"], "error: --seeds must be nonempty and distinct, got [1, 1]\n"),
            (["--seeds", "", "--jobs", "1"], "error: --seeds must be nonempty and distinct, got []\n"),
        ],
        ids=["jobs-0", "seeds-repeated", "seeds-empty"],
    )
    def test_run_flags_are_named(self, tmp_path, capsys, instance_files, argv, message):
        # the run's own flags are named as the agent's are (--override-N
        # with etc-doubling: TestSimulate)
        capsys.readouterr()
        code = run_cli(
            "simulate", "--instance", str(instance_files / "pareto3.json"), "--agent", "etc-discrete",
            "--horizon", "16", *argv, "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("instance, agent, params", _cases(ACCEPTED))
    def test_boundary_values_accepted(self, instance_files, instance, agent, params):
        config = ExperimentConfig(
            instance=load_instance(instance_files / f"{instance}.json"), agent=agent,
            horizon=16, seeds=(0, 1), agent_params=params,
        )
        assert {k: config.params[k] for k in params} == params


# commands that take --state-cap besides the ETC agents' runs (whose config
# refusal is in REFUSED): name -> (instance, argv after it)
CAP_COMMANDS = {
    "solve-discrete": ("pareto3", ["solve"]),
    "solve-entropy": ("lowrank4", ["solve"]),
    "solve-gaussian": ("quad2", ["solve"]),
    "simulate-ocmesp": ("lowrank4", ["simulate", "--agent", "ocmesp", "--horizon", "16",
                                     "--seeds", "0", "--jobs", "1"]),
}


class TestStateCapBelowOne:
    @pytest.mark.parametrize("command", list(CAP_COMMANDS))
    def test_refused_as_out_of_domain(self, tmp_path, capsys, monkeypatch, instance_files, command):
        # one message and exit code on every path, before any solve starts
        def refuse(*args, **kwargs):
            raise AssertionError("a solve started")

        for module, name in ((dp, "solve_dp_discrete"), (dp, "solve_dp_gaussian"),
                             (elimination, "solve_mesp_offline")):
            monkeypatch.setattr(module, name, refuse)
        instance, argv = CAP_COMMANDS[command]
        out = ["--out", str(tmp_path / "r")] if argv[0] == "simulate" else []
        for cap in ("0", "-5"):
            capsys.readouterr()
            code = run_cli(argv[0], "--instance", str(instance_files / f"{instance}.json"),
                           *argv[1:], "--state-cap", cap, *out)
            assert code == 2
            assert capsys.readouterr().err == f"error: --state-cap must be >= 1, got {cap}\n"
            assert not (tmp_path / "r").exists()


class TestReport:
    def test_report_prints_ratio(self, tmp_path, capsys):
        inst_path = tmp_path / "s.json"
        run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(inst_path))
        for T in (64, 128):
            run_cli(
                "simulate", "--instance", str(inst_path), "--agent", "etc-discrete",
                "--horizon", str(T), "--seeds", "0,1", "--out", str(tmp_path / f"T{T}"),
            )
        capsys.readouterr()
        assert run_cli("report", "--dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "etc-discrete" in out

    def test_single_trace_sd_zero(self, tmp_path, capsys):
        inst_path = tmp_path / "s.json"
        run_cli("gen", "single-lb", "--eps", "0.2", "--which", "1", "--out", str(inst_path))
        run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "etc-discrete",
            "--horizon", "32", "--seeds", "5", "--out", str(tmp_path / "one"),
        )
        capsys.readouterr()
        assert run_cli("report", "--dir", str(tmp_path / "one")) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.endswith(",0.0")

    def test_empty_dir_exit_nonzero(self, tmp_path, capsys):
        assert run_cli("report", "--dir", str(tmp_path)) == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run_cli("solve", "--nope") == 1

    def test_unknown_agent(self, tmp_path, capsys):
        inst_path = tmp_path / "p.json"
        run_cli("gen", "pareto", "--d", "3", "--seed", "2", "--out", str(inst_path))
        code = run_cli(
            "simulate", "--instance", str(inst_path), "--agent", "zen",
            "--horizon", "4", "--seeds", "0", "--out", str(tmp_path / "r"),
        )
        assert code == 1

    def test_missing_subcommand(self, capsys):
        assert run_cli() == 1
