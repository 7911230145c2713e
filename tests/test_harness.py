"""Environments, regret accounting, generators, the policy oracle, and the
replication runner."""

import concurrent.futures
import math
from pathlib import Path

import numpy as np
import pytest

import seqtest.envs as envs
import seqtest.harness as harness
from seqtest.agents import EtcConfig, run_etc_discrete
from seqtest.dp import Rollout, solve_dp_discrete
from seqtest.envs import (
    DiscreteEnvironment,
    GaussianEnvironment,
    RegretTrace,
    aggregate_cumulative_regret,
    simple_regret,
    write_aggregate_csv,
    write_dataset_csv,
    write_trace_csv,
)
from seqtest.generators import (
    PARETO_SHAPE_DEFAULT,
    brute_force_policy_oracle,
    gen_discrete_pareto,
    gen_gaussian_lowrank,
    gen_gaussian_quadratic,
    gen_lower_bound_single,
    gen_lower_bound_stacked,
)
from seqtest.harness import (
    ExperimentConfig,
    collect_run_summaries,
    run_replications,
    run_seed,
    scaling_ratios,
)
from seqtest.models import InstanceError, ParameterError, initial_state


class TestSimpleRegret:
    def test_playing_the_clairvoyant_gives_zero(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)
        for k in range(2):
            x = inst.model.support[k]
            roll = policy.trace(x)
            assert simple_regret(inst, policy, roll, x, support_index=k) == 0.0

    def test_one_extra_test_costs_its_price(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)  # optimal: decide 0 immediately
        x = inst.model.support[0]  # x = 0, so deciding 0 is also correct
        wasteful = Rollout(tests=(0,), decision=0)
        assert abs(simple_regret(inst, policy, wasteful, x, support_index=0) - 0.75) <= 1e-12

    def test_exploration_episode_hand_rollout(self):
        # explorer tests (cost 3/4) then decides correctly; clairvoyant
        # decides 0 without testing
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)
        explore_on_x0 = Rollout(tests=(0,), decision=0)
        explore_on_x1 = Rollout(tests=(0,), decision=1)
        assert abs(simple_regret(inst, policy, explore_on_x0, inst.model.support[0], 0) - 0.75) <= 1e-12
        assert abs(simple_regret(inst, policy, explore_on_x1, inst.model.support[1], 1) - (-0.25)) <= 1e-12


class TestGenerators:
    def test_pareto_probabilities(self):
        inst = gen_discrete_pareto(d=2, seed=0)
        assert inst.model.support_size == 4
        assert abs(inst.model.probs.sum() - 1.0) <= 1e-12
        assert np.all(inst.model.probs > 0)

    def test_pareto_shape_constant(self):
        assert abs(PARETO_SHAPE_DEFAULT - math.log(5) / math.log(4)) <= 1e-15
        assert abs(PARETO_SHAPE_DEFAULT - 1.160964047443681) <= 1e-12

    def test_pareto_decision_set_is_outcome_space(self):
        inst = gen_discrete_pareto(d=3, seed=1)
        assert len(inst.decisions) == 8
        assert inst.reward.kind == "indicator-match"

    def test_gaussian_lowrank_always_pd(self):
        for seed in range(10):
            inst = gen_gaussian_lowrank(d=6, seed=seed)
            eig = np.linalg.eigvalsh(inst.model.covariance)
            assert eig[0] >= 1.0 - 1e-9  # LL^T >= 0 plus I
            diag = np.diag(inst.model.covariance)
            assert np.all(diag >= 1.0 - 1e-12) and np.all(diag <= 7.0 + 1e-12)
            assert np.isfinite(inst.model.condition_number)

    def test_single_lb_values(self):
        inst = gen_lower_bound_single(0.2, 1)
        assert abs(inst.model.probs[0] - 0.6) <= 1e-15  # P(x=0) = (1+eps)/2
        from seqtest.dp import decision_reward

        s = initial_state(1)
        assert abs(decision_reward(inst, s, 0) - (-0.4)) <= 1e-12
        assert inst.costs[0] == 0.75
        inst2 = gen_lower_bound_single(0.5, 1)
        assert inst2.costs[0] == 0.75  # test cost independent of eps

    def test_single_lb_validation(self):
        with pytest.raises(InstanceError):
            gen_lower_bound_single(0.0, 1)
        with pytest.raises(InstanceError):
            gen_lower_bound_single(1.2, 1)
        with pytest.raises(InstanceError):
            gen_lower_bound_single(0.2, 3)

    def test_stacked_marginal_uniform_and_conditionals(self):
        inst = gen_lower_bound_stacked(0.2, 8, "1010")
        probs = inst.model.probs
        support = inst.model.support
        for i in range(1, 5):
            rows = support[:, 1] == float(i)
            assert abs(probs[rows].sum() - 0.25) <= 1e-12
            p0 = probs[rows & (support[:, 0] == 0.0)].sum() / probs[rows].sum()
            assert min(abs(p0 - 0.6), abs(p0 - 0.4)) <= 1e-12

    def test_stacked_all_ones_reduces_to_single(self):
        stacked = gen_lower_bound_stacked(0.2, 2, "1")
        single = gen_lower_bound_single(0.2, 1)
        _, t_stacked = solve_dp_discrete(stacked)
        _, t_single = solve_dp_discrete(single)
        assert abs(t_stacked.root_value - t_single.root_value) <= 1e-12

    def test_stacked_validation(self):
        with pytest.raises(InstanceError):
            gen_lower_bound_stacked(0.2, 7, "101")  # odd support size
        with pytest.raises(InstanceError):
            gen_lower_bound_stacked(0.2, 8, "10")  # wrong pattern length


class TestOracle:
    def test_single_test_three_action_values(self):
        inst = gen_lower_bound_single(0.2, 1)
        value, _ = brute_force_policy_oracle(inst)
        assert value == max(-0.4, -0.6, -0.75)

    def test_zero_cost_instance_reaches_full_information(self, rng):
        from conftest import random_discrete_instance
        from seqtest.models import ProblemInstance

        inst = random_discrete_instance(rng)
        free = ProblemInstance(
            model=inst.model,
            costs=np.zeros(inst.d),
            decisions=inst.decisions,
            reward=inst.reward,
        )
        value, _ = brute_force_policy_oracle(free)
        assert abs(value - float(inst.model.probs @ inst.reward.table.max(axis=1))) <= 1e-12

    def test_size_cap(self):
        inst = gen_discrete_pareto(d=4, seed=0)
        with pytest.raises(ValueError, match="capped"):
            brute_force_policy_oracle(inst)


class TestEnvironments:
    def test_same_seed_same_stream(self):
        inst = gen_discrete_pareto(d=3, seed=0)
        a = DiscreteEnvironment(inst, seed=5).outcome_indices(100)
        b = DiscreteEnvironment(inst, seed=5).outcome_indices(100)
        assert np.array_equal(a, b)

    def test_stream_consumed_sequentially(self):
        inst = gen_discrete_pareto(d=3, seed=0)
        env = DiscreteEnvironment(inst, seed=5)
        first = env.outcome_indices(40)
        second = env.outcome_indices(60)
        combined = DiscreteEnvironment(inst, seed=5).outcome_indices(100)
        assert np.array_equal(np.concatenate([first, second]), combined)

    def test_clairvoyant_dominates_on_average(self):
        # mean simple regret over 1e4 episodes >= -3 standard errors
        inst = gen_discrete_pareto(d=4, seed=3, cost=0.05)
        env = DiscreteEnvironment(inst, seed=0)
        trace = run_etc_discrete(env, EtcConfig(horizon=10_000, support_size_hint=16)).trace
        sem = trace.simple_regret.std(ddof=1) / math.sqrt(trace.episodes)
        assert trace.simple_regret.mean() >= -3.0 * sem


class TestTraceArtifacts:
    def _trace(self, T=6):
        clair = np.linspace(0.5, 1.0, T)
        realized = clair - np.arange(T) * 0.1
        return RegretTrace(
            agent="etc-discrete",
            seed=7,
            instance_hash="abc",
            phase=["explore"] * 2 + ["commit"] * (T - 2),
            tests_performed=np.arange(T),
            decision=[f"d{t}" for t in range(T)],
            realized_reward=realized,
            clairvoyant_reward=clair,
            observations=np.where(np.arange(2 * T).reshape(T, 2) == 0, 1.0, np.nan),
        )

    def test_cumulative_is_running_sum(self):
        tr = self._trace()
        np.testing.assert_allclose(tr.cumulative_regret, np.cumsum(tr.simple_regret), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            RegretTrace(
                agent="a",
                seed=0,
                instance_hash="h",
                phase=["commit"],
                tests_performed=np.array([1, 2]),
                decision=["x", "y"],
                realized_reward=np.array([0.0, 0.0]),
                clairvoyant_reward=np.array([0.0, 0.0]),
            )

    def test_trace_csv_schema(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.csv"
        write_trace_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "episode,phase,tests_performed,decision,realized_reward,"
            "clairvoyant_reward,simple_regret,cumulative_regret"
        )
        assert len(lines) == 7
        assert lines[1].startswith("1,explore,0,d0,")

    def test_dataset_csv_na_literal(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "d.csv"
        write_dataset_csv(tr, 2, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,test_0,test_1"
        assert lines[1] == "1,1.0,NA"
        assert lines[2] == "2,NA,NA"

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        tr = self._trace()
        tr.extras["bad"] = [1.0, 2.0, Unprintable(), 4.0, 5.0, 6.0]
        # a float matrix holds no unprintable value, so the dataset's
        # formatter fails on row 3's cell instead; 2-row chunks written a
        # row at a time put rows 1 and 2 of each file on disk first
        tr.observations[2, 0] = 7.25
        fmt_column = envs._fmt_column

        def failing(col):
            if 7.25 in col:
                raise RuntimeError("cannot format")
            return fmt_column(col)

        monkeypatch.setattr(envs, "_fmt_column", failing)
        monkeypatch.setattr(envs, "_WRITE_CHUNK", 2)
        monkeypatch.setattr(envs, "_WRITE_ROWS", 1)
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        for write, path in (
            (lambda p: write_trace_csv(tr, p), tmp_path / "t.csv"),
            (lambda p: write_dataset_csv(tr, 2, p), tmp_path / "d.csv"),
            (lambda p: write_trace_csv(tr, p), kept),
        ):
            with pytest.raises(RuntimeError, match="cannot format"):
                write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
        assert kept.read_text() == "old\n"

    def test_aggregate_mean_and_sd(self, tmp_path):
        tr = self._trace()
        mean, sd = aggregate_cumulative_regret([tr, tr])
        np.testing.assert_allclose(mean, tr.cumulative_regret, atol=1e-12)
        assert np.all(sd == 0.0)  # identical replications have sd 0
        path = tmp_path / "agg.csv"
        write_aggregate_csv(aggregate_cumulative_regret([tr, tr]), path)
        assert len(path.read_text().splitlines()) == tr.episodes + 1

    def test_aggregate_is_arithmetic_mean(self):
        a = self._trace()
        b = self._trace()
        b.cumulative_regret = b.cumulative_regret + 1.0
        mean, _ = aggregate_cumulative_regret([a, b])
        np.testing.assert_allclose(
            mean, (a.cumulative_regret + b.cumulative_regret) / 2.0, atol=1e-9
        )


def _fmt_reference(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def trace_csv_reference(trace):
    """The row-by-row trace writer the column-wise one replaced."""
    lines = [",".join(list(envs.TRACE_COLUMNS) + list(trace.extras))]
    for t in range(trace.episodes):
        row = [
            str(t + 1),
            trace.phase[t],
            str(int(trace.tests_performed[t])),
            trace.decision[t],
            _fmt_reference(trace.realized_reward[t]),
            _fmt_reference(trace.clairvoyant_reward[t]),
            _fmt_reference(trace.simple_regret[t]),
            _fmt_reference(trace.cumulative_regret[t]),
        ]
        for name in trace.extras:
            row.append(_fmt_reference(trace.extras[name][t]))
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)


def aggregate_csv_reference(traces):
    mean, sd = aggregate_cumulative_regret(traces)
    out = "episode,mean_cumulative_regret,sd_cumulative_regret\n"
    for t in range(len(mean)):
        out += f"{t + 1},{_fmt_reference(mean[t])},{_fmt_reference(sd[t])}\n"
    return out


def dataset_csv_reference(trace, d):
    """The row-by-row dataset writer the column-wise one replaced."""
    out = ",".join(["episode"] + [f"test_{i}" for i in range(d)]) + "\n"
    for t, obs in enumerate(trace.observations.tolist()):
        cells = ["NA" if math.isnan(obs[i]) else _fmt_reference(obs[i]) for i in range(d)]
        out += ",".join([str(t + 1)] + cells) + "\n"
    return out


class TestColumnWriters:
    EDGE = [-0.0, 5e-324, 1e308, 0.1, -2.5e-17, 1.0 / 3.0, 0.0]
    GAPS = [0.0, 5e-324, 0.1, -2.5e-17, 1.0 / 3.0]  # keep cumulative regret finite
    OBSERVED = [0.1, -0.0, 5e-324, 2.0, 1.0 / 3.0]

    def _trace(self, T, seed=0):
        rng = np.random.default_rng(seed)
        edge = np.resize(np.array(self.EDGE), T)
        clair = np.where(rng.random(T) < 0.5, edge, rng.standard_normal(T))
        return RegretTrace(
            agent="ocmesp",
            seed=seed,
            instance_hash="h",
            phase=["explore", "commit"] * (T // 2) + ["commit"] * (T % 2),
            tests_performed=rng.integers(0, 9, T),
            decision=[f"{t % 3}|1" for t in range(T)],
            realized_reward=clair - np.resize(np.array(self.GAPS), T),
            clairvoyant_reward=clair,
            extras={
                "n_candidates": list(rng.integers(0, 50, T)),  # NumPy ints
                "U_t": [np.float64(v) for v in np.resize(np.array(self.EDGE), T)],
                "pair_chosen": [f"{t}|{t + 1}" for t in range(T)],
                "plain": [t if t % 2 else -0.0 for t in range(T)],  # Python ints and floats
                "flags": np.arange(T) % 3 == 0,
                "counts": np.arange(T, dtype=np.int32),
            },
            observations=np.array([  # three tests, each observed on some episodes
                [self.OBSERVED[(t + i) % 5] if (t >> i) & 1 == 0 else np.nan for i in range(3)]
                for t in range(T)
            ]).reshape(T, 3),
        )

    @pytest.mark.parametrize("T", [0, 1, 2, 3, 7, 9])
    def test_bytes_match_row_by_row_writer(self, tmp_path, monkeypatch, T):
        # chunks of 4 rows written 3 at a time put both boundaries inside every
        # trace with T > 4; a 4-row chunk with at most 2 distinct values (the
        # tests, flags and some reward columns) takes the distinct-value path
        monkeypatch.setattr(envs, "_WRITE_CHUNK", 4)
        monkeypatch.setattr(envs, "_WRITE_ROWS", 3)
        trace, other = self._trace(T), self._trace(T, seed=1)
        write_trace_csv(trace, tmp_path / "t.csv")
        write_aggregate_csv(aggregate_cumulative_regret([trace, other]), tmp_path / "a.csv")
        write_dataset_csv(trace, 3, tmp_path / "d.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()
        assert (tmp_path / "a.csv").read_bytes() == aggregate_csv_reference([trace, other]).encode()
        assert (tmp_path / "d.csv").read_bytes() == dataset_csv_reference(trace, 3).encode()

    def test_default_chunk_matches_row_by_row_writer(self, tmp_path):
        trace = self._trace(envs._WRITE_CHUNK + 5)
        write_trace_csv(trace, tmp_path / "t.csv")
        write_aggregate_csv(aggregate_cumulative_regret([trace]), tmp_path / "a.csv")
        write_dataset_csv(trace, 3, tmp_path / "d.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()
        assert (tmp_path / "a.csv").read_bytes() == aggregate_csv_reference([trace]).encode()
        assert (tmp_path / "d.csv").read_bytes() == dataset_csv_reference(trace, 3).encode()

    def _count_labels(self, monkeypatch) -> list:
        """Counts, into the returned one-item list, the values ``envs`` formats with repr."""
        calls = [0]

        def counted(value):
            calls[0] += 1
            return repr(value)

        monkeypatch.setattr(envs, "repr", counted, raising=False)
        return calls

    def test_few_distinct_values_across_chunks(self, tmp_path, monkeypatch):
        # 6 distinct rewards, -0.0 and 0.0 among them in every chunk, over 3 chunk
        # boundaries; each chunk formats each distinct value once
        T = 3 * envs._WRITE_CHUNK + 17
        clair = np.resize(np.array(self.EDGE[:1] + self.GAPS), T)
        gaps = np.resize(np.array([0.0, -0.0, 0.5]), T)
        trace = RegretTrace(
            agent="etc-discrete", seed=0, instance_hash="h",
            phase=["explore"] * 10 + ["commit"] * (T - 10),
            tests_performed=np.resize(np.arange(4), T), decision=["1"] * T,
            realized_reward=clair - gaps, clairvoyant_reward=clair,
        )
        calls = self._count_labels(monkeypatch)
        cells = list(envs._fmt_column(trace.clairvoyant_reward[: envs._WRITE_CHUNK]))
        assert calls[0] == 6 and {"-0.0", "0.0"} <= set(cells)
        assert cells == [_fmt_reference(v) for v in clair[: envs._WRITE_CHUNK]]
        write_trace_csv(trace, tmp_path / "t.csv")
        write_aggregate_csv(aggregate_cumulative_regret([trace]), tmp_path / "a.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()
        assert (tmp_path / "a.csv").read_bytes() == aggregate_csv_reference([trace]).encode()

    def test_all_distinct_floats_fall_back(self, tmp_path, monkeypatch):
        T = 2 * envs._WRITE_CHUNK + 3
        rewards = np.random.default_rng(3).standard_normal(T)
        calls = self._count_labels(monkeypatch)
        assert list(envs._fmt_column(rewards)) == [_fmt_reference(v) for v in rewards]
        assert calls[0] == T
        other = rewards[::-1].copy()
        write_aggregate_csv((rewards, other), tmp_path / "a.csv")
        expected = "episode,mean_cumulative_regret,sd_cumulative_regret\n" + "".join(
            f"{t + 1},{_fmt_reference(rewards[t])},{_fmt_reference(other[t])}\n" for t in range(T)
        )
        assert (tmp_path / "a.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "instance",
        [gen_discrete_pareto(d=4, seed=0), gen_gaussian_quadratic(d=2, seed=0),
         gen_lower_bound_single(0.2, 1)],
    )
    def test_decision_labels_match_per_cell_formatting(self, monkeypatch, instance):
        # vector decisions join their coordinates with "|", scalar ones are
        # printed alone; each decision that occurs is formatted once
        def label(y):
            return "|".join(map(_fmt_reference, y)) if isinstance(y, tuple) else _fmt_reference(y)

        n = len(instance.decisions)
        idx = np.random.default_rng(1).integers(0, n, 500) // 2  # the upper half never occurs
        calls = self._count_labels(monkeypatch)
        labels = envs.decision_labels(instance, idx)
        assert labels == [label(instance.decisions[j]) for j in idx.tolist()]
        per_label = len(instance.decisions[0]) if isinstance(instance.decisions[0], tuple) else 0
        assert calls[0] == per_label * len(set(idx.tolist()))
        assert envs.decision_labels(instance, []) == []

    @pytest.mark.parametrize("distinct, formatted", [(2048, 2048), (2049, 4096)])
    def test_fallback_threshold(self, monkeypatch, distinct, formatted):
        # a 4,096-row chunk keeps the distinct-value path while at most half
        # its values are distinct
        values = np.resize(np.arange(distinct) / 7.0, 4096)
        calls = self._count_labels(monkeypatch)
        assert list(envs._fmt_column(values)) == [_fmt_reference(v) for v in values]
        assert calls[0] == formatted

    @pytest.mark.parametrize(
        "col",
        [
            np.resize(np.arange(-3, 4), 50),  # int64
            np.resize(np.arange(5, dtype=np.int32), 50),
            np.resize(np.arange(3, dtype=np.uint8), 50),
            np.arange(50) % 3 == 0,
            np.resize(np.array([0.1, -0.0, 0.0], dtype=np.float32), 50),
            np.array([], dtype=float),
            np.array([], dtype=np.int64),
        ],
        ids=["int64", "int32", "uint8", "bool", "float32", "empty-float", "empty-int"],
    )
    def test_numeric_dtypes_match_reference(self, col):
        assert list(envs._fmt_column(col)) == [_fmt_reference(v) for v in col]

    def test_int_trace_columns(self, tmp_path):
        # tests_performed as an int32 array and as a list, next to list extras
        T = envs._WRITE_CHUNK + 9
        base = self._trace(T)
        for tests in (base.tests_performed.astype(np.int32), list(base.tests_performed)):
            trace = RegretTrace(
                agent=base.agent, seed=0, instance_hash="h", phase=base.phase,
                tests_performed=tests, decision=base.decision,
                realized_reward=base.realized_reward, clairvoyant_reward=base.clairvoyant_reward,
                extras=base.extras,
            )
            write_trace_csv(trace, tmp_path / "t.csv")
            assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()


class TestRunReplications:
    def _config(self, tmp_path, jobs=1, seeds=(0, 1, 2), horizon=64, emit_dataset=False,
                **agent_params):
        inst = gen_discrete_pareto(d=3, seed=2, cost=0.05)
        return ExperimentConfig(
            instance=inst,
            agent="etc-discrete",
            horizon=horizon,
            seeds=seeds,
            out_dir=tmp_path,
            jobs=jobs,
            agent_params=agent_params,
            emit_dataset=emit_dataset,
            instance_source="gen:pareto-d3",
        )

    def test_artifact_layout(self, tmp_path):
        report = run_replications(self._config(tmp_path / "run", emit_dataset=True))
        assert report.ok
        out = tmp_path / "run"
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "aggregate.csv",
            "dataset_seed0.csv",
            "dataset_seed1.csv",
            "dataset_seed2.csv",
            "effective-config.json",
            "trace_seed0.csv",
            "trace_seed1.csv",
            "trace_seed2.csv",
        ]
        assert len((out / "aggregate.csv").read_text().splitlines()) == 65

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        # traces must not depend on the degree of parallelism (the echoed
        # config records the differing --jobs flag, so it is exempt here)
        run_replications(self._config(tmp_path / "serial", jobs=1))
        run_replications(self._config(tmp_path / "parallel", jobs=2))
        for name in ("aggregate.csv", "trace_seed0.csv", "trace_seed2.csv"):
            a = (tmp_path / "serial" / name).read_bytes()
            b = (tmp_path / "parallel" / name).read_bytes()
            assert a == b

    def test_identical_invocations_identical_bytes(self, tmp_path):
        run_replications(self._config(tmp_path / "a", jobs=2))
        run_replications(self._config(tmp_path / "b", jobs=2))
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_seed_reported_not_dropped(self, tmp_path):
        # a valid cap, but the DP finds more states than it: every seed fails
        config = self._config(tmp_path / "fail", state_cap=1)
        report = run_replications(config)
        assert set(report.failures) == {0, 1, 2}
        assert "blowup" in report.failures[0]
        assert report.mean_cumulative is None

    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2, 3)])
    def test_parameters_resolved_once_per_run(self, tmp_path, monkeypatch, seeds):
        calls = []
        resolve = harness.resolved_agent_params

        def counted(config):
            calls.append(config.agent)
            return resolve(config)

        monkeypatch.setattr(harness, "resolved_agent_params", counted)
        report = run_replications(self._config(tmp_path / "run", seeds=seeds))
        assert report.ok
        assert calls == ["etc-discrete"]

    def test_pool_no_larger_than_seed_count(self, tmp_path, monkeypatch):
        # a fork-started pool starts every worker up front, so it is sized
        # by the seeds; this fake runs the seeds in-process
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert run_replications(self._config(tmp_path / "run", jobs=8, seeds=(0, 1))).ok
        assert run_replications(self._config(tmp_path / "run2", jobs=2, seeds=(0, 1, 2))).ok
        assert sizes == [2, 2]

    def test_unknown_parameter_refused(self):
        # a misspelt delta must not run with the default and echo the typo
        with pytest.raises(ValueError, match=r"unknown agent parameters \['detla'\]") as info:
            ExperimentConfig(
                instance=gen_gaussian_lowrank(d=4, seed=0, cost=1.8), agent="ocmesp",
                horizon=16, seeds=(0,), agent_params={"detla": 0.5},
            )
        assert all(name in str(info.value) for name in harness.AGENT_PARAMS)

    @pytest.mark.parametrize(
        "agent, params",
        [
            ("etc-gaussian", {"sigma_hint": -2.0}),
            ("etc-gaussian", {"nodes_per_test": 0}),
            ("ocmesp", {"sigma_hint": 0.5}),
            ("etc-discrete", {"support_hint": 0}),
        ],
    )
    def test_refusal_names_the_parameter(self, agent, params):
        # the typed configs' fields are condition_number, sigma and support_size_hint
        (name,) = params
        instance = {
            "etc-gaussian": gen_gaussian_quadratic(d=2),
            "ocmesp": gen_gaussian_lowrank(d=4, seed=0, cost=1.8),
            "etc-discrete": gen_discrete_pareto(d=3, seed=2),
        }[agent]
        with pytest.raises(ParameterError) as info:
            ExperimentConfig(
                instance=instance, agent=agent, horizon=16, seeds=(0,), agent_params=params
            )
        assert info.value.args[0] == name and str(info.value).startswith(name + " ")

    @pytest.mark.parametrize(
        "agent, instance",
        [
            ("etc-discrete", lambda: gen_gaussian_quadratic(d=2, seed=0)),
            ("ocmesp", lambda: gen_discrete_pareto(d=3, seed=2)),
            ("etc-gaussian", lambda: gen_gaussian_lowrank(d=3, seed=0)),
        ],
    )
    def test_agent_instance_mismatch_refused_when_built(self, agent, instance):
        with pytest.raises(InstanceError, match=f"agent '{agent}' runs on"):
            ExperimentConfig(instance=instance(), agent=agent, horizon=8, seeds=(0,))

    def test_override_n_refused_with_doubling(self):
        # every doubling batch derives its own N, so the override would be
        # echoed into effective-config.json without changing the run
        inst = gen_discrete_pareto(d=3, seed=2)
        with pytest.raises(ValueError, match="override_n"):
            ExperimentConfig(
                instance=inst, agent="etc-doubling", horizon=64, seeds=(0,),
                agent_params={"override_n": 40},
            )
        ExperimentConfig(
            instance=inst, agent="etc-discrete", horizon=64, seeds=(0,),
            agent_params={"override_n": 40},
        )

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="distinct"):
            self._config(tmp_path, seeds=(1, 1))

    def test_clairvoyant_agent_zero_regret(self, tmp_path):
        inst = gen_discrete_pareto(d=3, seed=2, cost=0.05)
        config = ExperimentConfig(
            instance=inst, agent="clairvoyant", horizon=100, seeds=(0,), out_dir=None
        )
        trace = run_seed(config, 0)
        assert np.all(trace.simple_regret == 0.0)


class TestReportHelpers:
    def test_summaries_and_dyadic_ratios(self, tmp_path):
        # exploring the single-test instance costs real regret, so the final
        # cumulative regret is nonzero and the dyadic ratio is well defined
        inst = gen_lower_bound_single(0.2, 1)
        for T in (64, 128):
            config = ExperimentConfig(
                instance=inst,
                agent="etc-discrete",
                horizon=T,
                seeds=(0, 1),
                out_dir=tmp_path / f"T{T}",
                instance_source="gen:single-lb",
            )
            run_replications(config)
        summaries = collect_run_summaries(tmp_path)
        assert len(summaries) == 2
        ratios = scaling_ratios(summaries)
        assert len(ratios) == 1
        assert ratios[0]["T"] == 64
        by_T = {s["horizon"]: s["final_mean"] for s in summaries}
        assert abs(ratios[0]["ratio"] - by_T[128] / by_T[64]) <= 1e-12

    def test_last_row_read_from_the_tail(self, tmp_path, monkeypatch):
        # an aggregate larger than the tail block, read with blocks that cut
        # the last row at every offset and with the default block
        T = 300
        rng = np.random.default_rng(3)
        traces = [
            RegretTrace(
                agent="etc-discrete", seed=s, instance_hash="h",
                phase=["commit"] * T, tests_performed=np.zeros(T, dtype=int),
                decision=["0"] * T, realized_reward=rng.random(T),
                clairvoyant_reward=np.ones(T),
            )
            for s in range(2)
        ]
        run = tmp_path / "run"
        run.mkdir()
        write_aggregate_csv(aggregate_cumulative_regret(traces), run / "aggregate.csv")
        (run / "effective-config.json").write_text(
            '{"agent": "etc-discrete", "horizon": 300, "instance_hash": "h", "seeds": [0, 1]}'
        )
        data = (run / "aggregate.csv").read_bytes()
        assert len(data) > harness._TAIL_BLOCK
        last = data.decode().splitlines()[-1].split(",")
        want = (float(last[1]), float(last[2]))
        row = len(data.decode().splitlines()[-1])
        for block in list(range(1, row + 4)) + [64, harness._TAIL_BLOCK]:
            monkeypatch.setattr(harness, "_TAIL_BLOCK", block)
            (summary,) = collect_run_summaries(tmp_path)
            assert (summary["final_mean"], summary["final_sd"]) == want, block

    def test_empty_directory_has_no_summaries(self, tmp_path):
        assert collect_run_summaries(tmp_path) == []
