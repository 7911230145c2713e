"""Environments, regret accounting, generators, the policy oracle, and the
replication runner."""

import concurrent.futures
import io
import math
from pathlib import Path

import numpy as np
import pytest

import seqtest.envs as envs
import seqtest.harness as harness
from seqtest.agents import EtcConfig, run_etc_discrete
from seqtest.dp import rollout_net_rewards, solve_dp_discrete
from seqtest.envs import (
    DiscreteEnvironment,
    GaussianEnvironment,
    RegretTrace,
    aggregate_cumulative_regret,
    write_aggregate_rows,
    write_dataset_rows,
    write_trace_rows,
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
from seqtest.models import (
    InstanceError,
    ParameterError,
    _atomic_open,
    initial_state,
    sample,
    sample_support_indices,
)


def write_file(write_rows, x, path) -> None:
    """Write ``x`` whole to ``path`` as a run writes its files: rows from
    episode 1 by ``write_rows``, into a handle that replaces ``path`` only
    once every row is written."""
    with _atomic_open(path) as fh:
        write_rows(fh, x, 0)


class TestSimpleRegret:
    # an episode's regret is the clairvoyant's net reward less the agent's on
    # the same outcome, both priced by rollout_net_rewards as every command does
    @staticmethod
    def regret(inst, policy, ks, order, decision):
        xs = inst.model.support[ks]
        _, clair_decision, clair_order, _ = policy.rollouts(xs)
        best = rollout_net_rewards(inst, xs, clair_order, clair_decision, support_index=ks)
        return best - rollout_net_rewards(inst, xs, np.array(order), decision, support_index=ks)

    def test_playing_the_clairvoyant_gives_zero(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)
        ks = np.arange(2)
        _, decision, order, _ = policy.rollouts(inst.model.support[ks])
        assert self.regret(inst, policy, ks, order, decision).tolist() == [0.0, 0.0]

    def test_one_extra_test_costs_its_price(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)  # optimal: decide 0 immediately
        # x = 0, so deciding 0 is also correct; the wasteful rollout tests first
        regret = self.regret(inst, policy, np.array([0]), [[0]], np.array([0]))
        assert abs(regret[0] - 0.75) <= 1e-12

    def test_exploration_episode_hand_rollout(self):
        # explorer tests (cost 3/4) then decides correctly; clairvoyant
        # decides 0 without testing
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)
        regret = self.regret(inst, policy, np.arange(2), [[0], [0]], np.array([0, 1]))
        assert abs(regret[0] - 0.75) <= 1e-12
        assert abs(regret[1] - (-0.25)) <= 1e-12


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
                phase=["commit"],
                tests_performed=np.array([1, 2]),
                decision=["x", "y"],
                realized_reward=np.array([0.0, 0.0]),
                clairvoyant_reward=np.array([0.0, 0.0]),
            )

    def test_trace_csv_schema(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "t.csv"
        write_file(write_trace_rows, tr, path)
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
        write_file(write_dataset_rows, tr, path)
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
        # formatter fails on row 3's cell instead; 2-row chunks put rows 1
        # and 2 of each file on disk first
        tr.observations[2, 0] = 7.25
        fmt_column = envs._fmt_column

        def failing(col, end):
            if 7.25 in col:
                raise RuntimeError("cannot format")
            return fmt_column(col, end)

        monkeypatch.setattr(envs, "_fmt_column", failing)
        monkeypatch.setattr(envs, "_WRITE_CHUNK", 2)
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        for write_rows, path in (
            (write_trace_rows, tmp_path / "t.csv"),
            (write_dataset_rows, tmp_path / "d.csv"),
            (write_trace_rows, kept),
        ):
            with pytest.raises(RuntimeError, match="cannot format"):
                write_file(write_rows, tr, path)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
        assert kept.read_text() == "old\n"

    def test_aggregate_mean_and_sd(self, tmp_path):
        tr = self._trace()
        mean, sd = aggregate_cumulative_regret([tr, tr])
        np.testing.assert_allclose(mean, tr.cumulative_regret, atol=1e-12)
        assert np.all(sd == 0.0)  # identical replications have sd 0
        path = tmp_path / "agg.csv"
        write_file(write_aggregate_rows, aggregate_cumulative_regret([tr, tr]), path)
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


def trace_csv_reference(trace, first=0):
    """The row-by-row trace writer the column-wise one replaced, its rows
    numbered from episode first+1 (with the header when ``first`` is 0)."""
    lines = [",".join(list(envs.TRACE_COLUMNS) + list(trace.extras))][: first == 0]
    for t in range(trace.episodes):
        row = [
            str(first + t + 1),
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


def aggregate_csv_reference(traces, first=0):
    mean, sd = aggregate_cumulative_regret(traces)
    out = "episode,mean_cumulative_regret,sd_cumulative_regret\n" if first == 0 else ""
    for t in range(len(mean)):
        out += f"{first + t + 1},{_fmt_reference(mean[t])},{_fmt_reference(sd[t])}\n"
    return out


def dataset_csv_reference(trace, d, first=0):
    """The row-by-row dataset writer the column-wise one replaced."""
    out = ",".join(["episode"] + [f"test_{i}" for i in range(d)]) + "\n" if first == 0 else ""
    for t, obs in enumerate(trace.observations.tolist()):
        cells = ["NA" if math.isnan(obs[i]) else _fmt_reference(obs[i]) for i in range(d)]
        out += ",".join([str(first + t + 1)] + cells) + "\n"
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
        # chunks of 4 rows put a boundary inside every trace with T > 4; a
        # 4-row chunk with at most 2 distinct values (the tests, flags and
        # some reward columns) takes the distinct-value path
        monkeypatch.setattr(envs, "_WRITE_CHUNK", 4)
        trace, other = self._trace(T), self._trace(T, seed=1)
        write_file(write_trace_rows, trace, tmp_path / "t.csv")
        write_file(write_aggregate_rows, aggregate_cumulative_regret([trace, other]), tmp_path / "a.csv")
        write_file(write_dataset_rows, trace, tmp_path / "d.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()
        assert (tmp_path / "a.csv").read_bytes() == aggregate_csv_reference([trace, other]).encode()
        assert (tmp_path / "d.csv").read_bytes() == dataset_csv_reference(trace, 3).encode()

    def test_default_chunk_matches_row_by_row_writer(self, tmp_path):
        trace = self._trace(envs._WRITE_CHUNK + 5)
        write_file(write_trace_rows, trace, tmp_path / "t.csv")
        write_file(write_aggregate_rows, aggregate_cumulative_regret([trace]), tmp_path / "a.csv")
        write_file(write_dataset_rows, trace, tmp_path / "d.csv")
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
            phase=["explore"] * 10 + ["commit"] * (T - 10),
            tests_performed=np.resize(np.arange(4), T), decision=["1"] * T,
            realized_reward=clair - gaps, clairvoyant_reward=clair,
        )
        calls = self._count_labels(monkeypatch)
        cells = envs._fmt_column(trace.clairvoyant_reward[: envs._WRITE_CHUNK], ",")
        assert calls[0] == 6 and {"-0.0,", "0.0,"} <= set(cells)
        assert cells == [_fmt_reference(v) + "," for v in clair[: envs._WRITE_CHUNK]]
        write_file(write_trace_rows, trace, tmp_path / "t.csv")
        write_file(write_aggregate_rows, aggregate_cumulative_regret([trace]), tmp_path / "a.csv")
        assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()
        assert (tmp_path / "a.csv").read_bytes() == aggregate_csv_reference([trace]).encode()

    def test_all_distinct_floats_fall_back(self, tmp_path, monkeypatch):
        T = 2 * envs._WRITE_CHUNK + 3
        rewards = np.random.default_rng(3).standard_normal(T)
        calls = self._count_labels(monkeypatch)
        assert envs._fmt_column(rewards, "\n") == [_fmt_reference(v) + "\n" for v in rewards]
        assert calls[0] == T
        other = rewards[::-1].copy()
        write_file(write_aggregate_rows, (rewards, other), tmp_path / "a.csv")
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
        fresh = lambda: np.full(n, None, dtype=object)  # an environment's labels, before its first block
        labels = envs.decision_labels(instance, idx, fresh())
        assert labels == [label(instance.decisions[j]) for j in idx.tolist()]
        per_label = len(instance.decisions[0]) if isinstance(instance.decisions[0], tuple) else 0
        assert calls[0] == per_label * len(set(idx.tolist()))
        assert envs.decision_labels(instance, [], fresh()) == []

    @pytest.mark.parametrize("distinct, formatted", [(2048, 2048), (2049, 4096)])
    def test_fallback_threshold(self, monkeypatch, distinct, formatted):
        # a 4,096-row chunk keeps the distinct-value path while at most half
        # its values are distinct
        values = np.resize(np.arange(distinct) / 7.0, 4096)
        calls = self._count_labels(monkeypatch)
        assert envs._fmt_column(values, ",") == [_fmt_reference(v) + "," for v in values]
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
            np.repeat([0.5, -0.0, 0.0, 0.5, 5e-324], [7, 3, 5, 9, 26]),  # runs; 0.5 runs twice
        ],
        ids=["int64", "int32", "uint8", "bool", "float32", "empty-float", "empty-int", "runs"],
    )
    def test_numeric_dtypes_match_reference(self, col):
        assert envs._fmt_column(col, ",") == [_fmt_reference(v) + "," for v in col]

    def test_runs_format_each_distinct_value_once(self, monkeypatch):
        # 4,096 cells in about 300 runs of equal values, whose values (at
        # most 100) recur from run to run
        values = np.random.default_rng(5).integers(0, 100, 300) / 7.0
        col = np.repeat(values, np.diff(np.linspace(0, 4096, 301).astype(int)))
        calls = self._count_labels(monkeypatch)
        assert envs._fmt_column(col, "\n") == [_fmt_reference(v) + "\n" for v in col]
        assert calls[0] == len(np.unique(col))

    def test_int_trace_columns(self, tmp_path):
        # tests_performed as an int32 array and as a list, next to list extras
        T = envs._WRITE_CHUNK + 9
        base = self._trace(T)
        for tests in (base.tests_performed.astype(np.int32), list(base.tests_performed)):
            trace = RegretTrace(
                phase=base.phase,
                tests_performed=tests, decision=base.decision,
                realized_reward=base.realized_reward, clairvoyant_reward=base.clairvoyant_reward,
                extras=base.extras,
            )
            write_file(write_trace_rows, trace, tmp_path / "t.csv")
            assert (tmp_path / "t.csv").read_bytes() == trace_csv_reference(trace).encode()

    def _keyed(self, keys, seed):
        """A block whose row t is row keys[t] of random tables, as ``_play``
        gathers a block: rows of equal key are equal in every column but the
        cumulative regret. Keys below 4 explore."""
        rng = np.random.default_rng(seed)
        n = int(keys.max(initial=-1)) + 1
        edge = np.resize(np.array(self.EDGE), n)
        clair = np.where(rng.random(n) < 0.5, edge, rng.standard_normal(n))
        realized = clair - np.resize(np.array(self.GAPS), n)
        observed = rng.random((n, 3)) < 0.5
        outcomes = np.resize(np.array(self.OBSERVED), (n, 3))
        phase = np.where(np.arange(n) < 4, "explore", "commit").astype(object)
        decision = np.array([f"{k % 3}|{seed}" for k in range(n)], dtype=object)
        return RegretTrace(
            phase=phase[keys].tolist(),
            tests_performed=rng.integers(0, 9, n)[keys],
            decision=decision[keys].tolist(),
            realized_reward=realized[keys],
            clairvoyant_reward=clair[keys],
            observations=np.where(observed, outcomes, np.nan)[keys],
            row_key=keys.astype(np.int32),
        )

    @pytest.mark.parametrize("chunk", [3, 4096])
    def test_keyed_blocks_match_row_by_row_writer(self, monkeypatch, chunk):
        # two blocks key different rows by the same keys, as the batches of
        # a doubling run do, and the second block continues the first's
        # cumulative regret and episode numbers
        monkeypatch.setattr(envs, "_WRITE_CHUNK", chunk)
        rng = np.random.default_rng(7)
        blocks = [self._keyed(rng.integers(0, 9, 11), 1), self._keyed(rng.integers(2, 7, 13), 2)]
        whole = envs.concatenate_traces(blocks)
        assert whole.row_key is None
        trace_fh, dataset_fh = io.StringIO(), io.StringIO()
        sink = envs.TraceSink(trace_fh, dataset_fh, whole.episodes)
        for block in blocks:
            sink.add(block)
        assert trace_fh.getvalue() == trace_csv_reference(whole)
        assert dataset_fh.getvalue() == dataset_csv_reference(whole, 3)

    def test_empty_keyed_block(self):
        fh = io.StringIO()
        envs.write_trace_rows(fh, self._keyed(np.array([], dtype=np.int64), 0), 5)
        assert fh.getvalue() == ""

    @pytest.mark.parametrize("first", [990, 9_995, 999_990])
    def test_episode_numbers_cross_digit_counts(self, first):
        # rows first+1..first+13 cross 999 -> 1,000, 9,999 -> 10,000 or
        # 999,999 -> 1,000,000
        keyed = self._keyed(np.random.default_rng(first).integers(0, 9, 13), 3)
        keyless = self._trace(13)
        for trace in (keyed, keyless):
            fh = io.StringIO()
            envs.write_trace_rows(fh, trace, first)
            envs.write_dataset_rows(fh, trace, first)
            expected = trace_csv_reference(trace, first) + dataset_csv_reference(trace, 3, first)
            assert fh.getvalue() == expected
        fh = io.StringIO()
        envs.write_aggregate_rows(fh, aggregate_cumulative_regret([keyless]), first)
        assert fh.getvalue() == aggregate_csv_reference([keyless], first)

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 2500), (998, 1001), (9_000, 11_001),
                                      (999_999, 1_000_001), (4_194_000, 4_194_305)])
    def test_episode_cells_print_each_number(self, a, b):
        heads, ends = envs._episode_cells(a, b)
        assert list(map("".join, zip(heads, ends))) == [f"{e}," for e in range(a, b)]

    class _Blocks:
        """A sink that keeps each block as it was handed over."""

        def __init__(self):
            self.blocks = []

        def add(self, block):
            self.blocks.append(block)

        def finish(self, metadata):
            self.metadata = metadata

    @pytest.mark.parametrize(
        "instance, override_n",
        [(gen_discrete_pareto(d=8, seed=0, cost=0.05), None),
         (gen_lower_bound_stacked(0.2, 64, "10" * 16), 40)],
        ids=["pareto8", "stacked-lb"],
    )
    @pytest.mark.parametrize("agent", ["etc-discrete", "etc-doubling", "clairvoyant"])
    def test_equal_keys_mean_equal_rows(self, monkeypatch, instance, override_n, agent):
        # every column but the cumulative regret is gathered from the key's
        # table row; on the 64-point stacked-lb support an explore phase of
        # 40 episodes misses points, so some committed rollouts fall back
        from seqtest import agents

        monkeypatch.setattr(envs, "_BLOCK", 700)
        runner = {"etc-discrete": agents.run_etc_discrete, "etc-doubling": agents.run_etc_doubling,
                  "clairvoyant": agents.run_clairvoyant}[agent]
        size = len(instance.model.support)
        config = EtcConfig(horizon=2000, support_size_hint=size,
                           override_n=override_n if agent == "etc-discrete" else None)
        sink = self._Blocks()
        result = runner(DiscreteEnvironment(instance, seed=3), config, True, sink)
        if agent == "etc-discrete" and override_n is not None:
            assert result.metadata["fallback_episodes"] > 0
        for block in sink.blocks:
            key = block.row_key
            assert key.dtype == np.int32 and len(key) == block.episodes
            explores = np.array(block.phase) == "explore"
            assert np.array_equal(explores, key < size)
            columns = [
                np.array(block.phase), np.asarray(block.tests_performed), np.array(block.decision),
                block.realized_reward.view(np.uint64), block.clairvoyant_reward.view(np.uint64),
                block.simple_regret.view(np.uint64),
                np.where(np.isnan(block.observations), np.inf, block.observations).view(np.uint64),
            ]
            keys, first = np.unique(key, return_index=True)
            at_first = first[np.searchsorted(keys, key)]  # each row's key's first row
            for col in columns:
                assert np.array_equal(col, col[at_first])
        assert sum(b.episodes for b in sink.blocks) == 2000


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
        assert not report.failures
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
        assert not (tmp_path / "fail" / "aggregate.csv").exists()

    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2, 3)])
    def test_parameters_resolved_once_per_run(self, tmp_path, monkeypatch, seeds):
        calls = []
        resolve = harness.resolved_agent_params

        def counted(config):
            calls.append(config.agent)
            return resolve(config)

        monkeypatch.setattr(harness, "resolved_agent_params", counted)
        report = run_replications(self._config(tmp_path / "run", seeds=seeds))
        assert not report.failures
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
        assert not run_replications(self._config(tmp_path / "run", jobs=8, seeds=(0, 1))).failures
        assert not run_replications(self._config(tmp_path / "run2", jobs=2, seeds=(0, 1, 2))).failures
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

    def test_run_without_out_dir_refused(self, tmp_path, monkeypatch):
        # refused before any seed runs or any directory is made
        calls = []
        monkeypatch.setattr(harness, "run_seed", lambda *args: calls.append(args))
        monkeypatch.chdir(tmp_path)
        config = self._config(tmp_path)
        config.out_dir = None
        with pytest.raises(ValueError, match="out_dir"):
            run_replications(config)
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="distinct"):
            self._config(tmp_path, seeds=(1, 1))

    @pytest.mark.parametrize("kind", ["pareto", "quadratic"])
    def test_clairvoyant_agent_zero_regret(self, monkeypatch, kind):
        inst = {
            "pareto": lambda: gen_discrete_pareto(d=3, seed=2, cost=0.05),
            "quadratic": lambda: gen_gaussian_quadratic(d=2),
        }[kind]()
        # blocks of 7 episodes: the horizon spans 15 blocks of the play loop
        monkeypatch.setattr(envs, "_BLOCK", 7)
        config = ExperimentConfig(
            instance=inst, agent="clairvoyant", horizon=100, seeds=(0,), out_dir=None
        )
        trace = run_seed(config, 0)
        assert trace.episodes == 100
        assert np.all(trace.simple_regret == 0.0)


# (agent, instance, agent parameters) of the block sweep: every agent, on
# each instance kind it runs on
BLOCK_SWEEP_RUNS = [
    ("etc-discrete", "pareto", {}),
    ("etc-discrete", "pareto", {"override_n": 40}),
    ("etc-gaussian", "quadratic", {"nodes_per_test": 4}),
    ("etc-gaussian", "quadratic", {"nodes_per_test": 4, "override_n": 1}),  # estimation failure
    ("etc-doubling", "pareto", {}),
    ("etc-doubling", "quadratic", {"nodes_per_test": 4}),
    ("clairvoyant", "pareto", {}),
    ("clairvoyant", "quadratic", {"nodes_per_test": 4}),
    ("ocmesp", "lowrank", {"bernstein_c": 2e9}),
]


class TestEpisodeBlocks:
    def test_block_draws_equal_one_draw(self):
        # an agent draws its horizon block by block; each block must be the
        # matching rows of one whole-horizon draw from the same Philox key
        discrete = gen_discrete_pareto(d=4, seed=1).model
        gaussian = gen_gaussian_lowrank(d=6, seed=7).model

        def draws(model, sizes):
            rng = envs._stream(11)
            if model is discrete:
                parts = [sample_support_indices(model, rng, n) for n in sizes]
            else:
                parts = [sample(model, rng, n) for n in sizes]
            return np.concatenate(parts)

        for model in (discrete, gaussian):
            whole = draws(model, [1000])
            for sizes in ([1, 7, 300, 692], [1] * 1000, [7] * 142 + [6], [300] * 3 + [100], [692, 308]):
                assert draws(model, sizes).tobytes() == whole.tobytes(), sizes

    def test_carried_cumsum_equals_one_cumsum(self):
        rng = np.random.default_rng(5)
        regret = rng.standard_normal(1000) * 10.0 ** rng.integers(-8, 8, 1000)
        regret[0] = -0.0  # a run's first cumulative regret keeps its sign
        whole = np.cumsum(regret)
        for sizes in ([1, 7, 300, 692], [1] * 1000, [500, 500]):
            sink = envs.TraceSink(io.StringIO(), None, len(regret))
            for a, b in zip(np.cumsum([0] + sizes[:-1]), np.cumsum(sizes)):
                n = b - a
                sink.add(RegretTrace(
                    phase=["commit"] * n,
                    tests_performed=np.zeros(n, dtype=int), decision=[""] * n,
                    realized_reward=np.zeros(n), clairvoyant_reward=regret[a:b],
                ))
            assert sink.blocks == []  # a sink with a file keeps no rows
            streamed = sink.finish({}).cumulative_regret
            assert streamed.tobytes() == whole.tobytes(), sizes

    def test_aggregate_of_any_range_is_the_stacked_reduce(self):
        # the mean and sd of episodes a..b equal numpy's over the whole
        # stacked matrix, for every number of seeds
        rng = np.random.default_rng(8)
        for seeds in range(1, 21):
            cumulative = np.cumsum(rng.standard_normal((seeds, 300)), axis=1)
            traces = [envs.StreamedTrace({}, col) for col in cumulative]
            want = np.concatenate([cumulative.mean(axis=0), cumulative.std(axis=0)])
            for a, b in ((0, 300), (0, 1), (17, 18), (5, 299), (299, 300)):
                mean, sd = aggregate_cumulative_regret(traces, a, b)
                got = np.concatenate([mean, sd])
                assert got.tobytes() == want[np.r_[a:b, 300 + a : 300 + b]].tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "agent, kind, params", BLOCK_SWEEP_RUNS,
        ids=[f"{a}-{k}" + "".join(f"-{p}={v}" for p, v in ps.items()) for a, k, ps in BLOCK_SWEEP_RUNS],
    )
    def test_artifacts_do_not_depend_on_the_block(self, tmp_path, monkeypatch, agent, kind, params, jobs):
        inst = {
            "pareto": lambda: gen_discrete_pareto(d=4, seed=1, cost=0.05),
            "quadratic": lambda: gen_gaussian_quadratic(d=2, seed=0),
            "lowrank": lambda: gen_gaussian_lowrank(d=6, seed=7, cost=1.8),
        }[kind]()
        T = 1500
        adds = []
        add = envs.TraceSink.add
        monkeypatch.setattr(envs.TraceSink, "add", lambda sink, block: adds.append(1) or add(sink, block))
        runs = {}
        # 2^16 is one block of the whole horizon; a fork-started pool's
        # workers inherit the patched block
        for block in (7, 2**10, 2**16):
            monkeypatch.setattr(envs, "_BLOCK", block)
            out = tmp_path / str(block)
            report = run_replications(ExperimentConfig(
                instance=inst, agent=agent, horizon=T, seeds=(0, 1), out_dir=out, jobs=jobs,
                agent_params=params, emit_dataset=True,
            ))
            assert not report.failures, report.failures
            runs[block] = {p.name: p.read_bytes() for p in out.iterdir()}
        if jobs == 1:
            assert len(adds) >= 2 * math.ceil(T / 7)
        assert runs[7] == runs[2**10] == runs[2**16]
        assert len(runs[7]) == 6
        # a library run joins the same blocks into one whole trace
        monkeypatch.setattr(envs, "_BLOCK", 7)
        trace = run_seed(ExperimentConfig(
            instance=inst, agent=agent, horizon=T, seeds=(0,), agent_params=params,
            emit_dataset=True,
        ), 0)
        write_file(write_trace_rows, trace, tmp_path / "t.csv")
        write_file(write_dataset_rows, trace, tmp_path / "d.csv")
        assert (tmp_path / "t.csv").read_bytes() == runs[7]["trace_seed0.csv"]
        assert (tmp_path / "d.csv").read_bytes() == runs[7]["dataset_seed0.csv"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_streamed_seed_leaves_no_file(self, tmp_path, monkeypatch, jobs):
        # seed 1 fails on its second block, after its files were opened and
        # its first block's rows written to them
        import seqtest.agents as agents

        out = tmp_path / "run"
        blocks = []
        rollout_trace = agents.rollout_trace

        def failing(env, *args):
            blocks.append(env.seed)
            if env.seed == 1 and blocks.count(1) == 2:
                assert list(out.glob(".trace_seed1.csv.*.tmp"))
                assert list(out.glob(".dataset_seed1.csv.*.tmp"))
                raise RuntimeError("block 2 fails")
            return rollout_trace(env, *args)

        monkeypatch.setattr(agents, "rollout_trace", failing)
        monkeypatch.setattr(envs, "_BLOCK", 7)
        config = ExperimentConfig(
            instance=gen_discrete_pareto(d=3, seed=2, cost=0.05), agent="etc-discrete",
            horizon=64, seeds=(0, 1, 2), out_dir=out, jobs=jobs, emit_dataset=True,
        )
        report = run_replications(config)
        assert set(report.failures) == {1}
        assert "RuntimeError: block 2 fails" in report.failures[1]
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset_seed0.csv", "dataset_seed2.csv", "effective-config.json",
            "trace_seed0.csv", "trace_seed2.csv",
        ]
        for seed in (0, 2):
            trace = run_seed(config, seed)
            assert (out / f"trace_seed{seed}.csv").read_bytes() == trace_csv_reference(trace).encode()
            assert report.traces[seed].cumulative_regret.tobytes() == trace.cumulative_regret.tobytes()


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
                phase=["commit"] * T, tests_performed=np.zeros(T, dtype=int),
                decision=["0"] * T, realized_reward=rng.random(T),
                clairvoyant_reward=np.ones(T),
            )
            for s in range(2)
        ]
        run = tmp_path / "run"
        run.mkdir()
        write_file(write_aggregate_rows, aggregate_cumulative_regret(traces), run / "aggregate.csv")
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
