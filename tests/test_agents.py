"""Explore-Then-Commit agents: schedules, estimation, committed play, and the
doubling wrapper."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from seqtest.agents import (
    EtcConfig,
    _empirical_instance,
    _estimate_gaussian,
    discrete_exploration_episodes,
    doubling_batches,
    gaussian_exploration_episodes,
    run_etc_discrete,
    run_etc_doubling,
    run_etc_gaussian,
)
from seqtest.dp import QuadratureSpec, _priced_rollouts
from seqtest.envs import DiscreteEnvironment, GaussianEnvironment, TraceSink
from seqtest.generators import (
    gen_discrete_pareto,
    gen_gaussian_lowrank,
    gen_gaussian_quadratic,
    gen_lower_bound_single,
)
from seqtest.harness import ExperimentConfig, run_seed
from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    RewardSpec,
)
from conftest import gaussian_estimate_accepted, single_test_instance


def gaussian_1d_instance(cost=0.3, var=1.0, mean=0.0, decisions=(-1.0, 1.0)):
    return ProblemInstance(
        model=GaussianOutcomeModel(mean=np.array([mean]), covariance=np.array([[var]])),
        costs=np.array([cost]),
        decisions=tuple((y,) for y in decisions),
        reward=RewardSpec(kind="quadratic"),
    )


class TestSchedules:
    def test_discrete_schedule_exact_powers(self):
        cfg = EtcConfig(horizon=512, support_size_hint=8)
        assert discrete_exploration_episodes(cfg) == 128  # floor(2 * 64)

    def test_discrete_schedule_d8_pareto_scale(self):
        cfg = EtcConfig(horizon=2**14, support_size_hint=256)
        assert discrete_exploration_episodes(cfg) == 4096  # cbrt(2^8 * 2^28)

    def test_gaussian_schedule_exact_powers(self):
        cfg = EtcConfig(horizon=1000, condition_number=3.0)
        assert gaussian_exploration_episodes(cfg) == 900  # floor(9 * 100)

    def test_clamped_to_horizon(self):
        cfg = EtcConfig(horizon=5, support_size_hint=1000)
        assert discrete_exploration_episodes(cfg) == 5

    def test_override(self):
        cfg = EtcConfig(horizon=100, support_size_hint=8, override_n=17)
        assert discrete_exploration_episodes(cfg) == 17


class TestDoubling:
    def test_exact_dyadic_sum(self):
        assert doubling_batches(7) == [1, 2, 4]

    def test_truncated_final_batch(self):
        assert doubling_batches(10) == [1, 2, 4, 3]

    def test_trace_length_always_total(self):
        inst = gen_lower_bound_single(0.2, 1)
        for total in (1, 5, 23, 64):
            env = DiscreteEnvironment(inst, seed=3)
            res = run_etc_doubling(env, EtcConfig(horizon=total, support_size_hint=2))
            assert res.trace.episodes == total
            # cumulative regret re-accumulates across batches
            np.testing.assert_allclose(
                res.trace.cumulative_regret,
                np.cumsum(res.trace.simple_regret),
                atol=1e-9,
            )

    def test_no_state_across_batches(self):
        # each batch re-explores: batch starts are explore episodes
        inst = gen_lower_bound_single(0.2, 1)
        env = DiscreteEnvironment(inst, seed=0)
        res = run_etc_doubling(env, EtcConfig(horizon=15, support_size_hint=2))
        starts = [0, 1, 3, 7]
        for s in starts:
            assert res.trace.phase[s] == "explore"


class TestEtcDiscrete:
    def test_point_mass_environment(self):
        inst = ProblemInstance(
            model=DiscreteOutcomeModel(support=np.array([[1.0, 0.0]]), probs=np.array([1.0])),
            costs=np.array([0.2, 0.2]),
            decisions=((1.0, 0.0), (0.0, 0.0)),
            reward=RewardSpec(kind="indicator-match"),
        )
        env = DiscreteEnvironment(inst, seed=0)
        res = run_etc_discrete(env, EtcConfig(horizon=50, support_size_hint=1))
        assert res.policy.table.root_action == ("decide", 0)
        commit = np.array([p == "commit" for p in res.trace.phase])
        assert np.all(res.trace.tests_performed[commit] == 0)
        np.testing.assert_allclose(res.trace.simple_regret[commit], 0.0, atol=1e-12)

    def test_single_test_commitment_rate(self):
        # eps=0.2, T=1000: the empirical majority side is 0 except on
        # Hoeffding-tail seeds; testing never beats 0.5 < 0.75
        inst = gen_lower_bound_single(0.2, 1)
        wrong = 0
        for seed in range(200):
            env = DiscreteEnvironment(inst, seed=seed)
            res = run_etc_discrete(env, EtcConfig(horizon=1000, support_size_hint=2))
            if res.policy.table.root_action != ("decide", 0):
                wrong += 1
        assert wrong / 200 < 0.05

    def test_exploration_purity_and_mar_pattern(self):
        inst = gen_discrete_pareto(d=4, seed=1, cost=0.05)
        env = DiscreteEnvironment(inst, seed=5)
        cfg = EtcConfig(horizon=300, support_size_hint=16)
        res = run_etc_discrete(env, cfg, collect_observations=True)
        n = res.trace.metadata["n_explore"]
        holes = np.isnan(res.trace.observations)
        assert res.trace.observations.shape == (300, inst.d)
        assert not holes[:n].any()  # no NA while exploring
        assert holes[n:].any(axis=1).any()

    def test_empirical_pmf_properties(self):
        inst = gen_discrete_pareto(d=4, seed=2, cost=0.05)
        env = DiscreteEnvironment(inst, seed=9)
        res = run_etc_discrete(env, EtcConfig(horizon=200, support_size_hint=16))
        model = res.empirical
        assert abs(model.probs.sum() - 1.0) <= 1e-12
        # the committed model is the pmf of the explore episodes' draws
        n = res.trace.metadata["n_explore"]
        counts = np.bincount(DiscreteEnvironment(inst, seed=9).outcome_indices(n))
        index_of = {tuple(r): i for i, r in enumerate(inst.model.support.tolist())}
        seen = [index_of[tuple(r)] for r in model.support.tolist()]
        assert sorted(seen) == np.flatnonzero(counts).tolist()
        assert model.probs.tobytes() == (counts[seen] / n).tobytes()

    def test_explore_regret_single_test_values(self):
        # rolled out by hand: exploring costs 3/4 and decides correctly, the
        # clairvoyant skips and predicts 0, so per-episode regret is 0.75 on
        # x=0 and -0.25 on x=1
        inst = gen_lower_bound_single(0.2, 1)
        env = DiscreteEnvironment(inst, seed=11)
        res = run_etc_discrete(env, EtcConfig(horizon=50, support_size_hint=2))
        n = res.trace.metadata["n_explore"]
        explore_regret = set(np.round(res.trace.simple_regret[:n], 10))
        assert explore_regret <= {0.75, -0.25}

    def test_unseen_value_counted_as_fallback(self):
        # seed 2 explores 8 episodes without drawing x=2; the committed policy
        # tests, observes 2 outside its support and falls back
        inst = single_test_instance((0.0, 1.0, 2.0), (0.5, 0.45, 0.05))
        env = DiscreteEnvironment(inst, seed=2)
        cfg = EtcConfig(horizon=200, override_n=8)
        res = run_etc_discrete(env, cfg, collect_observations=True)
        assert 2.0 not in res.empirical.support
        n = res.trace.metadata["n_explore"]
        unseen = int(np.count_nonzero(res.trace.observations[n:, 0] == 2.0))
        assert res.trace.metadata["fallback_episodes"] == unseen > 0

    def test_empirical_counts_match_unique_rows(self, rng):
        # supports in random row order, explore windows too short to see
        # every point, counted in several blocks: the plug-in model is
        # np.unique's rows with their counts over the total, and the table
        # reward is re-keyed to them, each row the true table's row
        missed = unordered = 0
        for _ in range(30):
            k, d = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            codes = rng.choice(4**d, size=min(k, 4**d), replace=False)
            support = np.array([[(c >> 2 * i) % 4 - 1.5 for i in range(d)] for c in codes])
            table = rng.uniform(-1.0, 1.0, size=(len(support), 3))
            inst = ProblemInstance(
                model=DiscreteOutcomeModel(support=support, probs=np.full(len(support), 1 / len(support))),
                costs=np.zeros(d), decisions=(0, 1, 2), reward=RewardSpec(kind="table", table=table),
            )
            sampled = rng.integers(0, len(support), size=int(rng.integers(1, 2 * len(support))))
            cuts = np.sort(rng.integers(0, len(sampled) + 1, size=2))
            fitted = _empirical_instance(inst, np.split(sampled, cuts))
            vectors, counts = np.unique(support[sampled], axis=0, return_counts=True)
            assert fitted.model.support.tobytes() == vectors.tobytes()
            assert fitted.model.probs.tobytes() == (counts / counts.sum()).tobytes()
            index_of = {tuple(r): i for i, r in enumerate(support.tolist())}
            rows = [index_of[tuple(v)] for v in vectors.tolist()]
            assert fitted.reward.table.tobytes() == table[rows].tobytes()
            missed += len(vectors) < len(support)
            unordered += not np.array_equal(support, np.unique(support, axis=0))
        assert missed > 0 and unordered > 0

    def test_explore_fit_counts_one_block_at_a_time(self):
        # N = cbrt(2^18 * (2^21)^2) = 2^20 explore episodes: their indices
        # held at once would take 8 MB and their uniform draws 8 MB more
        T = 1 << 21
        env = DiscreteEnvironment(gen_discrete_pareto(d=6, seed=0), seed=0)

        class Discard:
            def write(self, text):
                pass

        sink = TraceSink(Discard(), None, T)  # its cumulative column is built untraced
        tracemalloc.start()
        try:
            res = run_etc_discrete(env, EtcConfig(horizon=T, support_size_hint=1 << 18), sink=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.metadata["n_explore"] == 1 << 20
        assert peak < 8 * 2**20, peak


class TestEtcGaussian:
    def test_schedule_and_phases(self):
        inst = gaussian_1d_instance()
        env = GaussianEnvironment(inst, seed=0)
        cfg = EtcConfig(horizon=1000, condition_number=1.0, assume_zero_mean=True)
        res = run_etc_gaussian(env, cfg)
        assert res.trace.metadata["schedule_n"] == 100
        assert res.trace.phase[99] == "explore" and res.trace.phase[100] == "commit"
        assert res.trace.metadata["estimator"] == "uncentered"

    def test_committed_choice_matches_clairvoyant(self):
        # testing beats deciding by ~1.3 here, far beyond estimation error at
        # N = 464, so the committed test/skip choice matches the clairvoyant's
        inst = gaussian_1d_instance(cost=0.3, var=1.0, mean=0.0)
        cfg = EtcConfig(
            horizon=10_000,
            condition_number=1.0,
            assume_zero_mean=True,
            quadrature=QuadratureSpec(nodes_per_test=16, max_depth=1),
        )
        match = 0
        for seed in range(200):
            env = GaussianEnvironment(inst, seed=seed)
            clair_kind = env.clairvoyant_policy(cfg.quadrature).table.root_action[0]
            res = run_etc_gaussian(env, cfg)
            if res.policy is not None and res.policy.table.root_action[0] == clair_kind:
                match += 1
        assert match / 200 >= 0.95

    def test_zero_mean_estimator_tail_bound(self):
        # ||mu_hat|| <= 3 sqrt(lam_max d / N) on >= 99% of seeds
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.3], [0.0, 0.3, 1.0]])
        model = GaussianOutcomeModel(mean=np.zeros(3), covariance=cov)
        inst = ProblemInstance(
            model=model,
            costs=np.full(3, 0.1),
            decisions=((0.0, 0.0, 0.0),),
            reward=RewardSpec(kind="quadratic"),
        )
        lam_max = float(np.linalg.eigvalsh(cov)[-1])
        n = 900
        bound = 3.0 * math.sqrt(lam_max * 3 / n)
        hits = 0
        for seed in range(100):
            env = GaussianEnvironment(inst, seed=seed)
            est = _estimate_gaussian(env.outcomes(n), assume_zero_mean=True)
            hits += float(np.linalg.norm(est.mean)) <= bound
        assert hits >= 99

    def test_grace_extension_then_success(self):
        # centered covariance is singular at n=1; one extra exploration
        # episode (the 2N cap) makes it positive definite
        inst = gaussian_1d_instance()
        env = GaussianEnvironment(inst, seed=4)
        cfg = EtcConfig(horizon=50, condition_number=1.0, override_n=1)
        res = run_etc_gaussian(env, cfg)
        assert res.trace.metadata["n_explore"] == 2
        assert res.trace.metadata["estimator"] == "centered"
        assert not res.trace.metadata["estimation_failure"]

    def test_estimation_failure_falls_back_to_full_testing(self):
        # d=2 centered covariance has rank <= 1 at n <= 2 = 2N, so the run
        # records an estimation failure and tests everything afterwards
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(2), covariance=np.eye(2)),
            costs=np.array([0.1, 0.1]),
            decisions=((0.0, 0.0), (1.0, 1.0)),
            reward=RewardSpec(kind="quadratic"),
        )
        env = GaussianEnvironment(inst, seed=4)
        cfg = EtcConfig(horizon=20, condition_number=1.0, override_n=1)
        res = run_etc_gaussian(env, cfg)
        assert res.trace.metadata["estimation_failure"]
        assert res.policy is None
        assert np.all(res.trace.tests_performed == 2)
        # the remainder is priced as full-information rollouts
        n = res.trace.metadata["n_explore"]
        xs = GaussianEnvironment(inst, seed=4).outcomes(20)
        net = _priced_rollouts(inst, None, xs[n:])[3]
        assert n < 20 and np.array_equal(res.trace.realized_reward[n:], net)

    def test_rank_one_estimate_is_refused(self):
        # at override_n=1 the centered estimate of the d=2 instance has rank
        # one through 2N = 2 episodes; rounding leaves its smallest eigenvalue
        # a few ulps above 0 on most seeds, which must not pass as definite
        inst = gen_gaussian_quadratic(d=2)
        cfg = EtcConfig(
            horizon=64, condition_number=float(inst.model.condition_number), override_n=1
        )
        for seed in range(6):
            res = run_etc_gaussian(GaussianEnvironment(inst, seed=seed), cfg)
            assert res.trace.metadata["n_explore"] == 2
            assert res.trace.metadata["estimation_failure"]
            assert res.policy is None and res.empirical is None

    def test_refusal_matches_the_eigenvalue_rule(self, rng):
        # the model constructor and the condition-number cap refuse exactly
        # the estimates the eigenvalue rule refuses: rank-deficient ones
        # (n <= d), a collinear column, columns scaled by 1e-100..1e100; an
        # overflowing condition number must not warn
        refused = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in range(1, 7):
                for n in range(1, 2 * d + 3):
                    for trial in range(6):
                        x = rng.standard_normal((n, d)) + rng.standard_normal(d)
                        if trial % 3 == 1 and d > 1:
                            x[:, 0] = 3.0 * x[:, d - 1]
                        if trial % 3 == 2:
                            x *= 10.0 ** rng.integers(-100, 101, size=d)
                        for zero_mean in (False, True):
                            model = _estimate_gaussian(x, zero_mean)
                            assert (model is None) == (not gaussian_estimate_accepted(x, zero_mean)), (d, n, trial)
                            refused.add(model is None)
        assert refused == {True, False}

    def test_centered_estimator_used_for_nonzero_mean(self):
        inst = gaussian_1d_instance(mean=5.0)
        env = GaussianEnvironment(inst, seed=1)
        res = run_etc_gaussian(env, EtcConfig(horizon=200, condition_number=1.0))
        assert res.trace.metadata["estimator"] == "centered"
        # uncentered second moment would be ~ 26, the centered one ~ 1
        assert res.empirical.covariance[0, 0] < 5.0


class TestExploreMatchesClairvoyant:
    # an explore episode on which the clairvoyant also tests every coordinate
    # and takes the same decision is priced identically by both: its regret is
    # exactly 0. Both instances have equal costs, so test order cannot matter.
    @pytest.mark.parametrize(
        "agent, instance, horizon",
        [
            ("etc-discrete", lambda: gen_discrete_pareto(d=8, seed=0, cost=0.05), 4096),
            ("etc-gaussian", lambda: gen_gaussian_quadratic(d=2, seed=0), 2048),
        ],
    )
    def test_full_information_ties_have_zero_regret(self, agent, instance, horizon):
        inst = instance()
        traces = {
            name: run_seed(ExperimentConfig(instance=inst, agent=name, horizon=horizon, seeds=(0,)), 0)
            for name in (agent, "clairvoyant")
        }
        etc, clair = traces[agent], traces["clairvoyant"]
        n = etc.metadata["n_explore"]
        same = [
            t
            for t in range(n)
            if clair.tests_performed[t] == inst.d and clair.decision[t] == etc.decision[t]
        ]
        assert len(same) > 20
        assert all(etc.simple_regret[t] == 0.0 for t in same)


class TestDoublingVsKnownT:
    def test_same_episode_stream(self):
        # the doubling wrapper consumes the same outcome stream, so the two
        # agents are compared on identical draws
        inst = gen_lower_bound_single(0.2, 1)
        known = run_etc_discrete(
            DiscreteEnvironment(inst, seed=7), EtcConfig(horizon=64, support_size_hint=2)
        ).trace
        doubled = run_etc_doubling(
            DiscreteEnvironment(inst, seed=7), EtcConfig(horizon=64, support_size_hint=2)
        ).trace
        np.testing.assert_array_equal(known.clairvoyant_reward, doubled.clairvoyant_reward)

    @pytest.mark.parametrize("d", [4, 6])
    def test_gaussian_draws_do_not_depend_on_batch_shape(self, d):
        # doubling batches must see the rows a known-horizon agent sees, bit
        # for bit; a BLAS matmul's rows depend on the batch shape
        inst = gen_gaussian_lowrank(d=d, seed=0)
        T = 4096
        at_once = GaussianEnvironment(inst, seed=0).outcomes(T)
        env = GaussianEnvironment(inst, seed=0)
        batched = np.concatenate([env.outcomes(b) for b in doubling_batches(T)])
        np.testing.assert_array_equal(batched, at_once)


# (agent, instance, agent parameters): every agent, on each instance kind it runs on
OBSERVATION_RUNS = [
    ("etc-discrete", "pareto", {}),
    ("etc-gaussian", "quadratic", {}),
    ("etc-gaussian", "quadratic", {"override_n": 1}),  # estimation failure, full testing
    ("etc-doubling", "pareto", {}),
    ("etc-doubling", "quadratic", {}),
    ("clairvoyant", "pareto", {}),
    ("clairvoyant", "quadratic", {}),
    ("ocmesp", "lowrank", {"bernstein_c": 2e9}),
]


class TestObservationMatrix:
    @pytest.mark.parametrize(
        "agent, kind, params", OBSERVATION_RUNS,
        ids=[f"{a}-{k}" + "".join(f"-{p}={v}" for p, v in ps.items()) for a, k, ps in OBSERVATION_RUNS],
    )
    def test_observed_entries_are_the_seeds_outcomes(self, agent, kind, params):
        # one row per episode holding the tests it performed, each the
        # realized outcome bit for bit, and NaN for every other test
        inst = {
            "pareto": lambda: gen_discrete_pareto(d=4, seed=1, cost=0.05),
            "quadratic": lambda: gen_gaussian_quadratic(d=2, seed=0),
            "lowrank": lambda: gen_gaussian_lowrank(d=6, seed=7, cost=1.8),
        }[kind]()
        T, seed = 300, 3
        config = ExperimentConfig(
            instance=inst, agent=agent, horizon=T, seeds=(seed,), agent_params=params,
            emit_dataset=True,
        )
        trace = run_seed(config, seed)
        if inst.is_discrete:
            xs = inst.model.support[DiscreteEnvironment(inst, seed).outcome_indices(T)]
        else:
            xs = GaussianEnvironment(inst, seed).outcomes(T)
        obs = trace.observations
        assert obs.shape == (T, inst.d)
        seen = ~np.isnan(obs)
        np.testing.assert_array_equal(seen.sum(axis=1), trace.tests_performed)
        assert obs[seen].tobytes() == xs[seen].tobytes()
