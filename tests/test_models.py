"""Core distribution types: states, conditioning, sampling, instance files."""

import json
import math

import numpy as np
import pytest

import seqtest.models as models
from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    IllConditionedError,
    ImpossibleStateError,
    InstanceError,
    ProblemInstance,
    RewardSpec,
    ScalarGaussian,
    ScalarPmf,
    TestState,
    apply_observation,
    consistent,
    initial_state,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    marginal_over_test,
    posterior_discrete,
    posterior_gaussian,
    sample,
    save_instance,
)
from seqtest.generators import gen_gaussian_lowrank
from conftest import random_gaussian_model


def state(*entries):
    return TestState(entries=tuple(entries))


FOUR_POINT = DiscreteOutcomeModel(
    support=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    probs=np.array([0.4, 0.1, 0.2, 0.3]),
)


class TestConsistent:
    def test_single_observed_entry_matches(self):
        assert consistent((0.0, 1.0), state(None, 1.0))

    def test_mismatch_on_first_entry(self):
        assert not consistent((0.0, 1.0), state(1.0, 1.0))

    def test_all_missing_matches_everything(self):
        assert consistent((0.0, 1.0), state(None, None))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            consistent((0.0,), state(None, None))

    def test_monotone_under_refinement(self, rng):
        # once inconsistent, every further observation keeps it inconsistent
        for _ in range(50):
            d = int(rng.integers(1, 5))
            x = rng.integers(0, 2, d).astype(float)
            s = initial_state(d)
            broken = False
            order = rng.permutation(d)
            for i in order:
                v = float(rng.integers(0, 2))
                s = apply_observation(s, int(i), v)
                if not consistent(x, s):
                    broken = True
                if broken:
                    assert not consistent(x, s)


class TestApplyObservation:
    def test_definition(self):
        s = apply_observation(state(None, None), 0, 3.0)
        assert s.entries == (3.0, None)

    def test_second_observation(self):
        s = apply_observation(state(3.0, None), 1, 5.0)
        assert s.entries == (3.0, 5.0)

    def test_reobservation_forbidden(self):
        with pytest.raises(ValueError, match="already observed"):
            apply_observation(state(3.0, None), 0, 4.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_observation(state(None,), 1, 0.0)

    def test_source_state_unmodified(self):
        s = state(None, None)
        apply_observation(s, 0, 1.0)
        assert s.entries == (None, None)


class TestPosteriorDiscrete:
    def test_hand_renormalization(self):
        post = posterior_discrete(FOUR_POINT, state(0.0, None))
        assert post.support.tolist() == [[0.0, 0.0], [0.0, 1.0]]
        np.testing.assert_allclose(post.probs, [0.8, 0.2], rtol=1e-12)

    def test_conditioning_on_nothing_returns_model(self):
        post = posterior_discrete(FOUR_POINT, state(None, None))
        np.testing.assert_array_equal(post.support, FOUR_POINT.support)
        np.testing.assert_array_equal(post.probs, FOUR_POINT.probs)

    def test_full_observation_gives_point_mass(self):
        post = posterior_discrete(FOUR_POINT, state(1.0, 1.0))
        assert post.support.tolist() == [[1.0, 1.0]]
        assert post.probs.tolist() == [1.0]

    def test_impossible_state(self):
        with pytest.raises(ImpossibleStateError):
            posterior_discrete(FOUR_POINT, state(2.0, None))

    def test_renormalization_sums_to_one_on_all_reachable_states(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            rows = {tuple(float(v) for v in rng.integers(0, 2, d)) for _ in range(k)}
            rows = sorted(rows)
            w = rng.random(len(rows)) + 0.1
            model = DiscreteOutcomeModel(np.array(rows), w / w.sum())
            for i in range(d):
                for v in (0.0, 1.0):
                    s = apply_observation(initial_state(d), i, v)
                    try:
                        post = posterior_discrete(model, s)
                    except ImpossibleStateError:
                        continue
                    assert abs(post.probs.sum() - 1.0) <= 1e-12

    def test_tower_property_exhaustive(self, rng):
        # mixing child posteriors by the marginal of the tested coordinate
        # reproduces the parent posterior (models with K <= 16)
        for trial in range(10):
            d = int(rng.integers(2, 4))
            rows = sorted(
                {tuple(float(v) for v in rng.integers(0, 2, d)) for _ in range(16)}
            )
            w = rng.random(len(rows)) + 0.05
            model = DiscreteOutcomeModel(np.array(rows), w / w.sum())
            s = initial_state(d)
            for i in range(d):
                marg = marginal_over_test(model, s, i)
                mixed = {}
                for v, p in zip(marg.values, marg.probs):
                    child = posterior_discrete(model, apply_observation(s, i, v))
                    for row, q in zip(child.support, child.probs):
                        key = tuple(row)
                        mixed[key] = mixed.get(key, 0.0) + p * q
                parent = posterior_discrete(model, s)
                for row, q in zip(parent.support, parent.probs):
                    assert abs(mixed[tuple(row)] - q) <= 1e-12


class TestPosteriorGaussian:
    def test_schur_hand_case(self):
        model = GaussianOutcomeModel(
            mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.5, 1.0]])
        )
        post = posterior_gaussian(model, state(None, 2.0))
        assert abs(post.mean[0] - 1.0) <= 1e-10
        assert abs(post.covariance[0, 0] - 0.75) <= 1e-10

    def test_schur_hand_case_two_observed(self):
        # mu=(1,-1,0), Sigma=[[4,2,1],[2,3,1],[1,1,2]], observe x0=2, x2=-1:
        # posterior of x1 is N(-6/7, 13/7) by the Schur complement
        model = GaussianOutcomeModel(
            mean=np.array([1.0, -1.0, 0.0]),
            covariance=np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 1.0], [1.0, 1.0, 2.0]]),
        )
        post = posterior_gaussian(model, state(2.0, None, -1.0))
        assert abs(post.mean[0] - (-6.0 / 7.0)) <= 1e-10
        assert abs(post.covariance[0, 0] - 13.0 / 7.0) <= 1e-10

    def test_all_missing_returns_model(self, rng):
        model = random_gaussian_model(rng, 3)
        assert posterior_gaussian(model, initial_state(3)) is model

    def test_all_observed_degenerate(self, rng):
        model = random_gaussian_model(rng, 2)
        post = posterior_gaussian(model, state(0.3, -0.7))
        assert post.d == 0

    def test_diagonal_posterior_is_marginal(self):
        model = GaussianOutcomeModel(
            mean=np.array([1.0, 2.0, 3.0]), covariance=np.diag([1.0, 4.0, 9.0])
        )
        post = posterior_gaussian(model, state(None, 5.0, None))
        np.testing.assert_allclose(post.mean, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(post.covariance, np.diag([1.0, 9.0]), atol=1e-12)

    def test_covariance_independent_of_observed_values(self, rng):
        model = random_gaussian_model(rng, 4)
        a = posterior_gaussian(model, state(None, 0.5, None, -2.0))
        b = posterior_gaussian(model, state(None, 99.0, None, 42.0))
        assert np.array_equal(a.covariance, b.covariance)

    def test_posterior_covariance_psd(self, rng):
        for _ in range(20):
            model = random_gaussian_model(rng, 4)
            post = posterior_gaussian(model, state(None, 0.2, 1.0, None))
            assert np.linalg.eigvalsh(post.covariance)[0] > 0.0

    def test_ill_conditioned_refused(self):
        cov = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        model = GaussianOutcomeModel(mean=np.zeros(2), covariance=cov)
        big = np.zeros((3, 3))
        big[:2, :2] = cov
        big[2, 2] = 1.0
        model3 = GaussianOutcomeModel(mean=np.zeros(3), covariance=big)
        with pytest.raises(IllConditionedError):
            posterior_gaussian(model3, state(1.0, 1.0, None))

    def test_matches_rejection_sampling(self, rng):
        # conditioning on a small window around the observed values agrees
        # with the closed form within 4 standard errors (d <= 4)
        for trial in range(3):
            d = int(rng.integers(2, 5))
            model = random_gaussian_model(rng, d)
            obs = int(rng.integers(0, d))
            v = float(model.mean[obs] + 0.5 * math.sqrt(model.covariance[obs, obs]))
            entries = [None] * d
            entries[obs] = v
            s = TestState(entries=tuple(entries))
            post = posterior_gaussian(model, s)
            draws = sample(model, rng, 400_000)
            width = 0.05 * math.sqrt(model.covariance[obs, obs])
            keep = np.abs(draws[:, obs] - v) < width
            sel = draws[keep][:, list(s.missing_indices)]
            m = sel.shape[0]
            assert m > 2000
            se_mean = sel.std(axis=0, ddof=1) / math.sqrt(m)
            np.testing.assert_array_less(
                np.abs(sel.mean(axis=0) - post.mean), 4.0 * se_mean + 1e-12
            )
            emp_cov = np.cov(sel.T)
            cc = post.covariance
            se_cov = np.sqrt(
                (np.outer(np.diag(cc), np.diag(cc)) + cc**2) / m
            )
            np.testing.assert_array_less(np.abs(emp_cov - cc), 4.0 * se_cov + 1e-12)


class TestMarginalOverTest:
    def test_discrete_projection(self):
        marg = marginal_over_test(FOUR_POINT, state(0.0, None), 1)
        assert isinstance(marg, ScalarPmf)
        assert marg.values == (0.0, 1.0)
        np.testing.assert_allclose(marg.probs, (0.8, 0.2), rtol=1e-12)

    def test_gaussian_projection(self):
        model = GaussianOutcomeModel(
            mean=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.5, 1.0]])
        )
        marg = marginal_over_test(model, state(None, 2.0), 0)
        assert isinstance(marg, ScalarGaussian)
        assert abs(marg.mean - 1.0) <= 1e-10
        assert abs(marg.variance - 0.75) <= 1e-10

    def test_independent_coordinates_ignore_conditioning(self):
        model = DiscreteOutcomeModel(
            support=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            probs=np.array([0.35, 0.35, 0.15, 0.15]),  # x0, x1 independent
        )
        before = marginal_over_test(model, initial_state(2), 1)
        after = marginal_over_test(model, state(1.0, None), 1)
        np.testing.assert_allclose(before.probs, after.probs, rtol=1e-12)

    def test_observed_test_rejected(self):
        with pytest.raises(ValueError, match="already observed"):
            marginal_over_test(FOUR_POINT, state(0.0, None), 0)


class TestSampling:
    def test_point_mass_always_returns_the_point(self):
        model = DiscreteOutcomeModel(support=np.array([[3.0, 7.0]]), probs=np.array([1.0]))
        rng = np.random.default_rng(0)
        draws = sample(model, rng, 1000)
        assert np.all(draws == [3.0, 7.0])

    def test_fair_coin_frequency(self):
        model = DiscreteOutcomeModel(
            support=np.array([[0.0], [1.0]]), probs=np.array([0.5, 0.5])
        )
        rng = np.random.default_rng(7)
        draws = sample(model, rng, 100_000)
        assert abs(draws.mean() - 0.5) <= 0.01

    def test_gaussian_mean_clt_bound(self, rng):
        model = random_gaussian_model(rng, 3)
        n = 100_000
        draws = sample(model, rng, n)
        lam_max = float(np.linalg.eigvalsh(model.covariance)[-1])
        bound = 3.0 * math.sqrt(lam_max / n) * math.sqrt(model.d)
        assert np.linalg.norm(draws.mean(axis=0) - model.mean) <= bound

    def test_same_seed_same_draws(self):
        model = FOUR_POINT
        a = sample(model, np.random.Generator(np.random.Philox(key=5)), 64)
        b = sample(model, np.random.Generator(np.random.Philox(key=5)), 64)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", [4, 6])
    def test_gaussian_rows_do_not_depend_on_batch_size(self, d):
        # the first m of n draws are the m draws of the same stream, bit for
        # bit; a BLAS matmul's rows depend on the batch shape (on these
        # models, its single row differs from the first of many)
        model = gen_gaussian_lowrank(d=d, seed=0).model
        many = sample(model, np.random.Generator(np.random.Philox(key=0)), 4096)
        for m in (1, 2, 3, 16, 1000):
            few = sample(model, np.random.Generator(np.random.Philox(key=0)), m)
            assert many[:m].tobytes() == few.tobytes()


class TestModelValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(InstanceError, match="sum"):
            DiscreteOutcomeModel(support=np.array([[0.0], [1.0]]), probs=np.array([0.6, 0.5]))

    def test_negative_prob_rejected(self):
        with pytest.raises(InstanceError):
            DiscreteOutcomeModel(support=np.array([[0.0], [1.0]]), probs=np.array([1.1, -0.1]))

    def test_duplicate_support_rejected(self):
        with pytest.raises(InstanceError, match="distinct"):
            DiscreteOutcomeModel(support=np.array([[1.0], [1.0]]), probs=np.array([0.5, 0.5]))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InstanceError, match="symmetric"):
            GaussianOutcomeModel(mean=np.zeros(2), covariance=np.array([[1.0, 0.3], [0.1, 1.0]]))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(InstanceError, match="positive definite"):
            GaussianOutcomeModel(mean=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_condition_number_validated(self):
        with pytest.raises(InstanceError, match="condition_number"):
            GaussianOutcomeModel(
                mean=np.zeros(2), covariance=np.diag([4.0, 1.0]), condition_number=2.0
            )
        model = GaussianOutcomeModel(mean=np.zeros(2), covariance=np.diag([4.0, 1.0]))
        assert abs(model.condition_number - 4.0) <= 1e-8

    def test_reward_table_must_be_finite(self):
        with pytest.raises(InstanceError, match="bounded"):
            RewardSpec(kind="table", table=np.array([[np.inf, 0.0]]))

    def test_entropy_reward_requires_gaussian_model(self):
        model = DiscreteOutcomeModel(support=np.array([[0.0], [1.0]]), probs=np.array([0.5, 0.5]))
        with pytest.raises(InstanceError, match="Gaussian model"):
            ProblemInstance(
                model=model,
                costs=np.zeros(1),
                decisions=(),
                reward=RewardSpec(kind="entropy", lam=1.0),
            )

    @pytest.mark.parametrize("reward", [RewardSpec(kind="quadratic"), RewardSpec(kind="entropy", lam=1.0)])
    def test_instance_needs_a_test(self, reward):
        # the 0-dimensional model stays (a fully observed posterior is one);
        # an instance on it, with nothing to test, does not
        model = GaussianOutcomeModel(mean=np.zeros(0), covariance=np.zeros((0, 0)))
        assert model.d == 0
        with pytest.raises(InstanceError, match="at least one test, got d=0"):
            ProblemInstance(
                model=model, costs=np.zeros(0),
                decisions=() if reward.kind == "entropy" else ((),), reward=reward,
            )

    def test_entropy_instances_take_no_decisions(self):
        model = GaussianOutcomeModel(mean=np.zeros(1), covariance=np.eye(1))
        with pytest.raises(InstanceError):
            ProblemInstance(
                model=model,
                costs=np.zeros(1),
                decisions=(0,),
                reward=RewardSpec(kind="entropy", lam=1.0),
            )


class TestInstanceFiles:
    def _dict(self):
        return {
            "type": "discrete",
            "d": 2,
            "support": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
            "probs": [0.4, 0.1, 0.2, 0.3],
            "costs": [0.1, 0.2],
            "decisions": [[0.0, 0.0], [1.0, 1.0]],
            "reward": {"kind": "indicator-match"},
        }

    def test_round_trip(self, tmp_path):
        inst = instance_from_dict(self._dict())
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instance_to_dict(again) == instance_to_dict(inst)

    def test_unknown_top_level_key_rejected(self):
        obj = self._dict()
        obj["banana"] = 1
        with pytest.raises(InstanceError, match="unknown instance keys"):
            instance_from_dict(obj)

    def test_unknown_reward_key_rejected(self):
        obj = self._dict()
        obj["reward"] = {"kind": "indicator-match", "scale": 2}
        with pytest.raises(InstanceError, match="unknown reward keys"):
            instance_from_dict(obj)

    def test_probability_sum_tolerance(self):
        obj = self._dict()
        obj["probs"] = [0.4, 0.1, 0.2, 0.3 + 5e-10]  # inside 1e-9, renormalized
        inst = instance_from_dict(obj)
        assert abs(inst.model.probs.sum() - 1.0) <= 1e-12
        obj["probs"] = [0.4, 0.1, 0.2, 0.31]
        with pytest.raises(InstanceError, match="1e-9"):
            instance_from_dict(obj)

    @pytest.mark.parametrize("d", [3.7, 2.0, "2", True, None])
    def test_d_must_be_an_integer(self, d):
        obj = self._dict()
        obj["d"] = d
        with pytest.raises(InstanceError, match="d must be an integer"):
            instance_from_dict(obj)

    def test_gaussian_round_trip(self, tmp_path, rng):
        model = random_gaussian_model(rng, 2)
        inst = ProblemInstance(
            model=model,
            costs=np.array([0.1, 0.1]),
            decisions=((0.0, 0.0), (1.0, 1.0)),
            reward=RewardSpec(kind="quadratic"),
        )
        path = tmp_path / "g.json"
        save_instance(inst, path)
        again = load_instance(path)
        np.testing.assert_allclose(again.model.covariance, model.covariance, rtol=0, atol=0)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        # the dump raises after its first keys were written: the instance
        # saved before stays whole, and no temporary file is left
        path = tmp_path / "inst.json"
        save_instance(instance_from_dict(self._dict()), path)
        before = path.read_bytes()
        monkeypatch.setattr(models, "instance_to_dict", lambda inst: {"a": [0.5] * 1000, "z": object()})
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_instance(instance_from_dict(self._dict()), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InstanceError, match="invalid JSON"):
            load_instance(path)
