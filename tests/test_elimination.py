"""Iterative elimination for online cost-sensitive maximum entropy sampling."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from seqtest.elimination import (
    LOG_2PI_E,
    _objectives,
    CandidateSet,
    NotPositiveDefiniteError,
    OcmespConfig,
    candidate_objectives,
    confidence_width,
    eliminate,
    entropy_objective,
    run_ocmesp,
    select_next_subset,
    solve_mesp_offline,
    update_estimates,
)
from seqtest.envs import GaussianEnvironment
from seqtest.generators import gen_gaussian_lowrank
from seqtest.models import GaussianOutcomeModel, ProblemInstance, RewardSpec


def make_config(d=3, sigma=2.0, delta=0.1, lam=1.0, costs=None, horizon=100, c=1.0):
    costs = np.zeros(d) if costs is None else np.asarray(costs, dtype=float)
    return OcmespConfig(
        sigma=sigma, d=d, delta=delta, lam=lam, costs=costs, horizon=horizon, bernstein_c=c
    )


class TestEntropyObjective:
    def test_identity_covariance_pair(self):
        val = entropy_objective((0, 1), np.eye(2), 1.0, np.zeros(2))
        assert abs(val - 2.8378770664093453) <= 1e-12  # log(2 pi e)

    def test_empty_subset_is_zero(self):
        assert entropy_objective((), np.eye(3), 1.0, np.ones(3)) == 0.0

    def test_singleton_hand_evaluation(self):
        # 2*(log(2 pi e)/2 + log(4)/2) - 1
        val = entropy_objective((0,), np.array([[4.0]]), 2.0, np.array([1.0]))
        assert abs(val - 3.224171427529236) <= 1e-12

    def test_non_pd_block_carries_subset(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            entropy_objective((0, 1), bad, 1.0, np.zeros(2))
        assert err.value.subset == (0, 1)


class TestConfidenceWidth:
    def test_direct_scalar_evaluation(self):
        cfg = make_config(d=2, sigma=2.0, delta=0.1, c=1.0)
        assert abs(confidence_width(10**6, cfg) - 0.7420618301995389) <= 1e-9

    def test_eventually_decreasing_to_zero(self):
        cfg = make_config(d=2, sigma=2.0)
        widths = [confidence_width(t, cfg) for t in (10**4, 10**6, 10**8, 10**10)]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 1e-2

    def test_doubling_sigma_doubles_width(self):
        lo = confidence_width(1000, make_config(d=3, sigma=2.0))
        hi = confidence_width(1000, make_config(d=3, sigma=4.0))
        assert abs(hi - 2.0 * lo) <= 1e-12


class TestSolveMespOffline:
    def test_identity_cheap_tests_full_set(self):
        # per-test marginal value log(2 pi e)/2 ~ 1.419 beats cost 1
        best = solve_mesp_offline(np.eye(3), 1.0, np.ones(3))
        assert best == (0, 1, 2)

    def test_identity_expensive_tests_empty_set(self):
        best = solve_mesp_offline(np.eye(3), 1.0, np.full(3, 2.0))
        assert best == ()

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 20"):
            solve_mesp_offline(np.eye(21), 1.0, np.zeros(21))

    def test_matches_direct_enumeration(self, rng):
        import itertools

        for _ in range(5):
            a = rng.standard_normal((4, 4))
            cov = a @ a.T + 2 * np.eye(4)
            costs = rng.uniform(0.5, 2.5, 4)
            best = solve_mesp_offline(cov, 1.0, costs)
            objs = {
                s: entropy_objective(s, cov, 1.0, costs)
                for m in range(5)
                for s in itertools.combinations(range(4), m)
            }
            assert objs[best] == max(objs.values())


class TestCandidateSet:
    def test_initial_power_set(self):
        state = CandidateSet.initial(3)
        assert len(state.candidates) == 8  # sizes 0 and 1 included
        assert (0, 0) in state.pairs and (0, 2) in state.pairs

    def test_least_sampled_pair_ties_lexicographic(self):
        state = CandidateSet.initial(3)
        state.pair_counts[0, 1] = state.pair_counts[1, 0] = 3
        state.pair_counts[0, 2] = state.pair_counts[2, 0] = 1
        state.pair_counts[1, 2] = state.pair_counts[2, 1] = 2
        state.pair_counts[0, 0] = state.pair_counts[1, 1] = state.pair_counts[2, 2] = 5
        pair, subset = select_next_subset(state)
        assert pair == (0, 2)
        assert subset == 0b111  # the full set is the largest containing parent

    def test_largest_parent_preferred(self):
        state = CandidateSet.initial(3)
        state.candidates = [0b101, 0b111]
        state.refresh_pairs()
        pair, subset = select_next_subset(state)
        assert subset == 0b111

    def test_update_estimates_single_sample_mean(self):
        state = CandidateSet.initial(2)
        update_estimates(state, 0b11, np.array([2.0, 3.0]), 1)
        sig = state.sigma_hat()
        assert sig[0, 1] == 6.0 and sig[1, 0] == 6.0
        assert sig[0, 0] == 4.0 and sig[1, 1] == 9.0

    def test_constant_samples_constant_estimate(self):
        state = CandidateSet.initial(2)
        for t in range(5):
            update_estimates(state, 0b11, np.array([1.5, -1.0]), t + 1)
        sig = state.sigma_hat()
        assert sig[0, 1] == -1.5 and sig[0, 0] == 2.25

    def test_balance_pigeonhole(self):
        # after t rounds every remaining pair has >= floor(t / (d(d-1)))
        inst = gen_gaussian_lowrank(d=4, seed=0, lam=1.0, cost=1.0)
        env = GaussianEnvironment(inst, seed=0)
        cfg = make_config(
            d=4, sigma=float(inst.model.condition_number), costs=inst.costs, horizon=256, c=1.0
        )
        xs = env.outcomes(256)
        state = CandidateSet.initial(4)
        for t in range(256):
            pair, subset = select_next_subset(state)
            update_estimates(state, subset, xs[t], t + 1)
            counts = [state.pair_counts[p] for p in state.pairs]
            assert min(counts) >= (t + 1) // (4 * 3)


class TestEliminate:
    def _two_candidate_state(self, h_a=5.0, h_b=3.0):
        # d=2 with candidates A={0,1}, B={0}: engineer sigma_hat so the
        # plug-in objectives are h_a and h_b
        state = CandidateSet.initial(2)
        state.candidates = [0b11, 0b01]
        state.refresh_pairs()
        # objective({0}) = (LOG_2PI_E + log v)/2; objective({0,1}) adds the
        # second coordinate's conditional entropy; set a diagonal sigma
        v0 = math.exp(2.0 * h_b - LOG_2PI_E)
        v1 = math.exp(2.0 * (h_a - h_b) - LOG_2PI_E)
        state.pair_counts[:] = 10
        state.pair_sums[:] = 0.0
        state.pair_sums[0, 0] = 10 * v0
        state.pair_sums[1, 1] = 10 * v1
        return state

    def test_hand_arithmetic_on_the_2lam_u_rule(self):
        state = self._two_candidate_state()
        values = candidate_objectives(state, 1.0, np.zeros(2))
        np.testing.assert_allclose(values, [5.0, 3.0], atol=1e-12)
        cfg = make_config(d=2, sigma=2.0, costs=np.zeros(2))
        # pick t so that U ~ 0.8: B eliminated since 3.0 + 1.6 <= 5.0
        t = next(t for t in range(1, 10**8) if confidence_width(t, cfg) <= 0.8)
        eliminate(state, t, cfg)
        assert state.candidates == [0b11]

    def test_equal_objectives_nothing_eliminated(self):
        state = self._two_candidate_state(h_a=4.0, h_b=4.0)
        cfg = make_config(d=2, sigma=2.0, costs=np.zeros(2))
        t = next(t for t in range(1, 10**8) if confidence_width(t, cfg) <= 0.9)
        eliminate(state, t, cfg)
        assert len(state.candidates) == 2

    def test_width_gate_skips_elimination(self):
        state = self._two_candidate_state()
        cfg = make_config(d=2, sigma=2.0, costs=np.zeros(2))
        assert confidence_width(1, cfg) > 1.0
        eliminate(state, 1, cfg)
        assert len(state.candidates) == 2

    def test_non_pd_estimate_skips_round(self):
        state = self._two_candidate_state()
        state.pair_sums[0, 1] = state.pair_sums[1, 0] = 10 * 1e9  # wrecks PD
        cfg = make_config(d=2, sigma=2.0, costs=np.zeros(2))
        t = next(t for t in range(1, 10**8) if confidence_width(t, cfg) <= 0.8)
        eliminate(state, t, cfg)
        assert len(state.candidates) == 2
        assert state.pd_skips == 1


class TestRunOcmesp:
    def test_free_tests_keep_full_set(self):
        # entropy is monotone when tests are free, so the full set wins
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(2), covariance=np.diag([4.0, 1.0])),
            costs=np.zeros(2),
            decisions=(),
            reward=RewardSpec(kind="entropy", lam=5.0),
        )
        env = GaussianEnvironment(inst, seed=0)
        cfg = make_config(
            d=2, sigma=4.0, lam=5.0, costs=np.zeros(2), horizon=2000, c=1e7
        )
        res = run_ocmesp(env, cfg)
        assert res.trace.metadata["optimal_subset"] == [0, 1]
        assert (0, 1) in res.final_candidates
        # once converged to the optimum, per-episode regret is exactly 0
        if res.trace.metadata["converged_at"] is not None:
            assert res.final_candidates == [(0, 1)]
            tail = res.trace.simple_regret[res.trace.metadata["converged_at"]:]
            assert np.all(tail == 0.0)

    def test_candidate_count_monotone_and_pairs_shrink(self):
        inst = gen_gaussian_lowrank(d=5, seed=2, lam=1.0, cost=1.7)
        env = GaussianEnvironment(inst, seed=3)
        cfg = make_config(
            d=5,
            sigma=float(inst.model.condition_number),
            costs=inst.costs,
            horizon=3000,
            c=1e9,
        )
        res = run_ocmesp(env, cfg)
        ncand = np.array(res.trace.extras["n_candidates"])
        assert np.all(np.diff(ncand) <= 0)
        assert ncand[0] <= 32

    def test_safety_d6(self):
        # over 20 seeded runs at delta=0.1 the optimum is eliminated in at
        # most ceil(20 * 0.1) = 2 runs
        inst = gen_gaussian_lowrank(d=6, seed=3, lam=1.0, cost=1.8)
        sigma = float(inst.model.condition_number)
        eliminated = 0
        for seed in range(20):
            env = GaussianEnvironment(inst, seed=seed)
            cfg = make_config(
                d=6, sigma=sigma, costs=inst.costs, horizon=2**12, c=1e9
            )
            res = run_ocmesp(env, cfg)
            opt = tuple(res.trace.metadata["optimal_subset"])
            eliminated += opt not in res.final_candidates
        assert eliminated <= 2

    def test_plugin_consistency(self):
        # max over candidates of |H_hat - H| < 0.05 at t = 1e5 on >= 95% of
        # seeds (d=4, all pairs observed every episode while [d] survives)
        import itertools

        inst = gen_gaussian_lowrank(d=4, seed=1, lam=1.0, cost=0.0)
        cov = inst.model.covariance
        subsets = [
            s for m in range(5) for s in itertools.combinations(range(4), m)
        ]
        truth = {s: entropy_objective(s, cov, 1.0, np.zeros(4)) for s in subsets}
        hits = 0
        for seed in range(20):
            env = GaussianEnvironment(inst, seed=seed)
            xs = env.outcomes(100_000)
            state = CandidateSet.initial(4)
            sums = xs.T @ xs
            state.pair_counts[:] = 100_000
            state.pair_sums[:] = sums
            values = candidate_objectives(state, 1.0, np.zeros(4))
            errs = [
                abs(v - truth[tuple(sorted(_bits(m)))])
                for v, m in zip(values, state.candidates)
            ]
            hits += max(errs) < 0.05
        assert hits >= 19

    def test_trace_extras_schema(self):
        inst = gen_gaussian_lowrank(d=3, seed=0, lam=1.0, cost=1.5)
        env = GaussianEnvironment(inst, seed=1)
        cfg = make_config(
            d=3, sigma=float(inst.model.condition_number), costs=inst.costs,
            horizon=500, c=1e9,
        )
        res = run_ocmesp(env, cfg)
        for col in ("pair_chosen", "subset_played", "n_candidates", "U_t", "eliminated_count"):
            assert len(res.trace.extras[col]) == 500


def _bits(mask):
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


class TestLogDetPerturbation:
    def test_bound_holds_on_randomized_pairs(self, rng):
        # |logdet(A+E) - logdet(A)| <= 3 d ||A^-1|| ||E|| whenever
        # 3 d ||A^-1|| ||E|| < 1 (spectral norms); zero violations
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            a = rng.standard_normal((d, d))
            A = a @ a.T + (0.5 + rng.random()) * np.eye(d)
            e = rng.standard_normal((d, d))
            E = (e + e.T) / 2.0
            inv_norm = float(np.linalg.norm(np.linalg.inv(A), 2))
            target = rng.uniform(0.05, 0.99)
            E *= target / (3 * d * inv_norm * float(np.linalg.norm(E, 2)))
            bound = 3 * d * inv_norm * float(np.linalg.norm(E, 2))
            assert bound < 1.0
            sign, logdet_pert = np.linalg.slogdet(A + E)
            assert sign > 0
            _, logdet_a = np.linalg.slogdet(A)
            assert abs(logdet_pert - logdet_a) <= bound


# ---------------------------------------------------------------------------
# Reference: the per-candidate list implementation that the membership-matrix
# CandidateSet replaced, kept verbatim as an oracle.
# ---------------------------------------------------------------------------


@dataclass
class ListCandidateSetOracle:
    """Active candidates, the pairs they still need, and pairwise estimates.

    ``pair_counts``/``pair_sums`` hold |T_ij| and the running sums of x_i x_j
    for every pair (diagonals included); both stay symmetric. ``pairs`` is Q,
    recomputed from the surviving candidates after every elimination.
    """

    d: int
    candidates: list  # subset bitmasks; never empty, only ever shrinks
    pair_counts: np.ndarray
    pair_sums: np.ndarray
    pairs: list = field(default_factory=list)  # Q as sorted (i, j), i <= j
    eliminated_total: int = 0
    pd_skips: int = 0

    @classmethod
    def initial(cls, d: int) -> "ListCandidateSetOracle":
        state = cls(
            d=d,
            candidates=list(range(1 << d)),  # power set, sizes 0 and 1 included
            pair_counts=np.zeros((d, d), dtype=np.int64),
            pair_sums=np.zeros((d, d), dtype=float),
        )
        state.refresh_pairs()
        state._refresh_groups()
        return state

    def refresh_pairs(self) -> None:
        need = np.zeros((self.d, self.d), dtype=bool)
        for mask in self.candidates:
            idx = _bits(mask)
            if idx:
                need[np.ix_(idx, idx)] = True
        self.pairs = [
            (i, j) for i in range(self.d) for j in range(i, self.d) if need[i, j]
        ]
        self._need = need

    def _refresh_groups(self) -> None:
        # candidates grouped by size with flat gather indices into a (d, d)
        # matrix, so each episode's plug-in objectives batch into one
        # Cholesky per size
        groups = {}
        for pos, mask in enumerate(self.candidates):
            bits = _bits(mask)
            groups.setdefault(len(bits), []).append((pos, bits))
        self._groups = []
        for m, members in sorted(groups.items()):
            positions = np.array([p for p, _ in members], dtype=np.intp)
            if m == 0:
                self._groups.append((m, positions, None))
                continue
            idx = np.array([b for _, b in members], dtype=np.intp)  # (n, m)
            flat = idx[:, :, None] * self.d + idx[:, None, :]
            self._groups.append((m, positions, flat))
        # candidates ordered by (size desc, lexicographic), so the selection
        # rule's argmax is the first hit
        self._ordered = sorted(
            ((mask, _bits(mask)) for mask in self.candidates),
            key=lambda mb: (-len(mb[1]), mb[1]),
        )
        self._cost_totals = None  # rebuilt lazily against the active costs
        self._all_pairs_sampled = False

    def sigma_hat(self) -> np.ndarray:
        return self.pair_sums / np.maximum(self.pair_counts, 1)

    def least_sampled_pair(self) -> tuple:
        best = None
        for pair in self.pairs:  # sorted, so ties go lexicographically
            c = int(self.pair_counts[pair])
            if best is None or c < best[0]:
                best = (c, pair)
        return best[1]

    def largest_candidate_containing(self, pair: tuple) -> int:
        pm = (1 << pair[0]) | (1 << pair[1])
        for mask, _ in self._ordered:
            if mask & pm == pm:
                return mask
        raise ValueError(f"no candidate contains pair {pair}")


def oracle_candidate_objectives(state, lam, costs):
    """Plug-in objectives for every candidate, or None when some block is not
    positive definite (elimination must be skipped for the round)."""
    if not state._all_pairs_sampled:
        if any(state.pair_counts[p] == 0 for p in state.pairs):
            return None  # some needed pair never sampled yet
        state._all_pairs_sampled = True  # counts only grow, Q only shrinks
    if state._cost_totals is None:
        state._cost_totals = np.array(
            [sum(costs[i] for i in _bits(mask)) for mask in state.candidates]
        )
    flat_sigma = state.sigma_hat().ravel()
    values = np.empty(len(state.candidates))
    for m, positions, flat in state._groups:
        if m == 0:
            values[positions] = 0.0
            continue
        blocks = flat_sigma[flat]  # (n, m, m)
        try:
            chol = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            return None
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        values[positions] = lam * (0.5 * m * LOG_2PI_E + 0.5 * logdet)
    return values - state._cost_totals


def oracle_eliminate(state, t, config):
    """Drop every candidate whose plug-in objective is 2*lambda*U(t) below the
    best one. Skipped entirely while U(t) > 1, and skipped with a diagnostic
    when an estimated block is not positive definite despite U <= 1."""
    width = confidence_width(t, config)
    if width > 1.0:
        return state
    values = oracle_candidate_objectives(state, config.lam, config.costs)
    if values is None:
        state.pd_skips += 1
        return state
    # eliminate S when H_hat(S) + 2*lam*U <= max_S' H_hat(S')
    threshold = float(values.max()) - 2.0 * config.lam * width
    keep = values > threshold
    survivors = [mask for mask, k in zip(state.candidates, keep) if k]
    dropped = len(state.candidates) - len(survivors)
    if dropped:
        state.candidates = survivors
        state.eliminated_total += dropped
        state.refresh_pairs()
        state._refresh_groups()
    return state


# costs whose sums depend on the order of addition: 0.1 + 0.2 + 0.3 differs
# from 0.1 + (0.2 + 0.3) in the last bit
ORDER_SENSITIVE_COSTS = (0.1, 0.2, 0.3, 0.7, 1.1, 1e-17)


def _random_candidates(rng, d, kind):
    if kind == "empty-only":
        return [0]
    if kind == "singletons":
        picked = rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
        return [1 << i for i in sorted(picked.tolist())]
    if kind == "power-set":
        return list(range(1 << d))
    n = int(rng.integers(1, (1 << d) + 1))
    masks = rng.choice(1 << d, n, replace=False)
    return sorted(masks.tolist()) if kind == "arbitrary" else masks.tolist()


def _state_pair(d, candidates, counts, sums):
    new = CandidateSet(d=d, candidates=list(candidates), pair_counts=counts.copy(),
                       pair_sums=sums.copy())
    old = ListCandidateSetOracle(d=d, candidates=list(candidates), pair_counts=counts.copy(),
                                 pair_sums=sums.copy())
    new.refresh_pairs()
    old.refresh_pairs()
    old._refresh_groups()
    return new, old


def _same_objectives(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.tobytes() == b.tobytes()  # bitwise


class TestCandidateSetMatchesListOracle:
    KINDS = ("empty-only", "singletons", "arbitrary", "shuffled", "power-set")

    def test_random_states(self, rng):
        # d >= 8 reaches the sizes where np.sum switches to pairwise summation
        for d in range(1, 11):
            for kind in self.KINDS:
                for _ in range(3):
                    self._check_random_state(rng, d, kind)

    def _check_random_state(self, rng, d, kind):
        candidates = _random_candidates(rng, d, kind)
        counts = np.triu(rng.integers(1, 4, (d, d)))  # few values: many ties
        counts = counts + np.triu(counts, 1).T
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.5 * np.eye(d)
        sums = sigma * counts
        costs = rng.choice(ORDER_SENSITIVE_COSTS, d)
        new, old = _state_pair(d, candidates, counts, sums)

        assert new.pairs == old.pairs
        assert np.array_equal(new._need, old._need)
        if new.pairs:
            assert new.least_sampled_pair() == old.least_sampled_pair()
        for i in range(d):
            for j in range(i, d):
                if (i, j) in old.pairs:
                    got = new.largest_candidate_containing((i, j))
                    assert type(got) is int
                    assert got == old.largest_candidate_containing((i, j))
                else:
                    with pytest.raises(ValueError, match="no candidate contains"):
                        new.largest_candidate_containing((i, j))

        values = candidate_objectives(new, 1.3, costs)
        assert values is not None
        assert _same_objectives(values, oracle_candidate_objectives(old, 1.3, costs))

        for c in (1e6, 1e8, 1e10, 1e12):
            cfg = make_config(d=d, costs=costs, lam=1.3, c=c, horizon=10**6)
            kept_new, kept_old = _state_pair(d, candidates, counts, sums)
            eliminate(kept_new, 1000, cfg)
            oracle_eliminate(kept_old, 1000, cfg)
            assert kept_new.candidates == kept_old.candidates
            assert kept_new.eliminated_total == kept_old.eliminated_total
            assert kept_new.pairs == kept_old.pairs

        if new.pairs:  # an unsampled needed pair withholds the objectives
            i, j = new.pairs[int(rng.integers(len(new.pairs)))]
            counts[i, j] = counts[j, i] = 0
            new, old = _state_pair(d, candidates, counts, sums)
            assert candidate_objectives(new, 1.3, costs) is None
            assert oracle_candidate_objectives(old, 1.3, costs) is None

    def test_non_pd_block_gives_none_for_both(self, rng):
        for d in range(2, 7):
            counts = np.full((d, d), 5)
            sums = 5.0 * np.eye(d)
            sums[0, 1] = sums[1, 0] = 5.0 * 3.0  # the {0, 1} block is indefinite
            costs = rng.choice(ORDER_SENSITIVE_COSTS, d)
            for candidates in (list(range(1 << d)), [0b11, 0b01], [0b1, 0b10]):
                new, old = _state_pair(d, candidates, counts, sums)
                got = candidate_objectives(new, 1.0, costs)
                assert _same_objectives(got, oracle_candidate_objectives(old, 1.0, costs))
                assert (got is None) == (candidates != [0b1, 0b10])

    def test_step_by_step_runs(self):
        inst = gen_gaussian_lowrank(d=5, seed=2, lam=1.0, cost=1.7)
        cfg = make_config(
            d=5, sigma=float(inst.model.condition_number), costs=inst.costs,
            horizon=3000, c=1e9,
        )
        eliminated = 0
        for seed in (0, 1, 2):
            xs = GaussianEnvironment(inst, seed=seed).outcomes(cfg.horizon)
            new, old = CandidateSet.initial(5), ListCandidateSetOracle.initial(5)
            for t in range(cfg.horizon):
                if len(new.candidates) == 1:
                    break
                pair, subset = select_next_subset(new)
                assert (pair, subset) == select_next_subset(old)
                update_estimates(new, subset, xs[t], t + 1)
                update_estimates(old, subset, xs[t], t + 1)
                eliminate(new, t + 1, cfg)
                oracle_eliminate(old, t + 1, cfg)
                assert new.candidates == old.candidates
                assert new.pairs == old.pairs
                assert (new.eliminated_total, new.pd_skips) == (old.eliminated_total, old.pd_skips)
                assert np.array_equal(new.pair_counts, old.pair_counts)
                assert new.pair_sums.tobytes() == old.pair_sums.tobytes()
            eliminated += new.eliminated_total
        assert eliminated > 0

    def test_no_pairs_remain(self):
        state = CandidateSet.initial(3)
        state.candidates = [0]
        state.refresh_pairs()
        assert state.pairs == []
        with pytest.raises(ValueError, match="no pairs remain"):
            select_next_subset(state)


class TestFilteredStateMatchesFreshBuild:
    """``retain`` filters the derived state that ``refresh_pairs`` built; after
    every keep mask it must equal a fresh build on the survivors, bitwise."""

    def test_keep_mask_chains(self, rng):
        kinds = {"emptied-group": 0, "one-left": 0}
        for d in range(1, 11):
            for kind in TestCandidateSetMatchesListOracle.KINDS:
                for _ in range(3):
                    self._check_chain(rng, d, _random_candidates(rng, d, kind), kinds)
        assert kinds["emptied-group"] > 0 and kinds["one-left"] > 0

    def _check_chain(self, rng, d, candidates, kinds):
        a = rng.standard_normal((d, d))
        sigma = a @ a.T + 0.5 * np.eye(d)
        costs = rng.choice(ORDER_SENSITIVE_COSTS, d)
        state = self._built(d, candidates)
        while len(state.candidates) > 1:
            keep = self._keep_mask(rng, state)
            sizes_before = {g[0] for g in state._groups}
            before = state.eliminated_total
            state.retain(keep)
            assert state.eliminated_total - before == len(keep) - int(keep.sum())
            kinds["emptied-group"] += len(state._groups) < len(sizes_before)
            kinds["one-left"] += len(state.candidates) == 1
            fresh = self._built(d, state.candidates)
            assert state.candidates == fresh.candidates
            assert state.pairs == fresh.pairs
            assert state._cover.tobytes() == fresh._cover.tobytes()
            for name in ("_need", "_ordered", "_order"):
                self._assert_same_array(getattr(state, name), getattr(fresh, name))
            assert [g[0] for g in state._groups] == [g[0] for g in fresh._groups]
            for got, want in zip(state._groups, fresh._groups):
                for x, y in zip(got[1:], want[1:]):  # positions, index rows, flat index
                    self._assert_same_array(x, y)
            assert _same_objectives(
                _objectives(state, sigma, 1.3, costs), _objectives(fresh, sigma, 1.3, costs)
            )

    @staticmethod
    def _built(d, candidates):
        state = CandidateSet(d=d, candidates=list(candidates),
                             pair_counts=np.zeros((d, d), dtype=np.int64),
                             pair_sums=np.zeros((d, d)))
        state.refresh_pairs()
        return state

    @staticmethod
    def _keep_mask(rng, state):
        n = len(state.candidates)
        kind = rng.integers(4)
        if kind == 0:  # drop one size group whole
            sizes = np.array([bin(m).count("1") for m in state.candidates])
            keep = sizes != rng.choice(np.unique(sizes))
        elif kind == 1:  # leave one candidate
            keep = np.arange(n) == rng.integers(n)
        elif kind == 2:  # drop nothing
            keep = np.ones(n, dtype=bool)
        else:
            keep = rng.random(n) < rng.uniform(0.3, 0.95)
        if not keep.any():
            keep[rng.integers(n)] = True
        return keep

    @staticmethod
    def _assert_same_array(x, y):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestTrueObjectives:
    """The agent prices its regret reference with the batched kernel its
    plug-in objectives use; ``entropy_objective`` and ``solve_mesp_offline``
    stay the independent scalar reference."""

    def test_kernel_on_power_set_matches_scalar(self, rng):
        # on the initial power set a candidate's position is its mask
        for d in range(1, 13):
            a = rng.standard_normal((d, d))
            sigma = a @ a.T + 0.5 * np.eye(d)
            costs = rng.choice(ORDER_SENSITIVE_COSTS, d)
            values = _objectives(CandidateSet.initial(d), sigma, 1.3, costs)
            scalar = np.array(
                [entropy_objective(_bits(m), sigma, 1.3, costs) for m in range(1 << d)]
            )
            assert values.tobytes() == scalar.tobytes()  # bitwise

    @pytest.mark.parametrize(
        "d, seed, cost, c, horizon, converges",
        [(4, 1, 1.7, 1e9, 4096, True), (8, 7, 1.8, 2e9, 512, False)],
    )
    def test_rewards_match_scalar_reference(self, d, seed, cost, c, horizon, converges):
        inst = gen_gaussian_lowrank(d=d, seed=seed, lam=1.0, cost=cost)
        cov = inst.model.covariance
        cfg = make_config(
            d=d, sigma=float(inst.model.condition_number), costs=inst.costs,
            horizon=horizon, c=c,
        )
        trace = run_ocmesp(GaussianEnvironment(inst, seed=0), cfg).trace
        assert (trace.metadata["converged_at"] is not None) == converges
        scalar = {}
        for label in set(trace.extras["subset_played"]):
            subset = [int(i) for i in label.split("|")] if label else []
            scalar[label] = entropy_objective(subset, cov, 1.0, inst.costs)
        expected = np.array([scalar[label] for label in trace.extras["subset_played"]])
        assert trace.realized_reward.tobytes() == expected.tobytes()  # bitwise
        best = solve_mesp_offline(cov, 1.0, inst.costs)
        assert trace.metadata["optimal_subset"] == list(best)
        assert np.all(trace.clairvoyant_reward == entropy_objective(best, cov, 1.0, inst.costs))

    def test_exact_tie_goes_to_lowest_subset(self):
        # the singletons have equal variance and cost, so they tie exactly
        cov = np.array([[1.0, 0.99], [0.99, 1.0]])
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(2), covariance=cov),
            costs=np.ones(2),
            decisions=(),
            reward=RewardSpec(kind="entropy", lam=1.0),
        )
        costs = np.ones(2)
        assert entropy_objective((0,), cov, 1.0, costs) == entropy_objective((1,), cov, 1.0, costs)
        cfg = make_config(d=2, sigma=float(inst.model.condition_number), costs=costs, horizon=16)
        res = run_ocmesp(GaussianEnvironment(inst, seed=0), cfg)
        assert res.trace.metadata["optimal_subset"] == [0]
        assert solve_mesp_offline(cov, 1.0, costs) == (0,)

    def test_power_set_cap(self):
        with pytest.raises(ValueError, match="d <= 20"):
            CandidateSet.initial(21)
