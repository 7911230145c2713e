"""Clairvoyant DP: one-step operations, exact discrete solve, scenario-tree
Gaussian solve, and policy evaluation."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import seqtest.dp as dp
from seqtest.agents import EtcConfig, run_etc_discrete
from seqtest.dp import (
    GaussianTreePolicy,
    QuadratureCapError,
    QuadratureSpec,
    Rollout,
    StateSpaceError,
    _bits,
    _gaussian_decision_values,
    _priced_rollouts,
    decision_reward,
    evaluate_policy,
    gaussian_tree_size,
    policy_records,
    q_value,
    rollout_net_rewards,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from seqtest.envs import DiscreteEnvironment
from seqtest.generators import (
    brute_force_policy_oracle,
    gen_discrete_pareto,
    gen_gaussian_quadratic,
    gen_lower_bound_single,
    gen_lower_bound_stacked,
)
from seqtest.models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    IllConditionedError,
    ImpossibleStateError,
    InstanceError,
    ProblemInstance,
    RewardSpec,
    TestState,
    initial_state,
    neg_sq_dist,
    posterior_discrete,
    posterior_gaussian,
)
from conftest import (
    PerRowPolicyWalk,
    random_discrete_instance,
    reward_value,
    rollout_net_reward,
    single_test_instance,
)

FOUR_POINT = DiscreteOutcomeModel(
    support=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
    probs=np.array([0.4, 0.1, 0.2, 0.3]),
)


def quadratic_1d_instance(cost=0.3, decisions=(-1.0, 1.0), var=1.0, mean=0.0):
    return ProblemInstance(
        model=GaussianOutcomeModel(mean=np.array([mean]), covariance=np.array([[var]])),
        costs=np.array([cost]),
        decisions=tuple((y,) for y in decisions),
        reward=RewardSpec(kind="quadratic"),
    )


class TestQValue:
    def test_expectation_of_constant_children(self):
        inst = ProblemInstance(
            model=FOUR_POINT,
            costs=np.zeros(2),
            decisions=(0, 1),
            reward=RewardSpec(kind="table", table=np.zeros((4, 2))),
        )
        v = q_value(inst, initial_state(2), 0, lambda s: 5.0)
        assert abs(v - 5.0) <= 1e-12

    def test_hand_arithmetic(self):
        # posterior of x1 given x0=0 is {0: 0.8, 1: 0.2}; children valued
        # -1 and +1 at cost 0.1 gives -0.1 + (0.8*(-1) + 0.2*1) = -0.7
        inst = ProblemInstance(
            model=FOUR_POINT,
            costs=np.array([0.0, 0.1]),
            decisions=(0, 1),
            reward=RewardSpec(kind="table", table=np.zeros((4, 2))),
        )
        s = TestState(entries=(0.0, None))
        lookup = lambda st: -1.0 if st.entries[1] == 0.0 else 1.0
        assert abs(q_value(inst, s, 1, lookup) - (-0.7)) <= 1e-12

    def test_single_test_instance_test_value(self):
        # after paying 3/4 the decision is always correct (loss 0)
        inst = gen_lower_bound_single(0.2, 1)
        lookup = lambda st: max(decision_reward(inst, st, j) for j in (0, 1))
        assert q_value(inst, initial_state(1), 0, lookup) == -0.75


class TestDecisionReward:
    def test_point_mass_posterior(self):
        inst = ProblemInstance(
            model=FOUR_POINT,
            costs=np.zeros(2),
            decisions=(0, 1),
            reward=RewardSpec(kind="table", table=np.array([[1.0, 0.0]] * 4)),
        )
        assert decision_reward(inst, TestState(entries=(1.0, 1.0)), 0) == 1.0

    def test_single_test_skip_values(self):
        inst = gen_lower_bound_single(0.2, 1)
        s = initial_state(1)
        assert abs(decision_reward(inst, s, 0) - (-0.4)) <= 1e-12
        assert abs(decision_reward(inst, s, 1) - (-0.6)) <= 1e-12

    def test_two_point_posterior_hand_expectation(self):
        table = np.array([[1.0], [0.0], [0.0], [0.0]])
        inst = ProblemInstance(
            model=FOUR_POINT,
            costs=np.zeros(2),
            decisions=(0,),
            reward=RewardSpec(kind="table", table=table),
        )
        # given x0=0 the posterior is {(0,0): 0.8, (0,1): 0.2}
        assert abs(decision_reward(inst, TestState(entries=(0.0, None)), 0) - 0.8) <= 1e-12

    def test_no_consistent_point_is_impossible(self):
        # refused as posterior_discrete refuses it
        inst = ProblemInstance(
            model=FOUR_POINT,
            costs=np.zeros(2),
            decisions=(0, 1),
            reward=RewardSpec(kind="table", table=np.zeros((4, 2))),
        )
        s = TestState(entries=(2.0, None))
        with pytest.raises(ImpossibleStateError):
            posterior_discrete(FOUR_POINT, s)
        with pytest.raises(ImpossibleStateError):
            decision_reward(inst, s, 0)

    @pytest.mark.parametrize("kind", ["table", "indicator-match"])
    def test_zero_mass_state_is_impossible(self, kind):
        # the one point with x0 = 1 has probability 0, so the state has no
        # mass to normalize by
        model = DiscreteOutcomeModel(
            support=np.array([[0.0, 0.0], [1.0, 1.0]]), probs=np.array([1.0, 0.0])
        )
        inst = ProblemInstance(
            model=model,
            costs=np.zeros(2),
            decisions=((0.0, 0.0), (1.0, 1.0)),
            reward=RewardSpec(kind="table", table=np.eye(2)) if kind == "table" else RewardSpec(kind=kind),
        )
        s = TestState(entries=(1.0, None))
        with pytest.raises(ImpossibleStateError):
            posterior_discrete(model, s)
        with pytest.raises(ImpossibleStateError):
            decision_reward(inst, s, 1)


class TestSolveDpDiscrete:
    def test_single_test_instance(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, table = solve_dp_discrete(inst)
        assert abs(table.root_value - (-0.4)) <= 1e-12
        assert table.root_action == ("decide", 0)

    def test_zero_costs_reach_full_information_value(self, rng):
        # with free tests the optimal value is E[max_y f(x, y)]
        for _ in range(10):
            inst = random_discrete_instance(rng)
            free = ProblemInstance(
                model=inst.model,
                costs=np.zeros(inst.d),
                decisions=inst.decisions,
                reward=inst.reward,
            )
            _, table = solve_dp_discrete(free)
            expected = float(inst.model.probs @ inst.reward.table.max(axis=1))
            assert abs(table.root_value - expected) <= 1e-12

    def test_matches_brute_force_oracle_exactly(self, rng):
        for _ in range(40):
            inst = random_discrete_instance(rng)
            _, table = solve_dp_discrete(inst)
            oracle_value, _ = brute_force_policy_oracle(inst)
            assert table.root_value == oracle_value

    def test_monotone_in_costs(self, rng):
        # raising any test cost never increases the optimal value
        for _ in range(15):
            inst = random_discrete_instance(rng)
            _, table = solve_dp_discrete(inst)
            bumped_costs = inst.costs.copy()
            i = int(rng.integers(0, inst.d))
            bumped_costs[i] += float(rng.uniform(0.01, 0.5))
            bumped = ProblemInstance(
                model=inst.model,
                costs=bumped_costs,
                decisions=inst.decisions,
                reward=inst.reward,
            )
            _, table2 = solve_dp_discrete(bumped)
            assert table2.root_value <= table.root_value + 1e-12

    def test_rollouts_terminate_within_d_tests(self, rng):
        for _ in range(15):
            inst = random_discrete_instance(rng)
            policy, _ = solve_dp_discrete(inst)
            for k in range(inst.model.support_size):
                roll = policy.trace(inst.model.support[k])
                assert len(roll.tests) <= inst.d
                assert len(set(roll.tests)) == len(roll.tests)

    def test_canonical_dedup_bound(self, rng):
        # distinct memoized posteriors (consistent sets) <= K^2 + 1
        for _ in range(25):
            inst = random_discrete_instance(rng, d_max=4)
            _, table = solve_dp_discrete(inst)
            k = inst.model.support_size
            assert len(table) <= k * k + 1

    def test_value_table_bellman_consistency(self, rng):
        # value(s) = max(max_i Q(s, i), max_y E[r(s, y)]) via the public ops
        inst = random_discrete_instance(rng, d_max=2, k_max=4)
        policy, table = solve_dp_discrete(inst)

        walk = PerRowPolicyWalk(policy)

        def value_of(state):
            return float(table.value[walk.state_of(state)])

        s = initial_state(inst.d)
        dec_best = max(decision_reward(inst, s, j) for j in range(len(inst.decisions)))
        q_best = max(q_value(inst, s, i, value_of) for i in range(inst.d))
        assert abs(table.root_value - max(dec_best, q_best)) <= 1e-12

    def test_fully_observed_states_decide(self, rng):
        inst = random_discrete_instance(rng)
        policy, table = solve_dp_discrete(inst)
        walk = PerRowPolicyWalk(policy)
        for k in range(inst.model.support_size):
            entries = tuple(float(v) for v in inst.model.support[k])
            action = table.action_of(walk.state_of(TestState(entries=entries)))
            assert action[0] == "decide"
            expected = int(np.argmax(inst.reward.table[k]))
            assert action[1] == expected

    def test_point_mass_decides_immediately(self):
        inst = ProblemInstance(
            model=DiscreteOutcomeModel(support=np.array([[1.0, 0.0]]), probs=np.array([1.0])),
            costs=np.array([0.1, 0.1]),
            decisions=(0, 1),
            reward=RewardSpec(kind="table", table=np.array([[2.0, 0.0]])),
        )
        policy, table = solve_dp_discrete(inst)
        assert table.root_action == ("decide", 0)
        assert table.root_value == 2.0

    def test_zero_probability_point_adds_nothing(self):
        # x = 2 has probability 0: its state has no mass, and its undefined
        # value must not stop the test from being worth its cost
        inst = ProblemInstance(
            model=DiscreteOutcomeModel(
                support=np.array([[0.0], [1.0], [2.0]]), probs=np.array([0.5, 0.5, 0.0])
            ),
            costs=np.array([0.01]),
            decisions=((0.0,), (1.0,), (2.0,)),
            reward=RewardSpec(kind="indicator-match"),
        )
        policy, table = solve_dp_discrete(inst)
        assert table.root_action == ("test", 0)
        assert abs(table.root_value - 0.99) <= 1e-12
        assert [policy.trace(x).decision for x in ([0.0], [1.0])] == [0, 1]

    def test_state_cap_guard(self, rng):
        inst = random_discrete_instance(rng, d_max=3, k_max=8)
        with pytest.raises(StateSpaceError, match="blowup"):
            solve_dp_discrete(inst, state_cap=1)

    def test_solve_leaves_no_cyclic_garbage(self, rng):
        # the solve's scratch state is freed by reference counting on return,
        # not left for a cyclic collection that may run after the next solve
        inst = random_discrete_instance(rng, d_max=4)
        gc.collect()
        gc.disable()
        try:
            solve_dp_discrete(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_entries_share_action_tuples(self, rng):
        # one action tuple per test and per decision, whatever the state count
        for _ in range(5):
            inst = random_discrete_instance(rng, d_max=4)
            _, table = solve_dp_discrete(inst)
            actions = {id(act) for _, act, _ in table.entries.values()}
            assert len(actions) <= inst.d + len(inst.decisions)

    def test_policy_records_shape(self):
        inst = gen_lower_bound_single(0.2, 1)
        policy, _ = solve_dp_discrete(inst)
        records = policy_records(policy)
        assert all(set(r) == {"state_key", "action", "value"} for r in records)
        root = [r for r in records if r["state_key"] == "0|1"]
        assert root and root[0]["action"] == "decide:0"


def _generator_policy(name):
    """(instance, policy) of a generator: the clairvoyant policy, or on the
    64-point stacked-lb instance the policy an explore phase of 40 episodes
    commits to, which has not seen every point of the true support."""
    if name == "pareto":
        inst = gen_discrete_pareto(d=6, seed=0)
    elif name == "single-lb":
        inst = gen_lower_bound_single(0.2, 2)
    else:
        inst = gen_lower_bound_stacked(0.2, 64, "10" * 16)
        res = run_etc_discrete(DiscreteEnvironment(inst, seed=0), EtcConfig(horizon=4096, override_n=40))
        return inst, res.policy
    return inst, solve_dp_discrete(inst)[0]


class TestDiscreteRollouts:
    @staticmethod
    def check(policy, xs) -> np.ndarray:
        """The batched rollouts on ``xs`` equal the per-row walk's, row by
        row; returns the fallback flags."""
        walk = PerRowPolicyWalk(policy)
        tests, decision, order, fallback = policy.rollouts(xs)
        assert order.shape == xs.shape
        for t, x in enumerate(xs):
            roll = walk.trace(x)
            assert tests[t] == len(roll.tests)
            assert tuple(order[t, : tests[t]].tolist()) == roll.tests
            assert np.all(order[t, tests[t] :] == -1)
            assert decision[t] == roll.decision
            assert fallback[t] == roll.fallback
        return fallback

    def test_matches_per_row_trace(self, rng):
        fell_back = False
        for _ in range(20):
            inst = random_discrete_instance(rng, d_max=4)
            policy, _ = solve_dp_discrete(inst)
            # support rows, then rows with unseen values (3.0) or combinations
            extra = rng.integers(0, 4, size=(16, inst.d)).astype(float)
            fell_back |= bool(self.check(policy, np.vstack([inst.model.support, extra])).any())
        assert fell_back

    @pytest.mark.parametrize("generator", ["pareto", "single-lb", "stacked-lb"])
    def test_generator_policies_match_per_row_trace(self, generator):
        # the true support, then rows with values one past each end of every
        # test's range, mixed with seen ones
        inst, policy = _generator_policy(generator)
        support = inst.model.support
        rng = np.random.default_rng(sum(map(ord, generator)))
        lo, hi = support.min(axis=0) - 1.0, support.max(axis=0) + 1.0
        extra = support[rng.integers(0, len(support), size=(64, inst.d)), np.arange(inst.d)]
        off = rng.random(extra.shape) < 0.3
        extra[off] = np.where(rng.random(extra.shape) < 0.5, lo, hi)[off]
        fallback = self.check(policy, np.vstack([support, extra]))
        on_support, off_support = fallback[: len(support)], fallback[len(support) :]
        assert on_support.any() == (generator == "stacked-lb")  # its explore phase missed points
        assert off_support.any() == (generator != "single-lb")  # single-lb decides without testing

    def test_unseen_value_falls_back(self):
        # the policy model never saw x=2; testing reveals it, so the rollout
        # falls back to the root's best decision (0, lowest index of a tie)
        policy, _ = solve_dp_discrete(single_test_instance((0.0, 1.0), (0.5, 0.5)))
        xs = np.array([[0.0], [1.0], [2.0]])
        tests, decision, order, fallback = policy.rollouts(xs)
        assert tests.tolist() == [1, 1, 1]
        assert order.tolist() == [[0], [0], [0]]
        assert decision.tolist() == [0, 1, 0]
        assert fallback.tolist() == [False, False, True]

    def test_net_rewards_equal_single_rollout_pricing(self, rng):
        for _ in range(10):
            inst = random_discrete_instance(rng, d_max=4)
            policy, _ = solve_dp_discrete(inst)
            walk = PerRowPolicyWalk(policy)
            support = inst.model.support
            _, decision, order, _ = policy.rollouts(support)
            net = rollout_net_rewards(
                inst, support, order, decision, support_index=np.arange(len(support))
            )
            for k, x in enumerate(support):
                assert net[k] == rollout_net_reward(inst, x, walk.trace(x), support_index=k)


def _oracle_best_decision(instance, idxs, mass, table, indicator_decision):
    """``_best_decision_discrete`` as it was before index lists were carried."""
    probs = instance.model.probs
    if table is not None:
        idx_arr = np.asarray(idxs, dtype=np.intp)
        w = probs[idx_arr] / mass
        exp = w @ table[idx_arr]
        j = int(np.argmax(exp))
        return float(exp[j]), j
    # indicator-match: the best decision is the posterior mode among support
    # points that are actually in the decision set
    best_p = None
    best_j = None
    for k in idxs:
        j = indicator_decision[k]
        if j < 0:
            continue
        p = probs[k]
        if best_p is None or p > best_p or (p == best_p and j < best_j):
            best_p, best_j = p, j
    if best_j is None:
        return 0.0, 0
    return float(best_p / mass), best_j


class RecursiveDiscreteOracle:
    """The bitmask recursion the index-list solver replaced, kept verbatim as
    an oracle: every state re-derives its support indices and its mass from
    its mask. ``entries`` is the memo (the solver's ``table.entries``)."""

    def __init__(self, instance, state_cap=10**7):
        model = instance.model
        support, probs = model.support, model.probs
        K, d = model.support_size, model.d
        costs = instance.costs
        table = dp._reward_table(instance)
        indicator_decision = None
        if instance.reward.kind == "indicator-match":
            dec_index = {y: j for j, y in enumerate(instance.decisions)}
            indicator_decision = [dec_index.get(tuple(support[k]), -1) for k in range(K)]

        # per (test, value) consistency masks over support indices
        value_masks = []
        for i in range(d):
            masks: dict = {}
            col = support[:, i]
            for k in range(K):
                v = float(col[k])
                masks[v] = masks.get(v, 0) | (1 << k)
            value_masks.append(masks)
        test_values = [sorted(m) for m in value_masks]

        memo: dict = {}
        mass_memo: dict = {}

        def mass_of(mask: int) -> float:
            m = mass_memo.get(mask)
            if m is None:
                m = 0.0
                for k in _bits(mask):
                    m += probs[k]
                mass_memo[mask] = m
            return m

        def solve(mask: int) -> float:
            entry = memo.get(mask)
            if entry is not None:
                return entry[0]
            if len(memo) >= state_cap:
                raise StateSpaceError(
                    f"state-space blowup guard: more than {state_cap} canonical states"
                )
            idxs = _bits(mask)
            mass_s = mass_of(mask)
            dec_val, dec_j = _oracle_best_decision(
                instance, idxs, mass_s, table, indicator_decision
            )
            best_val, best_act = dec_val, ("decide", dec_j)
            for i in range(d):
                children = []
                for v in test_values[i]:
                    child = mask & value_masks[i][v]
                    if child:
                        children.append(child)
                if len(children) == 1 and children[0] == mask:
                    continue  # coordinate already determined by the consistent set
                q = -costs[i]
                for child in children:
                    q += (mass_of(child) / mass_s) * solve(child)
                if q > best_val:
                    best_val, best_act = q, ("test", i)
            memo[mask] = (best_val, best_act, dec_j)
            return best_val

        root = (1 << K) - 1
        solve(root)
        solve = None
        self.entries = memo


REWARD_KINDS = ("table", "indicator-match", "quadratic")


def structured_discrete_instance(rng, kind, d_max=6, k_max=64):
    """Random discrete instance with up to 64 support points over up to 6
    tests, some of which duplicate, mirror or pin another: a copied or
    mirrored column reaches the same consistent set from two observation
    sets, a constant column is determined from the start, and a column
    constant within groups of another becomes determined part way."""
    d0 = int(rng.integers(1, min(d_max, 4) + 1))
    values = (0.0, 1.0, 2.0, 3.0)
    k = int(rng.integers(2, min(k_max, len(values) ** d0) + 1))
    codes = rng.choice(len(values) ** d0, size=k, replace=False)
    base = np.array([[values[(c // 4**i) % 4] for i in range(d0)] for c in codes])
    cols = [base[:, i] for i in range(d0)]
    d = int(rng.integers(d0, d_max + 1))
    while len(cols) < d:
        src = cols[int(rng.integers(0, d0))]
        derived = int(rng.integers(0, 4))
        if derived == 0:
            cols.append(src.copy())  # duplicated
        elif derived == 1:
            cols.append(3.0 - src)  # perfectly correlated
        elif derived == 2:
            cols.append(np.full(k, -0.0))  # determined everywhere
        else:
            cols.append((src >= 2.0).astype(float))  # determined once src is seen
    support = np.column_stack([cols[i] for i in rng.permutation(d)])
    weights = rng.integers(1, 4, size=k).astype(float)  # exact probability ties
    model = DiscreteOutcomeModel(support=support, probs=weights / weights.sum())
    if kind == "table":
        n_y = int(rng.integers(2, 5))
        decisions = tuple(range(n_y))
        reward = RewardSpec(kind="table", table=rng.uniform(-1.0, 1.0, size=(k, n_y)))
        costs = rng.uniform(0.0, 0.3, size=d)
    elif kind == "indicator-match":
        # most support points plus one vector outside the support
        pts = [tuple(row) for row in support if rng.random() < 0.8] or [tuple(support[0])]
        decisions = tuple(pts) + ((9.0,) * d,)
        reward = RewardSpec(kind="indicator-match")
        costs = rng.uniform(0.0, 0.1, size=d)
    else:
        decisions = tuple(tuple(row) for row in rng.uniform(0.0, 3.0, size=(int(rng.integers(2, 6)), d)))
        reward = RewardSpec(kind="quadratic")
        costs = rng.uniform(0.0, 1.0, size=d)
    return ProblemInstance(model=model, costs=costs, decisions=decisions, reward=reward)


class TestIndexListSolveMatchesOracle:
    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_entries_identical(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        tested = 0
        for _ in range(12):
            inst = structured_discrete_instance(rng, kind)
            _, table = solve_dp_discrete(inst)
            assert table.entries == RecursiveDiscreteOracle(inst).entries
            tested += any(act[0] == "test" for _, act, _ in table.entries.values())
        assert tested >= 6

    def test_large_support(self):
        # a K=64, d=6 instance, beyond the exhaustive oracle's caps
        rng = np.random.default_rng(64)
        inst = None
        while inst is None or inst.model.support_size < 40 or inst.d < 5:
            inst = structured_discrete_instance(rng, "table")
        _, table = solve_dp_discrete(inst)
        assert table.entries == RecursiveDiscreteOracle(inst).entries

    def test_state_cap_raises_at_same_count(self):
        # states are counted when first reached, so a solve raises exactly
        # when the cap is below its state count. The guard used to count
        # finished states only (as the oracle still does), and caps just
        # below the count then returned every state.
        rng = np.random.default_rng(5)
        for kind in REWARD_KINDS:
            inst = structured_discrete_instance(rng, kind, k_max=16)
            entries = RecursiveDiscreteOracle(inst).entries
            n_states = len(entries)
            for cap in range(n_states + 2):
                if cap < n_states:
                    with pytest.raises(StateSpaceError, match="blowup"):
                        solve_dp_discrete(inst, state_cap=cap)
                else:
                    assert solve_dp_discrete(inst, state_cap=cap)[1].entries == entries

    def test_state_cap_boundary_on_pareto(self):
        # binary Pareto instances reach all 3^d canonical states
        for d in (3, 4, 5):
            inst = gen_discrete_pareto(d=d, seed=0, cost=0.05)
            with pytest.raises(StateSpaceError, match="blowup"):
                solve_dp_discrete(inst, state_cap=3**d - 1)
            assert len(solve_dp_discrete(inst, state_cap=3**d)[1]) == 3**d


def _reweighted(instance, probs, rows=None):
    """``instance`` with pmf ``probs`` (renormalized) on its support rows
    ``rows`` (all of them by default), the table re-keyed to match."""
    rows = np.arange(instance.model.support_size) if rows is None else np.asarray(rows)
    reward = instance.reward
    if reward.kind == "table":
        reward = RewardSpec(kind="table", table=reward.table[rows])
    probs = np.asarray(probs, dtype=float)
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=instance.model.support[rows], probs=probs / probs.sum()),
        costs=instance.costs, decisions=instance.decisions, reward=reward,
    )


@pytest.fixture
def discoveries(monkeypatch):
    """Starts with no graph kept; counts the solves that discover their
    graph rather than replaying a kept support's."""
    monkeypatch.setattr(dp, "_graphs", [])
    calls = []
    discover = dp._discover

    def counted(*args):
        calls.append(args[0].shape)
        return discover(*args)

    monkeypatch.setattr(dp, "_discover", counted)
    return calls


class TestStateGraphReuse:
    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_replayed_graph_matches_fresh_solve(self, kind, discoveries):
        # B reuses A's graph (same support, new pmf with zeros): its arrays
        # equal B's solved from an empty cache, bit for bit
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        zeros = 0
        for _ in range(10):
            a = structured_discrete_instance(rng, kind)
            weights = rng.integers(0, 3, size=a.model.support_size).astype(float)
            weights[rng.integers(0, len(weights))] += 1.0
            zeros += int((weights == 0).sum())
            b = _reweighted(a, weights)
            solve_dp_discrete(a)
            n_discovered = len(discoveries)
            _, replayed = solve_dp_discrete(b)
            assert len(discoveries) == n_discovered
            dp._graphs.clear()
            _, fresh = solve_dp_discrete(b)
            assert len(discoveries) == n_discovered + 1
            for name in ("value", "action", "decision"):
                got, want = getattr(replayed, name), getattr(fresh, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert replayed.entries.keys() == fresh.entries.keys()
        assert zeros > 0

    def test_state_cap_checked_on_replay(self, discoveries):
        inst = gen_discrete_pareto(d=4, seed=0, cost=0.05)
        _, table = solve_dp_discrete(inst)
        with pytest.raises(StateSpaceError, match="blowup"):
            solve_dp_discrete(inst, state_cap=80)
        _, again = solve_dp_discrete(inst, state_cap=81)
        assert len(discoveries) == 1
        assert len(again) == 81 and again.entries == table.entries

    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_other_supports_discover_their_own(self, kind, discoveries):
        # a strict subset of the support, then the same rows in another
        # order: neither matches the kept graph's bytes
        rng = np.random.default_rng(sum(map(ord, kind)) + 2)
        inst = None
        while inst is None or inst.model.support_size < 6:
            inst = structured_discrete_instance(rng, kind, k_max=24)
        k = inst.model.support_size
        subset = np.sort(rng.choice(k, size=k - 2, replace=False))
        for rows in (subset, rng.permutation(k)):
            other = _reweighted(inst, inst.model.probs[rows], rows)
            solve_dp_discrete(inst)
            n_discovered = len(discoveries)
            _, table = solve_dp_discrete(other)
            assert len(discoveries) == n_discovered + 1
            assert table.entries == RecursiveDiscreteOracle(other).entries


    def test_true_support_outlives_empirical_solves(self, discoveries):
        # explore phases of T = 1,024 on the 256-point Pareto support miss
        # points, so each seed's empirical solve is on a smaller support; the
        # true support's graph stays kept, and is discovered once, whichever
        # solve comes first
        inst = gen_discrete_pareto(d=8, seed=0, cost=0.05)
        for seed in range(3):
            env = DiscreteEnvironment(inst, seed)
            run_etc_discrete(env, EtcConfig(horizon=1024, support_size_hint=256))
        supports = [shape[0] for shape in discoveries]
        assert len(supports) == 4 and supports.count(256) == 1
        assert all(k < 256 for k in supports if k != 256)


def wide_instance(seed, n_values, k=96):
    """k distinct support points whose column i repeats values drawn from
    n_values[i] (a table reward): more than 64 value slots in all, so a
    presence spans several 64-bit words and fields cross word boundaries."""
    rng = np.random.default_rng(seed)
    rows = set()
    while len(rows) < k:
        rows.add(tuple(float(rng.integers(0, n)) for n in n_values))
    support = np.array(sorted(rows))[rng.permutation(k)]
    weights = rng.integers(1, 4, size=k).astype(float)
    return ProblemInstance(
        model=DiscreteOutcomeModel(support=support, probs=weights / weights.sum()),
        costs=rng.uniform(0.0, 0.05, size=len(n_values)),
        decisions=(0, 1, 2),
        reward=RewardSpec(kind="table", table=rng.uniform(-1.0, 1.0, size=(k, 3))),
    )


def _visits(run):
    """The (ptr, mem) lists ``run(visit)`` passes to visit, copied."""
    lists = []
    result = run(lambda ptr, mem: lists.append((ptr.copy(), mem.copy())))
    return result, lists


class TestDiscoveryFromPresence:
    # values per column: ~40 repeated values each (presence in 3 words), and
    # one column of ~75 distinct values (a field wider than a word)
    WIDE = [(40, 40, 40, 40), (200, 3, 3, 3)]

    @pytest.mark.parametrize("n_values", WIDE)
    def test_wide_support_matches_oracle(self, n_values, discoveries):
        for seed in range(3):
            inst = wide_instance(seed, n_values)
            fields = [len(v) for v in dp._Closures(inst.model.support).values]
            assert sum(fields) > 64 and (max(fields) > 64) == (max(n_values) > 64)
            entries = RecursiveDiscreteOracle(inst).entries
            n_states = len(entries)
            assert solve_dp_discrete(inst)[1].entries == entries
            for cap in (1, n_states // 2, n_states - 2, n_states - 1, n_states, n_states + 1):
                dp._graphs.clear()
                if cap < n_states:
                    with pytest.raises(StateSpaceError, match="blowup"):
                        solve_dp_discrete(inst, state_cap=cap)
                else:
                    assert len(solve_dp_discrete(inst, state_cap=cap)[1]) == n_states

    def test_scratch_scales_with_the_chunk(self, monkeypatch):
        # with a 512-member chunk the graph takes many chunks per level, each
        # unpacking a bounded block of presence bits, far below states x slots;
        # the states, their member lists and child tables do not change
        inst = wide_instance(0, (16, 16, 16, 16, 16, 3), k=160)
        support = inst.model.support
        want, want_lists = _visits(lambda visit: dp._discover(support, 10**7, visit))
        unpacked = []
        fields = dp._Closures.fields

        def counted(self, presence):
            bits, count = fields(self, presence)
            unpacked.append(bits.size)
            return bits, count

        monkeypatch.setattr(dp, "_MEMBER_CHUNK", 512)
        monkeypatch.setattr(dp._Closures, "fields", counted)
        got, got_lists = _visits(lambda visit: dp._discover(support, 10**7, visit))
        width = dp._Closures(support).width
        assert max(unpacked) <= 512 + len(support) + width
        assert len(unpacked) > 20 and len(got) * width > 50 * max(unpacked)
        assert got.levels == want.levels

        def members(graph, lists):
            """(key, members) of each state, level by level, in key order."""
            keys = iter(graph.closures.keys(graph.codes))
            return [sorted((next(keys), m[a:b].tolist()) for a, b in zip(p, p[1:])) for p, m in lists]

        assert members(got, got_lists) == members(want, want_lists)
        _, table = solve_dp_discrete(inst)
        assert table.entries == RecursiveDiscreteOracle(inst).entries

    def test_replay_visits_the_lists_discovery_visited(self):
        # replay rebuilds each level from each state's recorded parent and
        # test, so wrong bookkeeping shows as a different list
        rng = np.random.default_rng(17)
        supports = [structured_discrete_instance(rng, kind).model.support
                    for kind in REWARD_KINDS for _ in range(10)]
        supports += [gen_discrete_pareto(d=6, seed=0).model.support,
                     wide_instance(1, (40, 40, 40, 40)).model.support]
        for support in supports:
            graph, found = _visits(lambda visit: dp._discover(support, 10**7, visit))
            _, replayed = _visits(graph.replay)
            assert len(found) == len(graph.levels) - 1 == len(replayed)
            for (p, m), (q, n) in zip(found, replayed):
                assert p.dtype == q.dtype and m.dtype == n.dtype
                assert np.array_equal(p, q) and np.array_equal(m, n)
            for (p, _), a, b in zip(found, graph.levels, graph.levels[1:]):
                assert len(p) - 1 == b - a

    def test_sub_support_graph_no_larger(self):
        # every state of a sub-support P' is P' cut by the observations that
        # reach some state of P, which no other state of P' shares; so P'
        # never has more states than P (the premise of checking a run's
        # state cap on the true support alone)
        rng = np.random.default_rng(8)
        supports = [gen_discrete_pareto(d=8, seed=0).model.support] * 10
        supports += [structured_discrete_instance(rng, kind).model.support
                     for kind in REWARD_KINDS for _ in range(10)]
        for support in supports:
            n_states = len(dp._discover(support, 10**7, lambda ptr, mem: None))
            k = len(support)
            for size in rng.integers(1, k + 1, size=3):
                rows = np.sort(rng.choice(k, size=int(size), replace=False))
                assert len(dp._discover(support[rows], 10**7, lambda ptr, mem: None)) <= n_states


class TestBatchedPricing:
    @pytest.mark.parametrize("kind", REWARD_KINDS + ("gaussian-quadratic",))
    def test_equals_single_rollout_pricing(self, kind):
        # random rollouts over support rows (and, for indicator-match, every
        # decision vector and outcomes matching no decision), or over Gaussian
        # draws at d = 2..8, where a BLAS dot and an ascending sum of squares
        # round apart; each batched price equals rollout_net_reward bit for bit
        rng = np.random.default_rng(sum(map(ord, kind)) + 3)
        matched = unmatched = 0
        for it in range(8):
            if kind == "gaussian-quadratic":
                inst = random_quadratic_instance(rng, 2 + it % 7)
                xs, ks = sample_outcomes(inst, rng, 100), None
                d, n_y = inst.d, len(inst.decisions)
                decision = rng.integers(0, n_y, size=len(xs))
            else:
                inst = structured_discrete_instance(rng, kind)
                support, d = inst.model.support, inst.d
                n_y = len(inst.decisions)
                ks = np.concatenate([np.arange(len(support)), rng.integers(0, len(support), 40)])
                xs, decision = support[ks], rng.integers(0, n_y, size=len(ks))
            if kind == "indicator-match":
                dec = dp._decision_matrix(inst)
                xs = np.vstack([xs, dec, np.full((1, d), 5.0)])
                decision = np.concatenate([decision, np.arange(n_y), [0]])
                ks = None
            order = np.full(xs.shape, -1)
            for t, n_tests in enumerate(rng.integers(0, d + 1, size=len(xs))):
                order[t, :n_tests] = rng.permutation(d)[:n_tests]
            net = rollout_net_rewards(inst, xs, order, decision, support_index=ks)
            for t, x in enumerate(xs):
                roll = Rollout(tests=tuple(order[t][order[t] >= 0].tolist()), decision=int(decision[t]))
                k = None if ks is None else int(ks[t])
                want = rollout_net_reward(inst, x, roll, support_index=k)
                assert net[t].tobytes() == np.float64(want).tobytes()
                if kind == "indicator-match":
                    hit = reward_value(inst, x, int(decision[t])) == 1.0
                    matched, unmatched = matched + hit, unmatched + (not hit)
        if kind == "indicator-match":
            assert matched > 0 and unmatched > 0

    def test_reward_table_equals_scalar_reward(self):
        # a discrete quadratic table holds the scalar reward's bits for every
        # (support point, decision) pair, on real-valued supports
        rng = np.random.default_rng(29)
        for d in range(3, 9):
            k, n_y = 24, 5
            support = rng.standard_normal((k, d))
            inst = ProblemInstance(
                model=DiscreteOutcomeModel(support=support, probs=np.full(k, 1.0 / k)),
                costs=np.zeros(d),
                decisions=tuple(tuple(row) for row in rng.standard_normal((n_y, d))),
                reward=RewardSpec(kind="quadratic"),
            )
            table = dp._reward_table(inst)
            for kk in range(k):
                for j in range(n_y):
                    want = reward_value(inst, inst.model.support[kk], j)
                    assert table[kk, j].tobytes() == np.float64(want).tobytes()


def oracle_rollout(instance, entries, x):
    """(tests, decision, fallback) of the policy stored in the oracle's
    ``entries`` (bitmask keys), walked on outcome ``x`` one mask at a time."""
    support = instance.model.support
    key = (1 << instance.model.support_size) - 1
    tests = []
    while True:
        _, (kind, which), best_decision = entries[key]
        if kind == "decide":
            return tuple(tests), which, False
        tests.append(which)
        child = 0
        for k in _bits(key):
            if support[k, which] == x[which]:
                child |= 1 << k
        if not child:
            return tuple(tests), best_decision, True
        key = child


class TestArrayPolicyMatchesOracle:
    def test_rollouts_follow_oracle_entries(self):
        # the policy walks child tables indexed by state and value slot; the
        # oracle walks bitmasks, so a wrong child, slot or fallback shows
        rng = np.random.default_rng(2024)
        fell_back = tested = 0
        for kind in REWARD_KINDS:
            for _ in range(8):
                inst = structured_discrete_instance(rng, kind)
                policy, _ = solve_dp_discrete(inst)
                entries = RecursiveDiscreteOracle(inst).entries
                # support rows, then rows with an unseen value (4.5) or an
                # unseen combination of seen values
                values = np.array([0.0, 1.0, 2.0, 3.0, 4.5, -0.0])
                extra = values[rng.integers(0, len(values), size=(24, inst.d))]
                xs = np.vstack([inst.model.support, extra])
                tests, decision, order, fallback = policy.rollouts(xs)
                for t, x in enumerate(xs):
                    want_tests, want_decision, want_fallback = oracle_rollout(inst, entries, x)
                    assert tuple(order[t, : tests[t]]) == want_tests
                    assert np.all(order[t, tests[t] :] == -1)
                    assert (decision[t], fallback[t]) == (want_decision, want_fallback)
                fell_back += int(fallback.sum())
                tested += int((tests > 0).sum())
        assert fell_back > 0 and tested > 0

    def test_object_codes_when_int64_overflows(self):
        # 7 tests with 600 distinct values each: (600 + 1)^7 > 2^63, so the
        # closure codes are exact Python ints
        rng = np.random.default_rng(600)
        k, d = 600, 7
        support = np.column_stack([rng.permutation(k) * 0.5 for _ in range(d)])
        inst = ProblemInstance(
            model=DiscreteOutcomeModel(support=support, probs=np.full(k, 1.0 / k)),
            costs=np.linspace(0.01, 0.07, d),
            decisions=(0, 1, 2),
            reward=RewardSpec(kind="table", table=rng.uniform(-1.0, 1.0, size=(k, 3))),
        )
        assert dp._Closures(support).dtype is object
        policy, table = solve_dp_discrete(inst)
        assert len(table) == k + 1
        entries = RecursiveDiscreteOracle(inst).entries
        assert table.entries == entries
        for x in support[:50]:
            roll = policy.trace(x)
            assert oracle_rollout(inst, entries, x) == (roll.tests, roll.decision, False)

    def test_entries_view_built_only_on_access(self):
        inst = gen_discrete_pareto(d=4, seed=0, cost=0.05)
        policy, table = solve_dp_discrete(inst)
        assert len(table) == 81
        root = PerRowPolicyWalk(policy).state_of(initial_state(inst.d))
        assert table.root_action == table.action_of(root)
        policy.rollouts(inst.model.support)
        assert table._entries is None
        assert len(table.entries) == 81 and table._entries is not None


class TestSolveDpGaussian:
    def test_worthless_information_never_tests(self):
        # a single decision makes testing pure cost (tower property)
        inst = quadratic_1d_instance(cost=0.2, decisions=(0.5,))
        _, table = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=8, max_depth=2))
        assert table.root_action[0] == "decide"
        inst2 = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(2), covariance=np.eye(2)),
            costs=np.array([0.05, 0.05]),
            decisions=((0.0, 0.0),),
            reward=RewardSpec(kind="quadratic"),
        )
        _, table2 = solve_dp_gaussian(inst2, QuadratureSpec(nodes_per_test=8, max_depth=2))
        assert table2.root_action[0] == "decide"

    # the decision kink (midpoint of the two decisions) sits 3 sigma from the
    # mean: close enough that both decisions matter, far enough for the
    # polynomial quadrature to hold the stated tolerances
    REFINE_KW = dict(decisions=(-1.0, 1.0), var=0.16, mean=1.2)

    def test_quadrature_refinement_converges(self):
        inst = quadratic_1d_instance(cost=0.3, **self.REFINE_KW)
        v32 = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=32, max_depth=1))[1].root_value
        v64 = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=64, max_depth=1))[1].root_value
        assert abs(v64 - v32) < 1e-3

    def test_single_node_policy_no_better_than_rich_tree_policy(self):
        # one node per test degrades the tree to certainty equivalence, which
        # inflates the internal Q of testing; the induced policy's TRUE value
        # still cannot beat the richer tree's policy (less information at the
        # planning stage). Checked on the true values of the induced d=1
        # policies, where both have closed/quadrature-exact forms.
        inst = quadratic_1d_instance(cost=0.01, **self.REFINE_KW)
        mean, var = self.REFINE_KW["mean"], self.REFINE_KW["var"]
        ys = np.array([y[0] for y in inst.decisions])

        def integrand(x):
            return float(np.max(-((x - ys) ** 2))) * math.exp(
                -((x - mean) ** 2) / (2 * var)
            ) / math.sqrt(2 * math.pi * var)

        post_test_value, _ = quad(integrand, -np.inf, np.inf, limit=200)

        def true_policy_value(nodes):
            policy, _ = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=nodes, max_depth=1))
            kind, which = policy.root_action
            if kind == "decide":
                return -((mean - ys[which]) ** 2) - var
            return -float(inst.costs[0]) + post_test_value

        assert true_policy_value(1) <= true_policy_value(64) + 1e-12

    def test_64_nodes_match_adaptive_quadrature(self):
        # d=1: Q(root, test) = -c + int max_y f(x, y) phi(x) dx
        mean, var = self.REFINE_KW["mean"], self.REFINE_KW["var"]
        inst = quadratic_1d_instance(cost=0.3, **self.REFINE_KW)
        policy = GaussianTreePolicy(inst, QuadratureSpec(nodes_per_test=64, max_depth=1))
        ys = np.array([y[0] for y in inst.decisions])

        def integrand(x):
            return float(np.max(-((x - ys) ** 2))) * math.exp(
                -((x - mean) ** 2) / (2 * var)
            ) / math.sqrt(2 * math.pi * var)

        exact, err = quad(integrand, -np.inf, np.inf, limit=200)
        assert err < 1e-8
        q_tree = -0.3 + sum(
            w * policy.node(1, (mean + math.sqrt(2 * var) * h,))[0]
            for h, w in zip(policy._nodes, policy._weights)
        )
        assert abs(q_tree - (-0.3 + exact)) < 1e-4

    def test_depth_cap(self):
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(3), covariance=np.eye(3)),
            costs=np.full(3, 0.1),
            decisions=((0.0, 0.0, 0.0),),
            reward=RewardSpec(kind="quadratic"),
        )
        with pytest.raises(QuadratureCapError, match="max_depth"):
            solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=4, max_depth=2))

    def test_indicator_rejected_for_gaussian(self):
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(1), covariance=np.eye(1)),
            costs=np.array([0.1]),
            decisions=((0.0,),),
            reward=RewardSpec(kind="indicator-match"),
        )
        with pytest.raises(InstanceError, match="closed form"):
            solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=4, max_depth=1))

    def test_policy_queryable_at_arbitrary_observations(self):
        inst = ProblemInstance(
            model=GaussianOutcomeModel(
                mean=np.zeros(2), covariance=np.array([[1.0, 0.8], [0.8, 1.0]])
            ),
            costs=np.array([0.05, 0.4]),
            decisions=tuple((a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)),
            reward=RewardSpec(kind="quadratic"),
        )
        policy, _ = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=8, max_depth=2))
        _, (kind, which), _ = policy.node(0b01, (0.123456,))
        assert kind in ("test", "decide")
        roll = policy.trace(np.array([0.7, -0.3]))
        assert roll.decision in range(9)


class TestEvaluatePolicy:
    def test_optimal_policy_matches_root_value(self, rng):
        for _ in range(10):
            inst = random_discrete_instance(rng)
            policy, table = solve_dp_discrete(inst)
            val = evaluate_policy(inst, policy)
            assert abs(val.value - table.root_value) <= 1e-12

    def test_always_decide_policy(self, rng):
        inst = random_discrete_instance(rng)

        class AlwaysDecide:
            def rollouts(self, xs):
                n = len(xs)
                return np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.full(xs.shape, -1)

        val = evaluate_policy(inst, AlwaysDecide())
        expected = float(inst.model.probs @ inst.reward.table[:, 0])
        assert abs(val.value - expected) <= 1e-12

    def test_enumerated_policies_no_better_than_optimal(self, rng):
        # every deterministic first-action variant evaluates <= optimal value
        inst = random_discrete_instance(rng, d_max=2, k_max=5)
        _, table = solve_dp_discrete(inst)
        oracle_value, _ = brute_force_policy_oracle(inst)
        assert oracle_value == table.root_value

    def test_gaussian_mc_evaluation_reports_stderr(self):
        inst = quadratic_1d_instance(
            cost=0.1, **TestSolveDpGaussian.REFINE_KW
        )
        policy, table = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=64, max_depth=1))
        val = evaluate_policy(inst, policy, mc_episodes=20_000, rng=np.random.default_rng(3))
        assert val.stderr > 0.0
        assert abs(val.value - table.root_value) <= 5.0 * val.stderr


class RecursiveTreeOracle:
    """The per-state recursion the batched tree evaluator replaced, kept
    verbatim as an oracle: one posterior solve per state, memoized forever."""

    def __init__(self, instance, nodes_per_test):
        self.instance = instance
        self._nodes, self._weights = dp._gauss_hermite(nodes_per_test)
        self._memo = {}

    def node(self, obs_mask, obs_values):
        key = (obs_mask, obs_values)
        entry = self._memo.get(key)
        if entry is not None:
            return entry
        entries = [None] * self.instance.d
        for pos, i in enumerate(_bits(obs_mask)):
            entries[i] = obs_values[pos]
        s = TestState(entries=tuple(entries))
        dec_values = _gaussian_decision_values(self.instance, s)
        dec_j = int(np.argmax(dec_values))
        best_val, best_act = float(dec_values[dec_j]), ("decide", dec_j)
        miss = s.missing_indices
        if miss:
            post = posterior_gaussian(self.instance.model, s)
            for pos, i in enumerate(miss):
                mean_i = float(post.mean[pos])
                scale = math.sqrt(2.0 * float(post.covariance[pos, pos]))
                rank = _bits(obs_mask | (1 << i)).index(i)
                q = -float(self.instance.costs[i])
                for h, w in zip(self._nodes, self._weights):
                    child_values = obs_values[:rank] + (mean_i + scale * h,) + obs_values[rank:]
                    q += w * self.node(obs_mask | (1 << i), child_values)[0]
                if q > best_val:
                    best_val, best_act = q, ("test", i)
        entry = (best_val, best_act, dec_j)
        self._memo[key] = entry
        return entry

    def trace(self, x):
        mask, values, tests = 0, (), []
        while True:
            _, (kind, which), _ = self.node(mask, values)
            if kind == "decide":
                return tuple(tests), which
            tests.append(which)
            rank = _bits(mask | (1 << which)).index(which)
            values = values[:rank] + (float(x[which]),) + values[rank:]
            mask |= 1 << which


def random_quadratic_instance(rng, d, max_cost=0.6):
    """Correlated Gaussian with a few random decisions; the default costs are
    small enough that both testing and deciding occur."""
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.3 * np.eye(d)
    cov = (cov + cov.T) / 2.0
    n_dec = int(rng.integers(2, 6))
    return ProblemInstance(
        model=GaussianOutcomeModel(mean=rng.standard_normal(d), covariance=cov),
        costs=rng.uniform(0.0, max_cost, size=d),
        decisions=tuple(tuple(row) for row in rng.uniform(-2.0, 2.0, size=(n_dec, d))),
        reward=RewardSpec(kind="quadratic"),
    )


def sample_outcomes(instance, rng, n):
    chol = np.linalg.cholesky(instance.model.covariance)
    return rng.standard_normal((n, instance.d)) @ chol.T + instance.model.mean


# (d, nodes per test) for the oracle comparisons; d=1 is the case the removed
# single-test fast path used to cover
ORACLE_CASES = [(1, 16), (1, 5), (2, 8), (2, 3), (3, 5), (3, 4)]


class TestFullInformationRollouts:
    @staticmethod
    def check(inst, xs, support_index=None):
        """Every row tests 0..d-1, decides the lowest-index argmax of the
        realized reward, and is priced as that single rollout."""
        tests, decision, order, net, fallback = _priced_rollouts(inst, None, xs, support_index)
        assert not fallback.any()
        d = inst.d
        ks = [None] * len(xs) if support_index is None else support_index
        for t, (x, k) in enumerate(zip(xs, ks)):
            rewards = [reward_value(inst, x, j, k) for j in range(len(inst.decisions))]
            j = int(np.argmax(rewards))
            assert decision[t] == j
            assert tests[t] == d and order[t].tolist() == list(range(d))
            roll = Rollout(tests=tuple(range(d)), decision=j)
            assert net[t] == rollout_net_reward(inst, x, roll, k)
        return decision

    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_discrete_support_rows(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        for _ in range(8):
            inst = structured_discrete_instance(rng, kind)
            support = inst.model.support
            self.check(inst, support[::-1], np.arange(len(support))[::-1])

    def test_indicator_outside_decision_set_decides_zero(self):
        inst = single_test_instance((1.0, 3.0, 2.0), (0.4, 0.3, 0.3))
        decision = self.check(inst, inst.model.support, np.arange(3))
        assert decision.tolist() == [1, 0, 2]

    def test_costs_added_in_test_order(self):
        # numpy sums 8 or more costs pairwise; a rollout adds them one by one
        inst = gen_discrete_pareto(d=8, seed=0, cost=0.05)
        self.check(inst, inst.model.support, np.arange(inst.model.support_size))

    def test_gaussian_quadratic(self):
        rng = np.random.default_rng(11)
        # numpy may add 8 or more terms out of order; at d = 8..10 decisions
        # and prices must still come from the one kernel
        for d in (1, 2, 3, 8, 9, 10):
            inst = random_quadratic_instance(rng, d)
            self.check(inst, sample_outcomes(inst, rng, 64))
        # x = 0 is equidistant from both decisions: the lower index wins
        tie = quadratic_1d_instance(decisions=(1.0, -1.0))
        assert self.check(tie, np.array([[0.0], [0.5], [-0.5]])).tolist() == [0, 0, 1]

    def test_no_rows(self):
        rng = np.random.default_rng(2)
        gaussian = random_quadratic_instance(rng, 3)
        discrete = structured_discrete_instance(rng, "table")
        for inst, xs, ks in (
            (gaussian, np.empty((0, 3)), None),
            (discrete, discrete.model.support[:0], np.arange(0)),
        ):
            tests, decision, order, net, _ = _priced_rollouts(inst, None, xs, ks)
            assert tests.shape == decision.shape == net.shape == (0,)
            assert order.shape == (0, inst.d)

    def test_quadratic_memory_does_not_grow_with_rows_times_decisions(self):
        # 125 decisions: every row's values at once would take 65 MB an array
        inst = gen_gaussian_quadratic(d=3, seed=0)
        xs = sample_outcomes(inst, np.random.default_rng(4), 1 << 16)
        tracemalloc.start()
        try:
            decision = _priced_rollouts(inst, None, xs)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, peak
        whole = np.argmax(neg_sq_dist(xs[:, None, :], dp._decision_matrix(inst)), axis=1)
        assert np.array_equal(decision, whole)


class TestDuplicateDecisions:
    def test_lowest_index_of_a_repeated_vector_wins(self):
        # decisions 0 and 1 are the same vector: on x = 0 both score 1, and
        # the tie rule picks decision 0 in the solve, the full-information
        # rollouts and the oracle alike
        inst = ProblemInstance(
            model=DiscreteOutcomeModel(support=np.array([[0.0], [1.0]]), probs=np.array([0.5, 0.5])),
            costs=np.array([0.01]),
            decisions=((0.0,), (0.0,), (1.0,)),
            reward=RewardSpec(kind="indicator-match"),
        )
        support = inst.model.support
        policy, table = solve_dp_discrete(inst)
        assert table.root_action == ("test", 0)
        assert policy.rollouts(support)[1].tolist() == [0, 2]
        decision = TestFullInformationRollouts.check(inst, support, np.arange(2))
        assert decision.tolist() == [0, 2]
        value, oracle = brute_force_policy_oracle(inst)
        assert value == table.root_value
        assert oracle[(0, (0, 1))] == ("test", 0)
        assert oracle[(1, (0,))] == ("decide", 0)
        assert oracle[(1, (1,))] == ("decide", 2)


class TestBatchedTreeMatchesRecursion:
    @pytest.mark.parametrize("d,nodes", ORACLE_CASES)
    def test_root_and_off_tree_nodes(self, d, nodes):
        rng = np.random.default_rng(1000 * d + nodes)
        for _ in range(3):
            inst = random_quadratic_instance(rng, d)
            oracle = RecursiveTreeOracle(inst, nodes)
            policy, table = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=nodes))
            want = oracle.node(0, ())
            assert abs(table.root_value - want[0]) <= 1e-12
            assert table.root_action == want[1]
            for x in sample_outcomes(inst, rng, 8):
                mask = int(rng.integers(1, 2**d))
                values = tuple(float(x[i]) for i in _bits(mask))
                got, want = policy.node(mask, values), oracle.node(mask, values)
                assert abs(got[0] - want[0]) <= 1e-12
                assert got[1:] == want[1:]

    @pytest.mark.parametrize("d,nodes", ORACLE_CASES)
    @pytest.mark.parametrize("max_cost", [0.6, 3.0])
    def test_rollouts_match_oracle_traces(self, d, nodes, max_cost):
        rng = np.random.default_rng(2000 * d + nodes)
        inst = random_quadratic_instance(rng, d, max_cost)
        oracle = RecursiveTreeOracle(inst, nodes)
        policy, _ = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=nodes))
        xs = sample_outcomes(inst, rng, 256)
        tests, decisions, order = policy.rollouts(xs)
        for t, x in enumerate(xs):
            want_tests, want_decision = oracle.trace(x)
            assert tuple(order[t, : tests[t]]) == want_tests
            assert (order[t, tests[t] :] == -1).all()
            assert decisions[t] == want_decision
        roll = policy.trace(xs[0])
        assert (roll.tests, roll.decision) == oracle.trace(xs[0])

    @pytest.mark.parametrize("d,nodes", [(1, 8), (2, 5), (3, 4), (5, 3), (6, 2)])
    def test_chunk_size_does_not_change_rollouts(self, d, nodes, monkeypatch):
        rng = np.random.default_rng(3000 * d + nodes)
        inst = random_quadratic_instance(rng, d)
        xs = sample_outcomes(inst, rng, 300)
        quad_spec = QuadratureSpec(nodes_per_test=nodes)
        _, table = solve_dp_gaussian(inst, quad_spec)
        default = GaussianTreePolicy(inst, quad_spec).rollouts(xs)
        monkeypatch.setattr(dp, "_CHUNK", 1)
        policy, table_one = solve_dp_gaussian(inst, quad_spec)
        assert table_one.root_value == table.root_value
        # one episode at a time re-solves each episode's subtree node by node,
        # so past d=3 only a prefix of the episodes is rolled out again
        rows = len(xs) if d <= 3 else 8
        for got, want in zip(policy.rollouts(xs[:rows]), default):
            np.testing.assert_array_equal(got, want[:rows])

    @pytest.mark.parametrize("d,nodes", [(3, 4), (5, 3), (6, 2)])
    def test_node_rows_do_not_depend_on_batch_shape(self, d, nodes):
        # a BLAS matmul picks its kernel by shape (dot, gemv or gemm), and those
        # round differently once two or more entries are observed; check the
        # masks with one or two missing entries, whose subtrees are small
        rng = np.random.default_rng(4000 * d + nodes)
        inst = random_quadratic_instance(rng, d)
        xs = sample_outcomes(inst, rng, 40)
        policy = GaussianTreePolicy(inst, QuadratureSpec(nodes_per_test=nodes))
        full = 2**d - 1
        for mask in range(1, full):
            if bin(full ^ mask).count("1") > 2:
                continue
            values = xs[:, _bits(mask)]
            batched = policy.node_batch(mask, values)
            rows = [policy.node_batch(mask, values[t : t + 1]) for t in range(len(xs))]
            for got, want in zip(zip(*rows), batched):
                np.testing.assert_array_equal(np.concatenate(got), want)

class TestGaussianTreeResources:
    def test_memory_flat_in_episodes(self):
        rng = np.random.default_rng(7)
        inst = random_quadratic_instance(rng, 3)
        policy, table = solve_dp_gaussian(inst, QuadratureSpec(nodes_per_test=6))
        sizes = []
        for n in (2**8, 2**12):
            policy.rollouts(sample_outcomes(inst, rng, n))
            sizes.append((len(table), len(policy._masks)))
        assert sizes[0] == sizes[1]
        assert sizes[0][1] <= 2**3

    def test_ill_conditioned_mask_raises_only_when_reached(self):
        # tests 0 and 1 are nearly collinear (condition ~1e14) and independent
        # of test 2: only states observing both 0 and 1 with 2 missing need the
        # singular block
        eps = 1e-14
        cov = np.array([[1.0, 1.0 - eps, 0.0], [1.0 - eps, 1.0, 0.0], [0.0, 0.0, 1.0]])
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(3), covariance=cov),
            costs=np.full(3, 0.05),
            decisions=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            reward=RewardSpec(kind="quadratic"),
        )
        quad_spec = QuadratureSpec(nodes_per_test=3)
        policy = GaussianTreePolicy(inst, quad_spec)
        oracle = RecursiveTreeOracle(inst, 3)
        for mask, values in ((0b100, (0.3,)), (0b101, (0.1, -0.2)), (0b111, (0.0, 0.1, 0.2))):
            assert policy.node(mask, values) == oracle.node(mask, values)
        assert 0b011 not in policy._masks
        for query in (lambda p: p.node(0b001, (0.4,)), lambda p: p.node(0b011, (0.4, 0.4))):
            for evaluator in (policy, oracle):
                with pytest.raises(IllConditionedError):
                    query(evaluator)
        with pytest.raises(IllConditionedError):
            policy.rollouts(np.zeros((4, 3)))
        with pytest.raises(IllConditionedError):
            solve_dp_gaussian(inst, quad_spec)

    def test_tree_size_formula(self):
        assert gaussian_tree_size(1, 16) == 17
        assert gaussian_tree_size(2, 16) == 1 + 2 * 16 + 2 * 16**2
        assert gaussian_tree_size(3, 4) == 1 + 3 * 4 + 6 * 4**2 + 6 * 4**3

    def test_tree_budget_fails_before_evaluating(self):
        inst = ProblemInstance(
            model=GaussianOutcomeModel(mean=np.zeros(3), covariance=np.eye(3)),
            costs=np.full(3, 0.1),
            decisions=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            reward=RewardSpec(kind="quadratic"),
        )
        quad_spec = QuadratureSpec(nodes_per_test=4)
        size = gaussian_tree_size(3, 4)
        with pytest.raises(StateSpaceError, match="state cap"):
            solve_dp_gaussian(inst, quad_spec, state_cap=size - 1)
        _, table = solve_dp_gaussian(inst, quad_spec, state_cap=size)
        assert len(table) == 1
