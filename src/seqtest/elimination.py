"""Online cost-sensitive maximum entropy sampling via iterative elimination.

The agent maintains a candidate collection C of test subsets (initially the
power set of [d]), a pair set Q of coordinate pairs still needed by some
candidate (diagonal pairs included), and running pairwise second-moment
estimates. Each episode it samples the largest candidate containing the
least-sampled pair, updates the estimates, and, once the confidence width is
below 1, eliminates every candidate whose plug-in objective falls 2*lambda*U
short of the best one. After C shrinks to a single survivor the agent plays it
to the horizon.

The plug-in objective for a subset S is
    lambda * (|S|/2 * log(2*pi*e) + 1/2 * logdet(Sigma_hat[S, S])) - sum costs,
the Gaussian-entropy closed form weighted against the subset's test costs.
Per-episode regret compares true-Sigma objectives of the played and optimal
subsets (realized entropy is not observable episode by episode); the agent
prices them with the batched kernel of its plug-in objectives, and
``solve_mesp_offline`` stays the scalar, independent reference.

The candidates' derived state (the pair cover that gives Q, the size groups
that batch each episode's plug-in objectives into one Cholesky per size, and
the selection order) is built once from their 0/1 membership matrix. Each
elimination then filters it with its keep mask: surviving rows keep their
order, and the dropped rows' pair counts are subtracted from the cover. A
candidate's cost is added one index at a time in ascending order, as
``entropy_objective`` adds it: the objectives are compared against an
elimination threshold, so a matmul or pairwise ``np.sum``, which can round the
last bit differently, could change which candidates survive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dp import DEFAULT_STATE_CAP, StateSpaceError, _bits, check_state_cap, subset_label
from .envs import GaussianEnvironment, RegretTrace, TraceSink, episode_blocks
from .models import InstanceError, ParameterError

LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# largest d whose 2^d subsets are enumerated (candidates, offline search)
MAX_POWER_SET_D = 20

# entries of Sigma gathered for one batched Cholesky call: each size group up
# to d=16 takes one call, and a d=20 group's temporaries stay near 8 MB each
_GATHER_ENTRIES = 1 << 20


def _check_power_set(d: int, state_cap: int = DEFAULT_STATE_CAP) -> None:
    """Refuse, before anything is allocated, to enumerate the power set of [d]
    past d <= MAX_POWER_SET_D or past ``state_cap`` subsets."""
    if d > MAX_POWER_SET_D:
        raise ValueError(f"the power set of [d] is capped at d <= {MAX_POWER_SET_D}, got d={d}")
    if 1 << d > state_cap:
        raise StateSpaceError(
            f"state cap: the power set of [{d}] has {1 << d} subsets, more than {state_cap}"
        )


class NotPositiveDefiniteError(ValueError):
    """A subset's covariance block is not positive definite."""

    def __init__(self, subset):
        self.subset = tuple(subset)
        super().__init__(f"covariance block for subset {self.subset} is not positive definite")


@dataclass(frozen=True)
class OcmespConfig:
    """Inputs of the elimination agent: the condition-number bound sigma, the
    dimension, the failure probability delta, the information weight lambda,
    per-test costs, the Bernstein constant, the horizon, and the budget on
    the 2^d candidates."""

    sigma: float
    d: int
    delta: float
    lam: float
    costs: np.ndarray
    horizon: int
    bernstein_c: float
    state_cap: int = DEFAULT_STATE_CAP

    def __post_init__(self):
        check_state_cap(self.state_cap)
        _check_power_set(self.d, self.state_cap)
        if self.horizon < 1:
            raise ParameterError("horizon", "must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta", "must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not self.bernstein_c > 0.0:
            raise ParameterError("bernstein_c", "must be positive")
        if self.sigma < 1.0:
            raise ParameterError(
                "sigma", f"must be >= 1 (a condition-number bound), got {self.sigma}"
            )
        object.__setattr__(self, "costs", np.array(self.costs, dtype=float))
        if self.costs.shape != (self.d,):
            raise ValueError(f"costs must have length d={self.d}")


def entropy_objective(subset, sigma_matrix: np.ndarray, lam: float, costs) -> float:
    """lambda * Gaussian entropy of the subset minus its total test cost."""
    s = tuple(sorted(int(i) for i in subset))
    if not s:
        return 0.0
    block = np.asarray(sigma_matrix)[np.ix_(s, s)]
    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(s) from exc
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    cost = float(sum(costs[i] for i in s))
    return lam * (0.5 * len(s) * LOG_2PI_E + 0.5 * logdet) - cost


def confidence_width(t: int, config: OcmespConfig) -> float:
    """Uniform high-probability bound on the plug-in entropy estimation error:
    8*sigma * max(d^3 sqrt(ln(pi^2 d^2 t^2 / delta) / (c t)),
                  d^4 ln(pi^2 d^2 t^2 / delta) / (c t))."""
    if t < 1:
        raise ValueError("t must be >= 1")
    log_term = math.log(math.pi**2 * config.d**2 * t**2 / config.delta)
    ct = config.bernstein_c * t
    return 8.0 * config.sigma * max(
        config.d**3 * math.sqrt(log_term / ct),
        config.d**4 * log_term / ct,
    )


def solve_mesp_offline(
    sigma_matrix: np.ndarray,
    lam: float,
    costs,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple:
    """Exhaustive maximizer of the entropy objective over all subsets. Ties
    go to the lexicographically smallest subset. Capped at d <=
    MAX_POWER_SET_D and at 2^d <= ``state_cap``."""
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    d = sigma_matrix.shape[0]
    _check_power_set(d, state_cap)
    return _best_subset(  # every subset, by size, then lexicographically
        (s, entropy_objective(s, sigma_matrix, lam, costs))
        for m in range(d + 1)
        for s in itertools.combinations(range(d), m)
    )


def _best_subset(objectives) -> tuple:
    """The subset of the highest value among (subset, value) pairs; ties go to
    the lexicographically smallest subset."""
    best_val = best_subset = None
    for s, val in objectives:
        if best_val is None or val > best_val or (val == best_val and s < best_subset):
            best_val, best_subset = val, s
    return best_subset


# ---------------------------------------------------------------------------
# Candidate-set state
# ---------------------------------------------------------------------------


def _members(masks: np.ndarray, d: int) -> np.ndarray:
    """The (n, d) 0/1 membership matrix of subset bitmasks."""
    return (masks[:, None] >> np.arange(d)) & 1


def _pair_cover(members: np.ndarray) -> np.ndarray:
    """How many rows contain each pair (i, j), as float64 (a BLAS matmul;
    the counts, at most 2^MAX_POWER_SET_D, are exact)."""
    members = members.astype(float)
    return members.T @ members


@dataclass
class CandidateSet:
    """Active candidates, the pairs they still need, and pairwise estimates.

    ``pair_counts``/``pair_sums`` hold |T_ij| and the running sums of x_i x_j
    for every pair (diagonals included); both stay symmetric. ``pairs`` is Q.
    ``refresh_pairs`` builds Q, the size groups and the selection order from
    ``candidates`` once; ``retain`` then filters them after each elimination.
    """

    d: int
    candidates: list  # subset bitmasks; never empty, only ever shrinks
    pair_counts: np.ndarray
    pair_sums: np.ndarray
    pairs: list = field(default_factory=list)  # Q as sorted (i, j), i <= j
    eliminated_total: int = 0
    pd_skips: int = 0

    @classmethod
    def initial(cls, d: int) -> "CandidateSet":
        _check_power_set(d)
        state = cls(
            d=d,
            candidates=list(range(1 << d)),  # power set, sizes 0 and 1 included
            pair_counts=np.zeros((d, d), dtype=np.int64),
            pair_sums=np.zeros((d, d), dtype=float),
        )
        state.refresh_pairs()
        return state

    def refresh_pairs(self) -> None:
        """Build the derived state from ``candidates``."""
        masks = self._masks = np.array(self.candidates, dtype=np.int64)
        members = _members(masks, self.d)
        self._cover = _pair_cover(members)
        self._refresh_need()
        # candidates grouped by size, each row holding its member indices in
        # ascending order, so each episode's plug-in objectives batch into one
        # Cholesky per size; ``flat`` indexes each (m, m) block in the raveled
        # (d, d) matrix. d <= MAX_POWER_SET_D lets both be uint16.
        sizes = members.sum(axis=1)
        self._groups = []
        for m in np.flatnonzero(np.bincount(sizes)).tolist():  # the distinct sizes
            positions = np.flatnonzero(sizes == m)
            idx = np.nonzero(members[positions])[1].reshape(len(positions), m).astype(np.uint16)
            flat = idx[:, :, None] * self.d + idx[:, None, :]
            self._groups.append((m, positions, idx, flat))
        # candidates ordered by (size desc, lexicographic), so the selection
        # rule's argmax is the first hit; among equal sizes the lexicographically
        # smaller index tuple has the larger bit-reversed mask
        reversed_masks = members @ (1 << np.arange(self.d - 1, -1, -1))
        self._order = np.lexsort((-reversed_masks, -sizes))
        self._ordered = masks[self._order]

    def _refresh_need(self) -> None:
        self._need = self._cover > 0
        # row-major nonzeros of the upper triangle are in lexicographic order
        rows, cols = self._pair_index = np.nonzero(np.triu(self._need))
        self.pairs = list(zip(rows.tolist(), cols.tolist()))

    def retain(self, keep: np.ndarray) -> None:
        """Keep the candidates where ``keep`` is True and filter the derived
        state to them, as ``refresh_pairs`` on the survivors would build it:
        rows keep their relative order, so sizes, index rows and the stable
        selection order carry over."""
        dropped = self._masks[~keep]
        if not len(dropped):
            return
        self._cover -= _pair_cover(_members(dropped, self.d))
        self._refresh_need()
        position = np.cumsum(keep) - 1  # a survivor's new position
        groups = []
        for m, positions, idx, flat in self._groups:
            kept = keep[positions]
            if kept.any():
                groups.append((m, position[positions[kept]], idx[kept], flat[kept]))
        self._groups = groups
        kept = keep[self._order]
        self._order = position[self._order[kept]]
        self._ordered = self._ordered[kept]
        self._masks = self._masks[keep]
        self.candidates = self._masks.tolist()
        self.eliminated_total += len(dropped)

    def sigma_hat(self) -> np.ndarray:
        return self.pair_sums / np.maximum(self.pair_counts, 1)

    def least_sampled_pair(self) -> tuple:
        # the first minimum, so ties go lexicographically
        return self.pairs[int(np.argmin(self.pair_counts[self._pair_index]))]

    def largest_candidate_containing(self, pair: tuple) -> int:
        pm = (1 << pair[0]) | (1 << pair[1])
        hits = self._ordered & pm == pm
        first = int(np.argmax(hits))
        if not hits[first]:
            raise ValueError(f"no candidate contains pair {pair}")
        return int(self._ordered[first])


def select_next_subset(state: CandidateSet) -> tuple:
    """(least-sampled pair in Q, largest candidate containing it)."""
    if not state.pairs:
        raise ValueError("no pairs remain to sample")
    pair = state.least_sampled_pair()
    return pair, state.largest_candidate_containing(pair)


def update_estimates(state: CandidateSet, subset_mask: int, x: np.ndarray, t: int) -> CandidateSet:
    """Fold episode ``t``'s observation of x[S] into every needed pair inside S."""
    idx = _bits(subset_mask)
    if not idx:
        return state
    sub = np.ix_(idx, idx)
    needed = state._need[sub]
    xs = np.asarray(x, dtype=float)[idx]
    state.pair_counts[sub] += needed
    state.pair_sums[sub] += np.where(needed, np.outer(xs, xs), 0.0)
    return state


def candidate_objectives(state: CandidateSet, lam: float, costs) -> Optional[np.ndarray]:
    """Plug-in objectives for every candidate, or None when some needed pair is
    unsampled or some block is not positive definite (elimination must be
    skipped for the round)."""
    if not np.all(state.pair_counts[state._pair_index]):
        return None  # some needed pair never sampled yet
    return _objectives(state, state.sigma_hat(), lam, costs)


def _objectives(state: CandidateSet, sigma: np.ndarray, lam: float, costs) -> Optional[np.ndarray]:
    """``entropy_objective`` of every candidate under ``sigma``, bitwise, by
    candidate position; None when some block is not positive definite."""
    costs = np.asarray(costs, dtype=float)
    sigma = np.ravel(sigma)
    values = np.empty(len(state.candidates))
    for m, positions, idx, flat in state._groups:
        cost = np.zeros(len(positions))
        for k in range(m):  # ascending index order; see the module docstring
            cost = cost + costs[idx[:, k]]
        entropy = 0.0
        if m:
            logdet = np.empty(len(positions))
            step = max(1, _GATHER_ENTRIES // (m * m))
            for lo in range(0, len(positions), step):
                # np.take with an intp index gathers several times faster
                # than two broadcast index arrays; ``flat`` is stored small
                blocks = np.take(sigma, flat[lo:lo + step].astype(np.intp))  # (n, m, m)
                try:
                    chol = np.linalg.cholesky(blocks)
                except np.linalg.LinAlgError:
                    return None
                diagonal = np.diagonal(chol, axis1=1, axis2=2)
                logdet[lo:lo + step] = 2.0 * np.log(diagonal).sum(axis=1)
            entropy = lam * (0.5 * m * LOG_2PI_E + 0.5 * logdet)
        values[positions] = entropy - cost
    return values


def eliminate(state: CandidateSet, t: int, config: OcmespConfig) -> CandidateSet:
    """Drop every candidate whose plug-in objective is 2*lambda*U(t) below the
    best one. Skipped entirely while U(t) > 1, and skipped with a diagnostic
    when an estimated block is not positive definite despite U <= 1."""
    width = confidence_width(t, config)
    if width > 1.0:
        return state
    values = candidate_objectives(state, config.lam, config.costs)
    if values is None:
        state.pd_skips += 1
        return state
    # eliminate S when H_hat(S) + 2*lam*U <= max_S' H_hat(S')
    threshold = float(values.max()) - 2.0 * config.lam * width
    state.retain(values > threshold)
    return state


@dataclass
class OcmespResult:
    trace: object  # RegretTrace, or envs.StreamedTrace when the sink wrote its rows
    final_candidates: list  # subset index tuples


def run_ocmesp(
    env: GaussianEnvironment,
    config: OcmespConfig,
    collect_observations: bool = False,
    sink: Optional[TraceSink] = None,
) -> OcmespResult:
    """Iterative elimination to the horizon; once a single candidate survives
    it is played for every remaining episode (exploration stops). Episodes
    are drawn and recorded block by block."""
    instance = env.instance
    state = CandidateSet.initial(config.d)
    # on the initial power set a candidate's position is its mask
    true_sigma = instance.model.covariance
    true_obj = _objectives(state, true_sigma, config.lam, config.costs)
    if true_obj is None:
        raise InstanceError("a principal block of the covariance is not positive definite")
    optimal_subset = _best_subset(
        (tuple(_bits(mask)), true_obj[mask])
        for mask in np.flatnonzero(true_obj == true_obj.max()).tolist()
    )
    optimal_value = entropy_objective(optimal_subset, true_sigma, config.lam, config.costs)

    out = TraceSink() if sink is None else sink
    t = 0  # episodes played while more than one candidate was left
    for a, b in episode_blocks(config.horizon):
        xs = env.outcomes(b - a)
        played = np.empty(b - a, dtype=np.int64)
        pair_col = [""] * (b - a)
        n_candidates = np.ones(b - a, dtype=np.int64)
        elim_col = np.zeros(b - a, dtype=np.int64)
        while t < b and len(state.candidates) > 1:
            pair, subset_mask = select_next_subset(state)
            update_estimates(state, subset_mask, xs[t - a], t + 1)
            before = state.eliminated_total
            eliminate(state, t + 1, config)
            played[t - a] = subset_mask
            pair_col[t - a] = f"{pair[0]}|{pair[1]}"
            n_candidates[t - a] = len(state.candidates)
            elim_col[t - a] = state.eliminated_total - before
            t += 1
        n = max(t - a, 0)  # this block's explore episodes
        played[n:] = state.candidates[0]  # the survivor, once one is left

        masks = played.tolist()
        labels = {m: subset_label(_bits(m)) for m in set(masks)}
        member = _members(played, config.d) == 1
        out.add(RegretTrace(
            phase=["explore"] * n + ["commit"] * (b - a - n),
            tests_performed=member.sum(axis=1),
            decision=[""] * (b - a),
            realized_reward=true_obj[played],
            clairvoyant_reward=np.full(b - a, optimal_value),
            extras={
                "pair_chosen": pair_col,
                "subset_played": [labels[m] for m in masks],
                "n_candidates": n_candidates,
                "U_t": np.array([confidence_width(u + 1, config) for u in range(a, b)]),
                "eliminated_count": elim_col,
            },
            observations=np.where(member, xs, np.nan) if collect_observations else None,
        ))

    trace = out.finish({
        "optimal_subset": list(optimal_subset),
        "pd_skips": state.pd_skips,
        "converged_at": (t if len(state.candidates) == 1 else None),
    })
    return OcmespResult(
        trace=trace,
        final_candidates=[tuple(_bits(m)) for m in state.candidates],
    )
