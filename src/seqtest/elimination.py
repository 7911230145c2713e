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
subsets (realized entropy is not observable episode by episode).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dp import _bits
from .envs import GaussianEnvironment, RegretTrace, subset_label
from .models import GaussianOutcomeModel, InstanceError, instance_hash

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


class NotPositiveDefiniteError(ValueError):
    """A subset's covariance block is not positive definite."""

    def __init__(self, subset):
        self.subset = tuple(subset)
        super().__init__(f"covariance block for subset {self.subset} is not positive definite")


@dataclass(frozen=True)
class OcmespConfig:
    """Inputs of the elimination agent: the condition-number bound sigma, the
    dimension, the failure probability delta, the information weight lambda,
    per-test costs, the Bernstein constant, and the horizon."""

    sigma: float
    d: int
    delta: float
    lam: float
    costs: np.ndarray
    horizon: int
    bernstein_c: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lambda must be positive")
        if not self.bernstein_c > 0.0:
            raise ValueError("bernstein_c must be positive")
        if self.sigma < 1.0:
            raise ValueError("sigma is a condition-number bound, so sigma >= 1")
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
    cardinality: Optional[int] = None,
) -> tuple:
    """Exhaustive maximizer of the entropy objective over all subsets (or over
    the given-cardinality slice). Ties go to the lexicographically smallest
    subset. Capped at d <= 20."""
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    d = sigma_matrix.shape[0]
    if d > 20:
        raise ValueError(f"exhaustive search is capped at d <= 20, got d={d}")
    best_val = None
    best_subset = None
    for m in range(d + 1):
        if cardinality is not None and m != cardinality:
            continue
        for s in itertools.combinations(range(d), m):
            val = entropy_objective(s, sigma_matrix, lam, costs)
            if best_val is None or val > best_val or (val == best_val and s < best_subset):
                best_val, best_subset = val, s
    return best_subset


# ---------------------------------------------------------------------------
# Candidate-set state
# ---------------------------------------------------------------------------


@dataclass
class CandidateSet:
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
    def initial(cls, d: int) -> "CandidateSet":
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
    keep = values > threshold
    survivors = [mask for mask, k in zip(state.candidates, keep) if k]
    dropped = len(state.candidates) - len(survivors)
    if dropped:
        state.candidates = survivors
        state.eliminated_total += dropped
        state.refresh_pairs()
        state._refresh_groups()
    return state


@dataclass
class OcmespResult:
    trace: RegretTrace
    final_candidates: list  # subset index tuples
    state: CandidateSet


def run_ocmesp(
    env: GaussianEnvironment,
    config: OcmespConfig,
    collect_observations: bool = False,
) -> OcmespResult:
    """Iterative elimination to the horizon; once a single candidate survives
    it is played for every remaining episode (exploration stops)."""
    instance = env.instance
    if not isinstance(instance.model, GaussianOutcomeModel):
        raise InstanceError("run_ocmesp requires a Gaussian instance")
    true_sigma = instance.model.covariance
    true_obj = {}
    for m in range(config.d + 1):
        for s in itertools.combinations(range(config.d), m):
            true_obj[s] = entropy_objective(s, true_sigma, config.lam, config.costs)
    optimal_subset = solve_mesp_offline(true_sigma, config.lam, config.costs)
    optimal_value = true_obj[optimal_subset]

    T = config.horizon
    xs = env.outcomes(T)
    state = CandidateSet.initial(config.d)

    phase, decisions, subset_col, pair_col = [], [], [], []
    n_candidates = np.empty(T, dtype=int)
    u_col = np.empty(T)
    elim_col = np.empty(T, dtype=int)
    tests_performed = np.empty(T, dtype=int)
    realized = np.empty(T)
    observations = [] if collect_observations else None

    t = 0
    while t < T and len(state.candidates) > 1:
        pair, subset_mask = select_next_subset(state)
        update_estimates(state, subset_mask, xs[t], t + 1)
        before = state.eliminated_total
        eliminate(state, t + 1, config)
        bits = tuple(_bits(subset_mask))
        realized[t] = true_obj[bits]
        tests_performed[t] = len(bits)
        phase.append("explore")
        decisions.append("")
        subset_col.append(subset_label(bits))
        pair_col.append(f"{pair[0]}|{pair[1]}")
        n_candidates[t] = len(state.candidates)
        u_col[t] = confidence_width(t + 1, config)
        elim_col[t] = state.eliminated_total - before
        if observations is not None:
            observations.append({i: float(xs[t, i]) for i in bits})
        t += 1

    if t < T:
        survivor = tuple(_bits(state.candidates[0]))
        label = subset_label(survivor)
        value = true_obj[survivor]
        for u in range(t, T):
            realized[u] = value
            tests_performed[u] = len(survivor)
            phase.append("commit")
            decisions.append("")
            subset_col.append(label)
            pair_col.append("")
            n_candidates[u] = 1
            u_col[u] = confidence_width(u + 1, config)
            elim_col[u] = 0
            if observations is not None:
                observations.append({i: float(xs[u, i]) for i in survivor})

    trace = RegretTrace(
        agent="ocmesp",
        seed=env.seed,
        instance_hash=instance_hash(instance),
        phase=phase,
        tests_performed=tests_performed,
        decision=decisions,
        realized_reward=realized,
        clairvoyant_reward=np.full(T, optimal_value),
        extras={
            "pair_chosen": pair_col,
            "subset_played": subset_col,
            "n_candidates": list(n_candidates),
            "U_t": list(u_col),
            "eliminated_count": list(elim_col),
        },
        observations=observations,
        metadata={
            "optimal_subset": list(optimal_subset),
            "pd_skips": state.pd_skips,
            "converged_at": (t if len(state.candidates) == 1 else None),
        },
    )
    return OcmespResult(
        trace=trace,
        final_candidates=[tuple(_bits(m)) for m in state.candidates],
        state=state,
    )
