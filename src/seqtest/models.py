"""Outcome distributions, partially observed test states, and exact conditioning.

A subject's hidden outcome vector lives in R^d; a :class:`TestState` records
which coordinates have been revealed so far (``None`` = not yet tested).
Outcome distributions are either finite-support (:class:`DiscreteOutcomeModel`)
or multivariate Gaussian (:class:`GaussianOutcomeModel`), and conditioning on a
partially observed state is exact in both cases: support filtering plus
renormalization for the discrete model, Schur-complement formulas for the
Gaussian one.

Discrete consistency checks use exact float equality on purpose: support
values are canonical constants (loaded from an instance file or sampled from
the support rows themselves), so tolerance-based matching could only leak
probability mass.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np


class InstanceError(ValueError):
    """An instance, model, or instance file violates its invariants."""


class ParameterError(ValueError):
    """A parameter outside its domain; ``args`` are its name, as the raising
    config calls it, and the rule it breaks."""

    def __str__(self) -> str:
        return " ".join(self.args)


class ImpossibleStateError(ValueError):
    """A state has zero probability mass under the model (observation
    outside the model's support)."""


class IllConditionedError(ValueError):
    """The observed block of the covariance is numerically singular."""


# condition-number threshold above which posterior conditioning refuses to
# invert the observed block (silent regularization would corrupt entropies)
SINGULARITY_CONDITION_CAP = 1e12


# ---------------------------------------------------------------------------
# Test states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestState:
    """Partially observed outcome vector: ``entries`` holds one slot per
    test, ``None`` where the test has not been performed."""

    __test__ = False  # despite the name, not a pytest class

    entries: tuple

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InstanceError("a state needs at least one test slot")
        norm = tuple(None if e is None else float(e) for e in self.entries)
        object.__setattr__(self, "entries", norm)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    @property
    def observed_indices(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is not None)

    @property
    def missing_indices(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e is None)


def initial_state(d: int) -> TestState:
    """All-missing state of dimension ``d`` (a fresh subject)."""
    return TestState(entries=(None,) * d)


def consistent(x: Sequence[float], s: TestState) -> bool:
    """True iff ``x`` matches ``s`` on every observed entry (exact equality)."""
    if len(x) != s.dimension:
        raise ValueError(f"dimension mismatch: len(x)={len(x)}, d={s.dimension}")
    for i, e in enumerate(s.entries):
        if e is not None and float(x[i]) != e:
            return False
    return True


def apply_observation(s: TestState, test: int, value: float) -> TestState:
    """Return ``s`` with entry ``test`` set to ``value`` (s itself unchanged)."""
    if not 0 <= test < s.dimension:
        raise IndexError(f"test index {test} out of range for d={s.dimension}")
    if s.entries[test] is not None:
        raise ValueError(f"test {test} already observed; re-observation forbidden")
    entries = list(s.entries)
    entries[test] = float(value)
    return TestState(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Outcome models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteOutcomeModel:
    """Finite-support joint distribution over outcome vectors.

    ``support`` is (K, d) with pairwise-distinct rows; ``probs`` is (K,),
    nonnegative, and sums to 1 within 1e-12.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.array(self.support, dtype=float)
        probs = np.array(self.probs, dtype=float)
        if support.ndim != 2 or support.shape[0] < 1 or support.shape[1] < 1:
            raise InstanceError("support must be a nonempty (K, d) array")
        if probs.shape != (support.shape[0],):
            raise InstanceError("probs length must equal the number of support points")
        if not np.all(np.isfinite(support)) or not np.all(np.isfinite(probs)):
            raise InstanceError("support and probs must be finite")
        if np.any(probs < 0):
            raise InstanceError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise InstanceError(f"probabilities sum to {probs.sum()!r}, not 1 within 1e-12")
        if len({tuple(row) for row in support}) != support.shape[0]:
            raise InstanceError("support vectors must be pairwise distinct")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        return self.support.shape[1]

    @property
    def support_size(self) -> int:
        return self.support.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianOutcomeModel:
    """Multivariate Gaussian outcome distribution.

    ``condition_number`` is lambda_max/lambda_min of the covariance; computed
    when omitted, validated within 1e-8 (relative) when supplied. A
    0-dimensional model (empty mean/covariance) is the degenerate result of
    conditioning on every coordinate; callers must branch on ``d``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    condition_number: Optional[float] = None

    def __post_init__(self):
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        cov = np.array(self.covariance, dtype=float)
        d = mean.shape[0]
        if d == 0:
            cov = cov.reshape(0, 0)
            object.__setattr__(self, "mean", mean)
            object.__setattr__(self, "covariance", cov)
            object.__setattr__(self, "condition_number", 1.0)
            return
        if cov.shape != (d, d):
            raise InstanceError(f"covariance must be ({d}, {d}), got {cov.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise InstanceError("mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise InstanceError("covariance must be symmetric within 1e-10")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals[0] <= 0.0:
            raise InstanceError(f"covariance must be positive definite (min eigenvalue {eigvals[0]!r})")
        with np.errstate(over="ignore"):  # a tiny lambda_min gives inf, refused by callers that cap it
            ratio = float(eigvals[-1] / eigvals[0])
        if self.condition_number is None:
            cond = ratio
        else:
            cond = float(self.condition_number)
            if cond < 1.0 or abs(cond - ratio) > 1e-8 * max(1.0, ratio):
                raise InstanceError(
                    f"condition_number {cond!r} does not match lambda_max/lambda_min {ratio!r}"
                )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "condition_number", cond)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


OutcomeModel = Union[DiscreteOutcomeModel, GaussianOutcomeModel]


# ---------------------------------------------------------------------------
# Reward specifications and problem instances
# ---------------------------------------------------------------------------

REWARD_KINDS = ("table", "indicator-match", "entropy", "quadratic")


@dataclass(frozen=True, eq=False)
class RewardSpec:
    """Decision-reward specification.

    kind
      * ``"table"``        explicit (K, |Y|) matrix keyed by support index and
                           decision index (discrete models only);
      * ``"indicator-match"`` f(x, y) = 1 iff y equals x coordinate-wise;
      * ``"quadratic"``    f(x, y) = -||x - y||^2 (``neg_sq_dist``) with vector
                           decisions (closed-form Gaussian expectations);
      * ``"entropy"``      subset-entropy objective with weight ``lam``
                           (OCMESP; not a pointwise reward).
    """

    kind: str
    table: Optional[np.ndarray] = None
    lam: Optional[float] = None

    def __post_init__(self):
        if self.kind not in REWARD_KINDS:
            raise InstanceError(f"unknown reward kind {self.kind!r}")
        if self.kind == "table":
            if self.table is None:
                raise InstanceError("table reward requires a table")
            table = np.array(self.table, dtype=float)
            if table.ndim != 2:
                raise InstanceError("reward table must be 2-dimensional")
            if not np.all(np.isfinite(table)):
                raise InstanceError("reward table must be bounded (finite entries)")
            table.setflags(write=False)
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise InstanceError(f"reward kind {self.kind!r} takes no table")
        if self.kind == "entropy":
            if self.lam is None or not (float(self.lam) > 0.0):
                raise InstanceError("entropy reward requires lambda > 0")
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise InstanceError(f"reward kind {self.kind!r} takes no lambda")


def neg_sq_dist(x, y) -> np.ndarray:
    """-||x - y||^2 over the last axis, with broadcasting. The squares are
    added in ascending coordinate order, so no entry's bits depend on the batch
    shape or on the machine's BLAS, as a dot product's or matmul's would."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    diff = x[..., 0] - y[..., 0]
    total = diff * diff
    for i in range(1, x.shape[-1]):
        diff = x[..., i] - y[..., i]
        total += diff * diff
    return -total


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """An outcome model plus per-test costs, a decision set, and a reward."""

    model: OutcomeModel
    costs: np.ndarray
    decisions: tuple
    reward: RewardSpec

    def __post_init__(self):
        if self.model.d < 1:
            raise InstanceError(f"an instance needs at least one test, got d={self.model.d}")
        costs = np.array(self.costs, dtype=float)
        if costs.shape != (self.model.d,):
            raise InstanceError(f"costs must have length d={self.model.d}")
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise InstanceError("costs must be finite and nonnegative")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        decisions = tuple(
            tuple(float(v) for v in y) if isinstance(y, (list, tuple, np.ndarray)) else y
            for y in self.decisions
        )
        object.__setattr__(self, "decisions", decisions)
        if self.reward.kind == "entropy":
            if not isinstance(self.model, GaussianOutcomeModel):
                raise InstanceError("entropy rewards require a Gaussian model")
            if decisions:
                raise InstanceError("entropy-reward instances take an empty decision set")
        else:
            if not decisions:
                raise InstanceError("at least one decision is required")
        if self.reward.kind == "table":
            if not isinstance(self.model, DiscreteOutcomeModel):
                raise InstanceError("table rewards require a discrete model")
            if self.reward.table.shape != (self.model.support_size, len(decisions)):
                raise InstanceError(
                    f"reward table must be (K, |Y|) = "
                    f"({self.model.support_size}, {len(decisions)})"
                )
        if self.reward.kind in ("indicator-match", "quadratic"):
            for y in decisions:
                if not isinstance(y, tuple) or len(y) != self.model.d:
                    raise InstanceError(
                        f"{self.reward.kind} decisions must be length-d vectors"
                    )

    @property
    def d(self) -> int:
        return self.model.d

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.model, DiscreteOutcomeModel)


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def consistent_support_indices(model: DiscreteOutcomeModel, s: TestState) -> np.ndarray:
    """Indices of support points consistent with ``s``, ascending."""
    if s.dimension != model.d:
        raise ValueError(f"state dimension {s.dimension} != model dimension {model.d}")
    mask = np.ones(model.support_size, dtype=bool)
    for i, e in enumerate(s.entries):
        if e is not None:
            mask &= model.support[:, i] == e
    return np.flatnonzero(mask)


def posterior_discrete(model: DiscreteOutcomeModel, s: TestState) -> DiscreteOutcomeModel:
    """Support restricted to points consistent with ``s``, renormalized."""
    idx = consistent_support_indices(model, s)
    mass = float(model.probs[idx].sum())
    if idx.size == 0 or mass <= 0.0:
        raise ImpossibleStateError("no support point is consistent with the state")
    return DiscreteOutcomeModel(support=model.support[idx], probs=model.probs[idx] / mass)


def gaussian_conditioning(cov: np.ndarray, obs: Sequence[int], miss: Sequence[int]):
    """Schur-complement conditioning of a Gaussian with covariance ``cov`` on
    the entries ``obs`` (both ``obs`` and ``miss`` nonempty).

    Returns the gain G = Sigma_ab Sigma_bb^-1 (|miss|, |obs|) and the
    symmetrized conditional covariance Sigma_aa - G Sigma_ba. Neither depends
    on the observed values; ``conditional_means`` applies G to them. Refuses
    (rather than regularizes) a numerically singular observed block."""
    sigma_bb = cov[np.ix_(obs, obs)]
    if np.linalg.cond(sigma_bb) > SINGULARITY_CONDITION_CAP:
        raise IllConditionedError(
            "observed block is numerically singular (condition > 1e12)"
        )
    sigma_ab = cov[np.ix_(miss, obs)]
    gain = np.linalg.solve(sigma_bb, sigma_ab.T).T
    cond_cov = cov[np.ix_(miss, miss)] - gain @ sigma_ab.T
    return gain, (cond_cov + cond_cov.T) / 2.0


def conditional_means(mean: np.ndarray, obs, miss, gain: np.ndarray, values: np.ndarray):
    """mean[miss] + (values - mean[obs]) G^T for ``values`` (n, |obs|), given the
    gain G of ``gaussian_conditioning``. The product is accumulated over the
    observed entries in ascending order, so each row's bits do not depend on n
    (a BLAS matmul's do: it switches kernels with the batch shape)."""
    centred = values - mean[obs]
    acc = centred[:, :1] * gain[:, 0]
    for j in range(1, len(obs)):
        acc += centred[:, j : j + 1] * gain[:, j]
    return mean[miss] + acc


def posterior_gaussian(model: GaussianOutcomeModel, s: TestState) -> GaussianOutcomeModel:
    """Gaussian over the unobserved indices given the observed entries.

    Uses the Schur-complement conditional mean and covariance. With nothing
    observed the model itself is returned; with everything observed the result
    is the degenerate 0-dimensional model.
    """
    if s.dimension != model.d:
        raise ValueError(f"state dimension {s.dimension} != model dimension {model.d}")
    obs = list(s.observed_indices)
    if not obs:
        return model
    miss = list(s.missing_indices)
    if not miss:
        return GaussianOutcomeModel(mean=np.empty(0), covariance=np.empty((0, 0)))
    gain, cond_cov = gaussian_conditioning(model.covariance, obs, miss)
    values = np.array([[s.entries[i] for i in obs]], dtype=float)
    mean = conditional_means(model.mean, obs, miss, gain, values)[0]
    return GaussianOutcomeModel(mean=mean, covariance=cond_cov)


@dataclass(frozen=True)
class ScalarPmf:
    """1-d discrete marginal: distinct values ascending with their masses."""

    values: tuple
    probs: tuple


@dataclass(frozen=True)
class ScalarGaussian:
    """1-d Gaussian marginal."""

    mean: float
    variance: float


def marginal_over_test(model: OutcomeModel, s: TestState, test: int):
    """Distribution of coordinate ``test`` under the posterior given ``s``."""
    if s.entries[test] is not None:
        raise ValueError(f"test {test} is already observed")
    if isinstance(model, DiscreteOutcomeModel):
        post = posterior_discrete(model, s)
        agg: dict = {}
        for k in range(post.support_size):
            v = float(post.support[k, test])
            agg[v] = agg.get(v, 0.0) + float(post.probs[k])
        values = tuple(sorted(agg))
        return ScalarPmf(values=values, probs=tuple(agg[v] for v in values))
    post = posterior_gaussian(model, s)
    pos = s.missing_indices.index(test)
    return ScalarGaussian(mean=float(post.mean[pos]), variance=float(post.covariance[pos, pos]))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_support_indices(model: DiscreteOutcomeModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` support indices i.i.d. from the model (inverse CDF)."""
    cum = np.cumsum(model.probs)
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(idx, model.support_size - 1)


def sample(model: OutcomeModel, rng: np.random.Generator, size: Optional[int] = None):
    """One outcome draw (or ``size`` stacked draws), deterministic given the
    generator state. A Gaussian draw is mean + L z, the product summed over
    z's columns in ascending order (as ``conditional_means`` does), so no row
    depends on the batch shape as a matmul's would."""
    n = 1 if size is None else int(size)
    if isinstance(model, DiscreteOutcomeModel):
        out = model.support[sample_support_indices(model, rng, n)]
    else:
        chol = np.linalg.cholesky(model.covariance)
        z = rng.standard_normal((n, model.d))
        out = z[:, :1] * chol[:, 0]
        for k in range(1, model.d):
            out += z[:, k : k + 1] * chol[:, k]
        out += model.mean
    return out[0] if size is None else out


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "discrete": {"type", "d", "support", "probs", "costs", "decisions", "reward"},
    "gaussian": {"type", "d", "mean", "cov", "costs", "decisions", "reward"},
}
_REWARD_KEYS = {
    "table": {"kind", "table"},
    "indicator-match": {"kind"},
    "quadratic": {"kind"},
    "entropy": {"kind", "lambda"},
}


def _reward_from_dict(obj: dict) -> RewardSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InstanceError("reward must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind not in _REWARD_KEYS:
        raise InstanceError(f"unknown reward kind {kind!r}")
    extra = set(obj) - _REWARD_KEYS[kind]
    if extra:
        raise InstanceError(f"unknown reward keys {sorted(extra)} for kind {kind!r}")
    missing = _REWARD_KEYS[kind] - set(obj)
    if missing:
        raise InstanceError(f"reward kind {kind!r} requires keys {sorted(missing)}")
    if kind == "table":
        return RewardSpec(kind="table", table=np.array(obj["table"], dtype=float))
    if kind == "entropy":
        return RewardSpec(kind="entropy", lam=float(obj["lambda"]))
    return RewardSpec(kind=kind)


def instance_from_dict(obj: dict) -> ProblemInstance:
    """Parse and validate the JSON instance format. Unknown keys rejected."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InstanceError("instance must be an object with a 'type' key")
    kind = obj["type"]
    if kind not in _TOP_KEYS:
        raise InstanceError(f"unknown instance type {kind!r}")
    extra = set(obj) - _TOP_KEYS[kind]
    if extra:
        raise InstanceError(f"unknown instance keys: {sorted(extra)}")
    missing = _TOP_KEYS[kind] - set(obj)
    if missing:
        raise InstanceError(f"missing instance keys: {sorted(missing)}")
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, int):
        raise InstanceError(f"d must be an integer, got {d!r}")
    if kind == "discrete":
        probs = np.array(obj["probs"], dtype=float)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise InstanceError(f"probabilities sum to {total!r}, not 1 within 1e-9")
        model: OutcomeModel = DiscreteOutcomeModel(
            support=np.array(obj["support"], dtype=float), probs=probs / total
        )
    else:
        model = GaussianOutcomeModel(
            mean=np.array(obj["mean"], dtype=float),
            covariance=np.array(obj["cov"], dtype=float),
        )
    if model.d != d:
        raise InstanceError(f"declared d={d} does not match the model dimension {model.d}")
    return ProblemInstance(
        model=model,
        costs=np.array(obj["costs"], dtype=float),
        decisions=tuple(obj["decisions"]),
        reward=_reward_from_dict(obj["reward"]),
    )


def instance_to_dict(instance: ProblemInstance) -> dict:
    reward: dict = {"kind": instance.reward.kind}
    if instance.reward.kind == "table":
        reward["table"] = instance.reward.table.tolist()
    elif instance.reward.kind == "entropy":
        reward["lambda"] = instance.reward.lam
    out = {
        "type": "discrete" if instance.is_discrete else "gaussian",
        "d": instance.d,
        "costs": instance.costs.tolist(),
        "decisions": [list(y) if isinstance(y, tuple) else y for y in instance.decisions],
        "reward": reward,
    }
    if instance.is_discrete:
        out.update(support=instance.model.support.tolist(), probs=instance.model.probs.tolist())
    else:
        out.update(mean=instance.model.mean.tolist(), cov=instance.model.covariance.tolist())
    return out


def load_instance(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"invalid JSON in {path}: {exc}") from exc
    return instance_from_dict(obj)


@contextmanager
def _atomic_open(path):
    """Text file handle whose contents replace ``path`` only once the block
    completes; on any error the temporary file is removed and ``path`` is
    left as it was, so a failed or killed command leaves no half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_instance(instance: ProblemInstance, path) -> None:
    with _atomic_open(path) as fh:
        json.dump(instance_to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def instance_hash(instance: ProblemInstance) -> str:
    """Stable content hash of the canonical instance JSON."""
    blob = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
