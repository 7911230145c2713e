"""Simulation environments, regret accounting, and trace serialization.

Each environment owns a counter-based Philox stream keyed by its seed, so a
replication's draws depend only on (seed, episode index) and are reproducible
under any parallel schedule. Draws are consumed sequentially: an anytime
wrapper that runs agents batch by batch sees exactly the same outcome sequence
as a known-horizon agent, which makes cross-agent comparisons paired.

Per-episode simple regret follows the clairvoyant-gap definition: both the
agent and the clairvoyant policy are rolled out on the same realized outcome
vector, and the regret is the difference of their net rewards (reward minus
test costs). It can be negative on a single episode.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .dp import (
    DEFAULT_STATE_CAP,
    Rollout,
    rollout_net_reward,
    rollout_net_rewards,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    instance_hash,
    sample,
    sample_support_indices,
)


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


class DiscreteEnvironment:
    """Serves i.i.d. outcomes from a discrete instance and answers
    clairvoyant-policy queries about it."""

    def __init__(self, instance: ProblemInstance, seed: int):
        if not isinstance(instance.model, DiscreteOutcomeModel):
            raise ValueError("DiscreteEnvironment requires a discrete instance")
        self.instance = instance
        self.instance_hash = instance_hash(instance)
        self.seed = int(seed)
        self._rng = _stream(seed)
        self._clair = None

    def outcome_indices(self, n: int) -> np.ndarray:
        """Next ``n`` support indices from the episode stream."""
        return sample_support_indices(self.instance.model, self._rng, n)

    def clairvoyant(self, state_cap: int = DEFAULT_STATE_CAP):
        """(policy, (tests, decision, order, net)): the clairvoyant policy
        (solved once, under ``state_cap``) and its priced rollout on every
        support point, row k for support point k."""
        if self._clair is None:
            policy, _ = solve_dp_discrete(self.instance, state_cap)
            support = self.instance.model.support
            tests, dec, order, _ = policy.rollouts(support, on_missing="error")
            net = rollout_net_rewards(self.instance, support, order, dec, np.arange(len(support)))
            self._clair = (policy, (tests, dec, order, net))
        return self._clair


class GaussianEnvironment:
    """Serves i.i.d. outcomes from a Gaussian instance."""

    def __init__(self, instance: ProblemInstance, seed: int):
        if not isinstance(instance.model, GaussianOutcomeModel):
            raise ValueError("GaussianEnvironment requires a Gaussian instance")
        self.instance = instance
        self.instance_hash = instance_hash(instance)
        self.seed = int(seed)
        self._rng = _stream(seed)
        self._clair_policy = None

    def outcomes(self, n: int) -> np.ndarray:
        """Next ``n`` outcome vectors, shape (n, d)."""
        return sample(self.instance.model, self._rng, n)

    def clairvoyant_policy(self, quadrature=None, state_cap: int = DEFAULT_STATE_CAP):
        """The clairvoyant tree policy, solved once (under the default
        ``QuadratureSpec`` when ``quadrature`` is None)."""
        if self._clair_policy is None:
            self._clair_policy, _ = solve_dp_gaussian(self.instance, quadrature, state_cap)
        return self._clair_policy


def simple_regret(
    instance: ProblemInstance,
    clairvoyant_policy,
    agent_rollout: Rollout,
    x,
    support_index: Optional[int] = None,
) -> float:
    """Net-reward gap between the clairvoyant rollout and the agent rollout on
    the same realized outcome ``x``."""
    clair = clairvoyant_policy.trace(x, on_missing="error")
    best = rollout_net_reward(instance, x, clair, support_index=support_index)
    got = rollout_net_reward(instance, x, agent_rollout, support_index=support_index)
    return best - got


# ---------------------------------------------------------------------------
# Regret traces
# ---------------------------------------------------------------------------

TRACE_COLUMNS = (
    "episode",
    "phase",
    "tests_performed",
    "decision",
    "realized_reward",
    "clairvoyant_reward",
    "simple_regret",
    "cumulative_regret",
)


@dataclass
class RegretTrace:
    """Per-episode record of one agent run."""

    agent: str
    seed: int
    instance_hash: str
    phase: list
    tests_performed: np.ndarray
    decision: list
    realized_reward: np.ndarray
    clairvoyant_reward: np.ndarray
    extras: dict = field(default_factory=dict)
    # (episodes, d): the realized outcome where the test was performed, NaN
    # elsewhere (outcomes are finite, so NaN marks a hole and nothing else)
    observations: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)
    simple_regret: np.ndarray = field(init=False)
    cumulative_regret: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.episodes
        columns = {
            "phase": self.phase, "tests_performed": self.tests_performed,
            "decision": self.decision, "clairvoyant_reward": self.clairvoyant_reward,
        }
        if self.observations is not None:
            columns["observations"] = self.observations
        for name, col in [*columns.items(), *self.extras.items()]:
            if len(col) != n:
                raise ValueError(f"trace column {name} has length {len(col)}, expected {n}")
        self.simple_regret = self.clairvoyant_reward - self.realized_reward
        self.cumulative_regret = np.cumsum(self.simple_regret)

    @property
    def episodes(self) -> int:
        return len(self.realized_reward)

    @property
    def final_cumulative_regret(self) -> float:
        return float(self.cumulative_regret[-1])


def rollout_trace(
    agent: str,
    env,
    n_explore: int,
    rollout,
    clairvoyant_net: np.ndarray,
    xs: Optional[np.ndarray] = None,
    metadata: Optional[dict] = None,
) -> RegretTrace:
    """Trace of a run on ``env`` whose episode t is row t of ``rollout`` =
    (tests, decision, order, net), the first ``n_explore`` exploring and the
    rest committed. Observations are recorded from ``xs``, the realized
    outcomes, when given (``order`` may be None otherwise)."""
    tests, decision, order, net = rollout
    observations = None
    if xs is not None:  # order's -1 (no test) marks a spare last column
        observed = np.zeros((len(xs), xs.shape[1] + 1), dtype=bool)
        np.put_along_axis(observed, order, True, axis=1)
        observations = np.where(observed[:, :-1], xs, np.nan)
    return RegretTrace(
        agent=agent,
        seed=env.seed,
        instance_hash=env.instance_hash,
        phase=["explore"] * n_explore + ["commit"] * (len(net) - n_explore),
        tests_performed=tests,
        decision=decision_labels(env.instance, decision),
        realized_reward=net,
        clairvoyant_reward=clairvoyant_net,
        observations=observations,
        metadata=metadata or {},
    )


def concatenate_traces(traces: Sequence[RegretTrace]) -> RegretTrace:
    """Stitch batch traces into one run; cumulative regret re-accumulated."""
    first = traces[0]
    return RegretTrace(
        agent=first.agent,
        seed=first.seed,
        instance_hash=first.instance_hash,
        phase=[p for t in traces for p in t.phase],
        tests_performed=np.concatenate([t.tests_performed for t in traces]),
        decision=[d for t in traces for d in t.decision],
        realized_reward=np.concatenate([t.realized_reward for t in traces]),
        clairvoyant_reward=np.concatenate([t.clairvoyant_reward for t in traces]),
        extras={
            k: [v for t in traces for v in t.extras[k]] for k in first.extras
        },
        observations=(
            np.concatenate([t.observations for t in traces])
            if first.observations is not None
            else None
        ),
        metadata={"batches": [t.metadata for t in traces]},
    )


# rows formatted per chunk by every writer, enough that formatting each
# distinct value of a chunk once (``_fmt_column``) repays finding them; the
# rows are joined and written _WRITE_ROWS at a time, so the strings held at
# once are bounded whatever the horizon
_WRITE_CHUNK = 1 << 12
_WRITE_ROWS = 1 << 8


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@contextmanager
def _atomic_open(path):
    """Text file handle whose contents replace ``path`` only once the block
    completes; on any error the temporary file is removed and ``path`` is
    left as it was, so a failed or killed run leaves no half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt_column(col) -> Iterable[str]:
    """``_fmt`` of every entry of ``col``. A numeric array is formatted one
    distinct value at a time, distinct by bit pattern (so -0.0 and 0.0 stay
    apart), and its cells index those labels; when most values are distinct
    its cells are formatted one by one as they are read, so a chunk's strings
    are not all held at once. ``tolist`` yields the Python int/float/bool
    whose repr ``_fmt`` prints."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "biuf"):
        return map(_fmt, col)
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    if 2 * len(bits) > len(col):
        return map(repr, col.tolist())
    labels = np.array(list(map(repr, bits.view(col.dtype).tolist())), dtype=object)
    return labels[inverse].tolist()


def _write_rows(fh, n: int, columns) -> None:
    """Write ``n`` CSV rows, formatted column by column in chunks of
    ``_WRITE_CHUNK`` rows and written ``_WRITE_ROWS`` rows at a time;
    ``columns(a, b)`` returns the formatted cells of rows a..b-1, one iterable
    per column."""
    rows = chain.from_iterable(
        zip(*columns(a, min(n, a + _WRITE_CHUNK))) for a in range(0, n, _WRITE_CHUNK)
    )
    for _ in range(0, n, _WRITE_ROWS):
        fh.write("\n".join(map(",".join, islice(rows, _WRITE_ROWS))) + "\n")


def write_trace_csv(trace: RegretTrace, path) -> None:
    cols = list(TRACE_COLUMNS) + list(trace.extras)
    tests = np.asarray(trace.tests_performed, dtype=np.int64)

    def columns(a, b):
        return [
            map(str, range(a + 1, b + 1)),
            trace.phase[a:b],
            _fmt_column(tests[a:b]),
            trace.decision[a:b],
            _fmt_column(trace.realized_reward[a:b]),
            _fmt_column(trace.clairvoyant_reward[a:b]),
            _fmt_column(trace.simple_regret[a:b]),
            _fmt_column(trace.cumulative_regret[a:b]),
        ] + [_fmt_column(trace.extras[name][a:b]) for name in trace.extras]

    with _atomic_open(path) as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, trace.episodes, columns)


def write_dataset_csv(trace: RegretTrace, d: int, path) -> None:
    """Table-1-shaped artifact: one row per episode, one column per test,
    the literal ``NA`` for entries the agent never observed (the NaN holes
    of ``trace.observations``)."""
    if trace.observations is None:
        raise ValueError("trace was collected without observations")

    def columns(a, b):
        cells = [map(str, range(a + 1, b + 1))]
        for col in trace.observations[a:b].T:
            seen = ~np.isnan(col)
            labels = np.full(b - a, "NA", dtype=object)
            labels[seen] = list(_fmt_column(col[seen]))
            cells.append(labels.tolist())
        return cells

    with _atomic_open(path) as fh:
        fh.write(",".join(["episode"] + [f"test_{i}" for i in range(d)]) + "\n")
        _write_rows(fh, trace.episodes, columns)


def aggregate_cumulative_regret(traces: Sequence[RegretTrace]):
    """Per-episode mean and (population) standard deviation of cumulative
    regret across replications."""
    stacked = np.vstack([t.cumulative_regret for t in traces])
    return stacked.mean(axis=0), stacked.std(axis=0, ddof=0)


def write_aggregate_csv(aggregate, path) -> None:
    """Write the (mean, sd) of ``aggregate_cumulative_regret``, one row per episode."""
    mean, sd = aggregate

    def columns(a, b):
        return [map(str, range(a + 1, b + 1)), _fmt_column(mean[a:b]), _fmt_column(sd[a:b])]

    with _atomic_open(path) as fh:
        fh.write("episode,mean_cumulative_regret,sd_cumulative_regret\n")
        _write_rows(fh, len(mean), columns)


def decision_labels(instance: ProblemInstance, idx) -> list:
    """Trace label of each decision index in ``idx``; each decision that
    occurs is formatted once, and the cells gather those labels."""
    idx = np.asarray(idx, dtype=np.intp)
    labels = np.empty(len(instance.decisions), dtype=object)
    for j in np.flatnonzero(np.bincount(idx, minlength=len(labels))).tolist():
        y = instance.decisions[j]
        labels[j] = "|".join(_fmt(v) for v in y) if isinstance(y, tuple) else _fmt(y)
    return labels[idx].tolist()


def subset_label(indices) -> str:
    return "|".join(str(i) for i in indices)
