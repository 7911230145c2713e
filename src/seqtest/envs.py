"""Simulation environments, regret accounting, and trace serialization.

Each environment owns a counter-based Philox stream keyed by its seed, so a
replication's draws depend only on (seed, episode index) and are reproducible
under any parallel schedule. Draws are consumed sequentially: an anytime
wrapper that runs agents batch by batch sees exactly the same outcome sequence
as a known-horizon agent, which makes cross-agent comparisons paired. An
agent that reads ahead (``_look_ahead``) puts the stream back, so it draws
those episodes again when it plays them.

Per-episode simple regret follows the clairvoyant-gap definition: both the
agent and the clairvoyant policy are rolled out on the same realized outcome
vector, and the regret is the difference of their net rewards (reward minus
test costs). It can be negative on a single episode.

A run hands its trace over in blocks of at most ``_BLOCK`` episodes, to a
``TraceSink`` that either appends each block's rows to the run's open files,
keeping one cumulative regret column of the horizon, or keeps the blocks for
one whole trace. A block's draws are the matching rows of one whole-horizon
draw, and its cumulative regret continues the previous block's sum, so the
bytes written do not depend on the block size.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .dp import (
    DEFAULT_STATE_CAP,
    PolicyUndefinedError,
    _priced_rollouts,
    solve_dp_discrete,
    solve_dp_gaussian,
)
from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ProblemInstance,
    sample,
    sample_support_indices,
)


def _stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


@contextmanager
def _look_ahead(env):
    """Draws from ``env``'s episode stream inside the ``with`` statement are
    taken back at its end, so the episodes they read are drawn again in play."""
    state = env._rng.bit_generator.state
    yield
    env._rng.bit_generator.state = state


class DiscreteEnvironment:
    """Serves i.i.d. outcomes from a discrete instance and answers
    clairvoyant-policy queries about it."""

    def __init__(self, instance: ProblemInstance, seed: int):
        if not isinstance(instance.model, DiscreteOutcomeModel):
            raise ValueError("DiscreteEnvironment requires a discrete instance")
        self.instance = instance
        self.seed = int(seed)
        self._rng = _stream(seed)
        self._clair = None
        self.labels = np.full(len(instance.decisions), None, dtype=object)  # see decision_labels

    def outcome_indices(self, n: int) -> np.ndarray:
        """Next ``n`` support indices from the episode stream."""
        return sample_support_indices(self.instance.model, self._rng, n)

    def clairvoyant(self, state_cap: int = DEFAULT_STATE_CAP):
        """(policy, (tests, decision, order, net, fallback)): the clairvoyant
        policy (solved once, under ``state_cap``) and its priced rollout on
        every support point, row k for support point k."""
        if self._clair is None:
            policy, _ = solve_dp_discrete(self.instance, state_cap)
            support = self.instance.model.support
            table = _priced_rollouts(self.instance, policy, support, np.arange(len(support)))
            if table[4].any():
                raise PolicyUndefinedError("the clairvoyant policy fell back on its own support")
            self._clair = (policy, table)
        return self._clair


class GaussianEnvironment:
    """Serves i.i.d. outcomes from a Gaussian instance."""

    def __init__(self, instance: ProblemInstance, seed: int):
        if not isinstance(instance.model, GaussianOutcomeModel):
            raise ValueError("GaussianEnvironment requires a Gaussian instance")
        self.instance = instance
        self.seed = int(seed)
        self._rng = _stream(seed)
        self._clair_policy = None
        self.labels = np.full(len(instance.decisions), None, dtype=object)  # see decision_labels

    def outcomes(self, n: int) -> np.ndarray:
        """Next ``n`` outcome vectors, shape (n, d)."""
        return sample(self.instance.model, self._rng, n)

    def clairvoyant_policy(self, quadrature=None, state_cap: int = DEFAULT_STATE_CAP):
        """The clairvoyant tree policy, solved once (under the default
        ``QuadratureSpec`` when ``quadrature`` is None)."""
        if self._clair_policy is None:
            self._clair_policy, _ = solve_dp_gaussian(self.instance, quadrature, state_cap)
        return self._clair_policy


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
    # per episode of one block, or None: rows of equal key are equal in every
    # column but the cumulative regret, so the writers format each key's once
    row_key: Optional[np.ndarray] = None
    simple_regret: np.ndarray = field(init=False)
    cumulative_regret: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.episodes
        columns = {
            "phase": self.phase, "tests_performed": self.tests_performed,
            "decision": self.decision, "clairvoyant_reward": self.clairvoyant_reward,
        }
        for name in ("observations", "row_key"):
            if getattr(self, name) is not None:
                columns[name] = getattr(self, name)
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
    env,
    n_explore: int,
    rollout,
    clairvoyant_net: np.ndarray,
    xs: Optional[np.ndarray] = None,
    row_key: Optional[np.ndarray] = None,
) -> RegretTrace:
    """Trace of episodes on ``env`` whose episode t is row t of ``rollout`` =
    (tests, decision, order, net), the first ``n_explore`` exploring and the
    rest committed. Observations are recorded from ``xs``, the realized
    outcomes, when given (``order`` may be None otherwise). ``row_key`` is
    the trace's ``RegretTrace.row_key``."""
    tests, decision, order, net = rollout
    observations = None
    if xs is not None:  # order's -1 (no test) marks a spare last column
        observed = np.zeros((len(xs), xs.shape[1] + 1), dtype=bool)
        np.put_along_axis(observed, order, True, axis=1)
        observations = np.where(observed[:, :-1], xs, np.nan)
    return RegretTrace(
        phase=["explore"] * n_explore + ["commit"] * (len(net) - n_explore),
        tests_performed=tests,
        decision=decision_labels(env.instance, decision, env.labels),
        realized_reward=net,
        clairvoyant_reward=clairvoyant_net,
        observations=observations,
        row_key=row_key,
    )


def _joined(columns: list):
    """One column from consecutive parts: arrays concatenated, lists chained."""
    if isinstance(columns[0], np.ndarray):
        return np.concatenate(columns)
    return [v for col in columns for v in col]


def concatenate_traces(traces: Sequence[RegretTrace]) -> RegretTrace:
    """Stitch consecutive traces into one run; cumulative regret re-accumulated.
    Row keys are dropped: each block's keys are its own."""
    first = traces[0]
    return RegretTrace(
        **{
            name: _joined([getattr(t, name) for t in traces])
            for name in ("phase", "tests_performed", "decision", "realized_reward",
                         "clairvoyant_reward")
        },
        extras={name: _joined([t.extras[name] for t in traces]) for name in first.extras},
        observations=(
            None if first.observations is None
            else np.concatenate([t.observations for t in traces])
        ),
    )


# episodes an agent holds at once: it draws, rolls out, prices and hands over
# its horizon in blocks of this many
_BLOCK = 1 << 16


def episode_blocks(horizon: int):
    """(start, stop) of each block of a horizon, in order."""
    return [(a, min(a + _BLOCK, horizon)) for a in range(0, horizon, _BLOCK)]


class StreamedTrace:
    """What a run keeps of a trace whose rows went to its files: the
    metadata, and the cumulative regret column the aggregate reads."""

    def __init__(self, metadata: dict, cumulative_regret: np.ndarray):
        self.metadata, self.cumulative_regret = metadata, cumulative_regret


class TraceSink:
    """A run's trace, handed over in blocks of consecutive episodes.

    Given the run's open trace (and dataset) files and its horizon, the sink
    appends each block's rows to them and keeps only the run's cumulative
    regret, one column of ``horizon`` episodes that each block continues as
    one sequential sum. Without files it keeps the blocks, and ``finish``
    joins them into one whole trace.
    """

    def __init__(self, trace_fh=None, dataset_fh=None, horizon: int = 0):
        self.trace_fh, self.dataset_fh = trace_fh, dataset_fh
        self.blocks = []  # kept without files; the joined trace re-accumulates
        self.cumulative = np.empty(horizon)  # the written episodes' cumulative regret
        self.episodes = 0

    def add(self, block: RegretTrace) -> None:
        if self.trace_fh is None:
            self.blocks.append(block)
            return
        a, b = self.episodes, self.episodes + block.episodes
        self.cumulative[a:b] = block.simple_regret
        # summed on from the previous episode's value (cumsum(block) + carry
        # would re-associate); the first block has none, so -0.0 keeps its sign
        column = self.cumulative[max(a - 1, 0) : b]
        np.cumsum(column, out=column)
        block.cumulative_regret = self.cumulative[a:b]
        write_trace_rows(self.trace_fh, block, self.episodes)
        if self.dataset_fh is not None:
            write_dataset_rows(self.dataset_fh, block, self.episodes)
        self.episodes += block.episodes

    def finish(self, metadata: dict):
        """The run's trace: whole, or a ``StreamedTrace`` once its rows are
        in files."""
        if self.trace_fh is not None:
            return StreamedTrace(metadata, self.cumulative)
        trace = self.blocks[0] if len(self.blocks) == 1 else concatenate_traces(self.blocks)
        trace.metadata = metadata
        return trace


# rows formatted and written at a time by every writer, enough that
# formatting each run or distinct value of a chunk once (``_fmt_column``)
# repays finding them, and few enough that the strings held at once stay small
_WRITE_CHUNK = 1 << 12


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fmt_column(col, end: str) -> list:
    """``_fmt`` of every entry of ``col``, each followed by ``end``. A numeric
    array is formatted one distinct value at a time, distinct by bit pattern
    (so -0.0 and 0.0 stay apart), found among the first values of its runs
    of equal values (a cumulative sum's come in long runs), and its cells
    gather those labels; when most of its values are distinct, each is
    formatted alone. ``tolist`` yields the Python int/float/bool whose repr
    ``_fmt`` prints."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "biuf"):  # str cells print as is
        return [v + end if type(v) is str else _fmt(v) + end for v in col]
    bits = col.view(f"u{col.itemsize}")
    # the first cell of each run (none in an empty column)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))[: len(col)]
    distinct, inverse = np.unique(bits[starts], return_inverse=True)
    if 2 * len(distinct) > len(col):
        return [repr(v) + end for v in col.tolist()]
    labels = np.array([repr(v) + end for v in distinct.view(col.dtype).tolist()], dtype=object)
    return np.repeat(labels[inverse], np.diff(starts, append=len(col))).tolist()


# an episode number's cells: below 1,000 looked up whole, from 1,000 on the
# digits of e // 1000 and the cell of its last three
_EPISODES = [f"{e}," for e in range(1000)]
_EPISODE_ENDS = [f"{e:03d}," for e in range(1000)]


def _episode_cells(a: int, b: int) -> tuple:
    """Two columns whose cells, joined, print each episode number a..b-1 as
    ``str(e)`` does, with its ``,``: the digits of e // 1000 (none below
    1,000), and the rest."""
    ends = _EPISODES[a:b]
    heads = [""] * len(ends)
    for high in range(max(a, 1000) // 1000, (b + 999) // 1000):
        base = 1000 * high
        low = _EPISODE_ENDS[max(a - base, 0) : b - base]
        heads += [str(high)] * len(low)
        ends += low
    return heads, ends


def _ends(n: int) -> list:
    """The separator after each of a row's last ``n`` cells."""
    return [","] * (n - 1) + ["\n"]


def _pick(col, rows):
    """``col``'s entries at the slice or index array ``rows``, of a list too."""
    if isinstance(rows, slice) or isinstance(col, np.ndarray):
        return col[rows]
    return [col[i] for i in rows.tolist()]


def _write_rows(fh, first: int, n: int, columns, key=None, tail=None) -> None:
    """Write ``n`` CSV rows as episodes first+1, first+2, ..., in chunks of
    ``_WRITE_CHUNK`` rows. After its episode a row holds the cells that
    ``columns(rows)`` formats for it, then those of ``tail(rows)``; each cell
    carries its trailing ``,`` or newline, so a chunk is one flat join. The
    rows are selected by a slice; with a ``key`` (one int >= 0 per row, rows
    of equal key equal in every column of ``columns``), ``columns`` formats
    one row of each key (an index array) once, and every row gathers its
    key's text."""
    if key is not None:
        row_of = np.full(int(key.max(initial=-1)) + 1, -1)
        row_of[key] = np.arange(len(key))  # whichever row of a key lands, its cells are the key's
        keys = np.flatnonzero(row_of >= 0)
        texts = np.empty(len(row_of), dtype=object)
        texts[keys] = list(map("".join, zip(*columns(row_of[keys]))))
        columns = lambda rows: [texts[key[rows]].tolist()]
    for a in range(0, n, _WRITE_CHUNK):
        rows = slice(a, min(n, a + _WRITE_CHUNK))
        cells = [*_episode_cells(first + a + 1, first + rows.stop + 1), *columns(rows)]
        if tail is not None:
            cells += tail(rows)
        fh.write("".join(chain.from_iterable(zip(*cells))))


def write_trace_rows(fh, trace: RegretTrace, first: int) -> None:
    """Write the rows of ``trace`` as episodes first+1, first+2, ...; the
    header too when ``first`` is 0. Rows of equal ``row_key`` share the text
    of every column but the cumulative regret (and the extras)."""
    if first == 0:
        fh.write(",".join(list(TRACE_COLUMNS) + list(trace.extras)) + "\n")
    tests = np.asarray(trace.tests_performed, dtype=np.int64)
    keyed = (trace.phase, tests, trace.decision, trace.realized_reward,
             trace.clairvoyant_reward, trace.simple_regret)
    tail = (trace.cumulative_regret, *trace.extras.values())

    def columns(rows):
        return [_fmt_column(_pick(col, rows), ",") for col in keyed]

    def tail_columns(rows):
        return [_fmt_column(col[rows], end) for col, end in zip(tail, _ends(len(tail)))]

    _write_rows(fh, first, trace.episodes, columns, trace.row_key, tail_columns)


def write_dataset_rows(fh, trace: RegretTrace, first: int) -> None:
    """Write the dataset rows of ``trace`` as episodes first+1, first+2, ...;
    the header too when ``first`` is 0. A row holds one cell per test, the
    literal ``NA`` where the episode did not observe it (a NaN hole of
    ``trace.observations``). Rows of equal ``row_key`` share the text of
    every test's cell."""
    if trace.observations is None:
        raise ValueError("trace was collected without observations")
    if first == 0:
        d = trace.observations.shape[1]
        fh.write(",".join(["episode"] + [f"test_{i}" for i in range(d)]) + "\n")

    def columns(rows):
        obs = trace.observations[rows]
        cells = []
        for col, end in zip(obs.T, _ends(obs.shape[1])):
            seen = ~np.isnan(col)
            labels = np.full(len(col), "NA" + end, dtype=object)
            labels[seen] = _fmt_column(col[seen], end)
            cells.append(labels.tolist())
        return cells

    _write_rows(fh, first, trace.episodes, columns, trace.row_key)


def aggregate_cumulative_regret(traces: Sequence[RegretTrace], start: int = 0, stop=None):
    """Per-episode mean and (population) standard deviation of cumulative
    regret across replications, of episodes start+1..stop. Each is summed
    over the replications in order, as numpy reduces a stacked matrix of
    more than one column (a single column it sums pairwise), so an episode's
    figures depend on its own column alone, whatever the range."""
    columns = [t.cumulative_regret[start:stop] for t in traces]
    total = columns[0].copy()
    for col in columns[1:]:
        total += col
    mean = total / len(columns)
    squares = np.zeros_like(mean)
    for col in columns:
        dev = col - mean
        squares += dev * dev
    return mean, np.sqrt(squares / len(columns))


def write_aggregate_rows(fh, aggregate, first: int) -> None:
    """Write the (mean, sd) of ``aggregate_cumulative_regret`` as the rows of
    episodes first+1, first+2, ...; the header too when ``first`` is 0."""
    mean, sd = aggregate
    if first == 0:
        fh.write("episode,mean_cumulative_regret,sd_cumulative_regret\n")

    def columns(rows):
        return [_fmt_column(mean[rows], ","), _fmt_column(sd[rows], "\n")]

    _write_rows(fh, first, len(mean), columns)


def decision_labels(instance: ProblemInstance, idx, labels: np.ndarray) -> list:
    """Trace label of each decision index in ``idx``; the cells gather the
    labels of ``labels``, one slot per decision (None until the decision
    first occurs, then formatted once), which a run's blocks share."""
    idx = np.asarray(idx, dtype=np.intp)
    occurs = np.bincount(idx, minlength=len(labels)) > 0
    for j in np.flatnonzero(occurs & np.equal(labels, None)).tolist():
        y = instance.decisions[j]
        labels[j] = "|".join(_fmt(v) for v in y) if isinstance(y, tuple) else _fmt(y)
    return labels[idx].tolist()
