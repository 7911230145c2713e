"""Clairvoyant dynamic programming over partially observed test states.

Discrete instances are solved exactly over canonical states: the set S of
support points consistent with the observations so far, which fixes the
posterior and hence the value. A state is keyed by its closure, the value
each test takes on all of S (or none), packed as a mixed-radix integer; S is
the AND of its determined tests' value masks, so the key is exact. Tests that
S already determines are dominated (nonnegative cost, no information) and
never enter the action max. A solve has two parts. The state graph depends
on the support alone: states discovered level by level from the root, their
codes, per-test child tables, and the state and test each was first reached
from. Each support point packs its value slots into presence words, one bit
per test; a state's presence, the OR of its members' words, gives its
closure and its edges (the slots its undetermined tests can take), so only
a newly found state gets a member list. The value pass depends on the pmf: each
level's masses and best immediate decisions, computed on its member lists,
then array passes over the states, children first. Masses add p_k one at a
time in ascending k (``m += p_k``), the order independent implementations
use, never pairwise as ``np.sum`` or a matmul would. The graphs of the last
two supports solved are kept, without member lists, so a solve on one of
them (the plug-in pmf of an explore phase that saw every point, or the true
support after one that missed some) rebuilds each level's lists from the
previous level's and discovers nothing.
The policy rolls out all outcome rows at once, level by level, through the
child tables (state x value slot -> state), and the table's per-state dict is
built only when asked for.

Gaussian instances are solved approximately on a scenario tree: each tested
coordinate's conditional law is discretized into Gauss-Hermite nodes of its 1-d
posterior marginal, and the returned policy re-runs the same backward induction
from whatever real-valued state it is queried at. A Gaussian's conditional
covariance depends only on which entries are observed, not on their values, so
the gain Sigma_ab Sigma_bb^-1, the conditional covariance and its trace are
computed once per observed mask; states sharing a mask are then evaluated
together as numpy batches (the gain gives the posterior means of all of them
in one pass). Rollouts advance all episodes level by level, grouped by
their current mask, in batches of bounded size, and keep no per-state memo, so
memory does not grow with the number of episodes. The full tree has
sum_k d!/(d-k)! n^k nodes for n nodes per test; a solve whose tree exceeds the
state cap fails before evaluating anything.

Tie-breaking everywhere: a decision beats an equal-valued test, lower test
index beats higher, lower decision index beats higher. Value comparisons are
exact float comparisons; the tie rules make results deterministic.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .models import (
    DiscreteOutcomeModel,
    GaussianOutcomeModel,
    ImpossibleStateError,
    InstanceError,
    ParameterError,
    ProblemInstance,
    ScalarPmf,
    TestState,
    apply_observation,
    conditional_means,
    consistent_support_indices,
    gaussian_conditioning,
    marginal_over_test,
    neg_sq_dist,
    posterior_gaussian,
    sample,
)

# action = ("test", test_index) or ("decide", decision_index)
Action = Tuple[str, int]

# default solve budget: canonical states of a discrete solve, or nodes of a
# Gaussian scenario tree (QuadratureSpec holds the default quadrature)
DEFAULT_STATE_CAP = 10**7


def check_state_cap(state_cap: int) -> None:
    """Refuse a state cap below 1 as out of domain (no solve fits in it),
    before a run or a ``solve`` does any work."""
    if not state_cap >= 1:
        raise ParameterError("state_cap", f"must be >= 1, got {state_cap}")


class StateSpaceError(RuntimeError):
    """The number of canonical states exceeded the configured cap."""


class QuadratureCapError(ParameterError):
    """Scenario-tree depth/width cap exceeded."""


class PolicyUndefinedError(RuntimeError):
    """A rollout reached a state the policy's model cannot represent."""


class ValueTable:
    """Value function over canonical states, as arrays indexed by state with
    the root at 0: best value, action (the test to perform, or -1 to decide)
    and best decision. ``entries`` is the dict view canonical key -> (value,
    action, decision), built on first access; ``keys_of(states)`` returns the
    keys of a sequence of states."""

    def __init__(self, value, action, decision, keys_of):
        self.value, self.action, self.decision = value, action, decision
        self._keys_of = keys_of
        self._entries = None

    def action_of(self, s: int) -> Action:
        a = int(self.action[s])
        return ("test", a) if a >= 0 else ("decide", int(self.decision[s]))

    @property
    def root_value(self) -> float:
        return float(self.value[0])

    @property
    def root_action(self) -> Action:
        return self.action_of(0)

    def __len__(self) -> int:
        return len(self.value)

    @property
    def entries(self) -> dict:
        if self._entries is None:
            shared: dict = {}  # one action tuple per test and per decision
            self._entries = {}
            columns = (self.value.tolist(), self.action.tolist(), self.decision.tolist())
            for key, v, a, j in zip(self._keys_of(range(len(self))), *columns):
                act = ("test", a) if a >= 0 else ("decide", j)
                self._entries[key] = (v, shared.setdefault(act, act), j)
        return self._entries


@dataclass(frozen=True)
class Rollout:
    """One policy rollout on a realized outcome vector."""

    tests: tuple
    decision: int
    fallback: bool = False


@dataclass(frozen=True)
class PolicyValue:
    value: float
    stderr: float = 0.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite discretization parameters for the Gaussian DP."""

    nodes_per_test: int = 16
    max_depth: int = 6

    def __post_init__(self):
        for name in ("nodes_per_test", "max_depth"):
            if not getattr(self, name) >= 1:
                raise QuadratureCapError(name, "must be >= 1")


def _bits(mask: int) -> list:
    out = []
    while mask:
        lsb = mask & -mask
        out.append(lsb.bit_length() - 1)
        mask ^= lsb
    return out


def subset_label(indices) -> str:
    """A set of test indices as a trace or dump cell: ``0|2|5``."""
    return "|".join(str(i) for i in indices)


def _reward_table(instance: ProblemInstance) -> Optional[np.ndarray]:
    """Materialize a (K, |Y|) reward matrix for discrete table/quadratic kinds."""
    kind = instance.reward.kind
    if kind == "table":
        return instance.reward.table
    if kind == "quadratic":
        return neg_sq_dist(instance.model.support[:, None, :], _decision_matrix(instance))
    return None


# ---------------------------------------------------------------------------
# Discrete DP
# ---------------------------------------------------------------------------


class DiscretePolicy:
    """Deterministic policy over the canonical states of a discrete solve,
    numbered as in its value table. ``child[i][s, v]`` is the state reached
    from state s by observing the v-th smallest value of test i (``values[i]``,
    ascending): s itself if s determines that value, -1 if no point of s has
    it. ``rollouts`` walks every outcome row through these tables at once;
    when an observed value is impossible under the policy's model the rollout
    falls back to the best decision at the deepest consistent state.
    """

    def __init__(self, instance: ProblemInstance, table: ValueTable, child: list, values: list):
        self.instance = instance
        self.table = table
        self._child = child
        self._values = values

    def rollouts(self, xs: np.ndarray):
        """Roll the policy out on every outcome row of ``xs`` (n, d), through
        :func:`_walk`: a state is a table index, and an observed value's slot
        is found by ``searchsorted`` on that test's values and an equality
        check; a value no point of the state has falls back."""
        xs = np.asarray(xs, dtype=float)
        action, best = self.table.action, self.table.decision

        def step(rows, state, test):
            nxt = np.full(len(rows), -1, dtype=np.intp)
            for i in np.flatnonzero(np.bincount(test)).tolist():
                at = np.flatnonzero(test == i)
                values, x = self._values[i], xs[rows[at], i]
                slot = np.minimum(np.searchsorted(values, x), len(values) - 1)
                hit = values[slot] == x
                nxt[at[hit]] = self._child[i][state[at[hit]], slot[hit]]
            return nxt

        return _walk(xs.shape, lambda rows, state: (action[state], best[state]), step)

    def trace(self, x: Sequence[float]) -> Rollout:
        """The rollout on one outcome vector ``x``: row 0 of ``rollouts``."""
        tests, decision, order, fallback = self.rollouts(np.asarray(x, dtype=float)[None, :])
        return Rollout(
            tests=tuple(order[0, : tests[0]].tolist()), decision=int(decision[0]),
            fallback=bool(fallback[0]),
        )


def _walk(shape, act, step):
    """The rollouts of both policy kinds: the n outcome rows of d tests of
    ``shape`` walk level by level from the root, state 0, in ascending row
    order. ``act(rows, state)`` gives each row's test (-1 to decide) and its
    best decision; ``step(rows, state, test)`` each testing row's next state,
    or -1 when the observed value is impossible under the policy's model and
    the row falls back to that best decision. Returns (tests performed,
    decision, test order, fallback): (n,) arrays but the (n, d) order, whose
    row t lists episode t's tests in the order performed, padded with -1."""
    n, d = shape
    order = np.full((n, d), -1)
    decision = np.empty(n, dtype=int)
    fallback = np.zeros(n, dtype=bool)
    rows, state = np.arange(n), np.zeros(n, dtype=np.intp)
    level = 0
    while True:
        test, best = act(rows, state)
        done = test < 0
        decision[rows[done]] = best[done]
        rows, state, test, best = rows[~done], state[~done], test[~done], best[~done]
        if not rows.size:
            break
        order[rows, level] = test
        level += 1
        state = step(rows, state, test)
        miss = state < 0
        decision[rows[miss]] = best[miss]
        fallback[rows[miss]] = True
        rows, state = rows[~miss], state[~miss]
    return (order >= 0).sum(axis=1), decision, order, fallback


class _Closures:
    """Canonical keys of consistent sets. Test i's distinct values, ascending,
    are its value slots 1..n_i. The closure of a set gives each test the slot
    that all its members share, or 0; it is packed as the mixed-radix code
    sum_i slot_i prod_{j<i} (n_j + 1), in int64 when every code fits and as
    exact Python ints (dtype=object) otherwise. A reachable set is the AND of
    its determined tests' value masks, so sets and codes correspond 1:1.

    A set's presence is the OR of its members' rows of uint64 ``words``, in
    which a point sets bit ``offsets[i] + slot - 1`` for its slot on each
    test i. Test i is determined when its field of n_i bits holds one bit."""

    def __init__(self, support: np.ndarray):
        self.values, slots, radix, total = [], [], [], 1
        for col in support.T:
            values, inverse = np.unique(col, return_inverse=True)
            self.values.append(values)
            slots.append(inverse + 1)
            radix.append(total)
            total *= len(values) + 1
        self.dtype = np.int64 if total <= np.iinfo(np.int64).max else object
        sizes, d = [len(v) for v in self.values], len(self.values)
        self.radix, self.sizes = np.array(radix, dtype=self.dtype), np.array(sizes)
        self.slots = np.array(slots, dtype=np.min_scalar_type(max(sizes)))  # test x point
        self.offsets, self.width = np.cumsum([0] + sizes[:-1]), sum(sizes)
        # the test of each presence bit, its slot, and the step it adds to a code
        self.bit_test = np.repeat(np.arange(d, dtype=np.min_scalar_type(d)), sizes)
        self.bit_slot = np.concatenate([np.arange(1, n + 1, dtype=self.slots.dtype) for n in sizes])
        self.bit_step = self.bit_slot.astype(self.dtype) * self.radix[self.bit_test]
        bit = self.offsets[:, None] + self.slots - 1
        self.words = np.zeros((support.shape[0], -(-self.width // 64)), dtype="<u8")
        points = np.broadcast_to(np.arange(support.shape[0]), bit.shape)
        one = np.uint64(1) << (bit % 64).astype(np.uint64)
        np.bitwise_or.at(self.words, (points, bit // 64), one)

    def slot(self, codes: np.ndarray, i) -> np.ndarray:
        """Test i's slot in each code (0: undetermined); i may be an array."""
        return ((codes // self.radix[i]) % (self.sizes[i] + 1)).astype(np.int64)

    def presence(self, ptr: np.ndarray, mem: np.ndarray) -> np.ndarray:
        """The presence of each (nonempty) CSR member list, ORed in chunks."""
        out = np.empty((len(ptr) - 1, self.words.shape[1]), dtype=self.words.dtype)
        for part in _chunks(np.diff(ptr)):
            a, b = ptr[part[0]], ptr[part[-1] + 1]
            out[part] = np.bitwise_or.reduceat(self.words[mem[a:b]], ptr[part] - a, axis=0)
        return out

    def fields(self, presence: np.ndarray):
        """Presence rows unpacked to one uint8 per bit, and the bits set in each test's field."""
        bits = np.unpackbits(presence.view(np.uint8), axis=1, count=self.width, bitorder="little")
        return bits, np.add.reduceat(bits, self.offsets, axis=1, dtype=np.int32)

    def of(self, presence: np.ndarray):
        """(code, number of determined tests) of each presence row, in chunks
        of about _MEMBER_CHUNK / 8 bits."""
        codes, ndet, step = [], [], max(1, _MEMBER_CHUNK // (8 * self.width))
        for a in range(0, len(presence), step):
            bits, count = self.fields(presence[a : a + step])
            det = count == 1  # a determined field's one bit is its slot
            slot = np.add.reduceat(bits * self.bit_slot, self.offsets, axis=1, dtype=np.int32)
            slot *= det
            codes.append(slot @ self.radix)
            ndet.append(det.sum(axis=1, dtype=np.int32))
        return np.concatenate(codes), np.concatenate(ndet)

    def keys(self, codes: np.ndarray) -> list:
        """Bitmask over support indices of each code's set: the AND of its
        determined tests' value masks (slot 0 masks nothing)."""
        masks = [[(1 << self.slots.shape[1]) - 1] + [0] * len(v) for v in self.values]
        for per_slot, slots in zip(masks, self.slots):
            for k, s in enumerate(slots.tolist()):
                per_slot[s] |= 1 << k
        rows = zip(*(self.slot(codes, i).tolist() for i in range(len(masks))))
        return [functools.reduce(operator.and_, map(list.__getitem__, masks, row)) for row in rows]


# Most members a discrete solve handles at once (a presence bit scanned for
# edges weighs 8, for its int64 scratch); larger sets of lists are split,
# which bounds the solve's scratch memory.
_MEMBER_CHUNK = 1 << 18


def _check_cap(n_states: int, state_cap: int) -> None:
    if n_states > state_cap:
        raise StateSpaceError(f"state-space blowup guard: more than {state_cap} canonical states")


def _gather(ptr: np.ndarray, mem: np.ndarray, rows: np.ndarray):
    """The CSR lists ``rows`` of the CSR lists (ptr, mem), in that order."""
    lens = ptr[rows + 1] - ptr[rows]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out, mem[np.arange(out[-1]) + np.repeat(ptr[rows] - out[:-1], lens)]


def _chunks(lens: np.ndarray) -> list:
    """Consecutive runs of the lists of lengths ``lens``, about _MEMBER_CHUNK members each."""
    chunk = (np.cumsum(lens) - lens) // _MEMBER_CHUNK
    return np.split(np.arange(len(lens)), np.flatnonzero(np.diff(chunk)) + 1)


def _narrow(ptr, mem, parent, test, slot, slots):
    """CSR lists, one per (parent, test, slot): the members of list
    ``parent`` of (ptr, mem) that take ``slot`` on ``test`` (``slots`` is
    test x point), in ascending order, gathered in chunks."""
    flat, K = slots.reshape(-1), slots.shape[1]
    lens, mems = [], []
    for part in _chunks(np.diff(ptr)[parent]):
        gptr, gmem = _gather(ptr, mem, parent[part])
        glens = np.diff(gptr)
        at = np.repeat(test[part].astype(np.intp) * K, glens)
        at += gmem
        keep = flat[at] == np.repeat(slot[part], glens)
        lens.append(np.add.reduceat(keep, gptr[:-1], dtype=np.int64))
        mems.append(gmem[keep])
    out = np.zeros(len(parent) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lens), out=out[1:])
    return out, np.concatenate(mems)


def _lookup(tables, codes: np.ndarray) -> np.ndarray:
    """State of each code under ``tables``, pairs (sorted codes, their
    states) that share no code, searched in turn for the codes not yet
    found; -1 if none holds it."""
    state = np.full(len(codes), -1, dtype=np.int32)
    left = np.arange(len(codes))
    for keys, states in tables:
        if len(keys) and len(left):
            at = np.minimum(np.searchsorted(keys, codes[left]), len(keys) - 1)
            hit = keys[at] == codes[left]
            state[left[hit]] = states[at[hit]]
            left = left[~hit]
    return state


def _insert(table: tuple, codes: np.ndarray, states: np.ndarray) -> tuple:
    """``table`` (sorted codes, their states) with the pairs (codes, states) added."""
    order = np.argsort(codes, kind="stable")
    at = np.searchsorted(table[0], codes[order])
    return np.insert(table[0], at, codes[order]), np.insert(table[1], at, states[order])


@dataclass
class _StateGraph:
    """The canonical states of a support, which do not depend on its pmf.
    States are numbered level by level from the root; ``levels`` holds the
    first state of each level, then the state count. A state after the root
    was first reached from state ``parent`` by observing test ``test``."""

    closures: _Closures
    codes: np.ndarray
    ndet: np.ndarray
    child: list  # per test: state x value slot -> state (see DiscretePolicy)
    levels: list
    parent: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        # shared by every solve on the support and the policies they return
        for array in (self.codes, self.ndet, self.parent, self.test, *self.child):
            array.setflags(write=False)

    def __len__(self) -> int:
        return self.levels[-1]

    def replay(self, visit) -> None:
        """Call ``visit(ptr, mem)`` on each level's CSR member lists, as
        :func:`_discover` does, rebuilding a level's lists from the previous
        level's: a state's members are its parent's members that take the
        state's slot on the test that reached it."""
        K = self.closures.slots.shape[1]
        ptr, mem = np.array([0, K]), np.arange(K, dtype=np.int32)
        visit(ptr, mem)
        for prev, a, b in zip(self.levels, self.levels[1:-1], self.levels[2:]):
            test = self.test[a:b]
            own = self.closures.slot(self.codes[a:b], test)  # each state's slot on its test
            ptr, mem = _narrow(ptr, mem, self.parent[a:b] - prev, test, own, self.closures.slots)
            visit(ptr, mem)


def _discover(support: np.ndarray, state_cap: int, visit) -> _StateGraph:
    """The state graph of ``support``, discovered level by level from the
    root; ``visit(ptr, mem)`` is called on each level's CSR member lists
    (ascending support indices, one list per state in state order) before
    the next level is found, and the lists are then freed. A level's edges
    are the set bits of its undetermined fields (see :class:`_Closures`); an
    edge's pre-key (its parent's code plus the bit's step) names the child's
    set, and ``known`` maps sorted codes and pre-keys to states. Those met
    while a level is scanned are kept in their own sorted table, ``met``,
    which joins ``known`` once the level is done, so an insert costs the
    level's size and not the count of states so far. Only a pre-key in
    neither gets a member list (its parent's members that take the slot),
    whose presence gives the closure. Raises :class:`StateSpaceError`
    as soon as more than ``state_cap`` states are found."""
    closures = _Closures(support)
    K, d = support.shape
    width, bit_test = closures.width, closures.bit_test
    _check_cap(1, state_cap)
    ptr, mem = np.array([0, K]), np.arange(K, dtype=np.int32)
    presence = closures.presence(ptr, mem)
    code, ndet = closures.of(presence)
    codes, ndets, blocks = [code], [ndet], [[] for _ in range(d)]
    parents, tests = [np.full(1, -1, dtype=np.int32)], [np.zeros(1, dtype=bit_test.dtype)]
    known = (code, np.zeros(1, dtype=np.int32))
    n, levels = 1, [0]  # states so far; the first state of each level

    def found(parent, bit, keys):
        """States of the edges (parent, bit) of the sorted pre-keys ``keys``,
        none in ``known`` or ``met``; new ones are numbered from n on."""
        nonlocal met, n
        test = bit_test[bit]
        mptr, mmem = _narrow(ptr, mem, parent, test, closures.bit_slot[bit], closures.slots)
        mpres = closures.presence(mptr, mmem)
        ccode, cndet = closures.of(mpres)
        cstate = _lookup((met, known), ccode)
        fresh = np.flatnonzero(cstate < 0)
        _, at, new = np.unique(ccode[fresh], return_index=True, return_inverse=True)
        cstate[fresh] = new + n
        rows = fresh[at]
        if rows.size:
            n += len(rows)
            _check_cap(n, state_cap)
            codes.append(ccode[rows])
            ndets.append(cndet[rows])
            parents.append((first + parent[rows]).astype(np.int32))
            tests.append(test[rows])
            level.append((_gather(mptr, mmem, rows), mpres[rows]))
        alias = np.flatnonzero(ccode != keys)  # pre-keys that are not codes
        add = np.concatenate([ccode[rows], keys[alias]])
        add_states = np.concatenate([cstate[rows], cstate[alias]])
        met = _insert(met, add, add_states)
        return cstate

    while True:
        visit(ptr, mem)
        first = levels[-1]
        for i, block in enumerate(blocks):  # this level's child tables
            own = closures.slot(code, i)
            det = np.flatnonzero(own)
            block.append(np.full((len(code), closures.sizes[i]), -1, dtype=np.int32))
            block[-1][det, own[det] - 1] = first + det
        level = []  # (member lists, presence) of the states found on this level
        met = (known[0][:0], known[1][:0])
        for part in _chunks(np.diff(ptr) + 8 * width):  # see _MEMBER_CHUNK
            bits, count = closures.fields(presence[part[0] : part[-1] + 1])
            bits *= (count > 1)[:, bit_test]  # the bits of undetermined tests
            rows = len(bits)
            edge = np.flatnonzero(bits.T)  # bit * rows + row: by test, then parent
            bits = count = None
            pre = code[part[0] + edge % rows] + closures.bit_step[edge // rows]
            keys, at, inverse = np.unique(pre, return_index=True, return_inverse=True)
            pre = None
            child = _lookup((met, known), keys)
            miss = np.flatnonzero(child < 0)
            if miss.size:
                bit, parent = np.divmod(edge[at[miss]], rows)
                child[miss] = found(part[0] + parent, bit, keys[miss])
            child = child[inverse]
            cut = np.searchsorted(edge, np.append(closures.offsets, width) * rows)
            for i, (a, b) in enumerate(zip(cut, cut[1:])):  # test i's edges
                bit, parent = np.divmod(edge[a:b], rows)
                blocks[i][-1][part[0] + parent, bit - closures.offsets[i]] = child[a:b]
        edge = keys = at = inverse = child = miss = bit = parent = None  # edge scratch
        if not level:
            break
        known = _insert(known, *met)
        levels.append(first + len(code))
        code = np.concatenate(codes[-len(level):])
        ptr = np.zeros(len(code) + 1, dtype=np.int64)
        np.cumsum(np.concatenate([np.diff(p) for (p, _), _ in level]), out=ptr[1:])
        mem = np.concatenate([m for (_, m), _ in level])
        presence = np.concatenate([w for _, w in level])
        level = None
    levels.append(n)
    ptr = mem = presence = known = met = level = None  # scratch, freed before the tables are joined
    child = [np.concatenate(blocks.pop(0)) for _ in range(d)]  # one test's blocks at a time
    return _StateGraph(
        closures, np.concatenate(codes), np.concatenate(ndets), child, levels,
        np.concatenate(parents), np.concatenate(tests),
    )


# (support shape and bytes, _StateGraph) of the last two supports solved, most
# recent last; two, so an empirical solve on the points an explore phase saw
# does not evict the true support, which the next seed's solve replays
_graphs = []
_KEPT_GRAPHS = 2


def _state_graph(support: np.ndarray, state_cap: int, visit) -> _StateGraph:
    """The state graph of ``support``, calling ``visit`` on each level's
    member lists: replayed from a kept support when it is the same, else
    discovered (and kept in place of the least recently used)."""
    key = (support.shape, support.tobytes())
    for at, (kept, graph) in enumerate(_graphs):
        if kept == key:
            _graphs.append(_graphs.pop(at))
            _check_cap(len(graph), state_cap)
            graph.replay(visit)
            return graph
    if len(_graphs) == _KEPT_GRAPHS:
        del _graphs[0]  # not kept alive through the discovery
    graph = _discover(support, state_cap, visit)
    _graphs.append((key, graph))
    return graph


def _masses(probs: np.ndarray, ptr: np.ndarray, mem: np.ndarray) -> np.ndarray:
    """Probability mass of each CSR member list, adding ``p_k`` one at a time
    in ascending k as ``m += p_k`` does (a running sum along each list);
    ``np.sum`` (pairwise) and a matmul round differently."""
    lens = np.diff(ptr)
    mass = np.empty(len(lens))
    for n in np.flatnonzero(np.bincount(lens)).tolist():  # the distinct lengths
        rows = np.flatnonzero(lens == n)
        terms = probs[mem[ptr[rows][:, None] + np.arange(n)]]
        mass[rows] = np.add.accumulate(terms, axis=1)[:, -1]
    return mass


def _best_decisions(probs, ptr, mem, mass, table, ranking):
    """(value, decision index) of the best immediate decision at each CSR
    member list (ascending support indices) of mass ``mass``.

    With a reward table: (probs[idx]/mass) dot table rows, one contraction per
    list, since BLAS sums in an order that depends on the list's length. For
    indicator-match: the posterior mode among support points in the decision
    set, lower decision index first on ties, i.e. the member of lowest
    ``rank``; ``ranked_p``/``ranked_j`` give the (probability, decision) at
    each rank, and (0, 0) past the last.
    """
    if table is None:
        rank, ranked_p, ranked_j = ranking
        r = np.minimum.reduceat(rank[mem], ptr[:-1])
        return ranked_p[r] / mass, ranked_j[r]
    value, decision = np.empty(len(mass)), np.empty(len(mass), dtype=np.int32)
    for s, (a, b) in enumerate(zip(ptr[:-1].tolist(), ptr[1:].tolist())):
        idx = mem[a:b].astype(np.intp)
        exp = (probs[idx] / mass[s]) @ table[idx]
        decision[s] = j = int(np.argmax(exp))
        value[s] = exp[j]
    return value, decision


@np.errstate(divide="ignore", invalid="ignore")  # states of no mass get NaN values
def solve_dp_discrete(instance: ProblemInstance, state_cap: int = DEFAULT_STATE_CAP):
    """Exact optimal policy and value table for a discrete instance.

    Raises :class:`StateSpaceError`, before any state is evaluated, when the
    number of canonical states exceeds ``state_cap``. States made only of
    zero-probability support points have no mass; their values are NaN and
    they add nothing to their parents. A solve on the same support (shape
    and bytes) as one of the two previous supports solved reuses its state
    graph.
    """
    model = instance.model
    if not isinstance(model, DiscreteOutcomeModel):
        raise InstanceError("solve_dp_discrete requires a discrete model")
    K, d, probs = model.support_size, model.d, model.probs
    table = _reward_table(instance)
    ranking = None
    if instance.reward.kind == "indicator-match":
        # support points in the decision set, by probability then decision
        dec_index = _decision_index(instance)
        point_decision = np.array(
            [dec_index.get(tuple(y), -1) for y in model.support.tolist()], dtype=np.int32
        )
        order = np.flatnonzero(point_decision >= 0)
        order = order[np.lexsort((point_decision[order], -probs[order]))]
        rank = np.full(K, len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        ranked_j = np.append(point_decision[order], np.int32(0))
        ranking = (rank, np.append(probs[order], 0.0), ranked_j)
    elif table is None:
        raise InstanceError(
            f"reward kind {instance.reward.kind!r} is not supported by the discrete DP"
        )
    found = []  # (mass, best decision value, best decision) per level

    def visit(ptr, mem):
        mass = _masses(probs, ptr, mem)
        found.append((mass,) + _best_decisions(probs, ptr, mem, mass, table, ranking))

    graph = _state_graph(model.support, state_cap, visit)
    closures, codes, ndet, child = graph.closures, graph.codes, graph.ndet, graph.child
    mass, value, decision = (np.concatenate(column) for column in zip(*found))
    found = None
    n = len(graph)

    # Evaluate by descending number of determined tests: a child determines
    # the tested value on top of its parent's, so it comes first. q adds the
    # children in ascending value order, and a test replaces the incumbent
    # only when strictly better, tests in ascending index.
    action = np.full(n, -1, dtype=np.int32)
    neg_costs = [-c for c in instance.costs.tolist()]
    by_det = np.argsort(-ndet, kind="stable")
    for g in np.split(by_det, np.flatnonzero(np.diff(ndet[by_det])) + 1):
        best, act = value[g], action[g]
        for i in range(d):
            rows = np.flatnonzero(closures.slot(codes[g], i) == 0)  # test i undetermined
            if rows.size:
                q, mass_s = np.full(len(rows), neg_costs[i]), mass[g[rows]]
                for c in child[i][g[rows]].T:
                    m = np.where(c >= 0, mass[c], 0.0)  # a child of no mass adds nothing
                    np.add(q, m / mass_s * value[c], out=q, where=m > 0)
                win = q > best[rows]
                best[rows[win]], act[rows[win]] = q[win], i
        value[g], action[g] = best, act

    def keys_of(states):
        return closures.keys(codes[np.asarray(states, dtype=np.intp)])

    vtable = ValueTable(value, action, decision, keys_of)
    return DiscretePolicy(instance, vtable, child, closures.values), vtable


def policy_records(policy: DiscretePolicy) -> list:
    """JSON-ready policy dump: one record per canonical discrete state; a
    state of no mass has value None (JSON null), not NaN."""
    records = []
    for mask in sorted(policy.table.entries):
        value, (kind, which), _ = policy.table.entries[mask]
        records.append(
            {
                "state_key": subset_label(_bits(mask)),
                "action": f"{kind}:{which}",
                "value": None if math.isnan(value) else value,
            }
        )
    return records


# ---------------------------------------------------------------------------
# Public one-step operations
# ---------------------------------------------------------------------------


def q_value(
    instance: ProblemInstance,
    s: TestState,
    test: int,
    value_lookup: Callable[[TestState], float],
    nodes_per_test: int = QuadratureSpec.nodes_per_test,
) -> float:
    """Expected remaining reward for performing ``test`` at state ``s``:
    -c_test plus the posterior-weighted value of the successor states."""
    if s.entries[test] is not None:
        raise ValueError(f"test {test} is already observed")
    marg = marginal_over_test(instance.model, s, test)
    q = -float(instance.costs[test])
    if isinstance(marg, ScalarPmf):
        for v, p in zip(marg.values, marg.probs):
            q += p * value_lookup(apply_observation(s, test, v))
        return q
    nodes, weights = _gauss_hermite(nodes_per_test)
    scale = math.sqrt(2.0 * marg.variance)
    for h, w in zip(nodes, weights):
        q += w * value_lookup(apply_observation(s, test, marg.mean + scale * h))
    return q


def _require_quadratic(instance: ProblemInstance) -> None:
    if instance.reward.kind != "quadratic":
        raise InstanceError(
            f"reward kind {instance.reward.kind!r} has no closed form for "
            "Gaussian models (only 'quadratic' is supported)"
        )


def _decision_matrix(instance: ProblemInstance) -> np.ndarray:
    return np.array([list(y) for y in instance.decisions], dtype=float)


def _decision_index(instance: ProblemInstance) -> dict:
    """Each decision vector -> its lowest index, the tie rule's choice among
    decisions that repeat a vector."""
    index = {}
    for j, y in enumerate(instance.decisions):
        index.setdefault(y, j)
    return index


def _quadratic_decision_values(dec, obs, miss, values, means, trace) -> np.ndarray:
    """E[f(x, y) | state] = -E||x - y||^2 per (state, decision) for n states
    observing ``obs`` with ``values`` (n, |obs|), whose posteriors over
    ``miss`` have means ``means`` (n, |miss|) and covariance trace ``trace``."""
    if not miss:
        return neg_sq_dist(values[:, None, :], dec[:, obs])
    total = neg_sq_dist(means[:, None, :], dec[:, miss])
    if obs:
        total = neg_sq_dist(values[:, None, :], dec[:, obs]) + total
    return total - trace


def _gaussian_decision_values(instance: ProblemInstance, s: TestState) -> np.ndarray:
    """Closed-form E[f(x, y) | s] per decision for Gaussian models."""
    _require_quadratic(instance)
    obs = list(s.observed_indices)
    miss = list(s.missing_indices)
    means, trace = None, 0.0
    if miss:
        post = posterior_gaussian(instance.model, s)
        means, trace = post.mean[None, :], float(np.trace(post.covariance))
    values = np.array([[s.entries[i] for i in obs]], dtype=float)
    return _quadratic_decision_values(_decision_matrix(instance), obs, miss, values, means, trace)[0]


def decision_reward(instance: ProblemInstance, s: TestState, decision_index: int) -> float:
    """Expected reward of deciding ``decision_index`` at state ``s``; a
    discrete state of no mass is refused as ``posterior_discrete`` refuses it."""
    model = instance.model
    if isinstance(model, DiscreteOutcomeModel):
        idxs = [int(k) for k in consistent_support_indices(model, s)]
        mass = 0.0
        for k in idxs:
            mass += model.probs[k]
        if mass <= 0.0:
            raise ImpossibleStateError("no support point is consistent with the state")
        table = _reward_table(instance)
        if table is not None:
            idx_arr = np.asarray(idxs, dtype=np.intp)
            w = model.probs[idx_arr] / mass
            return float(w @ table[idx_arr, decision_index])
        y = instance.decisions[decision_index]
        p = 0.0
        for k in idxs:
            if tuple(model.support[k]) == y:
                p += model.probs[k]
        return p / mass
    return float(_gaussian_decision_values(instance, s)[decision_index])


# ---------------------------------------------------------------------------
# Gaussian scenario-tree DP
# ---------------------------------------------------------------------------

# Most states evaluated in one batch; larger batches are split. A batch's
# children number nodes_per_test * _CHUNK per missing test, so the memory of a
# tree evaluation or a rollout is bounded whatever the number of episodes.
_CHUNK = 256


def _gauss_hermite(n: int):
    """Probabilist-normalized Gauss-Hermite nodes and weights (sum to 1)."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    return nodes, weights / math.sqrt(math.pi)


def gaussian_tree_size(d: int, nodes_per_test: int) -> int:
    """Node count of the full scenario tree: sum_{k=0..d} d!/(d-k)! n^k."""
    total, level = 0, 1
    for k in range(d + 1):
        total += level
        level *= (d - k) * nodes_per_test
    return total


@dataclass(frozen=True)
class _MaskConditioning:
    """The part of the posterior given an observed mask that does not depend
    on the observed values (see ``models.gaussian_conditioning``): the gain
    that maps observed values to conditional means, and the conditional
    covariance's trace and per-index scales."""

    obs: list
    miss: list
    gain: Optional[np.ndarray]  # Sigma_ab Sigma_bb^-1; None unless obs and miss
    trace: float  # trace of the conditional covariance
    scales: tuple  # sqrt(2 * conditional variance) per missing index


class GaussianTreePolicy:
    """Backward-induction policy on a Gauss-Hermite scenario tree.

    The policy is evaluable at arbitrary real observations: querying an action
    recomputes the induction from the queried state as the root, so committed
    agents can follow it on outcomes that never coincide with tree nodes.
    States are evaluated in batches that share an observed mask; the
    conditioning for each mask is computed once, on first visit. Only the
    root is kept, as the one-state ``table``; no other state is memoized.
    ``rollouts`` returns the arrays :class:`DiscretePolicy`'s does.
    """

    def __init__(self, instance: ProblemInstance, quadrature: QuadratureSpec):
        if not isinstance(instance.model, GaussianOutcomeModel):
            raise InstanceError("GaussianTreePolicy requires a Gaussian model")
        _require_quadratic(instance)
        self.instance = instance
        self.quadrature = quadrature
        self._nodes, self._weights = _gauss_hermite(quadrature.nodes_per_test)
        self._decisions = _decision_matrix(instance)
        self._masks: dict = {}  # observed mask -> _MaskConditioning

    def _conditioning(self, mask: int) -> _MaskConditioning:
        cached = self._masks.get(mask)
        if cached is not None:
            return cached
        cov = self.instance.model.covariance
        obs = _bits(mask)
        miss = [i for i in range(self.instance.d) if not mask >> i & 1]
        gain = None
        if obs and miss:
            gain, cov = gaussian_conditioning(cov, obs, miss)
        cond = _MaskConditioning(
            obs=obs,
            miss=miss,
            gain=gain,
            trace=float(np.trace(cov)) if miss else 0.0,
            scales=tuple(math.sqrt(2.0 * float(cov[p, p])) for p in range(len(miss))),
        )
        self._masks[mask] = cond
        return cond

    def node_batch(self, obs_mask: int, values: np.ndarray):
        """(value, action, best decision) arrays for the n states observing
        ``obs_mask``; ``values`` is (n, |mask|) in ascending index order. The
        action is the index of the test to perform, or -1 to decide."""
        n = values.shape[0]
        if n > _CHUNK:
            parts = [self.node_batch(obs_mask, values[s : s + _CHUNK]) for s in range(0, n, _CHUNK)]
            return tuple(np.concatenate(column) for column in zip(*parts))
        c = self._conditioning(obs_mask)
        mean = self.instance.model.mean
        means = None
        if c.gain is not None:
            means = conditional_means(mean, c.obs, c.miss, c.gain, values)
        elif c.miss:
            means = np.broadcast_to(mean, (n, len(c.miss)))
        dec_values = _quadratic_decision_values(
            self._decisions, c.obs, c.miss, values, means, c.trace
        )
        decision = np.argmax(dec_values, axis=1)
        best = dec_values[np.arange(n), decision]
        action = np.full(n, -1)
        k = len(c.obs)
        for pos, i in enumerate(c.miss):
            rank = sum(j < i for j in c.obs)
            child = np.empty((len(self._nodes), n, k + 1))
            child[:, :, :rank] = values[:, :rank]
            child[:, :, rank] = means[:, pos] + c.scales[pos] * self._nodes[:, None]
            child[:, :, rank + 1 :] = values[:, rank:]
            child_values = self.node_batch(obs_mask | (1 << i), child.reshape(-1, k + 1))[0]
            q = np.full(n, -float(self.instance.costs[i]))
            for w, v in zip(self._weights, child_values.reshape(len(self._nodes), n)):
                q += w * v
            better = q > best
            best = np.where(better, q, best)
            action[better] = i
        return best, action, decision

    def node(self, obs_mask: int, obs_values: tuple):
        """(value, action, best decision) at a (possibly off-tree) state."""
        state = ValueTable(*self.node_batch(obs_mask, np.array([obs_values], dtype=float)), None)
        return state.root_value, state.root_action, int(state.decision[0])

    @functools.cached_property
    def table(self) -> ValueTable:
        """The root's (value, action, decision) as a one-state table,
        evaluated once, on first use."""
        return ValueTable(*self.node_batch(0, np.empty((1, 0))), lambda states: [(0, ())] * len(states))

    def rollouts(self, xs: np.ndarray):
        """Roll the policy out on every outcome row of ``xs`` (n, d), through
        :func:`_walk`: a state is the observed mask, and each level evaluates
        one ``node_batch`` per distinct mask, ascending (the root is
        ``table``). Observing a test sets its bit, so no rollout falls back."""
        xs = np.asarray(xs, dtype=float)

        def act(rows, masks):
            test, best = np.empty(len(rows), dtype=int), np.empty(len(rows), dtype=int)
            # each distinct mask is below 2^d, at most the tree's node count,
            # which the budget bounds
            for mask in np.flatnonzero(np.bincount(masks)).tolist():
                at = np.flatnonzero(masks == mask)
                if mask:
                    _, test[at], best[at] = self.node_batch(mask, xs[np.ix_(rows[at], _bits(mask))])
                else:
                    test[at], best[at] = self.table.action[0], self.table.decision[0]
            return test, best

        return _walk(xs.shape, act, lambda rows, masks, test: masks | 1 << test)

    # the one-row view of ``rollouts``, shared; bound here so that each class
    # holds ``trace`` itself, as a tracer wrapping ``cls.__dict__`` expects
    trace = DiscretePolicy.trace


def check_tree_budget(d: int, quadrature: QuadratureSpec, state_cap: int) -> None:
    """Refuse a scenario tree deeper than ``quadrature.max_depth`` or of more than
    ``state_cap`` nodes; both depend only on d and the budget, so runs check them when built."""
    if d > quadrature.max_depth:
        raise QuadratureCapError(
            "max_depth", f"must be >= the dimension {d}, got {quadrature.max_depth}"
        )
    size = gaussian_tree_size(d, quadrature.nodes_per_test)
    if size > state_cap:
        raise StateSpaceError(
            f"scenario-tree budget: {size} nodes (d={d}, "
            f"{quadrature.nodes_per_test} nodes per test) exceed the state cap {state_cap}"
        )


def solve_dp_gaussian(
    instance: ProblemInstance,
    quadrature: Optional[QuadratureSpec] = None,
    state_cap: int = DEFAULT_STATE_CAP,
):
    """Approximate optimal policy for a Gaussian instance via the scenario tree.

    Raises before evaluating anything when the tree is over budget (see
    ``check_tree_budget``). Returns the policy and its ``table``, which holds
    the root entry only; the policy re-evaluates every other state on demand.
    """
    quadrature = quadrature or QuadratureSpec()
    check_tree_budget(instance.d, quadrature, state_cap)
    policy = GaussianTreePolicy(instance, quadrature)
    return policy, policy.table


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


def rollout_net_rewards(instance: ProblemInstance, xs, order, decisions, support_index=None) -> np.ndarray:
    """Realized reward f(x, y) minus the costs of the tests performed, for
    every episode of a batched rollout (``order`` and ``decisions`` as
    returned by a policy's ``rollouts``); costs are added in test order. A
    table reward reads each row's support index from ``support_index``
    (required)."""
    test_cost = np.zeros(len(xs))
    for k in range(order.shape[1]):
        took = order[:, k] >= 0
        test_cost[took] += instance.costs[order[took, k]]
    kind, decisions = instance.reward.kind, np.asarray(decisions, dtype=np.intp)
    if kind == "table":
        reward = instance.reward.table[np.asarray(support_index, dtype=np.intp), decisions]
    elif kind == "indicator-match":
        match = np.asarray(xs, dtype=float) == _decision_matrix(instance)[decisions]
        reward = match.all(axis=1).astype(float)
    else:
        reward = neg_sq_dist(xs, _decision_matrix(instance)[decisions])
    return reward - test_cost


def _priced_rollouts(instance: ProblemInstance, policy, xs, support_index=None):
    """(tests, decision, order, net, fallback) of ``policy``'s ``rollouts`` on
    every outcome row of ``xs``; ``net`` is priced by
    :func:`rollout_net_rewards` (a table reward reads row ``support_index``,
    required). Both policy kinds return the other four arrays; only a
    discrete policy's rollouts can fall back.

    A ``policy`` of None plays full information: each episode tests 0..d-1
    in order, then takes the best decision for the fully observed outcome,
    lowest index first on ties. A quadratic decision is the argmax of
    ``neg_sq_dist``, the values it is priced from; a table decision the
    argmax of row ``support_index``; an indicator-match decision the one
    equal to x, else decision 0."""
    xs = np.asarray(xs, dtype=float)
    n, d = xs.shape
    if policy is not None:
        tests, decision, order, fallback = policy.rollouts(xs)
    else:
        kind = instance.reward.kind
        if kind == "indicator-match":
            dec_index = _decision_index(instance)
            decision = np.array([dec_index.get(tuple(x), 0) for x in xs.tolist()], dtype=int)
        elif kind == "table":
            decision = np.argmax(instance.reward.table[np.asarray(support_index, dtype=np.intp)], axis=1)
        else:  # _CHUNK rows at a time: all rows' values at once grow with rows x decisions
            matrix = _decision_matrix(instance)
            decision = np.empty(n, dtype=np.intp)
            for s in range(0, n, _CHUNK):
                decision[s : s + _CHUNK] = np.argmax(neg_sq_dist(xs[s : s + _CHUNK, None, :], matrix), axis=1)
        tests, order, fallback = np.full(n, d), np.tile(np.arange(d), (n, 1)), np.zeros(n, dtype=bool)
    net = rollout_net_rewards(instance, xs, order, decision, support_index)
    return tests, decision, order, net, fallback


def evaluate_policy(
    instance: ProblemInstance,
    policy,
    mc_episodes: int = 4096,
    rng: Optional[np.random.Generator] = None,
) -> PolicyValue:
    """Expected episode reward of a policy, its ``rollouts`` priced in one
    batch: exact over the support of a discrete instance (p_k r_k added in
    ascending k; a rollout falls back as when played), else Monte Carlo with
    a reported standard error."""
    model, discrete = instance.model, instance.is_discrete
    if rng is None:
        rng = np.random.default_rng(0)
    xs = model.support if discrete else sample(model, rng, mc_episodes)
    rewards = _priced_rollouts(instance, policy, xs, np.arange(len(xs)) if discrete else None)[3]
    if discrete:
        total = 0.0
        for p, r in zip(model.probs.tolist(), rewards.tolist()):
            total += p * r
        return PolicyValue(value=total, stderr=0.0)
    return PolicyValue(
        value=float(rewards.mean()),
        stderr=float(rewards.std(ddof=1) / math.sqrt(mc_episodes)),
    )
