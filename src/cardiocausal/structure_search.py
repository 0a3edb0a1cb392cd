"""Score-based causal structure discovery over a parameter table.

hc, tabu and fges use the decomposable Gaussian BIC computed from the
scatter matrix, so Markov-equivalent graphs score equal up to floating
rounding and single-edge edits are evaluated incrementally.  Every search is
deterministic: it scans its candidates in a fixed order and the first strict
maximum wins.  hc and tabu rank moves by (operator, from, to), adds before
deletes before reversals; fges scans its Insert and Delete operators by
head, then tail, then the set T or H, smaller sets first; cam's greedy
stage scans edges by child, then parent.  The searches hold each graph as
its nodes' parent masks (and fges also its undirected-neighbour masks) and
make an ``EdgeGraph`` only of their result.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dpotrf, dpotrs, dsygvd
from scipy.special import fdtrc

from ._util import extreme_exponent, is_constant, without_overflow
from .association import AssociationError, Direction, GeneralizedCorrPairs
from .graphs import (
    EdgeGraph,
    _bits,
    _children,
    _complete_pattern,
    _graph,
    _masks,
    _topological_order,
    cpdag_of,
)
from .record_io import PARAMETER_NAMES, ParameterTable, Position

_log = logging.getLogger(__name__)

_EPS_GAIN = 1e-9

# Search settings.  The paper runs each method once per position with fixed
# settings, so these are constants, not options.
MAX_PARENTS = 4
TABU_LENGTH = 10
TABU_MAX_STALLS = 15
CAM_PRUNE_ALPHA = 0.001


def _beats(delta: float, incumbent: float) -> bool:
    """Strictly better, treating near-equal deltas as ties.

    Mathematically equal move gains differ by floating rounding that depends
    on column scaling; keeping the lexicographically first move among ties
    makes search results invariant to affine rescaling. The order test comes
    first because most moves lose and it is cheaper than the tie test.
    """
    return delta > incumbent and not math.isclose(delta, incumbent, rel_tol=1e-9, abs_tol=1e-9)


class SearchError(ValueError):
    """Invalid search input (shape, degeneracy, or size limits)."""


@dataclass(frozen=True)
class SearchConfig:
    """Has no effect on any search: every search is deterministic, and its
    settings are the module constants above.  The searches still accept
    one, because the benchmark replica passes it."""

    seed: int = 0


def _node_names(names, p: int) -> tuple[str, ...]:
    if names is None:
        return tuple(f"x{i}" for i in range(p))
    names = tuple(names)
    if len(names) != p:
        raise SearchError("names must match the number of data columns")
    if len(set(names)) != p:
        raise SearchError("duplicate node names")
    return names


class _BicScorer:
    """Decomposable Gaussian BIC from the centered scatter matrix.

    A parent set is an int bitmask, bit ``u`` standing for column ``u``.
    Each local score is cached in a dict per node, keyed by the mask: at
    most p times the number of parent sets of size up to ``MAX_PARENTS``.
    Each strict climb's result is cached by its start, a tuple of parent
    masks.  Searches handed one scorer share both caches.
    """

    def __init__(self, data):
        x = np.asarray(data, dtype=float)
        if x.ndim != 2:
            raise SearchError("data must be a 2-d matrix")
        n, p = x.shape
        if n <= p:
            raise SearchError("need more rows than columns")
        if not np.all(np.isfinite(x)):
            raise SearchError("non-finite data")
        # Columns above 2**500 are scored in power-of-two units, which is
        # exact: a move's BIC gain does not depend on a column's units, and
        # bic_score adds back what they change in a total.
        units = np.maximum(extreme_exponent(x, axis=0), 0)
        x = np.ldexp(x, -units)
        self.units_offset = -n * math.log(2.0) * float(units.sum())
        centered = x - x.mean(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            self.scatter = centered.T @ centered
        if not np.all(np.isfinite(self.scatter)):
            raise SearchError("data too large: scatter matrix overflows")
        self.n = n
        self.p = p
        self._cache: list[dict[int, float]] = [{} for _ in range(p)]
        self.climbs: dict[tuple[int, ...], tuple[tuple[int, ...], float]] = {}

    def local(self, v: int, mask: int) -> float:
        cache = self._cache[v]
        cached = cache.get(mask)
        if cached is not None:
            return cached
        n = self.n
        svv = float(self.scatter[v, v])
        if mask:
            idx = _bits(mask)
            spp = self.scatter.take(idx, 0).take(idx, 1)
            spv = self.scatter[idx, v]
            # the LAPACK calls cho_factor and cho_solve make; the scatter
            # matrix was checked finite above
            factor, info = dpotrf(spp, lower=0, clean=0)
            if info == 0:
                beta, info = dpotrs(factor, spv, lower=0)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK potrf or potrs")
            if info > 0:  # a leading minor is not positive definite
                cache[mask] = -math.inf
                return -math.inf
            rss = svv - float(spv @ beta)
        else:
            rss = svv
        sigma2 = rss / n
        floor = 1e-12 * (svv / n if svv > 0 else 1.0)
        sigma2 = max(sigma2, floor)
        k = mask.bit_count() + 2  # slopes + intercept + variance
        score = -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) - 0.5 * k * math.log(n)
        cache[mask] = score
        return score

    def total(self, parents: list[int]) -> float:
        total = 0.0  # added left to right: from Python 3.12 sum() compensates
        for v in range(self.p):
            total += self.local(v, parents[v])
        return total


def _scorer(data) -> _BicScorer:
    """``data`` when it is already a scorer, else a new scorer of the matrix."""
    return data if isinstance(data, _BicScorer) else _BicScorer(data)


def bic_score(data, dag: EdgeGraph) -> float:
    """Gaussian BIC of a DAG; column i of ``data`` is ``dag.nodes[i]``."""
    dag.require_dag()
    scorer = _scorer(data)
    if len(dag.nodes) != scorer.p:
        raise SearchError("dag node count must match data columns")
    return scorer.units_offset + scorer.total(_masks(dag)[0])


# --- greedy searches over {add, delete, reverse} -------------------------

# A move on ``p`` nodes is the int ``op * p * p + head * p + tail``, with op
# _ADD, _DELETE or _REVERSE applied to the edge tail -> head.  It is also
# the move's index in a climb's delta table: the add, delete and reverse
# tables one after the other, each p x p with one row per head.
_ADD, _DELETE, _REVERSE = range(3)


def _move_parts(move: int, p: int) -> tuple[int, int, int]:
    """(op, tail, head) of a move on ``p`` nodes."""
    op, rest = divmod(move, p * p)
    head, tail = divmod(rest, p)
    return op, tail, head


def _descendant_masks(children) -> list[int]:
    """Each node's descendants in the DAG whose child sets are the bitmasks
    ``children``, as a bitmask; handed the parent sets, each node's
    ancestors.  Warshall's closure, one bitmask row per node."""
    reach = list(children)
    for k in range(len(reach)):
        bit, below = 1 << k, reach[k]
        for v, r in enumerate(reach):
            if r & bit:
                reach[v] = r | below
    return reach


def _legal_moves(children, parents) -> list[int]:
    """The legal moves in scan order: adds, then deletes, then reversals,
    each in (tail, head) order."""
    ancestors = _descendant_masks(parents)
    p = len(parents)
    pp = p * p
    nodes = range(p)
    open_heads = sum(1 << v for v in nodes if parents[v].bit_count() < MAX_PARENTS)
    adds, dels, revs = [], [], []
    for u in nodes:
        cu = children[u]
        # adding u -> v closes a cycle iff v is an ancestor of u
        heads = open_heads & ~(cu | ancestors[u] | 1 << u)
        reversible = parents[u].bit_count() < MAX_PARENTS
        for v in nodes:
            if heads >> v & 1:
                adds.append(v * p + u)
            elif cu >> v & 1:
                dels.append(pp + v * p + u)
                # reversing u -> v closes a cycle iff another u ~> v path
                # exists, that is iff another child of u is an ancestor of v
                if reversible and not cu & ancestors[v]:
                    revs.append(2 * pp + v * p + u)
    return adds + dels + revs


def _apply_move(children, parents, move: int) -> None:
    op, u, v = _move_parts(move, len(parents))
    # add sets the edge's bits and delete clears them
    children[u] ^= 1 << v
    parents[v] ^= 1 << u
    if op == _REVERSE:
        children[v] |= 1 << u
        parents[u] |= 1 << v


def _inverse_move(move: int, p: int) -> int:
    op, u, v = _move_parts(move, p)
    if op == _ADD:
        return move + p * p  # delete u -> v
    if op == _DELETE:
        return move - p * p  # add u -> v
    return (_REVERSE * p + u) * p + v  # reverse v -> u


def _scored_moves(scorer: _BicScorer, deltas: list, children, parents):
    """The legal moves in scan order and their deltas, each taken from
    ``deltas`` when there and otherwise scored and stored there."""
    p = scorer.p
    moves = _legal_moves(children, parents)
    now = None  # each node's local score in the current DAG
    for move in moves:
        if deltas[move] is not None:
            continue
        if now is None:
            now = [scorer.local(v, parents[v]) for v in range(p)]
        op, u, v = _move_parts(move, p)
        if op == _ADD:
            deltas[move] = scorer.local(v, parents[v] | 1 << u) - now[v]
        elif op == _DELETE:
            deltas[move] = scorer.local(v, parents[v] ^ 1 << u) - now[v]
        else:
            deltas[move] = (
                scorer.local(v, parents[v] ^ 1 << u)
                + scorer.local(u, parents[u] | 1 << v)
                - now[v]
                - now[u]
            )
    return moves, [deltas[move] for move in moves]


def _greedy_climb(scorer: _BicScorer, parents0, max_stalls: int = 0) -> tuple[tuple, float]:
    """Best-move search over {add, delete, reverse}; the best DAG seen and its score.

    Each step scans every legal move once and takes the best strictly
    improving one; a move on the tabu list (the inverses of the last
    ``TABU_LENGTH`` moves) qualifies only when it beats the best score
    seen.  When no move improves, the best non-tabu move is taken as a stall,
    at most ``max_stalls`` times in a row without a new best.  With
    ``max_stalls=0`` every accepted move is a new best: strict ascent.

    A DAG is a tuple of parent masks, and moves are ints (``_move_parts``).
    A move's delta reads only the parents of its head, and of its tail for a
    reversal, so each delta is kept in the add, delete or reverse table
    between steps (Scutari, JSS 2010).  A step clears the rows of the heads
    whose parents it changed, and the reverse entries of those tails.
    """
    p = scorer.p
    pp = p * p
    parents = list(parents0)
    children = _children(parents)
    score = scorer.total(parents)
    best, best_score = tuple(parents), score
    tabu: deque = deque(maxlen=TABU_LENGTH)
    stalls = 0
    deltas: list[float | None] = [None] * (3 * pp)
    unscored = [None] * p
    while True:
        up, up_delta, stall, stall_delta = None, _EPS_GAIN, None, -math.inf
        tabu_moves = set(tabu)
        for move, delta in zip(*_scored_moves(scorer, deltas, children, parents)):
            if move in tabu_moves:
                if score + delta > best_score + _EPS_GAIN and _beats(delta, up_delta):
                    up, up_delta = move, delta
                continue
            # _beats compares first too; the order test here saves its call
            # for the many moves that lose
            if delta > up_delta and _beats(delta, up_delta):
                up, up_delta = move, delta
            if stall is None or delta > stall_delta and _beats(delta, stall_delta):
                stall, stall_delta = move, delta
        if up is None:
            if stall is None or stalls >= max_stalls:
                return best, best_score
            up, up_delta = stall, stall_delta
            stalls += 1
        _apply_move(children, parents, up)
        op, u, v = _move_parts(up, p)
        for w in (u, v) if op == _REVERSE else (v,):
            # w's row in each table, then the reversals with tail w
            for row in range(w * p, 3 * pp, pp):
                deltas[row : row + p] = unscored
            deltas[2 * pp + w :: p] = unscored
        score += up_delta
        tabu.append(_inverse_move(up, p))
        if score > best_score + _EPS_GAIN:
            best, best_score, stalls = tuple(parents), score, 0


def _covered_edges(parents) -> list[tuple[int, int]]:
    """Edges u -> v with pa(v) == pa(u) | {u}, in sorted order.

    Reversing a covered edge gives a Markov-equivalent DAG, and every member
    of an equivalence class is reachable by such reversals (Chickering 1995),
    so each one leaves the decomposable score unchanged.
    """
    return sorted(
        (u, v) for v, pv in enumerate(parents) for u in _bits(pv) if pv == parents[u] | 1 << u
    )


def _climb(scorer: _BicScorer, parents0) -> tuple[tuple, float]:
    """Strict ascent and plateau walk from ``parents0``, run once per scorer.

    The walk (see ``hill_climb``) takes only a climb that ends more than
    ``_EPS_GAIN`` above the incumbent, so each incumbent scores higher than
    the last, and the walk ends also where a singular design breaks the ties.
    """
    if parents0 not in scorer.climbs:
        parents, score = _greedy_climb(scorer, parents0)
        seen, queue = {parents}, deque([parents])
        while queue:
            current = queue.popleft()
            for u, v in _covered_edges(current):
                flipped = list(current)
                flipped[v] ^= 1 << u
                flipped[u] |= 1 << v
                member = tuple(flipped)
                if member in seen:
                    continue
                seen.add(member)
                climbed, climbed_score = _greedy_climb(scorer, member)
                if climbed_score > score + _EPS_GAIN:
                    parents, score = climbed, climbed_score
                    seen, queue = {parents}, deque([parents])
                    break
                queue.append(member)
        scorer.climbs[parents0] = parents, score
    return scorer.climbs[parents0]


def _dag(names: tuple[str, ...], parents) -> EdgeGraph:
    """The DAG over ``names`` with parent masks ``parents``; GraphError on a cycle."""
    return _graph(names, parents).require_dag()


def hill_climb(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Greedy best-improvement search over {add, delete, reverse}, across plateaus.

    Strict ascent can stop on a plateau, where every remaining gain first
    needs one or more reversals of covered edges, which tie exactly.  So at
    each stop the DAGs reachable by covered-edge reversals (the
    Markov-equivalent DAGs) are visited breadth-first, edges in sorted order,
    and the strict ascent is re-run from each; the walk continues from the
    first climb that ends above the incumbent.  The search ends when no
    climb from the reachable class ends above it.  The search starts from
    the empty graph, every accepted move is a strict improvement and no
    randomness is used.  ``data`` is a matrix or the ``_BicScorer`` of one;
    hc, tabu and fges handed one scorer share its local scores, and hc and
    tabu its climb.  ``config`` has no effect.
    """
    scorer = _scorer(data)
    names = _node_names(names, scorer.p)
    parents, _ = _climb(scorer, (0,) * scorer.p)
    return _dag(names, parents)


def tabu_search(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Hill climbing that escapes local optima via a tabu list.

    The ascent is ``hill_climb``'s, taken from the scorer when hill_climb
    already ran on it.  From its result hill-climb's move loop continues
    with a tabu list and up to ``TABU_MAX_STALLS`` stalls without a new
    global best.  The best structure encountered is returned, so the result
    never scores below hill_climb on the same data.  ``config`` has no
    effect.
    """
    scorer = _scorer(data)
    names = _node_names(names, scorer.p)
    parents, _ = _climb(scorer, (0,) * scorer.p)
    best, _ = _greedy_climb(scorer, parents, TABU_MAX_STALLS)
    return _dag(names, best)


# --- greedy equivalence search -------------------------------------------


def _is_clique(mask: int, adj) -> bool:
    """True when the nodes of ``mask`` are pairwise adjacent in ``adj``."""
    return all(mask & ~adj[a] == 1 << a for a in _bits(mask))


def _semi_directed_reaches(y: int, x: int, blocked: int, step) -> bool:
    """True when a semi-directed path y -> ... -> x avoids the nodes of
    ``blocked``; ``step`` holds each node's children and undirected
    neighbours, as a bitmask."""
    frontier = 1 << y
    seen = frontier | blocked
    while frontier:
        reached = 0
        for v in _bits(frontier):
            reached |= step[v]
        frontier = reached & ~seen
        if frontier >> x & 1:
            return True
        seen |= frontier
    return False


def _insert_row(scorer: _BicScorer, y: int, adj, und, parents) -> list:
    """The Insert(x, y, T) operators into ``y`` that gain more than
    ``_EPS_GAIN``, in candidate order, as (delta, x, T, NA(y, x) | T), the
    last a bitmask.

    ``adj``, ``und`` and ``parents`` give each node's adjacent nodes,
    undirected neighbours and parents as bitmasks.  A row reads only those
    of ``y`` and the adjacent nodes of ``y``'s undirected neighbours.
    """
    row = []
    nb_y = und[y]
    for x in range(scorer.p):
        if x == y or adj[y] >> x & 1:
            continue
        na = nb_y & adj[x]
        t0 = _bits(nb_y & ~adj[x])
        # y's new parent set NA | T | pa(y) | {x} has |T| more members than
        # at T = {}, so a T larger than ``room`` exceeds ``MAX_PARENTS``
        room = MAX_PARENTS - (na | parents[y]).bit_count() - 1
        for size in range(min(len(t0), room) + 1):
            for t in itertools.combinations(t0, size):
                block = na
                for v in t:
                    block |= 1 << v
                base = block | parents[y]
                delta = scorer.local(y, base | 1 << x) - scorer.local(y, base)
                if delta > _EPS_GAIN:
                    row.append((delta, x, t, block))
    return row


def _stored_insert_row(rows: dict, scorer: _BicScorer, y: int, adj, und, parents):
    """Row ``y`` of the Insert table ``rows``, rebuilt when what it reads changed."""
    reads = (adj[y], und[y], parents[y], *(adj[v] for v in _bits(und[y])))
    stored = rows.get(y)
    if stored is None or stored[0] != reads:
        stored = rows[y] = reads, _insert_row(scorer, y, adj, und, parents)
    return stored[1]


def fges(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Greedy equivalence search: Insert phase, then Delete phase.

    Operators follow the standard characterization: Insert(x, y, T) requires
    NA(y, x) | T to form a clique and to block every semi-directed path from
    y to x; Delete(x, y, H) requires NA(y, x) \\ H to form a clique.  Each
    step applies the first of the best-scoring operators and re-completes
    the pattern: unshielded colliders, then Meek's rules R1-R3.  Every valid
    operator leaves a PDAG that has a consistent extension (Chickering,
    JMLR 2002, Theorems 15 and 17), so the class it names always exists.
    The scored Insert operators into each node are kept between steps until
    the part of the pattern they read changes (Ramsey et al., Int. J. Data
    Sci. Anal. 2017).  ``data`` is a matrix or the ``_BicScorer`` of one.
    ``config`` has no effect.
    """
    scorer = _scorer(data)
    p = scorer.p
    names = _node_names(names, p)
    nodes = range(p)
    parents, und = [0] * p, [0] * p

    def neighbours():
        """Adjacent nodes and children of each node, as bitmasks."""
        children = _children(parents)
        adj = [und[v] | parents[v] | children[v] for v in nodes]
        return adj, children

    # Each scan scores an operator from the cached local scores (the Insert
    # operators from their table) first, and checks its validity only when
    # its delta beats that of every valid operator before it (a NaN delta
    # never does), so it returns the first valid operator of largest delta.
    # Validity can change anywhere, so it is never stored.
    rows: dict[int, tuple] = {}

    def best_insert():
        adj, children = neighbours()
        step = [children[v] | und[v] for v in nodes]
        best, found = _EPS_GAIN, None
        for y in nodes:
            for delta, x, t, block in _stored_insert_row(rows, scorer, y, adj, und, parents):
                if not delta > best or not _is_clique(block, adj):
                    continue
                if not _semi_directed_reaches(y, x, block, step):
                    best, found = delta, (x, y, t)
        return found

    def best_delete():
        adj, _ = neighbours()
        best, found = _EPS_GAIN, None
        for y in nodes:
            nb_y = und[y]
            # x -> y or x - y
            for x in _bits(parents[y] | nb_y):
                na = nb_y & adj[x]
                na_bits = _bits(na)
                for size in range(len(na_bits) + 1):
                    for h in itertools.combinations(na_bits, size):
                        rest = na - sum(1 << v for v in h)
                        base = (rest | parents[y]) & ~(1 << x)
                        delta = scorer.local(y, base) - scorer.local(y, base | 1 << x)
                        if delta > best and _is_clique(rest, adj):
                            best, found = delta, (x, y, h)
        return found

    def run_phase(best_fn, apply_fn):
        while (op := best_fn()) is not None:
            apply_fn(*op)
            parents[:], und[:] = _complete_pattern(parents, und)

    def orient(a, b):
        """Make a -> b of the edge a - b, or of no edge."""
        und[a] &= ~(1 << b)
        und[b] &= ~(1 << a)
        parents[b] |= 1 << a

    def apply_insert(x, y, t):
        for v in (x, *t):
            orient(v, y)

    def apply_delete(x, y, h):
        orient(x, y)  # x -> y whether it was x -> y or x - y, then removed
        parents[y] ^= 1 << x
        for v in h:
            for u in (y, x):
                if und[u] >> v & 1:
                    orient(u, v)

    run_phase(best_insert, apply_insert)
    run_phase(best_delete, apply_delete)
    return _graph(names, parents, und)


# --- exhaustive small-graph oracle ----------------------------------------


@dataclass(frozen=True)
class EnumerationResult:
    best: EdgeGraph
    best_score: float
    best_cpdag: EdgeGraph
    n_dags: int


def enumerate_best_dag(data, *, names=None) -> EnumerationResult:
    """Score every DAG on up to 5 nodes; ties break on sorted edge sets."""
    scorer = _BicScorer(data)
    p = scorer.p
    if p > 5:
        raise SearchError("exhaustive enumeration is limited to 5 nodes")
    names = _node_names(names, p)

    seen: set[frozenset] = set()
    best_parents: list[int] | None = None
    best_key: tuple | None = None
    best_score = -math.inf
    for perm in itertools.permutations(range(p)):
        pairs = [(perm[i], perm[j]) for i in range(p) for j in range(i + 1, p)]
        m = len(pairs)
        for mask in range(1 << m):
            edges = frozenset(pairs[k] for k in range(m) if mask >> k & 1)
            if edges in seen:
                continue
            seen.add(edges)
            parents = [0] * p
            for u, v in edges:
                parents[v] |= 1 << u
            score = scorer.total(parents)
            key = tuple(sorted(edges))
            if score > best_score or (score == best_score and key < best_key):
                best_parents, best_key, best_score = parents, key, score

    best = _dag(names, best_parents)
    return EnumerationResult(
        best=best, best_score=best_score, best_cpdag=cpdag_of(best), n_dags=len(seen)
    )


# --- causal additive model -------------------------------------------------

_N_BASIS = 10
_LAMBDA_GRID = np.logspace(-6.0, 6.0, 25)


def _bspline_basis(knots: np.ndarray, x: np.ndarray, nu: int = 0) -> np.ndarray:
    """Cubic B-splines on ``knots`` (nu = 0) or their second derivatives (nu = 2) at ``x``.

    One row per point, one column per basis function.  The Cox-de Boor
    recursion runs for all points at once on the span ``t[l] <= x < t[l+1]``
    (the last span closed), with the derivative taken in the last ``nu``
    steps (de Boor, *A Practical Guide to Splines*).  Each product and
    quotient is the one scipy's ``BSpline`` evaluates, so the values agree
    with ``BSpline.design_matrix`` and ``BSpline(..., nu=2)`` to the last bit.
    The end knots are fourfold and the interior ones distinct, as
    ``_SplineTerm`` places them, so no span has zero length.
    """
    nb = knots.size - 4
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, 3, nb - 1)
    h = np.zeros((x.size, 4))
    h[:, 0] = 1.0
    for j in range(1, 4):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for m in range(1, j + 1):
            right = knots[span + m]
            left = knots[span + m - j]
            if j <= 3 - nu:
                w = prev[:, m - 1] / (right - left)
                h[:, m - 1] += w * (right - x)
                h[:, m] = w * (x - left)
            else:
                w = j * prev[:, m - 1] / (right - left)
                h[:, m - 1] -= w
                h[:, m] = w
    basis = np.zeros((x.size, nb))
    basis[np.arange(x.size)[:, None], span[:, None] + np.arange(-3, 1)] = h
    return basis


class _SplineTerm:
    """Centered cubic B-spline basis with an exact curvature penalty.

    The B-splines sum to one, so their centered columns sum to zero.  The
    last column and its penalty row and column are dropped: the remaining
    ``_N_BASIS - 1`` columns span the same centered functions with no null
    vector (the centering constraint absorbed).
    """

    def __init__(self, x: np.ndarray):
        lo, hi = float(np.min(x)), float(np.max(x))
        if hi - lo <= 0:
            raise SearchError("degenerate column for smoother")
        interior = np.unique(
            np.quantile(x, np.linspace(0.0, 1.0, _N_BASIS - 2)[1:-1])
        )
        interior = interior[(interior > lo) & (interior < hi)]
        if interior.size < _N_BASIS - 4:
            interior = np.linspace(lo, hi, _N_BASIS - 2)[1:-1]
        self.knots = np.concatenate([[lo] * 4, interior, [hi] * 4])
        design = _bspline_basis(self.knots, x)
        self.basis = (design - design.mean(axis=0))[:, :-1]
        self.penalty = self._curvature_penalty(self.knots)[:-1, :-1]

    @staticmethod
    def _curvature_penalty(knots: np.ndarray) -> np.ndarray:
        """Integral of products of basis second derivatives (exact).

        Second derivatives of cubic splines are piecewise linear, so their
        pairwise products are quadratic per knot span and two-point
        Gauss-Legendre quadrature integrates them exactly.
        """
        spans = np.unique(knots)
        gauss = np.array([-1.0, 1.0]) / math.sqrt(3.0)
        half = 0.5 * np.diff(spans)
        mid = 0.5 * (spans[:-1] + spans[1:])
        d2 = _bspline_basis(knots, (mid[:, None] + half[:, None] * gauss).ravel(), nu=2)
        return (d2 * np.repeat(half, 2)[:, None]).T @ d2


@dataclass(frozen=True)
class _GamFit:
    rss: float
    edf: float
    lam: float


def _smoother_eigensystem(xtx, omega) -> tuple[np.ndarray, np.ndarray]:
    """(mu, V) of the generalized eigenproblem ``xtx V = (xtx + omega) V diag(mu)``,
    with ``V'(xtx + omega) V = I``.

    It depends on the parent set only, not on the response.  The LAPACK call
    is the one ``scipy.linalg.eigh(xtx, xtx + omega)`` makes.
    """
    mu, v, info = dsygvd(xtx, xtx + omega, itype=1, jobz="V", uplo="L")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK sygvd")
    if info > 0:
        raise SearchError("smoother failure: no valid penalty value")
    return mu, v


def _penalized_fits(eigensystem, xty, yty, lams) -> tuple[np.ndarray, np.ndarray]:
    """rss and edf of the penalized least-squares fit at each penalty in ``lams``.

    The smoother's eigensystem turns ``xtx + lam * omega`` into
    ``V^-T diag(mu + lam (1 - mu)) V^-1`` for every ``lam`` at once.
    """
    mu, v = eigensystem
    c2 = (v.T @ xty) ** 2
    d = mu + np.outer(lams, 1.0 - mu)
    rss = np.maximum(yty - ((2.0 * d - mu) / d**2) @ c2, 0.0)
    edf = (mu / d).sum(axis=1)
    return rss, edf


def _gcv_fit(eigensystem, xty, yty, n: int) -> _GamFit:
    """The fit whose penalty in ``_LAMBDA_GRID`` minimizes GCV; the first on ties."""
    rss, edf = _penalized_fits(eigensystem, xty, yty, _LAMBDA_GRID)
    valid = np.flatnonzero(edf < n)
    if not valid.size:
        raise SearchError("smoother failure: no valid penalty value")
    best = valid[np.argmin(n * rss[valid] / (n - edf[valid]) ** 2)]
    return _GamFit(rss=float(rss[best]), edf=float(edf[best]), lam=float(_LAMBDA_GRID[best]))


def _prune_node(system, v: int, preds: list[int], n: int) -> list[int]:
    """Approximate F-test of each smooth term; keep parents with p < CAM_PRUNE_ALPHA.

    ``system(v, parents)`` gives the smoother eigensystem of ``parents``,
    ``X'y`` and ``y'y`` of ``v``.
    """
    full = _gcv_fit(*system(v, preds), n)
    kept = []
    for u in preds:
        (rss,), (edf,) = _penalized_fits(*system(v, [w for w in preds if w != u]), [full.lam])
        df1 = full.edf - edf
        df2 = n - full.edf
        if df1 <= 1e-9 or df2 <= 1e-9 or full.rss <= 0:
            continue
        f_stat = ((rss - full.rss) / df1) / (full.rss / df2)
        if f_stat <= 0:
            continue
        p_value = float(fdtrc(df1, df2, f_stat))
        if p_value < CAM_PRUNE_ALPHA:
            kept.append(u)
    return kept


def cam_learn(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Causal additive model: greedy order search, then term-wise pruning.

    Stage 1 repeatedly inserts the order-compatible edge with the largest
    additive-regression log-likelihood gain (penalized cubic splines, GCV
    smoothing).  Stage 2 regresses each node on all order-preceding nodes
    and keeps only parents whose smooth term tests significant below
    ``CAM_PRUNE_ALPHA``.  Columns are standardized internally, after any
    column of extreme magnitude is put in power-of-two units.  Every fit
    slices one Gram matrix and penalty of the intercept and all spline
    columns, and each parent list's eigensystem is computed once and shared
    by every child fitted on it.  ``config`` has no effect.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise SearchError("data must be a 2-d matrix")
    n, p = x.shape
    if n < 50:
        raise SearchError("need at least 50 rows")
    if p > 20:
        raise SearchError("at most 20 columns supported")
    if not np.all(np.isfinite(x)):
        raise SearchError("non-finite data")
    x = without_overflow(x, axis=0)
    if np.any(is_constant(x, axis=0)):
        raise SearchError("degenerate column for smoother")
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    if np.linalg.matrix_rank(np.column_stack([np.ones(n), z])) < p + 1:
        raise SearchError("collinear columns")
    names = _node_names(names, p)
    terms = [_SplineTerm(z[:, j]) for j in range(p)]
    design = np.hstack([np.ones((n, 1))] + [t.basis for t in terms])
    gram, xtz = design.T @ design, design.T @ z
    omega = sla.block_diag(np.zeros((1, 1)), *(t.penalty for t in terms))
    width = _N_BASIS - 1
    # keyed by the ordered parent list: the column order fixes the bits
    eigensystems: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def system(v: int, parent_list):
        cols = np.concatenate(
            [[0]] + [np.arange(1 + width * u, 1 + width * (u + 1)) for u in parent_list]
        )
        key = tuple(parent_list)
        if key not in eigensystems:
            block = np.ix_(cols, cols)
            eigensystems[key] = _smoother_eigensystem(gram[block], omega[block])
        return eigensystems[key], xtz[cols, v], float(z[:, v] @ z[:, v])

    rss_cache: list[dict[int, float]] = [{} for _ in range(p)]

    def rss_of(v: int, mask: int) -> float:
        if mask not in rss_cache[v]:
            fit = _gcv_fit(*system(v, _bits(mask)), n)
            rss_cache[v][mask] = max(fit.rss, 1e-300)
        return rss_cache[v][mask]

    parents = [0] * p
    while True:
        best, best_gain = None, _EPS_GAIN
        reach = _descendant_masks(_children(parents))
        for v in range(p):
            base = rss_of(v, parents[v])
            for u in range(p):
                if u == v or (parents[v] | reach[v]) >> u & 1:
                    continue
                new = rss_of(v, parents[v] | 1 << u)
                gain = 0.5 * n * math.log(base / new)
                if gain > best_gain:
                    best, best_gain = (u, v), gain
        if best is None:
            break
        u, v = best
        parents[v] |= 1 << u

    order = _topological_order(parents)
    pruned = [0] * p
    for pos, v in enumerate(order):
        preds = order[:pos]
        if preds:
            pruned[v] = sum(1 << u for u in _prune_node(system, v, preds, n))
    return _dag(names, pruned)


# --- pairwise generalized-correlation graph --------------------------------


def gc_graph(
    table: ParameterTable, position: Position, names=None, warnings: list[str] | None = None
) -> set[tuple[str, str]]:
    """Directed edges from the pairwise kernel-cause rule (cycles allowed).

    Every unordered pair of parameters is tested; pairs whose computation
    fails are skipped with a warning.  The warning is appended to
    ``warnings`` as ``gc search for <position>: skipping pair (a, b): ...``
    when a list is given, and logged otherwise.
    """
    names = tuple(names) if names is not None else PARAMETER_NAMES
    pairs = GeneralizedCorrPairs([table.column(name, position) for name in names])
    edges: set[tuple[str, str]] = set()
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        try:
            pair = pairs.pair(i, j)
        except AssociationError as exc:
            if warnings is None:
                _log.warning("skipping pair (%s, %s): %s", a, b, exc)
            else:
                warnings.append(f"gc search for {position.value}: skipping pair ({a}, {b}): {exc}")
            continue
        if pair.direction is Direction.X_CAUSES_Y:
            edges.add((a, b))
        elif pair.direction is Direction.Y_CAUSES_X:
            edges.add((b, a))
    return edges
