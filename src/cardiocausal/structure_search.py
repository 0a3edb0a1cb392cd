"""Score-based causal structure discovery over a parameter table.

All searches use the decomposable Gaussian BIC computed from the scatter
matrix, so Markov-equivalent graphs score equal up to floating rounding and
single-edge edits are evaluated incrementally.  Every search is deterministic:
candidate moves are ranked lexicographically by (operator, from, to) and the
first strict maximum wins.
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
from .graphs import EdgeGraph, _complete_pattern, adjacency, cpdag_of, topological_sort
from .record_io import PARAMETER_NAMES, ParameterTable, Position

_log = logging.getLogger(__name__)

_EPS_GAIN = 1e-9


def _beats(delta: float, incumbent: float) -> bool:
    """Strictly better, treating near-equal deltas as ties.

    Mathematically equal move gains differ by floating rounding that depends
    on column scaling; keeping the lexicographically first move among ties
    makes search results invariant to affine rescaling.
    """
    if math.isclose(delta, incumbent, rel_tol=1e-9, abs_tol=1e-9):
        return False
    return delta > incumbent


class SearchError(ValueError):
    """Invalid search input (shape, degeneracy, or size limits)."""


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  ``seed`` has no effect on any result: every search
    is deterministic.  It is kept so that a run can echo the seed it was
    given."""

    max_parents: int = 4
    tabu_length: int = 10
    tabu_max_stalls: int = 15
    cam_prune_alpha: float = 0.001
    seed: int = 0

    def __post_init__(self):
        for field in ("max_parents", "tabu_length", "tabu_max_stalls"):
            if getattr(self, field) < 1:
                raise SearchError(f"{field} must be positive")
        if not 0.0 < self.cam_prune_alpha < 1.0:
            raise SearchError("cam_prune_alpha must lie strictly between 0 and 1")


def _node_names(names, p: int) -> tuple[str, ...]:
    if names is None:
        return tuple(f"x{i}" for i in range(p))
    names = tuple(names)
    if len(names) != p:
        raise SearchError("names must match the number of data columns")
    return names


class _BicScorer:
    """Decomposable Gaussian BIC from the centered scatter matrix.

    Caches each local score by (node, parent set), so at most p times the
    number of parent sets of size up to ``max_parents``, and each strict
    climb's result by (config, start edges).  Searches handed one scorer
    share both caches.
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
        self._cache: dict[tuple[int, frozenset[int]], float] = {}
        self.climbs: dict[tuple[SearchConfig, frozenset], tuple[frozenset, float]] = {}

    def local(self, v: int, parents: frozenset[int]) -> float:
        key = (v, parents)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n = self.n
        svv = float(self.scatter[v, v])
        if parents:
            idx = sorted(parents)
            spp = self.scatter[np.ix_(idx, idx)]
            spv = self.scatter[idx, v]
            # the LAPACK calls cho_factor and cho_solve make; the scatter
            # matrix was checked finite above
            factor, info = dpotrf(spp, lower=0, clean=0)
            if info == 0:
                beta, info = dpotrs(factor, spv, lower=0)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK potrf or potrs")
            if info > 0:  # a leading minor is not positive definite
                self._cache[key] = -math.inf
                return -math.inf
            rss = svv - float(spv @ beta)
        else:
            rss = svv
        sigma2 = rss / n
        floor = 1e-12 * (svv / n if svv > 0 else 1.0)
        sigma2 = max(sigma2, floor)
        k = len(parents) + 2  # slopes + intercept + variance
        score = -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) - 0.5 * k * math.log(n)
        self._cache[key] = score
        return score

    def total(self, parents: dict[int, set[int]]) -> float:
        return sum(self.local(v, frozenset(parents[v])) for v in range(self.p))


def _scorer(data) -> _BicScorer:
    """``data`` when it is already a scorer, else a new scorer of the matrix."""
    return data if isinstance(data, _BicScorer) else _BicScorer(data)


def bic_score(data, dag: EdgeGraph) -> float:
    """Gaussian BIC of a DAG; column i of ``data`` is ``dag.nodes[i]``."""
    dag.require_dag()
    scorer = _scorer(data)
    if len(dag.nodes) != scorer.p:
        raise SearchError("dag node count must match data columns")
    index = {name: i for i, name in enumerate(dag.nodes)}
    return scorer.units_offset + sum(
        scorer.local(index[v], frozenset(index[a] for a in dag.parents(v)))
        for v in dag.nodes
    )


# --- greedy searches over {add, delete, reverse} -------------------------


def _descendants(children) -> dict[int, set[int]]:
    """Nodes reachable from each node of a DAG by one or more edges."""
    reach: dict[int, set[int]] = {}

    def visit(v: int) -> set[int]:
        if v not in reach:
            reach[v] = set()
            for c in children[v]:
                reach[v] |= {c} | visit(c)
        return reach[v]

    for v in children:
        visit(v)
    return reach


def _legal_moves(children, parents, p: int, max_parents: int) -> list[tuple[str, int, int]]:
    reach = _descendants(children)
    adds, dels, revs = [], [], []
    for u in range(p):
        for v in range(p):
            if u == v:
                continue
            if v in children[u]:
                dels.append(("delete", u, v))
                # reversing u -> v closes a cycle iff another u ~> v path exists
                if len(parents[u]) < max_parents and not any(v in reach[c] for c in children[u]):
                    revs.append(("reverse", u, v))
            elif u not in children[v]:
                if len(parents[v]) < max_parents and u not in reach[v]:
                    adds.append(("add", u, v))
    return adds + dels + revs


def _move_delta(scorer: _BicScorer, parents, move) -> float:
    op, u, v = move
    pv = frozenset(parents[v])
    if op == "add":
        return scorer.local(v, pv | {u}) - scorer.local(v, pv)
    if op == "delete":
        return scorer.local(v, pv - {u}) - scorer.local(v, pv)
    pu = frozenset(parents[u])
    return (
        scorer.local(v, pv - {u})
        + scorer.local(u, pu | {v})
        - scorer.local(v, pv)
        - scorer.local(u, pu)
    )


def _apply_move(children, parents, move) -> None:
    op, u, v = move
    if op == "add":
        children[u].add(v)
        parents[v].add(u)
    elif op == "delete":
        children[u].discard(v)
        parents[v].discard(u)
    else:
        children[u].discard(v)
        parents[v].discard(u)
        children[v].add(u)
        parents[u].add(v)


def _inverse_move(move) -> tuple[str, int, int]:
    op, u, v = move
    if op == "add":
        return ("delete", u, v)
    if op == "delete":
        return ("add", u, v)
    return ("reverse", v, u)


def _state_from_edges(p: int, edges) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Children and parents of each of the ``p`` nodes."""
    nodes = range(p)
    edges = tuple(edges)
    return (
        adjacency(nodes, edges, one_way=True),
        adjacency(nodes, [(v, u) for u, v in edges], one_way=True),
    )


def _edges_of(children) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for u, cs in children.items() for v in cs)


def _greedy_climb(
    scorer: _BicScorer, config: SearchConfig, edges0, max_stalls: int = 0
) -> tuple[frozenset, float]:
    """Best-move search over {add, delete, reverse}; the best DAG seen and its score.

    Each step scores every legal move once and takes the best strictly
    improving one; a move on the tabu list (the inverses of the last
    ``config.tabu_length`` moves) qualifies only when it beats the best score
    seen.  When no move improves, the best non-tabu move is taken as a stall,
    at most ``max_stalls`` times in a row without a new best.  With
    ``max_stalls=0`` every accepted move is a new best: strict ascent.
    """
    children, parents = _state_from_edges(scorer.p, edges0)
    score = scorer.total(parents)
    best_edges, best_score = _edges_of(children), score
    tabu: deque = deque(maxlen=config.tabu_length)
    stalls = 0
    while True:
        up, up_delta, stall, stall_delta = None, _EPS_GAIN, None, -math.inf
        for move in _legal_moves(children, parents, scorer.p, config.max_parents):
            delta = _move_delta(scorer, parents, move)
            if move in tabu:
                if score + delta > best_score + _EPS_GAIN and _beats(delta, up_delta):
                    up, up_delta = move, delta
                continue
            if _beats(delta, up_delta):
                up, up_delta = move, delta
            if stall is None or _beats(delta, stall_delta):
                stall, stall_delta = move, delta
        if up is None:
            if stall is None or stalls >= max_stalls:
                return best_edges, best_score
            up, up_delta = stall, stall_delta
            stalls += 1
        _apply_move(children, parents, up)
        score += up_delta
        tabu.append(_inverse_move(up))
        if score > best_score + _EPS_GAIN:
            best_edges, best_score, stalls = _edges_of(children), score, 0


def _covered_edges(parents) -> list[tuple[int, int]]:
    """Edges u -> v with pa(v) == pa(u) | {u}, in sorted order.

    Reversing a covered edge gives a Markov-equivalent DAG, and every member
    of an equivalence class is reachable by such reversals (Chickering 1995),
    so each one leaves the decomposable score unchanged.
    """
    return sorted((u, v) for v, pv in parents.items() for u in pv if pv == parents[u] | {u})


def _plateau_escape(
    scorer: _BicScorer, config: SearchConfig, edges
) -> tuple[frozenset, float] | None:
    """Strict climb from the first equivalent DAG that has an improving move.

    Visits breadth-first the DAGs reachable from ``edges`` by covered-edge
    reversals; None when no DAG in that class has a strictly improving move.
    """
    seen = {edges}
    queue = deque([edges])
    while queue:
        current = queue.popleft()
        for u, v in _covered_edges(_state_from_edges(scorer.p, current)[1]):
            member = (current - {(u, v)}) | {(v, u)}
            if member in seen:
                continue
            seen.add(member)
            climbed = _greedy_climb(scorer, config, member)
            if climbed[0] != member:
                return climbed
            queue.append(member)
    return None


def _climb(scorer: _BicScorer, config: SearchConfig, edges0) -> tuple[frozenset, float]:
    """Strict ascent and plateau walk from ``edges0``, run once per scorer."""
    key = (config, edges0)
    if key not in scorer.climbs:
        edges, score = _greedy_climb(scorer, config, edges0)
        while (escaped := _plateau_escape(scorer, config, edges)) is not None:
            edges, score = escaped
        scorer.climbs[key] = edges, score
    return scorer.climbs[key]


def _dag(names: tuple[str, ...], edges) -> EdgeGraph:
    """The DAG over ``names`` with column-index edges; GraphError on a cycle."""
    return EdgeGraph(names, frozenset((names[u], names[v]) for u, v in edges)).require_dag()


def hill_climb(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Greedy best-improvement search over {add, delete, reverse}, across plateaus.

    Strict ascent can stop on a plateau, where every remaining gain first
    needs one or more reversals of covered edges, which tie exactly.  So at
    each stop the DAGs reachable by covered-edge reversals (the
    Markov-equivalent DAGs) are visited breadth-first, edges in sorted order,
    and the strict ascent is re-run from each; the first one that climbs
    becomes the incumbent and the walk repeats from its result.  The search
    ends when no DAG in the reachable class has a strictly improving move.
    The search starts from the empty graph, every accepted move is a strict
    improvement and no randomness is used.  ``data`` is a matrix or the
    ``_BicScorer`` of one; hc, tabu and fges handed one scorer share its
    local scores, and hc and tabu its climb.
    """
    config = config or SearchConfig()
    scorer = _scorer(data)
    names = _node_names(names, scorer.p)
    best_edges, _ = _climb(scorer, config, frozenset())
    return _dag(names, best_edges)


def tabu_search(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Hill climbing that escapes local optima via a tabu list.

    The ascent is ``hill_climb``'s, taken from the scorer when hill_climb
    already ran on it.  From its result hill-climb's move loop continues
    with a tabu list and up to ``tabu_max_stalls`` stalls without a new
    global best.  The best structure encountered is returned, so the result
    never scores below hill_climb on the same data and configuration.
    """
    config = config or SearchConfig()
    scorer = _scorer(data)
    names = _node_names(names, scorer.p)
    edges, _ = _climb(scorer, config, frozenset())
    best_edges, _ = _greedy_climb(scorer, config, edges, config.tabu_max_stalls)
    return _dag(names, best_edges)


# --- greedy equivalence search -------------------------------------------


def _is_clique(nodes, adj) -> bool:
    return all(b in adj[a] for a, b in itertools.combinations(sorted(nodes), 2))


def _semi_directed_reaches(y: int, x: int, blocked, step) -> bool:
    """True when a semi-directed path y -> ... -> x avoids ``blocked``;
    ``step`` lists each node's children and undirected neighbours."""
    stack = [y]
    seen = {y}
    while stack:
        v = stack.pop()
        for w in step[v]:
            if w in blocked or w in seen:
                continue
            if w == x:
                return True
            seen.add(w)
            stack.append(w)
    return False


def fges(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Greedy equivalence search: Insert phase, then Delete phase.

    Operators follow the standard characterization: Insert(x, y, T) requires
    NA(y, x) | T to form a clique and to block every semi-directed path from
    y to x; Delete(x, y, H) requires NA(y, x) \\ H to form a clique.  Each
    step applies the first of the best-scoring operators and re-completes
    the pattern: unshielded colliders, then Meek's rules R1-R3.  Every valid
    operator leaves a PDAG that has a consistent extension (Chickering,
    JMLR 2002, Theorems 15 and 17), so the class it names always exists.
    ``data`` is a matrix or the ``_BicScorer`` of one.
    """
    config = config or SearchConfig()
    scorer = _scorer(data)
    p = scorer.p
    names = _node_names(names, p)
    nodes = tuple(range(p))
    directed: set[tuple[int, int]] = set()
    undirected: set[frozenset] = set()

    def neighbours():
        """Adjacent nodes, undirected neighbours and parents of each node."""
        parents = _state_from_edges(p, directed)[1]
        return adjacency(nodes, directed, undirected), adjacency(nodes, (), undirected), parents

    # Each generator scores an operator from the cached local scores first,
    # and checks its validity only when its delta beats that of every valid
    # operator before it (a NaN delta never does): max keeps the first of
    # equal deltas, so no other operator can win.

    def forward_candidates():
        adj, und, parents = neighbours()
        step = adjacency(nodes, directed, undirected, one_way=True)
        best = _EPS_GAIN
        for y in range(p):
            nb_y = und[y]
            for x in range(p):
                if x == y or x in adj[y]:
                    continue
                na = {v for v in nb_y if v in adj[x]}
                t0 = sorted(nb_y - adj[x])
                for size in range(len(t0) + 1):
                    for t in itertools.combinations(t0, size):
                        block = na | set(t)
                        base = frozenset(block | parents[y])
                        new = base | {x}
                        if len(new) > config.max_parents:
                            continue
                        delta = scorer.local(y, new) - scorer.local(y, base)
                        if not delta > best or not _is_clique(block, adj):
                            continue
                        if _semi_directed_reaches(y, x, block, step):
                            continue
                        best = delta
                        yield delta, x, y, t

    def backward_candidates():
        adj, und, parents = neighbours()
        best = _EPS_GAIN
        for y in range(p):
            nb_y = und[y]
            for x in range(p):
                if x == y:
                    continue
                if (x, y) not in directed and frozenset((x, y)) not in undirected:
                    continue
                na = {v for v in nb_y if v in adj[x]}
                for size in range(len(na) + 1):
                    for h in itertools.combinations(sorted(na), size):
                        rest = na - set(h)
                        base = frozenset((rest | parents[y]) - {x})
                        delta = scorer.local(y, base) - scorer.local(y, frozenset(base | {x}))
                        if not delta > best or not _is_clique(rest, adj):
                            continue
                        best = delta
                        yield delta, x, y, h

    def run_phase(candidate_fn, apply_fn):
        nonlocal directed, undirected
        # max keeps the first of equal scores, in candidate order
        while (best := max(candidate_fn(), key=lambda c: c[0], default=None)) is not None:
            apply_fn(*best[1:])
            directed, undirected = _complete_pattern(nodes, directed, undirected)

    def apply_insert(x, y, t):
        directed.add((x, y))
        for v in t:
            undirected.discard(frozenset((v, y)))
            directed.add((v, y))

    def apply_delete(x, y, h):
        directed.discard((x, y))
        undirected.discard(frozenset((x, y)))
        for v in h:
            if frozenset((y, v)) in undirected:
                undirected.discard(frozenset((y, v)))
                directed.add((y, v))
            if frozenset((x, v)) in undirected:
                undirected.discard(frozenset((x, v)))
                directed.add((x, v))

    run_phase(forward_candidates, apply_insert)
    run_phase(backward_candidates, apply_delete)

    return EdgeGraph(
        names,
        frozenset((names[a], names[b]) for a, b in directed),
        frozenset(frozenset(names[v] for v in pair) for pair in undirected),
    )


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
    best_edges: frozenset | None = None
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
            score = scorer.total(_state_from_edges(p, edges)[1])
            key = tuple(sorted(edges))
            if score > best_score or (score == best_score and key < best_key):
                best_edges, best_key, best_score = edges, key, score

    best = _dag(names, best_edges)
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


def _prune_node(system, v: int, preds: list[int], n: int, alpha: float) -> list[int]:
    """Approximate F-test of each smooth term; keep parents with p < alpha.

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
        if p_value < alpha:
            kept.append(u)
    return kept


def cam_learn(data, config: SearchConfig | None = None, *, names=None) -> EdgeGraph:
    """Causal additive model: greedy order search, then term-wise pruning.

    Stage 1 repeatedly inserts the order-compatible edge with the largest
    additive-regression log-likelihood gain (penalized cubic splines, GCV
    smoothing).  Stage 2 regresses each node on all order-preceding nodes
    and keeps only parents whose smooth term tests significant below
    ``cam_prune_alpha``.  Columns are standardized internally, after any
    column of extreme magnitude is put in power-of-two units.  Every fit
    slices one Gram matrix and penalty of the intercept and all spline
    columns, and each parent list's eigensystem is computed once and shared
    by every child fitted on it.
    """
    config = config or SearchConfig()
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

    rss_cache: dict[tuple[int, frozenset[int]], float] = {}

    def rss_of(v: int, parent_set: frozenset[int]) -> float:
        key = (v, parent_set)
        if key not in rss_cache:
            fit = _gcv_fit(*system(v, sorted(parent_set)), n)
            rss_cache[key] = max(fit.rss, 1e-300)
        return rss_cache[key]

    children, parents = _state_from_edges(p, ())
    while True:
        best, best_gain = None, _EPS_GAIN
        reach = _descendants(children)
        for v in range(p):
            base = rss_of(v, frozenset(parents[v]))
            for u in range(p):
                if u == v or u in parents[v] or u in reach[v]:
                    continue
                new = rss_of(v, frozenset(parents[v] | {u}))
                gain = 0.5 * n * math.log(base / new)
                if gain > best_gain:
                    best, best_gain = (u, v), gain
        if best is None:
            break
        children[best[0]].add(best[1])
        parents[best[1]].add(best[0])

    order = topological_sort(
        tuple(range(p)), frozenset((u, v) for u, cs in children.items() for v in cs)
    )
    edges = []
    for pos, v in enumerate(order):
        preds = order[:pos]
        if not preds:
            continue
        for u in _prune_node(system, v, preds, n, config.cam_prune_alpha):
            edges.append((u, v))
    return _dag(names, edges)


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
