"""Graphs of directed and undirected edges over named parameter nodes.

Every graph in a report is one ``EdgeGraph``: the DAGs of hc, tabu and
cam, fges's CPDAG, and gc's pairwise directed edges (cycles allowed), which
``gc_graph`` returns as a set of (cause, effect) name pairs and the pipeline
wraps.  The CPDAG is the completed partially directed representative of a
Markov equivalence class, whose directed edges are shared by every member of
the class and whose undirected edges are those the class leaves open.

Inside the search layer a graph is each node's parents, and undirected
neighbours, as int bitmasks (bit ``i`` for node ``i``); ``_masks`` and
``_graph`` convert between that form and an ``EdgeGraph``.
"""

from __future__ import annotations

from dataclasses import dataclass

Edge = tuple[str, str]


class GraphError(ValueError):
    """Malformed graph structure: self-loop, cycle, or unknown endpoint."""


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _children(parents) -> list[int]:
    """Each node's children, as a bitmask, from its parents."""
    children = [0] * len(parents)
    for v, pv in enumerate(parents):
        for u in _bits(pv):
            children[u] |= 1 << v
    return children


def _topological_order(parents) -> list[int]:
    """Kahn's algorithm on parent bitmasks, taking the lowest-numbered ready
    node each time; raises GraphError when the graph has a cycle."""
    order, placed = [], 0
    for _ in parents:
        ready = [v for v, pv in enumerate(parents) if not (placed >> v & 1 or pv & ~placed)]
        if not ready:
            raise GraphError("edge set contains a cycle")
        order.append(ready[0])
        placed |= 1 << ready[0]
    return order


def dot_text(name: str, nodes, edges) -> str:
    """DOT digraph of ``nodes`` and of ``edges``, (a, b, directed) triples
    written in the order given; an undirected edge is drawn ``[dir=none]``."""
    lines = [f"digraph {name} {{"] + [f'  "{v}";' for v in nodes]
    for a, b, directed in edges:
        lines.append(f'  "{a}" -> "{b}";' if directed else f'  "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EdgeGraph:
    """Directed plus undirected edges; directed cycles are allowed until
    ``require_dag`` is called."""

    nodes: tuple[str, ...]
    directed: frozenset[Edge]
    undirected: frozenset[frozenset[str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "undirected", frozenset(frozenset(e) for e in self.undirected))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise GraphError("duplicate node names")
        for a, b in self.directed:
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
            if a not in node_set or b not in node_set:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
        dir_skel = {frozenset(e) for e in self.directed}
        for pair in self.undirected:
            if len(pair) != 2 or not pair <= node_set:
                raise GraphError(f"bad undirected edge {set(pair)!r}")
            if pair in dir_skel:
                raise GraphError(f"edge {set(pair)!r} both directed and undirected")

    def require_dag(self) -> EdgeGraph:
        """Return the graph itself; GraphError unless it is a DAG, that is,
        it has no undirected edge and no directed cycle."""
        if self.undirected:
            raise GraphError("a DAG has no undirected edges")
        _topological_order(_masks(self)[0])  # raises on cycle
        return self

    def parents(self, node: str) -> frozenset[str]:
        return frozenset(a for a, b in self.directed if b == node)

    def skeleton(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(e) for e in self.directed) | self.undirected

    def sorted_directed(self) -> list[Edge]:
        idx = {v: i for i, v in enumerate(self.nodes)}
        return sorted(self.directed, key=lambda e: (idx[e[0]], idx[e[1]]))

    def sorted_undirected(self) -> list[Edge]:
        idx = {v: i for i, v in enumerate(self.nodes)}
        pairs = [tuple(sorted(p, key=idx.__getitem__)) for p in self.undirected]
        return sorted(pairs, key=lambda e: (idx[e[0]], idx[e[1]]))

    def to_dot(self, name: str = "edges") -> str:
        edges = [(a, b, True) for a, b in self.sorted_directed()]
        edges += [(a, b, False) for a, b in self.sorted_undirected()]
        return dot_text(name, self.nodes, edges)

    def payload(self) -> dict[str, list[list[str]]]:
        """JSON form: sorted edge lists, each undirected pair in sorted order."""
        return {
            "directed": sorted(list(e) for e in self.directed),
            "undirected": sorted(sorted(p) for p in self.undirected),
        }

    def without_pairs(self, pairs: frozenset[frozenset[str]]) -> EdgeGraph:
        """The graph minus every edge, of either kind, that joins a pair in ``pairs``."""
        return EdgeGraph(
            self.nodes,
            frozenset(e for e in self.directed if frozenset(e) not in pairs),
            frozenset(p for p in self.undirected if p not in pairs),
        )


def _masks(graph: EdgeGraph) -> tuple[list[int], list[int]]:
    """Each node's parents and undirected neighbours, as bitmasks: bit ``i``
    stands for ``graph.nodes[i]``."""
    index = {v: i for i, v in enumerate(graph.nodes)}
    parents, und = [0] * len(index), [0] * len(index)
    for a, b in graph.directed:
        parents[index[b]] |= 1 << index[a]
    for pair in graph.undirected:
        a, b = (index[v] for v in pair)
        und[a] |= 1 << b
        und[b] |= 1 << a
    return parents, und


def _graph(nodes, parents, und=()) -> EdgeGraph:
    """The graph over ``nodes`` with each node's parents and undirected
    neighbours given as bitmasks, bit ``i`` for ``nodes[i]``."""
    return EdgeGraph(
        nodes,
        frozenset((nodes[u], nodes[v]) for v, pv in enumerate(parents) for u in _bits(pv)),
        frozenset(
            frozenset((nodes[u], nodes[v])) for v, uv in enumerate(und) for u in _bits(uv) if u < v
        ),
    )


def _complete_pattern(parents, und) -> tuple[list[int], list[int]]:
    """The completed pattern of a PDAG's Markov equivalence class.

    A graph is each node's parents and undirected neighbours, as bitmasks
    (bit ``u`` for node ``u``); the inputs are not modified.  The edges of
    unshielded colliders (a -> c <- b, a and b not adjacent) stay directed,
    every other edge becomes undirected, and rules R1-R3 orient the rest;
    they are complete for a pattern (Meek, UAI 1995).
    """
    p = len(parents)
    adj = [pv | uv | cv for pv, uv, cv in zip(parents, und, _children(parents))]
    # a parent of v stays one when v has another parent not adjacent to it
    parents = [sum(1 << a for a in _bits(pv) if pv & ~adj[a] & ~(1 << a)) for pv in parents]
    children = _children(parents)
    und = [adj[v] & ~(parents[v] | children[v]) for v in range(p)]

    def forced(b, c) -> bool:
        """Whether R1, R2 or R3 orients the undirected edge b - c as b -> c."""
        into_c = parents[c] & und[b]
        return bool(
            # R1: a -> b, a and c not adjacent
            parents[b] & ~adj[c]
            # R2: b -> a -> c
            or children[b] & parents[c]
            # R3: b - a1 -> c, b - a2 -> c, a1 and a2 not adjacent
            or any(into_c & ~adj[a] & ~(1 << a) for a in _bits(into_c))
        )

    changed = True
    while changed:
        changed = False
        for x in range(p):
            for y in _bits(und[x] >> x + 1 << x + 1):  # each pair x - y once, y > x
                for b, c in ((x, y), (y, x)):
                    if forced(b, c):
                        und[b] ^= 1 << c
                        und[c] ^= 1 << b
                        parents[c] |= 1 << b
                        children[b] |= 1 << c
                        changed = True
                        break
    return parents, und


def cpdag_of(dag: EdgeGraph) -> EdgeGraph:
    """Equivalence-class completion: skeleton, v-structures, Meek closure.

    Idempotent in the sense that the result is a Meek fixpoint.  ``dag``
    must be a DAG (GraphError otherwise).
    """
    dag.require_dag()
    return _graph(dag.nodes, *_complete_pattern(*_masks(dag)))
