"""Directed forests on numbered vertices and their canonical {0,1,*} patterns.

A digraph on v1..vn is a forest when its underlying undirected multigraph has
no cycle; anti-parallel arrows i->j, j->i count as a two-edge cycle.  Each
forest determines one canonical star matrix: arrows give 1 cells, and an
off-diagonal position is * exactly when the two vertices are joined by a
(necessarily unique) undirected path all of whose arrows are lexicographically
smaller than the position; everything else is 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidStarMatrixError, NotForestError, ResourceGuardError

ZERO, ONE, STAR = "0", "1", "*"
FWD, REV = "F", "R"


@dataclass(frozen=True)
class Digraph:
    n: int
    arrows: frozenset

    def __init__(self, n: int, arrows):
        arrows = frozenset((int(i), int(j)) for i, j in arrows)
        for i, j in arrows:
            if i == j:
                raise ValueError("self-loop at v%d" % i)
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("arrow (%d,%d) out of range" % (i, j))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)

    def sorted_arrows(self):
        return sorted(self.arrows)


@dataclass(frozen=True)
class StarMatrix:
    cells: tuple

    def __init__(self, cells):
        cells = tuple(tuple(row) for row in cells)
        n = len(cells)
        for row in cells:
            if len(row) != n:
                raise ValueError("star matrix must be square")
            for sym in row:
                if sym not in (ZERO, ONE, STAR):
                    raise ValueError("bad symbol %r" % (sym,))
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return len(self.cells)

    def cell(self, i: int, j: int) -> str:
        """Symbol at 1-based position (i, j)."""
        return self.cells[i - 1][j - 1]

    def star_positions(self):
        """1-based * positions in lexicographic order (diagonal included)."""
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)
                if self.cell(i, j) == STAR]

    def text_rows(self):
        return ["".join(row) for row in self.cells]

    @staticmethod
    def from_text_rows(rows):
        return StarMatrix([list(r.replace(" ", "")) for r in rows])

    def __repr__(self):
        return "StarMatrix(%s)" % " / ".join(self.text_rows())


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n + 1))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def is_forest(G: Digraph) -> bool:
    """True iff the underlying undirected multigraph is acyclic."""
    uf = _UnionFind(G.n)
    for i, j in G.sorted_arrows():
        if not uf.union(i, j):
            return False
    return True


@dataclass(frozen=True)
class UPath:
    """Undirected path i1..ik+1 with per-step direction flags: FWD means the
    forest arrow is i_l -> i_{l+1}, REV means it is i_{l+1} -> i_l."""

    vertices: tuple
    flags: tuple

    def arrows(self):
        """The forest arrows traversed, as ordered pairs."""
        out = []
        for l, flag in enumerate(self.flags):
            a, b = self.vertices[l], self.vertices[l + 1]
            out.append((a, b) if flag == FWD else (b, a))
        return out


def _neighbours(G: Digraph) -> dict:
    """{v: [(w, the arrow joining v and w)]}, in increasing order of w."""
    adj = {v: [] for v in range(1, G.n + 1)}
    for a, b in G.arrows:
        adj[a].append((b, (a, b)))
        adj[b].append((a, (a, b)))
    return {v: sorted(ws) for v, ws in adj.items()}


def _tree_edges(adj: dict, root: int):
    """Breadth-first walk from root over _neighbours' adj: (v, w, arrow) for
    each vertex w reached, v the vertex it was first reached from."""
    order, seen = [root], {root}
    for v in order:         # order grows while it is read
        for w, arrow in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                yield v, w, arrow


def undirected_path(G: Digraph, i: int, j: int):
    """The unique undirected path from vi to vj, or None if disconnected.
    Assumes G is a forest (path uniqueness)."""
    if i == j:
        raise ValueError("endpoints must differ")
    parent = {i: None}
    for v, w, _ in _tree_edges(_neighbours(G), i):
        parent[w] = v
    if j not in parent:
        return None
    verts = [j]
    while parent[verts[-1]] is not None:
        verts.append(parent[verts[-1]])
    verts.reverse()
    flags = [FWD if (a, b) in G.arrows else REV for a, b in zip(verts, verts[1:])]
    return UPath(tuple(verts), tuple(flags))


def star_from_forest(G: Digraph) -> StarMatrix:
    """Canonical pattern of a forest: 1 at arrows, * on the diagonal and at
    positions whose connecting path uses only lex-smaller arrows, else 0.

    One walk of its tree from each vertex i carries the largest arrow on the
    path to each j it reaches ((0, 0) for j = i): (i, j) is 1 when that arrow
    is (i, j), the path being that one arrow, and * when it is below (i, j)."""
    if not is_forest(G):
        raise NotForestError("digraph has an undirected cycle")
    n, adj = G.n, _neighbours(G)
    cells = [[ZERO] * n for _ in range(n)]
    for i in range(1, n + 1):
        top = {i: (0, 0)}       # vertex -> largest arrow on its path from i
        for v, w, arrow in _tree_edges(adj, i):
            top[w] = max(top[v], arrow)
        for j, arrow in top.items():
            if arrow == (i, j):
                cells[i - 1][j - 1] = ONE
            elif arrow < (i, j):
                cells[i - 1][j - 1] = STAR
    return StarMatrix(cells)


def forest_from_star(S: StarMatrix) -> Digraph:
    """Inverse of star_from_forest; rejects non-canonical patterns."""
    n = S.n
    arrows = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
              if S.cell(i, j) == ONE]
    try:
        G = Digraph(n, arrows)
        back = star_from_forest(G)
    except (ValueError, NotForestError) as exc:
        raise InvalidStarMatrixError(str(exc)) from exc
    if back != S:
        raise InvalidStarMatrixError("pattern is not canonical for its arrow set")
    return G


def matches(S: StarMatrix, M) -> bool:
    """True iff M, a Mat or row lists, has 0 at every 0 and 1 at every 1 cell of S."""
    rows = M if isinstance(M, list) else M.values()
    if S.n != len(rows) or S.n != len(rows[0]):
        raise ValueError("size mismatch")
    for syms, row in zip(S.cells, rows):
        for sym, x in zip(syms, row):
            if (sym == ZERO and x) or (sym == ONE and x != 1):
                return False
    return True


def enumerate_forests(n: int) -> list[Digraph]:
    """Every directed forest on v1..vn once, in a fixed order: undirected edge
    subsets by increasing bitmask, then orientations per included edge."""
    if n > 5:
        raise ResourceGuardError("forest enumeration guarded at n <= 5")
    edges = list(itertools.combinations(range(1, n + 1), 2))
    out = []
    for mask in range(1 << len(edges)):
        chosen = [e for k, e in enumerate(edges) if mask >> k & 1]
        uf = _UnionFind(n)
        if not all(uf.union(a, b) for a, b in chosen):
            continue
        for orient in itertools.product((0, 1), repeat=len(chosen)):
            arrows = [(a, b) if d == 0 else (b, a)
                      for (a, b), d in zip(chosen, orient)]
            out.append(Digraph(n, arrows))
    return out


def disjoint_witness(S1: StarMatrix, S2: StarMatrix):
    """First lex position where one pattern forces 0 and the other forces 1
    (which proves the matrix sets are disjoint), or None."""
    if S1.n != S2.n:
        raise ValueError("size mismatch")
    for i in range(1, S1.n + 1):
        for j in range(1, S1.n + 1):
            pair = {S1.cell(i, j), S2.cell(i, j)}
            if pair == {ZERO, ONE}:
                return (i, j)
    return None
