"""Canonical forms for matrix pairs whose first matrix has simple spectrum.

canonicalize diagonalizes A1 with increasing eigenvalues, then reduces A2 by
the diagonal stabilizer: a greedy lexicographic pass picks a forest of
positions that can be scaled to 1, and one torus solve per component makes
them 1.  The surviving data (eigenvalues, forest, star pattern, free
parameters) is a complete orbit invariant; the conjugating witness g is
returned and checked against the reconstituted pair on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (FieldMismatchError, FieldTooSmallError, ResourceGuardError,
                     VerificationError)
from .fields import Field, FieldElement
from .matrices import (
    DEFAULT_GL_GUARD,
    Mat,
    conjugate,
    diagonalizer,
    eigs_in_field,
    mat_from_np,
    order_gl,
)
from .stargraph import (
    Digraph,
    StarMatrix,
    _UnionFind,
    matches,
    star_from_forest,
)


@dataclass(frozen=True)
class MatrixPair:
    A1: Mat
    A2: Mat

    def __init__(self, A1: Mat, A2: Mat):
        if A1.field is not A2.field:
            raise FieldMismatchError("pair members over different fields")
        if not (A1.is_square() and A2.is_square() and A1.n == A2.n):
            raise ValueError("pair members must be square of equal size")
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "A2", A2)

    @property
    def field(self) -> Field:
        return self.A1.field

    @property
    def n(self) -> int:
        return self.A1.n

    def mats(self):
        return (self.A1, self.A2)


def _fp_distinct_roots(A1_np, p):
    """Distinct roots in F_p of the characteristic polynomial, ascending."""
    coeffs = [int(c) for c in kernels.charpoly_mod(A1_np, p)]
    roots = []
    for a in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * a + c) % p
        if acc == 0:
            roots.append(a)
    return roots


def has_simple_spectrum(P: MatrixPair) -> bool:
    """True iff A1 has n distinct eigenvalues in the base field.  For F_p the
    convention p >= n is enforced (fewer field elements cannot host n distinct
    eigenvalues in any useful way)."""
    field = P.field
    if not field.is_rationals:
        if field.p < P.n:
            raise FieldTooSmallError("F_%d is too small for %d distinct eigenvalues"
                                     % (field.p, P.n))
        # n distinct roots of a degree-n polynomial are automatically simple
        return len(_fp_distinct_roots(P.A1.to_np(), field.p)) == P.n
    eigs = eigs_in_field(P.A1)
    return len(eigs) == P.n and all(m == 1 for _, m in eigs)


@dataclass(frozen=True)
class CanonicalPair:
    """Complete orbit invariant: sorted eigenvalues, type forest, star pattern
    and the free-parameter values at the * cells (diagonal included)."""

    n: int
    field: Field
    eigs: tuple
    type_graph: Digraph
    star: StarMatrix
    params: tuple  # ((i, j), FieldElement) sorted lexicographically

    def param(self, i: int, j: int) -> FieldElement:
        for pos, val in self.params:
            if pos == (i, j):
                return val
        raise KeyError((i, j))

    def reconstituted(self) -> MatrixPair:
        """The member of the class with 1 at 1 cells, 0 at 0 cells and the
        stored parameters at * cells."""
        field = self.field
        A1 = Mat.diag(field, self.eigs)
        vals = dict(self.params)
        rows = []
        for i in range(1, self.n + 1):
            row = []
            for j in range(1, self.n + 1):
                sym = self.star.cell(i, j)
                if sym == "1":
                    row.append(field.one)
                elif sym == "0":
                    row.append(field.zero)
                else:
                    row.append(vals[(i, j)])
            rows.append(row)
        return MatrixPair(A1, Mat(field, rows))


@dataclass(frozen=True)
class CanonResult:
    canon: CanonicalPair
    g: Mat


def _greedy_forest(n: int, nonzero) -> list:
    """Lexicographic pass: arrows at cross-component nonzero positions."""
    uf = _UnionFind(n)
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and nonzero(i, j) and uf.union(i, j):
                arrows.append((i, j))
    return arrows


def _torus_scales(graph: Digraph, one, forward, backward) -> list:
    """Torus solve: the smallest vertex of each component gets scale one, the
    rest follow the tree constraints d_u * A2p_uv / d_v = 1 along arrows;
    d_v is forward(d_u, u, v) for an arrow (u, v), else backward(d_u, u, v).
    Returns [None, d_1, ..., d_n]."""
    n = graph.n
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in graph.arrows:
        adj[a].append(b)
        adj[b].append(a)
    scale = [None] * (n + 1)
    for root in range(1, n + 1):
        if scale[root] is not None:
            continue
        scale[root] = one
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj[u]):
                if scale[v] is None:
                    step = forward if (u, v) in graph.arrows else backward
                    scale[v] = step(scale[u], u, v)
                    queue.append(v)
    return scale


def _canonicalize_fp(P: MatrixPair) -> CanonResult:
    """Array lane of canonicalize: identical algorithm over int64 residues,
    FieldElement structures built only for the returned data."""
    field, n, p = P.field, P.n, P.field.p
    A1 = P.A1.to_np()
    A2 = P.A2.to_np()
    roots = _fp_distinct_roots(A1, p)
    if len(roots) != n:
        from .errors import NotSimpleSpectrumError
        raise NotSimpleSpectrumError("first matrix lacks simple spectrum")
    # rows of g0: canonical nullspace vectors of (A1^T - a I)
    A1t = A1.T.copy()
    eye = np.eye(n, dtype=np.int64)
    g0 = np.zeros((n, n), dtype=np.int64)
    for r, a in enumerate(roots):
        R, rk = kernels.rref_mod((A1t - a * eye) % p, p)
        assert rk == n - 1, "simple eigenvalue must have a line of eigenvectors"
        pivots = [next(c for c in range(n) if R[i, c] != 0) for i in range(rk)]
        free = next(c for c in range(n) if c not in pivots)
        g0[r, free] = 1
        for i, c in enumerate(pivots):
            g0[r, c] = (-int(R[i, free])) % p
    ok, g0inv = kernels.inverse_mod(g0, p)
    assert ok, "eigenvector rows must be independent"
    A2p = kernels.matmul_mod(kernels.matmul_mod(g0, A2, p), g0inv, p)

    arrows = _greedy_forest(n, lambda i, j: A2p[i - 1, j - 1] != 0)
    graph = Digraph(n, arrows)
    star = star_from_forest(graph)

    scale = _torus_scales(graph, 1,
                          lambda d, u, v: d * int(A2p[u - 1, v - 1]) % p,
                          lambda d, u, v: d * pow(int(A2p[v - 1, u - 1]), p - 2, p) % p)
    inv_scale = [0] + [pow(s, p - 2, p) for s in scale[1:]]
    A2c = np.array([[scale[i + 1] * int(A2p[i, j]) * inv_scale[j + 1] % p
                     for j in range(n)] for i in range(n)], dtype=np.int64)
    g = (np.array(scale[1:], dtype=np.int64)[:, None] * g0) % p

    # witness check without inverses: g X = Y g for both components
    diag = np.diag(np.array(roots, dtype=np.int64))
    if not ((kernels.matmul_mod(g, A1, p) == kernels.matmul_mod(diag, g, p)).all()
            and (kernels.matmul_mod(g, A2, p) == kernels.matmul_mod(A2c, g, p)).all()):
        raise VerificationError("witness fails to transform")

    eigs = tuple(field.elem(a) for a in roots)
    params = tuple(((i, j), field.elem(int(A2c[i - 1, j - 1])))
                   for i, j in star.star_positions())
    canon = CanonicalPair(n, field, eigs, graph, star, params)
    recon = canon.reconstituted()
    if not matches(star, recon.A2):
        raise VerificationError("pattern violated by canonical output")
    if not (recon.A2.to_np() == A2c).all():
        raise VerificationError("reconstituted pair differs from the reduced A2")
    return CanonResult(canon, mat_from_np(field, g))


def canonicalize(P: MatrixPair) -> CanonResult:
    """Reduce P to its canonical pair; conjugate(result.g, P) equals the
    reconstituted canonical pair exactly (checked per call: a failure raises
    VerificationError)."""
    if not P.field.is_rationals:
        return _canonicalize_fp(P)
    field, n = P.field, P.n
    g0, eigs = diagonalizer(P.A1)   # raises NotSimpleSpectrumError
    A2p = conjugate(g0, P.A2)

    # greedy forest: cross-component nonzero positions in lex order become 1
    arrows = _greedy_forest(n, lambda i, j: not A2p[i - 1, j - 1].is_zero())
    graph = Digraph(n, arrows)
    star = star_from_forest(graph)

    scale = _torus_scales(graph, field.one,
                          lambda d, u, v: d * A2p[u - 1, v - 1],
                          lambda d, u, v: d / A2p[v - 1, u - 1])
    d = Mat.diag(field, scale[1:])
    A2c = Mat(field, [[scale[i + 1] * A2p[i, j] / scale[j + 1] for j in range(n)]
                      for i in range(n)])

    params = tuple(((i, j), A2c[i - 1, j - 1]) for i, j in star.star_positions())
    canon = CanonicalPair(n, field, tuple(eigs), graph, star, params)
    g = d @ g0

    # witness check without inverses: g X = Y g for both components
    recon = canon.reconstituted()
    if not (g @ P.A1 == recon.A1 @ g and g @ P.A2 == recon.A2 @ g):
        raise VerificationError("witness fails to transform")
    if not matches(star, recon.A2):
        raise VerificationError("pattern violated by canonical output")
    return CanonResult(canon, g)


def orbit_eq_canonical(P: MatrixPair, Q: MatrixPair) -> bool:
    """Same orbit iff identical canonical data."""
    _check_comparable(P, Q)
    return canonicalize(P).canon == canonicalize(Q).canon


def _check_comparable(P: MatrixPair, Q: MatrixPair):
    if P.field is not Q.field:
        raise FieldMismatchError("pairs over different fields")
    if P.n != Q.n:
        raise ValueError("pairs of different sizes")


def find_conjugator(P: MatrixPair, Q: MatrixPair,
                    max_order: int = DEFAULT_GL_GUARD):
    """Exhaustive search for g with g.P = Q over GL_n(F_p); None if no g
    exists.  Also reports the number of invertible matrices scanned."""
    _check_comparable(P, Q)
    if P.field.is_rationals:
        raise ValueError("brute-force search needs a finite field")
    p, n = P.field.p, P.n
    if n > 3 or order_gl(n, p) > max_order:
        raise ResourceGuardError(
            "GL_%d(F_%d) has order %d; raise max_order to search"
            % (n, p, order_gl(n, p)))
    count, ok, g = kernels.conjugator_search_mod(
        P.A1.to_np(), P.A2.to_np(), Q.A1.to_np(), Q.A2.to_np(), p)
    witness = mat_from_np(P.field, g) if ok else None
    return witness, int(count)


def orbit_eq_brute(P: MatrixPair, Q: MatrixPair,
                   max_order: int = DEFAULT_GL_GUARD) -> bool:
    """Oracle decider: does some invertible g satisfy g.P = Q?"""
    witness, _ = find_conjugator(P, Q, max_order=max_order)
    return witness is not None
