"""Canonical forms for matrix pairs whose first matrix has simple spectrum.

canonicalize diagonalizes A1 with increasing eigenvalues, then reduces A2 by
the diagonal stabilizer: a greedy lexicographic pass picks a forest of
positions that can be scaled to 1, and one torus solve per component makes
them 1.  The surviving data (eigenvalues, forest, star pattern, free
parameters) is a complete orbit invariant; the conjugating witness g is
returned and checked against the reconstituted pair on every call.

One body serves Q and F_p: it runs the kernels on raw entry values (ints mod
p or Fractions), and only root finding and scalar inverses depend on the
field.  The eigenvalues and parameters of the result are FieldElements.  F_p
with p < n is refused with FieldTooSmallError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import (FieldMismatchError, FieldTooSmallError, ResourceGuardError,
                     VerificationError)
from .fields import Field, FieldElement
from .matrices import DEFAULT_GL_GUARD, Mat, _eigenbasis, eigs_in_field, order_gl
from .stargraph import (
    STAR,
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


def _require_field_size(field: Field, n: int):
    """F_p with p < n cannot host n distinct eigenvalues."""
    if not field.is_rationals and field.p < n:
        raise FieldTooSmallError("F_%d is too small for %d distinct eigenvalues"
                                 % (field.p, n))


def has_simple_spectrum(P: MatrixPair) -> bool:
    """True iff A1 has n distinct eigenvalues in the base field.  For F_p the
    convention p >= n is enforced (fewer field elements cannot host n distinct
    eigenvalues in any useful way)."""
    _require_field_size(P.field, P.n)
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
        vals = dict(self.params)
        rows = [[vals[(i, j)] if sym == STAR else int(sym)
                 for j, sym in enumerate(row, start=1)]
                for i, row in enumerate(self.star.cells, start=1)]
        return MatrixPair(Mat.diag(self.field, self.eigs), Mat(self.field, rows))


@dataclass(frozen=True)
class CanonResult:
    canon: CanonicalPair
    g: Mat


def _greedy_forest(A2p) -> list:
    """Lexicographic pass: arrows at cross-component nonzero positions."""
    n = len(A2p)
    uf = _UnionFind(n)
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and A2p[i - 1][j - 1] and uf.union(i, j):
                arrows.append((i, j))
    return arrows


def _torus_scales(graph: Digraph, A2p, p) -> list:
    """Torus solve: the smallest vertex of each component gets scale 1, the
    rest follow the tree constraints d_u * A2p_uv / d_v = 1 along arrows.
    Returns [d_1, ..., d_n]."""
    n = graph.n
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in graph.arrows:
        adj[a].append(b)
        adj[b].append(a)
    scale = [None] * (n + 1)
    for root in range(1, n + 1):
        if scale[root] is not None:
            continue
        scale[root] = 1
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj[u]):
                if scale[v] is None:
                    if (u, v) in graph.arrows:
                        d = scale[u] * A2p[u - 1][v - 1]
                    else:
                        d = scale[u] * kernels.inv_scalar(A2p[v - 1][u - 1], p)
                    scale[v] = kernels.red(d, p)
                    queue.append(v)
    return scale[1:]


def canonicalize(P: MatrixPair) -> CanonResult:
    """Reduce P to its canonical pair; conjugate(result.g, P) equals the
    reconstituted canonical pair exactly (checked per call: a failure raises
    VerificationError).  The work runs on raw entry values through the
    kernels; FieldElements are made only for the returned data."""
    field, n, p = P.field, P.n, P.field.p
    _require_field_size(field, n)
    A1, A2 = P.A1.values(), P.A2.values()
    g0, roots = _eigenbasis(A1, field)   # raises NotSimpleSpectrumError
    g0inv = kernels.inverse_mod(g0, p)
    if g0inv is None:
        raise VerificationError("eigenvector rows must be independent")
    A2p = kernels.matmul_mod(kernels.matmul_mod(g0, A2, p), g0inv, p)

    # greedy forest: cross-component nonzero positions in lex order become 1
    graph = Digraph(n, _greedy_forest(A2p))
    star = star_from_forest(graph)
    scale = _torus_scales(graph, A2p, p)
    inv_scale = [kernels.inv_scalar(s, p) for s in scale]
    A2c = [[kernels.red(s * x * t, p) for x, t in zip(row, inv_scale)]
           for s, row in zip(scale, A2p)]
    g = [[kernels.red(s * x, p) for x in row] for s, row in zip(scale, g0)]

    # witness check without inverses: g X = Y g for both components
    D = [[a if i == j else 0 for j in range(n)] for i, a in enumerate(roots)]
    if not (kernels.matmul_mod(g, A1, p) == kernels.matmul_mod(D, g, p)
            and kernels.matmul_mod(g, A2, p) == kernels.matmul_mod(A2c, g, p)):
        raise VerificationError("witness fails to transform")

    eigs = tuple(field.elem(a) for a in roots)
    params = tuple(((i, j), field.elem(A2c[i - 1][j - 1]))
                   for i, j in star.star_positions())
    canon = CanonicalPair(n, field, eigs, graph, star, params)
    recon = canon.reconstituted()
    if not matches(star, recon.A2):
        raise VerificationError("pattern violated by canonical output")
    if recon.A2.values() != A2c:
        raise VerificationError("reconstituted pair differs from the reduced A2")
    return CanonResult(canon, Mat(field, g))


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
    """Exhaustive search for g with g.P = Q over GL_n(F_p): the first such g
    in lex order of its row-major entries, or None if no g exists, and the
    number of invertible matrices scanned.  All p^(n^2) matrices are scanned,
    each with its own determinant and residual test, by the one numpy
    kernel (``kernels.conjugator_search_mod``).  Refused with
    ResourceGuardError for n > 3, for |GL_n(F_p)| > max_order, and, whatever
    max_order is, for p^(n^2) >= 2^63, where int64 indices end."""
    _check_comparable(P, Q)
    if P.field.is_rationals:
        raise ValueError("brute-force search needs a finite field")
    p, n = P.field.p, P.n
    if n > 3 or order_gl(n, p) > max_order:
        raise ResourceGuardError(
            "GL_%d(F_%d) has order %d; raise max_order to search"
            % (n, p, order_gl(n, p)))
    if p ** (n * n) >= 2 ** 63:
        raise ResourceGuardError(
            "the %d^%d matrices of size %d over F_%d are too many for int64 indices"
            % (p, n * n, n, p))
    count, ok, g = kernels.conjugator_search_mod(
        P.A1.to_np(), P.A2.to_np(), Q.A1.to_np(), Q.A2.to_np(), p)
    witness = Mat(P.field, g.tolist()) if ok else None
    return witness, int(count)


def orbit_eq_brute(P: MatrixPair, Q: MatrixPair,
                   max_order: int = DEFAULT_GL_GUARD) -> bool:
    """Oracle decider: does some invertible g satisfy g.P = Q?"""
    witness, _ = find_conjugator(P, Q, max_order=max_order)
    return witness is not None
