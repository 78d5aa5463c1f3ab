"""Canonical forms for matrix pairs whose first matrix has simple spectrum.

canonicalize diagonalizes A1 with increasing eigenvalues, then reduces A2 by
the diagonal stabilizer: a greedy lexicographic pass picks a forest of
positions that can be scaled to 1, and one torus solve per component makes
them 1.  The surviving data (eigenvalues, forest, star pattern, free
parameters) is a complete orbit invariant; the conjugating witness g is
returned and checked against the reconstituted pair on every call.  The
eigenvectors and their dual basis come from Krylov rows, and the check
needs no inverse: g A1 = D g with nonzero rows and distinct eigenvalues
makes g invertible, and then g A2 = A2c g proves g A2 g^-1 = A2c.

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
from .matrices import DEFAULT_GL_GUARD, Mat, _check_gl_guard, _eigenbasis, eigs_in_field
from .stargraph import (
    STAR,
    Digraph,
    StarMatrix,
    _neighbours,
    _tree_edges,
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

    def A2_values(self) -> list:
        """The canonical A2 as raw row lists: 1 at 1 cells, 0 at 0 cells and
        the stored parameters at * cells."""
        vals = {pos: v.value for pos, v in self.params}
        return [[vals[(i, j)] if sym == STAR else int(sym)
                 for j, sym in enumerate(row, start=1)]
                for i, row in enumerate(self.star.cells, start=1)]

    def reconstituted(self) -> MatrixPair:
        """The member of the class: diag(eigs) and A2_values()."""
        return MatrixPair(Mat.diag(self.field, self.eigs), Mat(self.field, self.A2_values()))


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
    adj, scale = _neighbours(graph), [None] * (graph.n + 1)
    for root in range(1, graph.n + 1):
        if scale[root] is None:
            scale[root] = 1
            for u, v, arrow in _tree_edges(adj, root):
                d = (A2p[u - 1][v - 1] if arrow == (u, v)
                     else kernels.inv_scalar(A2p[v - 1][u - 1], p))
                scale[v] = kernels.red(scale[u] * d, p)
    return scale[1:]


def canonicalize(P: MatrixPair) -> CanonResult:
    """Reduce P to its canonical pair; conjugate(result.g, P) equals the
    reconstituted canonical pair exactly (checked per call: a failure raises
    VerificationError).  The work runs on raw entry values through the
    kernels; FieldElements are made only for the returned data.  A wrong
    g0^-1 can only fail the check, and u_a . w_a = 0 raises VerificationError."""
    field, n, p = P.field, P.n, P.field.p
    _require_field_size(field, n)
    A1, A2 = P.A1.values(), P.A2.values()
    g0, roots, g0inv = _eigenbasis(A1, field)   # raises NotSimpleSpectrumError
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
    # D g for D = diag(roots) is g with row i scaled by roots[i]
    Dg = [[kernels.red(a * x, p) for x in row] for a, row in zip(roots, g)]
    if not (all(map(any, g)) and kernels.matmul_mod(g, A1, p) == Dg
            and kernels.matmul_mod(g, A2, p) == kernels.matmul_mod(A2c, g, p)):
        raise VerificationError("witness fails to transform")

    eigs = tuple(field.elem(a) for a in roots)
    params = tuple(((i, j), field.elem(A2c[i - 1][j - 1]))
                   for i, j in star.star_positions())
    # the canonical A2 is A2c exactly when A2c keeps the star pattern's 0/1 cells
    if not matches(star, A2c):
        raise VerificationError("pattern violated by canonical output")
    canon = CanonicalPair(n, field, eigs, graph, star, params)
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
    number of invertible matrices scanned.  All p^(n^2) matrices are scanned
    by the one numpy kernel (``kernels.conjugator_search_mod``): each block
    of first n - 1 rows computes one determinant row per distinct cofactor
    vector, and finds the matches g A = B g by a sorted join of residual
    codes against the last rows.  Refused with
    ResourceGuardError for n > 3, for |GL_n(F_p)| > max_order, and, whatever
    max_order is, for p^(n^2) >= 2^63, where int64 indices end."""
    _check_comparable(P, Q)
    if P.field.is_rationals:
        raise ValueError("brute-force search needs a finite field")
    p, n = P.field.p, P.n
    _check_gl_guard(n, p, max_order, "search")
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
