"""Exact dense matrices over Q or F_p and the linear algebra on them.

Generic (FieldElement) implementations work over any field and are the
reference path; square F_p inputs are routed through the int64 kernels in
:mod:`simspec.kernels`.  First-nonzero pivoting everywhere, so results are
deterministic.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import kernels
from .errors import (
    FieldMismatchError,
    NotSimpleSpectrumError,
    ResourceGuardError,
    SingularMatrixError,
)
from .fields import Field, FieldElement, PrimeField, is_prime

DEFAULT_GL_GUARD = 20_000_000


class Mat:
    """Immutable matrix; entries are FieldElement sharing one field."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_np_cache", "_hash")

    def __init__(self, field: Field, rows):
        coerced = tuple(tuple(field.elem(x) for x in row) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("matrix needs at least one row and column")
        ncols = len(coerced[0])
        if any(len(r) != ncols for r in coerced):
            raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", coerced)
        object.__setattr__(self, "_np_cache", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, val):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        z = field.zero
        return Mat(field, [[z] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(field, values):
        vals = [field.elem(v) for v in values]
        z = field.zero
        n = len(vals)
        return Mat(field, [[vals[i] if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(field, n, i, j):
        """E_ij: single 1 in row i, column j (1-based), n x n."""
        z, o = field.zero, field.one
        return Mat(field, [[o if (r + 1, c + 1) == (i, j) else z for c in range(n)]
                           for r in range(n)])

    # -- basics ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self):
        return Mat(self.field, list(zip(*self.rows)))

    def _check(self, other):
        if not isinstance(other, Mat):
            raise TypeError("expected Mat")
        if other.field is not self.field:
            raise FieldMismatchError("%r vs %r" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Mat(self.field, [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Mat(self.field, [[a - b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat(self.field, [[-a for a in row] for row in self.rows])

    def __mul__(self, scalar):
        s = self.field.elem(scalar)
        return Mat(self.field, [[a * s for a in row] for row in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        if not self.field.is_rationals and self.nrows == self.ncols == other.ncols:
            out = kernels.matmul_mod(self.to_np(), other.to_np(), self.field.p)
            return mat_from_np(self.field, out)
        cols = other.transpose().rows
        zero = self.field.zero
        return Mat(self.field, [[sum((a * b for a, b in zip(row, col)), zero)
                                 for col in cols] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field is other.field and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((id(self.field), self.rows)))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.rows)
        return "Mat(%r, [%s])" % (self.field, body)

    def to_np(self) -> np.ndarray:
        """int64 residue array; prime fields only.  The kernels sum up to
        max(nrows, ncols) products of residues in int64, so a modulus whose
        sums could overflow is refused rather than answered wrongly."""
        if self.field.is_rationals:
            raise TypeError("no int64 form for rational matrices")
        if self._np_cache is None:
            p = self.field.p
            if max(self.nrows, self.ncols) * (p - 1) ** 2 >= 2 ** 63:
                raise ResourceGuardError(
                    "F_%d is too large for the int64 kernels at size %d"
                    % (p, max(self.nrows, self.ncols)))
            arr = np.array([[e.value for e in row] for row in self.rows], dtype=np.int64)
            object.__setattr__(self, "_np_cache", arr)
        return self._np_cache


def mat_from_np(field, arr) -> Mat:
    return Mat(field, [[int(v) for v in row] for row in arr])


# ---------------------------------------------------------------------------
# elimination (generic reference path)
# ---------------------------------------------------------------------------

def _rref_generic(rows):
    """Reduced row echelon form of a list-of-lists copy; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    piv = 0
    for col in range(ncols):
        if piv == nrows:
            break
        sel = next((r for r in range(piv, nrows) if not rows[r][col].is_zero()), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        inv = rows[piv][col].inverse()
        rows[piv] = [x * inv for x in rows[piv]]
        for r in range(nrows):
            if r != piv and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        pivots.append(col)
        piv += 1
    return rows, pivots


def rank(M: Mat) -> int:
    """Row rank by exact Gaussian elimination."""
    if not M.field.is_rationals:
        return int(kernels.rank_mod(M.to_np(), M.field.p))
    return len(_rref_generic(M.rows)[1])


def det(M: Mat) -> FieldElement:
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    if not M.field.is_rationals:
        return M.field.elem(int(kernels.det_mod(M.to_np(), M.field.p)))
    rows = [list(r) for r in M.rows]
    n = M.n
    d = M.field.one
    for col in range(n):
        sel = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if sel is None:
            return M.field.zero
        if sel != col:
            rows[col], rows[sel] = rows[sel], rows[col]
            d = -d
        d = d * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return d


def inverse(M: Mat) -> Mat:
    if not M.is_square():
        raise ValueError("inverse of non-square matrix")
    if not M.field.is_rationals:
        ok, inv = kernels.inverse_mod(M.to_np(), M.field.p)
        if not ok:
            raise SingularMatrixError("matrix is singular over %r" % (M.field,))
        return mat_from_np(M.field, inv)
    n = M.n
    ident = Mat.identity(M.field, n)
    aug = [list(r) + list(i) for r, i in zip(M.rows, ident.rows)]
    red, pivots = _rref_generic(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular over %r" % (M.field,))
    return Mat(M.field, [row[n:] for row in red])


def nullspace_basis(M: Mat) -> list[tuple[FieldElement, ...]]:
    """Canonical RREF basis of the right nullspace, as row tuples."""
    if not M.field.is_rationals:
        R, rk = kernels.rref_mod(M.to_np(), M.field.p)
        red = [[M.field.elem(int(v)) for v in row] for row in R[:rk]]
        pivots = []
        for row in red:
            col = next(c for c, v in enumerate(row) if not v.is_zero())
            pivots.append(col)
    else:
        red, pivots = _rref_generic(M.rows)
        red = red[: len(pivots)]
    ncols = M.ncols
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = M.field.zero, M.field.one
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# characteristic polynomial and friends
# ---------------------------------------------------------------------------

def charpoly(M: Mat) -> tuple[FieldElement, ...]:
    """Coefficients (1, c1, ..., cn) of det(xI - M), by the division-free
    Berkowitz recursion (valid in every characteristic)."""
    if not M.is_square():
        raise ValueError("charpoly of non-square matrix")
    field = M.field
    if not field.is_rationals:
        coeffs = kernels.charpoly_mod(M.to_np(), field.p)
        return tuple(field.elem(int(c)) for c in coeffs)
    n = M.n
    A = M.rows
    poly = [field.one]
    for k in range(1, n + 1):
        top = n - k
        a = A[top][top]
        diags = [field.one, -a]
        if k > 1:
            R = A[top][top + 1:]
            vec = [A[r][top] for r in range(top + 1, n)]
            sub = [row[top + 1:] for row in A[top + 1:]]
            for i in range(2, k + 1):
                diags.append(-sum((r * v for r, v in zip(R, vec)), field.zero))
                if i < k:
                    vec = [sum((sub[r][c] * vec[c] for c in range(k - 1)), field.zero)
                           for r in range(k - 1)]
        out = []
        for i in range(k + 1):
            s = field.zero
            for j, pj in enumerate(poly):
                if 0 <= i - j <= k:
                    s = s + diags[i - j] * pj
            out.append(s)
        poly = out
    return tuple(poly)


def sigma(M: Mat, t: int) -> FieldElement:
    """t-th elementary symmetric function of the eigenvalues, normalized so
    that sigma(M, 1) = trace(M) and sigma(M, n) = det(M)."""
    n = M.n
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    c = charpoly(M)[t]
    return -c if t % 2 else c


def _poly_eval(coeffs, x: FieldElement) -> FieldElement:
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs, root: FieldElement):
    """Synthetic division by (x - root); returns (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + root * out[-1])
    return out[:-1], out[-1]


def _divisors(m: int) -> list[int]:
    m = abs(m)
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _rational_roots(coeffs):
    """Roots in Q of a monic FieldElement polynomial, with multiplicities."""
    from fractions import Fraction
    from math import lcm

    field = coeffs[0].field
    poly = list(coeffs)
    found = []
    # zero roots first
    mult0 = 0
    while len(poly) > 1 and poly[-1].is_zero():
        poly = poly[:-1]
        mult0 += 1
    if mult0:
        found.append((field.zero, mult0))
    if len(poly) == 1:
        return found
    scale = lcm(*[c.value.denominator for c in poly])
    ints = [int(c.value * scale) for c in poly]
    candidates = set()
    for r in _divisors(ints[-1]):
        for s in _divisors(ints[0]):
            candidates.add(Fraction(r, s))
            candidates.add(Fraction(-r, s))
    for cand in sorted(candidates):
        root = field.elem(cand)
        mult = 0
        while len(poly) > 1:
            quot, rem = _poly_deflate(poly, root)
            if not rem.is_zero():
                break
            poly = quot
            mult += 1
        if mult:
            found.append((root, mult))
    return found


def eigs_in_field(M: Mat) -> list[tuple[FieldElement, int]]:
    """All roots of the characteristic polynomial lying in the base field,
    with multiplicities, sorted by the field order."""
    coeffs = charpoly(M)
    field = M.field
    if field.is_rationals:
        found = _rational_roots(coeffs)
    else:
        found = []
        for cand in field.elements():
            if _poly_eval(coeffs, cand).is_zero():
                mult = 0
                poly = list(coeffs)
                while len(poly) > 1:
                    quot, rem = _poly_deflate(poly, cand)
                    if not rem.is_zero():
                        break
                    poly = quot
                    mult += 1
                found.append((cand, mult))
    found.sort(key=lambda pair: pair[0].value)
    return found


# ---------------------------------------------------------------------------
# diagonalization and conjugation
# ---------------------------------------------------------------------------

def diagonalizer(A1: Mat) -> tuple[Mat, list[FieldElement]]:
    """g with g A1 g^-1 = diag(a1 < ... < an); rows of g are the canonical
    nullspace vectors of (A1^T - a I)."""
    n = A1.n
    eigs = eigs_in_field(A1)
    if len(eigs) != n or any(m != 1 for _, m in eigs):
        raise NotSimpleSpectrumError(
            "matrix does not have %d distinct eigenvalues in %r" % (n, A1.field))
    At = A1.transpose()
    ident = Mat.identity(A1.field, n)
    rows = []
    for a, _ in eigs:
        basis = nullspace_basis(At - ident * a)
        if len(basis) != 1:
            raise NotSimpleSpectrumError("eigenspace dimension > 1")
        rows.append(basis[0])
    g = Mat(A1.field, rows)
    return g, [a for a, _ in eigs]


def conjugate(g: Mat, target):
    """g X g^-1, applied componentwise to a Mat or a tuple of Mats."""
    ginv = inverse(g)
    if isinstance(target, Mat):
        return g @ target @ ginv
    return tuple(g @ M @ ginv for M in target)


# ---------------------------------------------------------------------------
# GL_n(F_p) enumeration
# ---------------------------------------------------------------------------

def order_gl(n: int, p: int) -> int:
    pn = p ** n
    out = 1
    for i in range(n):
        out *= pn - p ** i
    return out


def enumerate_GL(n: int, p: int, max_order: int = DEFAULT_GL_GUARD):
    """Every invertible n x n matrix over F_p exactly once, lexicographic in
    the row-major entry tuple."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        raise ValueError("n must be positive")
    if n > 3 or order_gl(n, p) > max_order:
        raise ResourceGuardError(
            "GL_%d(F_%d) has order %d; raise max_order to enumerate" % (n, p, order_gl(n, p)))
    field = PrimeField(p)
    for entries in itertools.product(range(p), repeat=n * n):
        arr = np.array(entries, dtype=np.int64).reshape(n, n)
        if kernels.det_mod(arr, p) != 0:
            yield mat_from_np(field, arr)

