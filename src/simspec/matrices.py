"""Exact dense matrices over Q or F_p and the linear algebra on them.

A Mat holds raw entry values, Fractions over Q and residues in {0,...,p-1}
over F_p, coerced once by ``Field.raw`` in its one constructor.  Products,
rank, det, inverse, nullspaces and characteristic polynomials run the one
implementation of each op in :mod:`simspec.kernels` on these rows.
FieldElements are made only at the API edge: ``M[i, j]``, ``M.rows``, and the
scalars that det, charpoly, sigma, eigs_in_field and nullspace_basis return.
First-nonzero pivoting everywhere, so results are deterministic.
Eigenvalues in F_p come from a scan of the residues, rational eigenvalues
from the divisors of two coefficients, tested by integer Horner; both scans
stop once the polynomial is split and are bounded by MAX_ROOT_SCAN.
Diagonalizing needs no nullspace or inverse: with q_a = charpoly / (x - a),
a nonzero row (column) u_a (w_a) of q_a(A) is a left (right) eigenvector for
a, summed from Krylov rows e_i A^k, and the w_a / (u_a . w_a) are g^-1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, prod
from operator import mul

from . import kernels
from .errors import (
    FieldMismatchError,
    NotSimpleSpectrumError,
    ResourceGuardError,
    SingularMatrixError,
    VerificationError,
)
from .fields import Field, FieldElement, PrimeField, is_prime

DEFAULT_GL_GUARD = 20_000_000
MAX_ROOT_SCAN = 1 << 20


class Mat:
    """Immutable matrix of raw entry values over one field."""

    __slots__ = ("field", "nrows", "ncols", "_rows", "_hash")

    def __init__(self, field: Field, rows):
        raw = field.raw
        coerced = tuple(tuple(map(raw, row)) for row in rows)
        if not coerced or not coerced[0]:
            raise ValueError("matrix needs at least one row and column")
        ncols = len(coerced[0])
        if any(len(r) != ncols for r in coerced):
            raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_rows", coerced)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, val):
        raise AttributeError("Mat is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        return Mat(field, [[0] * ncols for _ in range(nrows)])

    @staticmethod
    def identity(field, n):
        return Mat.diag(field, [1] * n)

    @staticmethod
    def diag(field, values):
        vals = list(values)
        n = len(vals)
        return Mat(field, [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(field, n, i, j):
        """E_ij: single 1 in row i, column j (1-based), n x n."""
        return Mat(field, [[int((r + 1, c + 1) == (i, j)) for c in range(n)]
                           for r in range(n)])

    # -- basics ------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return FieldElement(self.field, self._rows[i][j])

    @property
    def rows(self) -> tuple:
        """The entries as tuples of FieldElements."""
        return tuple(tuple(FieldElement(self.field, x) for x in row) for row in self._rows)

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    def is_square(self):
        return self.nrows == self.ncols

    def is_zero(self):
        return not any(map(any, self._rows))

    def transpose(self):
        return Mat(self.field, zip(*self._rows))

    def _check(self, other):
        if not isinstance(other, Mat):
            raise TypeError("expected Mat")
        if other.field is not self.field:
            raise FieldMismatchError("%r vs %r" % (self.field, other.field))

    # sums and scalar multiples are left unreduced: the constructor reduces

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Mat(self.field, [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self._rows, other._rows)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Mat(self.field, [[-a for a in row] for row in self._rows])

    def __mul__(self, scalar):
        s = self.field.raw(scalar)
        return Mat(self.field, [[a * s for a in row] for row in self._rows])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Mat(self.field, kernels.matmul_mod(self._rows, other._rows, self.field.p))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.field is other.field and self._rows == other._rows

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((id(self.field), self._rows)))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self._rows)
        return "Mat(%r, [%s])" % (self.field, body)

    def values(self) -> list:
        """The raw entry values as a new list of row lists."""
        return [list(row) for row in self._rows]

    def to_np(self):
        """int64 residue array, for the GL_n(F_p) search only; prime fields
        only.  The vectorized search sums up to max(nrows, ncols) products of
        residues in int64, so a modulus whose sums could overflow is refused
        rather than answered wrongly."""
        import numpy as np

        if self.field.is_rationals:
            raise TypeError("no int64 form for rational matrices")
        p = self.field.p
        if max(self.nrows, self.ncols) * (p - 1) ** 2 >= 2 ** 63:
            raise ResourceGuardError(
                "F_%d is too large for the int64 kernels at size %d"
                % (p, max(self.nrows, self.ncols)))
        return np.array(self._rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# linear algebra: the kernels on raw entry values
# ---------------------------------------------------------------------------

def rank(M: Mat) -> int:
    """Row rank by exact Gaussian elimination."""
    return kernels.rank_mod(M._rows, M.field.p)


def det(M: Mat) -> FieldElement:
    if not M.is_square():
        raise ValueError("determinant of non-square matrix")
    return M.field.elem(kernels.det_mod(M._rows, M.field.p))


def inverse(M: Mat) -> Mat:
    if not M.is_square():
        raise ValueError("inverse of non-square matrix")
    inv = kernels.inverse_mod(M._rows, M.field.p)
    if inv is None:
        raise SingularMatrixError("matrix is singular over %r" % (M.field,))
    return Mat(M.field, inv)


def nullspace_basis(M: Mat) -> list[tuple[FieldElement, ...]]:
    """Canonical RREF basis of the right nullspace, as row tuples."""
    R, pivots = kernels.rref_mod(M._rows, M.field.p)
    basis = []
    for f in [j for j in range(M.ncols) if j not in pivots]:
        v = [int(j == f) for j in range(M.ncols)]
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(tuple(map(M.field.elem, v)))
    return basis


def charpoly(M: Mat) -> tuple[FieldElement, ...]:
    """Coefficients (1, c1, ..., cn) of det(xI - M)."""
    if not M.is_square():
        raise ValueError("charpoly of non-square matrix")
    return tuple(M.field.elem(c) for c in kernels.charpoly_mod(M._rows, M.field.p))


def sigma(M: Mat, t: int) -> FieldElement:
    """t-th elementary symmetric function of the eigenvalues, normalized so
    that sigma(M, 1) = trace(M) and sigma(M, n) = det(M)."""
    n = M.n
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    c = charpoly(M)[t]
    return -c if t % 2 else c


def _divide_out(coeffs, root, p):
    """(multiplicity of root, quotient by its factors) for a polynomial with
    raw coefficients, leading first, by repeated synthetic division."""
    mult = 0
    while len(coeffs) > 1:
        out = [coeffs[0]]
        for c in coeffs[1:]:
            out.append(kernels.red(c + root * out[-1], p))
        if out[-1]:
            break
        coeffs, mult = out[:-1], mult + 1
    return mult, coeffs


def _divisors(m: int) -> list[int]:
    m = abs(m)
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _rational_roots(coeffs) -> list:
    """Roots in Q of a monic polynomial with Fraction coefficients, with
    multiplicities, ascending.  The candidates r/s come from the divisors of
    the scaled constant term and leading coefficient, found by trial
    division; refused when either needs more than MAX_ROOT_SCAN trials.
    Candidates are tested by integer Horner until the polynomial is split."""
    mult0, poly = _divide_out(coeffs, 0, None)
    found = [(Fraction(0), mult0)] if mult0 else []
    if len(poly) > 1:
        ints = kernels._ints(poly)[0]
        if max(isqrt(abs(ints[0])), isqrt(abs(ints[-1]))) > MAX_ROOT_SCAN:
            raise ResourceGuardError(
                "rational root search over the divisors of %d and %d exceeds "
                "the scan limit %d" % (ints[-1], ints[0], MAX_ROOT_SCAN))
        for s, r, sign in itertools.product(_divisors(ints[0]), _divisors(ints[-1]), (1, -1)):
            if len(poly) == 1:
                break
            acc = 0                 # s^deg f(sign r / s), by integer Horner
            for k, c in enumerate(ints):
                acc = acc * sign * r + c * s ** k
            if acc == 0:
                mult, poly = _divide_out(poly, Fraction(sign * r, s), None)
                if mult:
                    found.append((Fraction(sign * r, s), mult))
    return sorted(found)


def _fp_roots(coeffs, p: int) -> list:
    """Roots in F_p of a monic polynomial with residue coefficients, with
    multiplicities, ascending: a scan of the residues, which stops once the
    polynomial is split.  Refused above MAX_ROOT_SCAN, where a scan would
    take more than about a second."""
    if p > MAX_ROOT_SCAN:
        raise ResourceGuardError(
            "F_%d is too large for the root scan (limit %d)" % (p, MAX_ROOT_SCAN))
    poly, found = coeffs, []
    for a in range(p):
        if len(poly) == 1:
            break
        acc = 0
        for c in poly:
            acc = (acc * a + c) % p
        if acc == 0:
            mult, poly = _divide_out(poly, a, p)
            found.append((a, mult))
    return found


def _roots(coeffs, p) -> list:
    return _rational_roots(coeffs) if p is None else _fp_roots(coeffs, p)


def eigs_in_field(M: Mat) -> list[tuple[FieldElement, int]]:
    """All roots of the characteristic polynomial lying in the base field,
    with multiplicities, sorted by the field order."""
    coeffs = [c.value for c in charpoly(M)]
    return [(M.field.elem(r), m) for r, m in _roots(coeffs, M.field.p)]


# ---------------------------------------------------------------------------
# diagonalization and conjugation
# ---------------------------------------------------------------------------

def _krylov_eigenvectors(A, qs, p) -> list:
    """Per q_a = f / (x - a) (f the charpoly of the rows A, leading first),
    the first nonzero row of q_a(A): a left eigenvector, as q_a(A) (A - a) =
    f(A) = 0, from the Krylov rows e_i A^k (k < n) of the rows i it needs."""
    n, cols, krylov, out = len(A), list(zip(*A)), [], []
    for q in qs:
        for i in range(n):
            if i == len(krylov):        # the rows e_i A^k as columns, k descending
                rows = [[int(j == i) for j in range(n)]]
                for _ in range(n - 1):
                    rows.append([kernels.red(sum(map(mul, rows[-1], c)), p) for c in cols])
                krylov.append(list(zip(*reversed(rows))))
            v = [kernels.red(sum(map(mul, q, col)), p) for col in krylov[i]]
            if any(v):
                break
        else:   # q_a(A) != 0: distinct roots make the minimal polynomial f
            raise VerificationError("a simple eigenvalue has no eigenvector")
        out.append(v)
    return out


def _eigenbasis(A, field: Field):
    """(g, eigenvalues, g^-1) on raw rows: the eigenvalues of A ascending and
    as rows of g its left eigenvectors with last nonzero coordinate 1, the
    canonical nullspace vectors of A^T - a I; over Q on the ints N = dA,
    whose eigenvalues d a are integers.  Raises NotSimpleSpectrumError
    unless A has n distinct eigenvalues in field."""
    n, p = len(A), field.p
    f = kernels.charpoly_mod(A, p)
    # n roots of a degree-n polynomial are all simple
    roots = [a for a, _ in _roots(f, p)]
    if len(roots) != n:
        raise NotSimpleSpectrumError(
            "matrix does not have %d distinct eigenvalues in %r" % (n, field))
    N, shifted = A, roots
    if p is None:
        flat, d = kernels._ints([x for row in A for x in row])
        N = [flat[k:k + n] for k in range(0, n * n, n)]
        f, shifted = [int(c * d ** k) for k, c in enumerate(f)], [int(a * d) for a in roots]
    qs = [list(itertools.accumulate(f[:-1], lambda q, c: kernels.red(c + a * q, p)))
          for a in shifted]            # q_a = f / (x - a) by synthetic division
    g, cols = [], []
    for u, w in zip(*(_krylov_eigenvectors(M, qs, p) for M in (N, list(zip(*N))))):
        s = kernels.inv_scalar(next(x for x in reversed(u) if x), p)
        dot = kernels.red(sum(map(mul, u, w)) * s, p)    # u_a . w_b = 0 for a != b
        if not dot:
            raise VerificationError("left and right eigenvectors are orthogonal")
        t = kernels.inv_scalar(dot, p)
        g.append([kernels.red(x * s, p) for x in u])
        cols.append([kernels.red(x * t, p) for x in w])
    return g, roots, [list(row) for row in zip(*cols)]


def diagonalizer(A1: Mat) -> tuple[Mat, list[FieldElement]]:
    """g with g A1 g^-1 = diag(a1 < ... < an); rows of g are the canonical
    nullspace vectors of (A1^T - a I)."""
    if not A1.is_square():
        raise ValueError("matrix is not square")
    g, roots, _ = _eigenbasis(A1._rows, A1.field)
    return Mat(A1.field, g), [A1.field.elem(a) for a in roots]


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
    return prod(p ** n - p ** i for i in range(n))


def _check_gl_guard(n: int, p: int, max_order: int, verb: str):
    """Exhaustive scans of GL_n(F_p) run for n <= 3 and order <= max_order."""
    if n > 3:
        raise ResourceGuardError(
            "GL_%d(F_%d) is too large to %s: n <= 3 only, whatever max_order is"
            % (n, p, verb))
    if order_gl(n, p) > max_order:
        raise ResourceGuardError(
            "GL_%d(F_%d) has order %d; raise max_order to %s" % (n, p, order_gl(n, p), verb))


def enumerate_GL(n: int, p: int, max_order: int = DEFAULT_GL_GUARD):
    """Every invertible n x n matrix over F_p exactly once, lexicographic in
    the row-major entry tuple."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        raise ValueError("n must be positive")
    _check_gl_guard(n, p, max_order, "enumerate")
    field = PrimeField(p)
    for entries in itertools.product(range(p), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if kernels.det_mod(rows, p):
            yield Mat(field, rows)

