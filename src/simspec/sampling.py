"""Seeded random generators for matrices and admissible pairs."""

from __future__ import annotations

import random
from fractions import Fraction

from .canonical import MatrixPair
from .errors import FieldTooSmallError
from .fields import Field
from .matrices import Mat, conjugate, det


def random_scalar(field: Field, rng: random.Random, height: int = 9):
    if field.is_rationals:
        return field.elem(Fraction(rng.randint(-height, height),
                                   rng.randint(1, height)))
    return field.elem(rng.randrange(field.p))


def random_matrix(field: Field, n: int, rng: random.Random, height: int = 9) -> Mat:
    return Mat(field, [[random_scalar(field, rng, height) for _ in range(n)]
                       for _ in range(n)])


def random_invertible(field: Field, n: int, rng: random.Random, height: int = 9) -> Mat:
    while True:
        M = random_matrix(field, n, rng, height)
        if not det(M).is_zero():
            return M


def random_simple_spectrum_pair(field: Field, n: int, rng: random.Random,
                                height: int = 9) -> MatrixPair:
    """A1 conjugate to a diagonal with n distinct field eigenvalues, A2 free."""
    if field.is_rationals:
        pool = [Fraction(v) for v in range(-2 * n, 2 * n + 1)]
    else:
        if field.p < n:
            raise FieldTooSmallError("F_%d cannot host %d distinct eigenvalues"
                                     % (field.p, n))
        pool = range(field.p)
    eigs = rng.sample(pool, n)
    g = random_invertible(field, n, rng, height)
    A1 = conjugate(g, Mat.diag(field, eigs))
    A2 = random_matrix(field, n, rng, height)
    return MatrixPair(A1, A2)
