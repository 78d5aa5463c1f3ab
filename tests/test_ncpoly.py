import pytest

from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat, inverse
from simspec.ncpoly import (
    NcExpr,
    NcPoly,
    alt_sum,
    eval_word,
    is_multilinear,
    poly_from_text,
    substitute,
    word_from_text,
    word_text,
)
from simspec.sampling import random_invertible, random_matrix


def _random_poly(field, rng, m=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randint(1, m) for _ in range(rng.randint(0, max_deg)))
        c = rng.randint(1, field.p - 1) if not field.is_rationals else rng.randint(-5, 5)
        terms[w] = field.elem(c) + terms.get(w, field.zero)
    return NcPoly(field, m, terms)


def test_eval_examples():
    p = NcPoly.word(QQ, (1, 2), m=2)
    got = p.eval([Mat.unit(QQ, 3, 1, 2), Mat.unit(QQ, 3, 2, 3)])
    assert got == Mat.unit(QQ, 3, 1, 3)
    # -x1 + 1 at diag(0,1) gives E11
    h = NcPoly(QQ, 1, {(1,): QQ.elem(-1), (): QQ.one})
    assert h.eval([Mat.diag(QQ, [0, 1])]) == Mat.unit(QQ, 2, 1, 1)
    one = NcPoly.one(QQ, 2)
    assert one.eval([Mat.zeros(QQ, 2), Mat.zeros(QQ, 2)]) == Mat.identity(QQ, 2)


def test_eval_is_ring_homomorphism(rng, field):
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        P = _random_poly(field, rng)
        Q = _random_poly(field, rng)
        T = [random_matrix(field, n, rng) for _ in range(2)]
        assert (P * Q).eval(T) == P.eval(T) @ Q.eval(T)
        assert (P + Q).eval(T) == P.eval(T) + Q.eval(T)


def test_eval_equivariance(rng):
    F7 = PrimeField(7)
    for _ in range(15):
        n = rng.choice([2, 3])
        P = _random_poly(F7, rng)
        T = [random_matrix(F7, n, rng) for _ in range(2)]
        g = random_invertible(F7, n, rng)
        ginv = inverse(g)
        twisted = [ginv @ M @ g for M in T]
        assert P.eval(twisted) == ginv @ P.eval(T) @ g


def test_eval_size_mismatch():
    p = NcPoly.word(QQ, (1, 2), m=2)
    with pytest.raises(ValueError):
        p.eval([Mat.zeros(QQ, 2), Mat.zeros(QQ, 3)])
    with pytest.raises(ValueError):
        p.eval([Mat.zeros(QQ, 2)])
    # letters start at x1: no letter is read by negative or zero indexing
    A, B = Mat.unit(QQ, 2, 1, 2), Mat.unit(QQ, 2, 2, 1)
    with pytest.raises(ValueError):
        eval_word((0,), [A, B])
    with pytest.raises(ValueError):
        NcPoly(QQ, 2, {(0,): 1, (-1,): 1}).eval([A, B])


def test_formal_degree():
    assert NcPoly.word(QQ, (1, 2, 1)).formal_degree == 3
    assert NcPoly.zero(QQ).formal_degree == 0
    assert NcPoly.one(QQ).formal_degree == 0
    a, b = NcPoly.word(QQ, (1, 1)), NcPoly.word(QQ, (2,), m=2)
    assert (a * b).formal_degree <= a.formal_degree + b.formal_degree


def test_substitute():
    x1, x2 = NcPoly.letter(QQ, 1, m=2), NcPoly.letter(QQ, 2, m=2)
    assert substitute((1, 2), [x2, x1]) == NcPoly.word(QQ, (2, 1), m=2)
    assert substitute((), [x1]) == NcPoly.one(QQ, 2)
    h = NcPoly(QQ, 2, {(1, 2, 1): QQ.one})
    assert substitute((1,), [h]) == h
    with pytest.raises(ValueError):
        substitute((3,), [x1, x2])


def test_substitute_eval_compatibility(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3])
        hs = [_random_poly(field, rng) for _ in range(2)]
        T = [random_matrix(field, n, rng) for _ in range(2)]
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3)))
        lhs = substitute(w, hs).eval(T, n)
        rhs = eval_word(w, [h.eval(T, n) for h in hs]) if w else Mat.identity(field, n)
        assert lhs == rhs


def test_substitute_multilinearity_bookkeeping():
    letters = [NcPoly.letter(QQ, k, m=3) for k in (3, 1, 2)]
    out = substitute((1, 2, 3), letters)
    (w, _), = out.terms()
    assert is_multilinear(w)


def test_alt_sum():
    x1 = NcPoly.letter(QQ, 1, m=3)
    x2 = NcPoly.letter(QQ, 2, m=3)
    x3 = NcPoly.letter(QQ, 3, m=3)
    assert alt_sum([x1]) == x1
    assert alt_sum([x1, x2, x3]) == x1 - x2 + x3
    with pytest.raises(ValueError):
        alt_sum([])


def test_text_roundtrip(rng, field):
    for _ in range(40):
        p = _random_poly(field, rng)
        assert poly_from_text(field, repr(p)) == p
    assert word_from_text(word_text((1, 2, 1))) == (1, 2, 1)
    assert word_from_text("1") == ()
    for text in ("x0", "x-1", "x1.x0"):
        with pytest.raises(ValueError):
            word_from_text(text)
    with pytest.raises(ValueError):
        poly_from_text(QQ, "x0 + 2*x-1")
    assert repr(NcPoly.zero(QQ)) == "0"


def test_expr_matches_expansion(rng, field):
    for _ in range(10):
        n = rng.choice([2, 3])
        f1, f2 = _random_poly(field, rng), _random_poly(field, rng)
        c = field.elem(3)
        expr = NcExpr(field, [(c, (f1, f2)), (field.elem(-1), (f2,)), (field.one, ())])
        expanded = f1 * f2 * c - f2 + NcPoly.one(field, 2)
        assert expr.expand() == expanded
        T = [random_matrix(field, n, rng) for _ in range(2)]
        assert expr.eval(T) == expanded.eval(T)
        assert expr.degree_bound >= expanded.formal_degree


def test_expr_expansion_guard():
    big = NcPoly(QQ, 2, {(1,) * k: QQ.one for k in range(8)})
    expr = NcExpr(QQ, [(QQ.one, (big,) * 8)])
    with pytest.raises(ValueError):
        expr.expand(max_terms=100)
