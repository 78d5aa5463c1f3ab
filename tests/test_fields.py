import itertools
import time
from fractions import Fraction

import pytest


from simspec.errors import FieldMismatchError, InputFormatError, ResourceGuardError
from simspec.fields import (
    MR_BOUND,
    QQ,
    FieldElement,
    PrimeField,
    field_cmp,
    is_prime,
    parse_field,
)


def test_cmp_examples():
    assert field_cmp(QQ.elem(Fraction(1, 2)), QQ.elem(Fraction(1, 3))) > 0
    F7 = PrimeField(7)
    assert field_cmp(F7.elem(3), F7.elem(5)) < 0
    a = QQ.elem(Fraction(-4, 6))
    assert field_cmp(a, a) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_cmp_total_order_exhaustive(p):
    F = PrimeField(p)
    elems = list(F.elements())
    for a, b in itertools.product(elems, repeat=2):
        c1, c2 = field_cmp(a, b), field_cmp(b, a)
        assert c1 == -c2
        assert (c1 == 0) == (a == b)
    for a, b, c in itertools.product(elems, repeat=3):
        if field_cmp(a, b) < 0 and field_cmp(b, c) < 0:
            assert field_cmp(a, c) < 0


def test_cmp_rationals_random(rng):
    for _ in range(300):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        got = field_cmp(QQ.elem(x), QQ.elem(y))
        assert got == (-1 if x < y else (1 if x > y else 0))


def test_mixed_field_rejected():
    with pytest.raises(FieldMismatchError):
        field_cmp(QQ.elem(1), PrimeField(5).elem(1))
    with pytest.raises(FieldMismatchError):
        PrimeField(5).elem(1) + PrimeField(7).elem(1)


def test_canonical_representatives():
    x = QQ.elem(Fraction(-4, -6))
    assert x.value == Fraction(2, 3)
    assert x.value.denominator > 0
    F7 = PrimeField(7)
    assert F7.elem(-1).value == 6
    assert F7.elem(15).value == 1


def test_field_axioms_exhaustive_f5():
    F = PrimeField(5)
    elems = list(F.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
        assert a - b == -(b - a)
        if not b.is_zero():
            assert (a / b) * b == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_rational_arithmetic_random(rng):
    for _ in range(200):
        a = QQ.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = QQ.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert (a + b).value == a.value + b.value
        assert (a * b).value == a.value * b.value
        if not b.is_zero():
            assert (a / b).value == a.value / b.value


def test_inverse_exhaustive_f11():
    F = PrimeField(11)
    for a in F.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == F.one


def test_parse_print_roundtrip(rng):
    for _ in range(100):
        x = QQ.elem(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        assert QQ.parse(QQ.format(x)) == x
    F7 = PrimeField(7)
    for a in F7.elements():
        assert F7.parse(F7.format(a)) == a
    assert QQ.parse(" -3/4 ").value == Fraction(-3, 4)
    assert QQ.format(QQ.elem(5)) == "5"
    assert QQ.format(QQ.elem(Fraction(1, 2))) == "1/2"


def test_parse_errors():
    with pytest.raises(InputFormatError):
        QQ.parse("x")
    with pytest.raises(InputFormatError):
        PrimeField(5).parse("2/3")


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    assert PrimeField(5) is PrimeField(5)
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)


def _trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(p) == _trial_division(p) for p in range(10 ** 4))


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(4294967291) and not is_prime(4294967291 * 65521)


def test_large_prime_field_is_fast():
    start = time.perf_counter()
    F = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert F.p == 2 ** 61 - 1


def test_is_prime_refuses_beyond_its_certified_range():
    assert not is_prime(MR_BOUND - 1)     # even
    with pytest.raises(ResourceGuardError):
        is_prime(MR_BOUND)
    with pytest.raises(ResourceGuardError):
        is_prime(2 ** 89 - 1)


def test_parse_field_specs():
    assert parse_field("Q") is QQ
    assert parse_field({"Fp": 7}) is PrimeField(7)
    assert parse_field("F11") is PrimeField(11)
    with pytest.raises(InputFormatError):
        parse_field({"Fp": 8})
    with pytest.raises(InputFormatError):
        parse_field("R")


def test_fp_from_fraction():
    F7 = PrimeField(7)
    assert F7.elem(Fraction(1, 2)) == F7.elem(4)
    with pytest.raises(ZeroDivisionError):
        F7.elem(Fraction(1, 7))
