"""Exact scalars over Q and prime fields F_p, with a fixed total order.

Rationals are stored as `fractions.Fraction` (always reduced, positive
denominator), residues as plain ints in {0,...,p-1}.  The total order is the
natural order on Q and the residue order on F_p, so comparisons are
deterministic across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, InputFormatError, ResourceGuardError
from .kernels import inv_scalar


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; above MR_BOUND no answer is certain, so
    ResourceGuardError is raised instead of a probable one."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    if p >= MR_BOUND:
        raise ResourceGuardError("no deterministic primality test for %d" % p)
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:     # p - 1 = d 2^s with d odd
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 2 ** r, p) for r in range(s)):
            return False
    return True


class Field:
    """Base class; use the QQ singleton or PrimeField(p)."""

    is_rationals = False
    p: int | None = None

    def raw(self, x):
        """The raw value of x in this field: a Fraction over Q, a residue in
        {0,...,p-1} over F_p.  The one coercion of matrix entries and
        polynomial coefficients."""
        raise NotImplementedError

    def elem(self, x) -> "FieldElement":
        return FieldElement(self, self.raw(x))

    @property
    def zero(self) -> "FieldElement":
        return self.elem(0)

    @property
    def one(self) -> "FieldElement":
        return self.elem(1)

    def parse(self, text: str) -> "FieldElement":
        raise NotImplementedError

    def format(self, e: "FieldElement") -> str:
        return str(e.value)


class RationalField(Field):
    is_rationals = True

    def raw(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise FieldMismatchError("element of %r is not rational" % (x.field,))
            return x.value
        return Fraction(x)

    def parse(self, text: str) -> "FieldElement":
        try:
            return FieldElement(self, Fraction(text.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError("bad rational scalar %r: %s" % (text, exc)) from exc

    def __repr__(self):
        return "QQ"

    def __reduce__(self):  # keep the singleton under pickling
        return (_get_qq, ())


def _get_qq():
    return QQ


QQ = RationalField()


class PrimeField(Field):
    _cache: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        # interned per p so `field is field` works across call sites
        inst = cls._cache.get(p)
        if inst is None:
            if not is_prime(p):
                raise ValueError("modulus %r is not prime" % (p,))
            inst = super().__new__(cls)
            inst.p = p
            cls._cache[p] = inst
        return inst

    def raw(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise FieldMismatchError("element of %r is not in F_%d" % (x.field, self.p))
            return x.value
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return x.numerator * inv_scalar(x.denominator, self.p) % self.p
        return int(x) % self.p

    def elements(self):
        """All residues in increasing order."""
        for v in range(self.p):
            yield FieldElement(self, v)

    def parse(self, text: str) -> "FieldElement":
        try:
            return self.elem(int(text.strip()))
        except ValueError as exc:
            raise InputFormatError("bad residue %r: %s" % (text, exc)) from exc

    def __repr__(self):
        return "F%d" % self.p


class FieldElement:
    """An immutable exact scalar tagged with its field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, (int, FieldElement)):
            return self.field.elem(other)   # raises on another field's element
        return NotImplemented

    # results are reduced by Field.elem

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.elem(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.elem(self.value - other.value)

    def __rsub__(self, other):
        return self.field.elem(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field.elem(self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.elem(other) / self

    def __neg__(self):
        return self.field.elem(-self.value)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in %r" % (self.field,))
        return FieldElement(self.field, inv_scalar(self.value, self.field.p))

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other):
        return field_cmp(self, other) < 0

    def __le__(self, other):
        return field_cmp(self, other) <= 0

    def __gt__(self, other):
        return field_cmp(self, other) > 0

    def __ge__(self, other):
        return field_cmp(self, other) >= 0

    def __repr__(self):
        return self.field.format(self)


def field_cmp(a: FieldElement, b: FieldElement) -> int:
    """Total order: -1, 0 or +1.  Natural order on Q, residue order on F_p."""
    if not isinstance(a, FieldElement) or not isinstance(b, FieldElement):
        raise TypeError("field_cmp expects FieldElement operands")
    if a.field is not b.field:
        raise FieldMismatchError("%r vs %r" % (a.field, b.field))
    if a.value < b.value:
        return -1
    if a.value > b.value:
        return 1
    return 0


def parse_field(spec) -> Field:
    """Field from its JSON form: "Q" or {"Fp": p}."""
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        try:
            return PrimeField(int(spec["Fp"]))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
    if isinstance(spec, str) and spec.startswith("F"):
        try:
            return PrimeField(int(spec[1:]))
        except ValueError as exc:
            raise InputFormatError("bad field %r: %s" % (spec, exc)) from exc
    raise InputFormatError("bad field spec %r" % (spec,))


def field_to_json(field: Field):
    return "Q" if field.is_rationals else {"Fp": field.p}
