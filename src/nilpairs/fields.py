"""Exact coefficient fields: GF(p) for prime p, and arbitrary-precision rationals.

GF(p) elements are canonical ints in [0, p); rational elements are
fractions.Fraction.  FieldSpec instances are values (hashable, comparable)
and carry the element arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

__all__ = ["FieldSpec", "GF", "GF2", "GF3", "QQ", "parse_field"]

Element = Any  # int for GF(p), Fraction for the rationals


_MAX_MODULUS = 2**63  # rng.values_mod_np and the census digit arrays hold entries in int64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin: the prime bases up to 37 are exact for every p < 2^64."""
    if p < 2 or any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s)) for a in _WITNESSES)


@dataclass(frozen=True)
class FieldSpec:
    """Either a prime field GF(p) (kind="gf", modulus p) or the rationals."""

    kind: str  # "gf" | "rational"
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "gf":
            if self.p is not None and self.p >= _MAX_MODULUS:
                raise ValueError(f"GF modulus must be below 2^63, got {self.p}")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"GF modulus must be prime, got {self.p}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- names ---------------------------------------------------------

    @property
    def name(self) -> str:
        if self.kind == "rational":
            return "rational"
        return "gf2" if self.p == 2 else f"gf:{self.p}"

    @property
    def is_finite(self) -> bool:
        return self.kind == "gf"

    @property
    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("rational field is infinite")
        assert self.p is not None
        return self.p

    # -- element arithmetic --------------------------------------------

    def canon(self, x: Any) -> Element:
        """Canonical representative of x in this field."""
        if self.kind == "gf":
            return int(x) % self.p  # type: ignore[operator]
        return Fraction(x)

    def zero(self) -> Element:
        return 0 if self.kind == "gf" else Fraction(0)

    def one(self) -> Element:
        return 1 if self.kind == "gf" else Fraction(1)

    def mul(self, a: Element, b: Element) -> Element:
        return (a * b) % self.p if self.kind == "gf" else a * b

    def neg(self, a: Element) -> Element:
        return (-a) % self.p if self.kind == "gf" else -a

    def inv(self, a: Element) -> Element:
        if self.kind == "gf":
            if a % self.p == 0:  # type: ignore[operator]
                raise ZeroDivisionError("inverse of zero in GF(p)")
            return pow(a, self.p - 2, self.p)  # type: ignore[arg-type]
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    # -- JSON entry encoding -------------------------------------------

    def entry_to_json(self, x: Element) -> Any:
        if self.kind == "gf":
            return int(x)
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def entry_from_json(self, v: Any) -> Element:
        if isinstance(v, bool):  # a bool is an int to Python, never an entry
            raise ValueError(f"matrix entries must be numbers, got {v!r}")
        if self.kind == "gf":
            if not isinstance(v, int):
                raise ValueError(f"GF(p) entries must be integers, got {v!r}")
            return v % self.p  # type: ignore[operator]
        if isinstance(v, (int, str)):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"rational entry {v!r} has a zero denominator") from None
        raise ValueError(f"rational entries must be ints or 'num/den' strings, got {v!r}")


QQ = FieldSpec("rational")
GF2 = FieldSpec("gf", 2)
GF3 = FieldSpec("gf", 3)


def GF(p: int) -> FieldSpec:
    return FieldSpec("gf", p)


def parse_field(name: str) -> FieldSpec:
    """Parse "gf2", "gf:<p>" or "rational"; anything else raises ValueError."""
    if not isinstance(name, str):
        raise ValueError(f"field name must be a string, got {name!r}")
    name = name.strip().lower()
    if name == "rational":
        return QQ
    if name == "gf2":
        return GF2
    if name.startswith("gf:"):
        return FieldSpec("gf", int(name[3:]))
    raise ValueError(f"unknown field name {name!r}")
