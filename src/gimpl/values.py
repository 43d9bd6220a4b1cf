"""Exact extended values: rationals plus a single +infinity element.

Every quantity this package takes or returns (utilities, payment promises,
budgets, costs) is an :class:`ExtValue`. Finite values are
`fractions.Fraction` underneath, so all arithmetic is bit-exact; infinity is
absorbing under addition and strictly above every finite value. Code that
reads many values at once (dominance ranks, pricing) computes on
:attr:`ExtValue.exact` instead: the same number as a plain ``int`` when it
is integral, a ``Fraction`` otherwise and ``None`` for infinity, computed
once when the value is built, so it stays exact, never goes through floats
and costs nothing to read again.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from typing import Union

ValueLike = Union[int, Fraction, str, "ExtValue"]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


@total_ordering
class ExtValue:
    """An exact rational extended with +infinity.

    Accepts ints, Fractions, other ExtValues, or strings ("7", "-11/10",
    "inf"); a string must be an int or "p/q" after stripping whitespace, so
    decimals, exponents and underscores are refused. Finite values are normalized to lowest terms with a positive
    denominator by the underlying Fraction.
    """

    __slots__ = ("_frac", "_exact")

    def __init__(self, value: ValueLike = 0):
        if isinstance(value, ExtValue):
            frac = value._frac
        elif isinstance(value, bool):
            raise TypeError("booleans are not utility values")
        elif isinstance(value, (int, Fraction)):
            frac = Fraction(value)
        elif isinstance(value, str):
            text = value.strip()
            if text == "inf":
                frac = None
            else:
                try:
                    if not _RATIONAL.fullmatch(text):
                        raise ValueError
                    frac = Fraction(text)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"malformed rational {value!r}") from exc
        else:
            raise TypeError(f"cannot build an ExtValue from {type(value).__name__}")
        self._frac: Fraction | None = frac
        self._exact = frac.numerator if frac is not None and frac.denominator == 1 else frac

    @property
    def is_finite(self) -> bool:
        return self._frac is not None

    @property
    def exact(self) -> "int | Fraction | None":
        """The value as an int when integral, the Fraction otherwise, and
        None for infinity, computed once when the value is built; ints add,
        hash and compare natively."""
        return self._exact

    @property
    def fraction(self) -> Fraction:
        """The underlying Fraction; raises on infinity."""
        if self._frac is None:
            raise ValueError("infinite value has no finite representation")
        return self._frac

    def _coerce(self, other: object) -> "ExtValue | None":
        if isinstance(other, ExtValue):
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return ExtValue(other)
        return None

    def __add__(self, other: object) -> "ExtValue":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._frac is None or rhs._frac is None:
            return INF
        return ExtValue(self._frac + rhs._frac)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExtValue":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs._frac is None:
            raise ValueError("cannot subtract infinity")
        if self._frac is None:
            return INF
        return ExtValue(self._frac - rhs._frac)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._frac == rhs._frac

    def __hash__(self) -> int:
        return hash(self._frac) if self._frac is not None else hash("ExtValue.inf")

    def __lt__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self._frac is None:
            return False  # infinity is below nothing
        if rhs._frac is None:
            return True
        return self._frac < rhs._frac

    def __str__(self) -> str:
        return "inf" if self._exact is None else str(self._exact)

    def __repr__(self) -> str:
        return f"ExtValue({str(self)!r})"

    def to_json(self) -> "int | str":
        """JSON-friendly form: int when integral, else "p/q" or "inf"."""
        return self._exact if isinstance(self._exact, int) else str(self)


INF = ExtValue("inf")
ZERO = ExtValue(0)
