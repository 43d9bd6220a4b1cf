"""Arithmetic and ordering of the exact extended values."""

import operator
import random
from fractions import Fraction

import pytest

from gimpl import INF, ZERO, ExtValue


def test_parse_forms():
    assert ExtValue(7) == ExtValue("7")
    assert ExtValue("11/10") == ExtValue(Fraction(11, 10))
    assert ExtValue("inf") == INF
    assert ExtValue() == ZERO
    assert ExtValue("-3/4") < ZERO


def test_lowest_terms_and_str():
    assert str(ExtValue("22/20")) == "11/10"
    assert str(ExtValue("8/4")) == "2"
    assert str(INF) == "inf"
    assert ExtValue("11/10").to_json() == "11/10"
    assert ExtValue(3).to_json() == 3
    assert INF.to_json() == "inf"


def test_rejects_junk():
    with pytest.raises(ValueError):
        ExtValue("1/0")
    with pytest.raises(ValueError):
        ExtValue("spam")
    for text in ("1e5", "1.5", "1_000"):
        with pytest.raises(ValueError, match="malformed rational"):
            ExtValue(text)
    with pytest.raises(TypeError):
        ExtValue(1.5)
    with pytest.raises(TypeError):
        ExtValue(True)


def test_total_order():
    assert ExtValue(1) < ExtValue("11/10") < ExtValue(2) < INF
    assert not INF < INF
    assert INF <= INF and INF == INF
    assert max(ExtValue(1), INF, ExtValue(5)) == INF
    assert ExtValue(2) >= 2 and ExtValue(2) <= 2
    assert INF > ExtValue(10**100) and INF >= INF and not INF > INF
    assert not ExtValue(5) > INF and not ExtValue(5) >= INF
    assert ExtValue(3) > 2 and ExtValue(3) >= 3 and not ExtValue(2) > 2
    assert ExtValue("1/2") > Fraction(1, 3) and ExtValue("1/2") >= Fraction(2, 4)
    assert not ExtValue("1/3") >= Fraction(1, 2)
    # reflected comparisons with ints and Fractions
    assert 2 <= ExtValue(2) and 2 >= ExtValue(2) and not 2 < ExtValue(2)
    assert 10**100 < INF and not 10**100 > INF and 10**100 <= INF
    assert Fraction(1, 3) < ExtValue("1/2") and Fraction(2, 3) > ExtValue("1/2")
    for other in (True, "1", 1.0):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(ExtValue(1), other)
            with pytest.raises(TypeError):
                compare(other, ExtValue(1))


def test_addition_absorbs_infinity():
    assert ExtValue(1) + INF == INF
    assert INF + INF == INF
    assert ExtValue("1/3") + ExtValue("1/6") == ExtValue("1/2")
    assert sum([ExtValue(1), ExtValue("1/10")], ZERO) == ExtValue("11/10")


def test_subtraction():
    assert ExtValue(2) - ExtValue("1/2") == ExtValue("3/2")
    assert INF - ExtValue(5) == INF
    with pytest.raises(ValueError):
        ExtValue(1) - INF


def test_hash_consistent_with_eq():
    assert hash(ExtValue("4/2")) == hash(ExtValue(2)) == hash(2)
    table = {ExtValue("1/2"): "a", INF: "b"}
    assert table[ExtValue("2/4")] == "a"
    assert table[ExtValue("inf")] == "b"


def test_exactness_on_random_rationals():
    rng = random.Random(20240817)
    for _ in range(300):
        parts = [
            ExtValue(Fraction(rng.randint(-50, 50), rng.randint(1, 30)))
            for _ in range(3)
        ]
        a, b, c = parts
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        total = (a + b + c).fraction
        assert total == a.fraction + b.fraction + c.fraction
