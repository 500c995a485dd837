"""Bounded-precision floats: rounding, arithmetic, and certified error bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcdist import (
    DomainError,
    FloatK,
    RoundedModel,
    fp_add,
    fp_mul,
    fp_round,
    fp_word_probability,
    precision_for,
    word_probability,
)

from helpers import half_distance_instance, random_acyclic_instance

###############################################################################
# Representation
###############################################################################


def test_normalization_enforced():
    FloatK(mantissa=4, exponent=0, precision=3)  # 4 = 100b: normalized at k=3
    with pytest.raises(DomainError):
        FloatK(mantissa=2, exponent=0, precision=3)  # too small for k=3
    with pytest.raises(DomainError):
        FloatK(mantissa=8, exponent=0, precision=3)  # needs k=4
    with pytest.raises(DomainError):
        FloatK(mantissa=0, exponent=1, precision=3)  # zero must be (0, 0)


def test_zero_and_value():
    z = FloatK.zero(5)
    assert z.is_zero and z.value == 0
    x = FloatK(mantissa=5, exponent=-4, precision=3)
    assert x.value == Fraction(5, 16)


def test_ordering_ignores_precision_but_equality_is_structural():
    a = fp_round(Fraction(3, 4), 5)
    b = fp_round(Fraction(3, 4), 9)
    assert a.value == b.value
    assert a <= b and a >= b and not a < b
    assert a != b  # same value, different precision
    assert a == fp_round(Fraction(3, 4), 5)
    assert fp_round(Fraction(1, 2), 5) < fp_round(Fraction(3, 4), 5)


###############################################################################
# Rounding
###############################################################################


def test_round_frozen_examples():
    assert fp_round(Fraction(5), 3) == FloatK(5, 0, 3)
    assert fp_round(Fraction(9), 3) == FloatK(5, 1, 3)  # tie 9/2 -> away from zero
    assert fp_round(Fraction(1, 3), 1) == FloatK(1, -2, 1)
    assert fp_round(Fraction(0), 7).is_zero


def test_round_exact_when_representable():
    assert fp_round(Fraction(3, 8), 2).value == Fraction(3, 8)
    assert fp_round(Fraction(1024), 1).value == 1024


def test_round_ties_away_from_zero():
    # 3/2 sits exactly between the 1-bit floats 1 and 2.
    assert fp_round(Fraction(3, 2), 1).value == 2
    # 5/2 sits exactly between the 2-bit floats 2 and 3.
    assert fp_round(Fraction(5, 2), 2).value == 3


def test_round_rejects_negative():
    with pytest.raises(DomainError):
        fp_round(Fraction(-1, 2), 4)


@settings(max_examples=300)
@given(
    num=st.integers(min_value=0, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
    k=st.integers(min_value=1, max_value=40),
)
def test_round_relative_error_bound(num, den, k):
    x = Fraction(num, den)
    r = fp_round(x, k).value
    if x == 0:
        assert r == 0
    else:
        assert abs(r - x) < x * Fraction(1, 2**k)


@settings(max_examples=200)
@given(
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
    k=st.integers(min_value=1, max_value=30),
)
def test_round_is_nearest(num, den, k):
    """No k-bit float in the same binade is closer than the chosen one."""
    x = Fraction(num, den)
    r = fp_round(x, k)
    step = Fraction(2) ** r.exponent
    for neighbour in (r.value - step, r.value + step):
        if neighbour >= 0:
            assert abs(r.value - x) <= abs(neighbour - x)


###############################################################################
# Arithmetic
###############################################################################


def test_add_and_mul_round_once():
    a = fp_round(Fraction(3), 3)
    b = fp_round(Fraction(5), 3)
    assert fp_add(a, b).value == 8  # exact: 8 = 100b * 2^1 fits in 3 bits
    assert fp_mul(a, b).value == 16  # 15 rounds to 16 in 3 bits (tie away)
    c = fp_round(Fraction(7), 3)
    assert fp_mul(a, c).value == 20  # 21 rounds down to 20 = 5 * 2^2


def test_zero_shortcuts_are_exact():
    z = FloatK.zero(4)
    x = fp_round(Fraction(11, 16), 4)
    assert fp_add(z, x) == x
    assert fp_mul(z, x).is_zero


def test_mixed_precision_rejected():
    with pytest.raises(DomainError):
        fp_add(FloatK.zero(3), FloatK.zero(4))


@settings(max_examples=200)
@given(
    a=st.fractions(min_value=0, max_value=100),
    b=st.fractions(min_value=0, max_value=100),
    k=st.integers(min_value=2, max_value=30),
)
def test_arithmetic_relative_error(a, b, k):
    theta = Fraction(1, 2**k)
    fa, fb = fp_round(a, k), fp_round(b, k)
    s = fp_add(fa, fb).value
    exact_sum = fa.value + fb.value
    assert abs(s - exact_sum) <= exact_sum * theta
    p = fp_mul(fa, fb).value
    exact_prod = fa.value * fb.value
    assert abs(p - exact_prod) <= exact_prod * theta


###############################################################################
# Precision planning
###############################################################################


def test_precision_for_frozen_value():
    assert precision_for(12, 3, Fraction(1, 8)) == 10


def test_precision_for_rejects_a_non_int_length():
    with pytest.raises(DomainError, match="nonnegative int"):
        precision_for(12.0, 3, Fraction(1, 8))


def test_precision_for_is_minimal():
    k = precision_for(12, 3, Fraction(1, 8))
    need = 2 * (12 + 2) * 3 / Fraction(1, 8)
    assert 2**k >= need
    assert 2 ** (k - 1) < need


def test_precision_for_monotone():
    base = precision_for(5, 4, Fraction(1, 16))
    assert precision_for(10, 4, Fraction(1, 16)) >= base
    assert precision_for(5, 8, Fraction(1, 16)) >= base
    assert precision_for(5, 4, Fraction(1, 64)) >= base


###############################################################################
# Rounded chain evaluation
###############################################################################


def test_fp_word_probability_exact_on_dyadic_fixture():
    # Every probability in the fixture is a power of two: no rounding at all.
    lmc, pi1, pi2 = half_distance_instance()
    for pi in (pi1, pi2):
        for word in [(), ("a",), ("b",)]:
            assert fp_word_probability(lmc, pi, word, 8).value == word_probability(
                lmc, pi, word
            )


def test_rounded_model_matches_fp_word_probability():
    rng = random.Random(17)
    lmc, pi1, _ = random_acyclic_instance(rng)
    model = RoundedModel(lmc, 12)
    vec = model.initial(pi1)
    word = []
    for li, label in [(0, lmc.alphabet[0]), (1, lmc.alphabet[1])]:
        vec = model.advance(vec, li)
        word.append(label)
        assert model.stop_mass(vec) == fp_word_probability(lmc, pi1, tuple(word), 12)


def test_zero_pattern_matches_exact():
    """Rounding never turns a positive probability into zero or vice versa."""
    rng = random.Random(23)
    for _ in range(10):
        lmc, pi1, _ = random_acyclic_instance(rng)
        for k in (1, 2, 6):
            words = [()]
            for _ in range(3):
                words = [w + (a,) for w in words for a in lmc.alphabet]
                for w in words:
                    exact = word_probability(lmc, pi1, w)
                    approx = fp_word_probability(lmc, pi1, w, k)
                    assert (exact == 0) == approx.is_zero
