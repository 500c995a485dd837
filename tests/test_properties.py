"""Property tests: results of the prefix walker against independent routes."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lmcdist import (
    acceptance_probability,
    find_majority_witness,
    lk_distance_acyclic,
    threshold_decide_acyclic,
    tv_distance_acyclic,
    word_probability,
)

from helpers import random_acyclic_instance, random_pa

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_witness_masses_are_sums_of_word_probabilities(seed):
    lmc, pi1, pi2 = random_acyclic_instance(random.Random(seed))
    report = tv_distance_acyclic(lmc, pi1, pi2)
    words = report.witness.words
    assert len(words) == report.witness.word_count
    assert report.witness.mass_1 == sum(word_probability(lmc, pi1, w) for w in words)
    assert report.witness.mass_2 == sum(word_probability(lmc, pi2, w) for w in words)
    assert report.distance == report.witness.mass_1 - report.witness.mass_2


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
def test_threshold_certificate_identity(seed, tau):
    lmc, pi1, pi2 = random_acyclic_instance(random.Random(seed))
    distance = tv_distance_acyclic(lmc, pi1, pi2).distance
    cert = threshold_decide_acyclic(lmc, pi1, pi2, tau, strict=False)
    scale = 2 * cert.denominator_product ** (cert.support_length + 2)
    assert cert.lhs_integer == scale * distance
    assert cert.rhs_integer == scale * tau
    assert cert.decision == (distance >= tau)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_l1_power_sum_is_twice_the_distance(seed):
    lmc, pi1, pi2 = random_acyclic_instance(random.Random(seed))
    distance = tv_distance_acyclic(lmc, pi1, pi2).distance
    assert lk_distance_acyclic(lmc, pi1, pi2, 1) == 2 * distance


def _shortest_majority_word(pa, max_len):
    for length in range(max_len + 1):
        for word in itertools.product(pa.alphabet, repeat=length):
            if acceptance_probability(pa, word) > Fraction(1, 2):
                return word
    return None


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=4))
def test_majority_witness_matches_shortest_first_brute_force(seed, max_len):
    pa = random_pa(random.Random(seed))
    assert find_majority_witness(pa, max_len) == _shortest_majority_word(pa, max_len)
