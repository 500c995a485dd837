"""Exact distance, threshold certificates, equivalence, and the subset oracle."""

import random
from fractions import Fraction

import pytest

from lmcdist import (
    BudgetExceededError,
    DomainError,
    InitialDistribution,
    Lmc,
    OracleInfeasibleError,
    are_equivalent,
    brute_force_best_event,
    disjoint_union,
    lk_distance_acyclic,
    threshold_decide_acyclic,
    tv_distance_acyclic,
)
from lmcdist.exact import DistanceReport, WitnessSummary

from helpers import (
    half_distance_instance,
    twin_letter_instance,
    worked_example_pair,
    random_acyclic_instance,
    relabeled_copy,
)

###############################################################################
# Total variation distance
###############################################################################


def test_half_distance_fixture():
    lmc, pi1, pi2 = half_distance_instance()
    report = tv_distance_acyclic(lmc, pi1, pi2)
    assert report.distance == Fraction(1, 2)
    # W keeps exactly the word where the first start dominates.
    assert report.witness.words == (("b",),)
    assert report.witness.mass_1 == Fraction(1, 2)
    assert report.witness.mass_2 == 0
    assert report.witness.mass_1 - report.witness.mass_2 == report.distance


def test_witness_words_are_spelled_only_on_request():
    rng = random.Random(7)
    for _ in range(20):
        lmc, pi1, pi2 = random_acyclic_instance(rng)
        spelled = tv_distance_acyclic(lmc, pi1, pi2)
        summary = tv_distance_acyclic(lmc, pi1, pi2, list_words=False)
        assert summary.witness.words is None
        assert summary.witness.word_count == len(spelled.witness.words)
        assert summary == DistanceReport(
            spelled.distance,
            WitnessSummary(
                spelled.witness.word_count, spelled.witness.mass_1, spelled.witness.mass_2, None
            ),
            spelled.enumerated_words,
        )


def test_distance_zero_on_identical_starts():
    lmc, pi1, _ = half_distance_instance()
    report = tv_distance_acyclic(lmc, pi1, pi1)
    assert report.distance == 0
    # All support words tie, so all of them land in the witness event.
    assert report.witness.word_count == report.enumerated_words


def test_ties_with_positive_mass_enter_witness():
    # Both starts emit "a" with probability exactly 1/2: a tie with mass.
    chain = Lmc.from_transitions(
        ["u", "v", "t"],
        ["a", "b"],
        [
            ("u", "a", "t", Fraction(1, 2)),
            ("u", "b", "t", Fraction(1, 2)),
            ("v", "a", "t", Fraction(1, 2)),
            ("v", "b", "t", Fraction(1, 4)),
        ],
        {"v": Fraction(1, 4), "t": 1},
    )
    p1 = InitialDistribution.dirac(chain, "u")
    p2 = InitialDistribution.dirac(chain, "v")
    report = tv_distance_acyclic(chain, p1, p2)
    # "a" ties at 1/2 and must be inside W; ε and "b" split the rest.
    assert ("a",) in report.witness.words
    assert report.distance == Fraction(1, 4)


def test_distance_requires_acyclic():
    cyclic, pi1, _, _ = worked_example_pair()
    with pytest.raises(DomainError, match="cycle"):
        tv_distance_acyclic(cyclic, pi1, pi1)


def test_budget_is_enforced():
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(BudgetExceededError):
        tv_distance_acyclic(lmc, pi1, pi2, budget=1)


def test_budget_counts_distinct_vector_pairs():
    lmc, pi1, pi2 = twin_letter_instance()
    report = tv_distance_acyclic(lmc, pi1, pi2, budget=3)
    assert report.distance == 1
    assert report.enumerated_words == 6
    assert report.witness.words == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    assert lk_distance_acyclic(lmc, pi1, pi2, 2, budget=3) == Fraction(3, 4)
    for run in (
        lambda budget: tv_distance_acyclic(lmc, pi1, pi2, budget=budget),
        lambda budget: lk_distance_acyclic(lmc, pi1, pi2, 2, budget=budget),
    ):
        with pytest.raises(BudgetExceededError, match="at depth 2") as info:
            run(2)
        assert (info.value.nodes_visited, info.value.depth) == (3, 2)
    # The threshold walk merges difference vectors: one per depth here too.
    assert threshold_decide_acyclic(lmc, pi1, pi2, 1, strict=False, budget=3).decision
    with pytest.raises(BudgetExceededError) as info:
        threshold_decide_acyclic(lmc, pi1, pi2, 1, budget=2)
    assert (info.value.nodes_visited, info.value.depth) == (3, 2)
    with pytest.raises(DomainError):
        tv_distance_acyclic(lmc, pi1, pi2, budget=0)


###############################################################################
# Power-sum (L_k) distances
###############################################################################


def test_l1_is_twice_tv():
    rng = random.Random(21)
    for _ in range(15):
        lmc, pi1, pi2 = random_acyclic_instance(rng)
        report = tv_distance_acyclic(lmc, pi1, pi2)
        assert lk_distance_acyclic(lmc, pi1, pi2, 1) == 2 * report.distance


def test_l2_power_sum_on_fixture():
    lmc, pi1, pi2 = half_distance_instance()
    # Gaps are 1/2 on "a" and 1/2 on "b".
    assert lk_distance_acyclic(lmc, pi1, pi2, 2) == Fraction(1, 2)


def test_lk_rejects_bad_exponent():
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(DomainError):
        lk_distance_acyclic(lmc, pi1, pi2, 0)


###############################################################################
# Threshold certificates
###############################################################################


def test_threshold_certificate_integers_on_fixture():
    # The chain's L = 2, the diracs' L_pi = 1 and tau's 2 have lcm D = 2;
    # longest support word has length 1; lhs = 2 * 2^3 * (1/2).
    lmc, pi1, pi2 = half_distance_instance()
    cert = threshold_decide_acyclic(lmc, pi1, pi2, Fraction(1, 2), strict=False)
    assert cert.denominator_product == 2
    assert cert.support_length == 1
    assert cert.lhs_integer == 8
    assert cert.rhs_integer == 8
    assert cert.decision is True

    strict = threshold_decide_acyclic(lmc, pi1, pi2, Fraction(1, 2), strict=True)
    assert strict.rhs_integer == 9
    assert strict.decision is False


def test_threshold_rejects_out_of_range_tau():
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(DomainError):
        threshold_decide_acyclic(lmc, pi1, pi2, Fraction(3, 2))


def test_threshold_rejects_a_float_tau():
    # Fraction(0.3) would be the binary expansion of 0.3, not 3/10.
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(DomainError, match="threshold must be an exact rational"):
        threshold_decide_acyclic(lmc, pi1, pi2, 0.3)


def test_threshold_matches_exact_distance_sign():
    rng = random.Random(33)
    for _ in range(40):
        lmc, pi1, pi2 = random_acyclic_instance(rng)
        d = tv_distance_acyclic(lmc, pi1, pi2).distance
        tau = Fraction(rng.randint(0, 8), 8)
        strict = rng.random() < 0.5
        cert = threshold_decide_acyclic(lmc, pi1, pi2, tau, strict=strict)
        assert cert.decision == ((d > tau) if strict else (d >= tau))


###############################################################################
# Equivalence
###############################################################################


def test_equivalent_to_itself_and_to_relabeling():
    lmc, pi1, pi2 = half_distance_instance()
    assert are_equivalent(lmc, pi1, pi1)
    assert not are_equivalent(lmc, pi1, pi2)

    copy, pic = relabeled_copy(lmc, pi1)
    union, u1, u2 = disjoint_union(lmc, pi1, copy, pic)
    assert are_equivalent(union, u1, u2)


def test_equivalence_on_cyclic_chains():
    first, pi1, _, _ = worked_example_pair()
    copy, pic = relabeled_copy(first, pi1)
    union, u1, u2 = disjoint_union(first, pi1, copy, pic)
    assert are_equivalent(union, u1, u2)


def test_equivalence_detects_distinct_mixtures():
    # Mixing the two worked-example chains differently changes the distribution.
    first, pi1, second, pi2 = worked_example_pair()
    union, u1, u2 = disjoint_union(first, pi1, second, pi2)
    assert not are_equivalent(union, u1, u2)


###############################################################################
# Exhaustive-subset oracle
###############################################################################


def test_brute_force_on_fixture():
    lmc, pi1, pi2 = half_distance_instance()
    words, value = brute_force_best_event(lmc, pi1, pi2, max_len=1)
    assert value == Fraction(1, 2)
    assert words == (("b",),)


def test_brute_force_caps_support():
    rng = random.Random(3)
    lmc, pi1, pi2 = random_acyclic_instance(rng)
    with pytest.raises(OracleInfeasibleError):
        brute_force_best_event(lmc, pi1, pi2, max_len=10, support_cap=0)


def test_brute_force_checks_both_starts():
    # A start must have one weight per state of the chain, as everywhere else.
    lmc = Lmc.from_transitions(["s", "t"], ["a"], [("s", "a", "t", 1)], {"t": 1})
    good = InitialDistribution.dirac(lmc, "s")
    three = InitialDistribution((Fraction(1, 3),) * 3)
    one = InitialDistribution((Fraction(1),))
    for pi1, pi2 in ((three, good), (good, one)):
        with pytest.raises(DomainError, match="weights but the chain has 2 states"):
            brute_force_best_event(lmc, pi1, pi2, max_len=1)


def test_brute_force_rejects_a_non_int_length():
    lmc, pi1, pi2 = half_distance_instance()
    for bad in (0.5, 1.5, Fraction(1)):
        with pytest.raises(DomainError, match="nonnegative int"):
            brute_force_best_event(lmc, pi1, pi2, bad)
    with pytest.raises(DomainError, match="must be nonnegative, got -1"):
        brute_force_best_event(lmc, pi1, pi2, -1)
