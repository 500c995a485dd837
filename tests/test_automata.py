"""Nondeterministic and probabilistic automata, and the instance generators."""

import itertools
import random
from fractions import Fraction

import pytest

from lmcdist import (
    BudgetExceededError,
    DomainError,
    Nfa,
    Pa,
    acceptance_probability,
    count_accepted_words,
    count_from_distance,
    find_majority_witness,
    is_acyclic,
    nfa_to_lmc,
    pa_to_lmc,
    total_accepting_runs,
    tv_bounded,
    tv_distance_acyclic,
    validate,
    word_probability,
)
from lmcdist import automata
from lmcdist.automata import _solve_linear

from helpers import (
    accepting_run_count,
    all_two_state_nfas,
    always_accepting_pa,
    at_most_half_pa,
    example_nfa,
    half_sink_pa,
    late_branch_pa,
)

###############################################################################
# NFA basics
###############################################################################


def test_nfa_validation():
    good = example_nfa()
    assert good.successors("s1", "y") == ("s1", "s2")  # declaration order
    assert good.successors("s2", "x") == ()
    with pytest.raises(DomainError, match="unique"):
        Nfa(("q", "q"), ("x",), "q", frozenset(), frozenset())
    with pytest.raises(DomainError, match="initial"):
        Nfa(("q",), ("x",), "nope", frozenset(), frozenset())
    with pytest.raises(DomainError, match="accepting"):
        Nfa(("q",), ("x",), "q", frozenset({"nope"}), frozenset())
    with pytest.raises(DomainError, match="unknown state"):
        Nfa(("q",), ("x",), "q", frozenset(), frozenset({("q", "x", "nope")}))
    with pytest.raises(DomainError, match="alphabet"):
        Nfa(("q",), ("x",), "q", frozenset(), frozenset({("q", "z", "q")}))
    with pytest.raises(DomainError, match="alphabet"):
        Nfa(("q",), (), "q", frozenset(), frozenset())


def test_accepting_run_counts_by_hand():
    nfa = example_nfa()
    assert accepting_run_count(nfa, ("y", "y", "y")) == 3
    assert accepting_run_count(nfa, ("x", "x", "x")) == 0
    assert accepting_run_count(nfa, ("y", "y")) == 2
    assert accepting_run_count(nfa, ()) == 0
    with pytest.raises(DomainError, match="alphabet"):
        accepting_run_count(nfa, ("z",))


def test_count_accepted_words_frozen_and_brute_forced():
    nfa = example_nfa()
    assert count_accepted_words(nfa, 3) == 4
    assert count_accepted_words(nfa, 0) == 0
    # Independent route: count words with at least one accepting run.
    for machine in all_two_state_nfas()[7::101]:
        for n in range(4):
            brute = sum(
                1
                for word in itertools.product(machine.alphabet, repeat=n)
                if accepting_run_count(machine, word) > 0
            )
            assert count_accepted_words(machine, n) == brute


def test_count_accepted_words_subset_cap():
    with pytest.raises(BudgetExceededError):
        count_accepted_words(example_nfa(), 2, state_cap=1)


@pytest.mark.parametrize("cap", [0, -3])
def test_count_accepted_words_rejects_a_nonpositive_cap(cap):
    # Refused before any work, even at length 0, where no layer is built.
    for n in (0, 2):
        with pytest.raises(DomainError, match=f"subset cap must be positive, got {cap}"):
            count_accepted_words(example_nfa(), n, state_cap=cap)


def test_total_accepting_runs_matches_per_word_sums():
    nfa = example_nfa()
    assert total_accepting_runs(nfa, 3) == 7
    for machine in [nfa] + all_two_state_nfas()[3::211]:
        for n in range(4):
            per_word = sum(
                accepting_run_count(machine, word)
                for word in itertools.product(machine.alphabet, repeat=n)
            )
            assert total_accepting_runs(machine, n) == per_word


###############################################################################
# Probabilistic automata
###############################################################################


def test_pa_validation():
    at_most_half_pa()  # must construct cleanly
    with pytest.raises(DomainError, match="row of state 'u'"):
        Pa(("u",), ("x",), (((Fraction(1, 2),),),), (Fraction(1),), frozenset())
    with pytest.raises(DomainError, match="initial weights sum"):
        Pa(("u",), ("x",), (((Fraction(1),),),), (Fraction(1, 2),), frozenset())
    with pytest.raises(DomainError, match="not 1x1"):
        Pa(("u",), ("x",), ((),), (Fraction(1),), frozenset())
    with pytest.raises(DomainError, match="one matrix per label"):
        Pa(("u",), ("x", "y"), (((Fraction(1),),),), (Fraction(1),), frozenset())
    with pytest.raises(DomainError, match="outside"):
        Pa(
            ("u", "v"),
            ("x",),
            (((Fraction(3, 2), Fraction(-1, 2)), (Fraction(1), Fraction(0))),),
            (Fraction(1), Fraction(0)),
            frozenset(),
        )
    with pytest.raises(DomainError, match="accepting"):
        Pa(("u",), ("x",), (((Fraction(1),),),), (Fraction(1),), frozenset({"w"}))
    # Names are checked by the chain the automaton is stored as.
    with pytest.raises(DomainError, match="state names must be unique"):
        Pa(("u", "u"), ("x",), (((Fraction(1), 0), (0, Fraction(1))),), (Fraction(1), 0), frozenset())
    with pytest.raises(DomainError, match="labels must be unique"):
        Pa(("u",), ("x", "x"), (((Fraction(1),),),) * 2, (Fraction(1),), frozenset())
    with pytest.raises(DomainError, match="at least one state"):
        Pa((), ("x",), ((),), (), frozenset())
    # A float zero is refused before zero entries are dropped.
    with pytest.raises(DomainError, match="exact rational"):
        Pa(("u", "v"), ("x",), (((Fraction(1), 0.0), (0, Fraction(1))),), (Fraction(1), 0), frozenset())


def test_acceptance_probability_by_hand():
    pa = at_most_half_pa()
    assert acceptance_probability(pa, ()) == 0
    assert acceptance_probability(pa, ("x",)) == Fraction(1, 2)
    assert acceptance_probability(pa, ("x", "x")) == Fraction(1, 4)
    assert acceptance_probability(always_accepting_pa(), ("x", "x", "x")) == 1
    with pytest.raises(DomainError, match="alphabet"):
        acceptance_probability(pa, ("z",))


def test_majority_witness_search():
    assert find_majority_witness(always_accepting_pa(), 2) == ()
    assert find_majority_witness(at_most_half_pa(), 5) is None
    # A deterministic automaton accepting exactly the words starting with x:
    # the shortest majority word is ("x",), found before any length-2 word.
    pa = Pa(
        states=("u", "yes", "no"),
        alphabet=("x", "y"),
        matrices=(
            (
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1)),
            ),
            (
                (Fraction(0), Fraction(0), Fraction(1)),
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1)),
            ),
        ),
        initial=(Fraction(1), Fraction(0), Fraction(0)),
        accepting=frozenset({"yes"}),
    )
    assert find_majority_witness(pa, 3) == ("x",)


def test_majority_witness_search_skips_dead_branches(monkeypatch):
    # Every word starting with x is rejected for sure, so a sound prune drops
    # that whole branch at the root.  A search that exhausts it first takes
    # about 2**16 prefix steps at this length.
    calls = 0
    real_advance = automata.advance

    def counting_advance(vec, rows):
        nonlocal calls
        calls += 1
        return real_advance(vec, rows)

    monkeypatch.setattr(automata, "advance", counting_advance)
    assert find_majority_witness(late_branch_pa(), 16) == ("y",)
    assert calls <= 16


def test_lengths_must_be_nonnegative_ints(monkeypatch):
    # Refused before any prefix is walked: a float never equals a depth.
    def no_advance(vec, rows):
        raise AssertionError("walked a prefix")

    monkeypatch.setattr(automata, "advance", no_advance)
    for bad in (1.5, 2.0):
        with pytest.raises(DomainError, match="nonnegative int"):
            find_majority_witness(late_branch_pa(), bad)
        with pytest.raises(DomainError, match="nonnegative int"):
            count_accepted_words(example_nfa(), bad)
        with pytest.raises(DomainError, match="nonnegative int"):
            total_accepting_runs(example_nfa(), bad)


###############################################################################
# Counting reduction (NFA -> distance instance)
###############################################################################


def test_nfa_reduction_shape_and_identity():
    out = nfa_to_lmc(example_nfa(), 3)
    assert out.kind == "nfa"
    assert out.params == {"word_length": 3, "alphabet_size": 2, "state_count": 2}
    assert validate(out.lmc) == []
    assert is_acyclic(out.lmc)
    assert out.baseline_gap == Fraction(7, 64)
    d = tv_distance_acyclic(out.lmc, out.pi1, out.pi2).distance
    assert d == Fraction(11, 64)
    # distance = gap + (k^n - count) / (k^n s^n) with count = 4 accepted words
    assert d == out.baseline_gap + Fraction(8 - 4, 8 * 8)


def test_nfa_reduction_identity_on_machine_sample():
    # A thin slice of the exhaustive two-state sweep (the acceptance gate
    # runs the full cross product).
    for machine in all_two_state_nfas()[5::149]:
        out = nfa_to_lmc(machine, 2)
        count = count_accepted_words(machine, 2)
        d = tv_distance_acyclic(out.lmc, out.pi1, out.pi2).distance
        assert d == out.baseline_gap + Fraction(4 - count, 4 * 4)


def test_nfa_reduction_count_through_merged_walk():
    # 40,960 support words collapse to a few hundred distinct prefix-vector
    # pairs, so a budget far below the word count suffices.
    nfa = example_nfa()
    red = nfa_to_lmc(nfa, 14)
    report = tv_distance_acyclic(red.lmc, red.pi1, red.pi2, budget=1000)
    assert report.enumerated_words == 40960
    p = red.params
    count = count_from_distance(
        red.baseline_gap, report.distance, p["word_length"], p["alphabet_size"], p["state_count"]
    )
    assert count == count_accepted_words(nfa, 14) == 8192


def test_nfa_reduction_input_checks():
    with pytest.raises(DomainError, match="at least 1"):
        nfa_to_lmc(example_nfa(), 0)
    clash = Nfa(("q",), ("acc",), "q", frozenset(), frozenset({("q", "acc", "q")}))
    with pytest.raises(DomainError, match="reserved"):
        nfa_to_lmc(clash, 1)


def test_count_recovery_tolerates_certified_error():
    out = nfa_to_lmc(example_nfa(), 3)
    gap = out.baseline_gap
    d = Fraction(11, 64)
    assert count_from_distance(gap, d, 3, 2, 2) == 4
    wiggle = Fraction(1, 4 * 8 * 8)  # a quarter of a count unit
    assert count_from_distance(gap, d + wiggle, 3, 2, 2) == 4
    assert count_from_distance(gap, d - wiggle, 3, 2, 2) == 4
    with pytest.raises(DomainError, match="not accurate enough"):
        count_from_distance(gap, d + Fraction(1, 2 * 64), 3, 2, 2)
    with pytest.raises(DomainError, match="outside"):
        count_from_distance(gap, gap - Fraction(2, 64), 3, 2, 2)
    with pytest.raises(DomainError, match="positive"):
        count_from_distance(gap, d, 0, 2, 2)


###############################################################################
# Majority reduction (PA -> distance instance)
###############################################################################


def test_pa_reduction_always_accepting():
    out = pa_to_lmc(always_accepting_pa())
    assert out.kind == "pa"
    assert validate(out.lmc) == []
    assert out.bound == 0
    # Witness event: everything except the word ("acc",).  Its mass gap is
    # 3/4 - 1/2 = 1/4 > bound, certifying the distance exceeds the bound.
    p1_acc = word_probability(out.lmc, out.pi1, ("acc",))
    p2_acc = word_probability(out.lmc, out.pi2, ("acc",))
    assert (1 - p1_acc) - (1 - out.bound - p2_acc) == Fraction(1, 4)


def test_pa_reduction_word_equations():
    pa = at_most_half_pa()
    out = pa_to_lmc(pa)
    crawl = Fraction(1, 2)  # 1/(2k) with k = 1
    for m in range(4):
        w = ("x",) * m
        rate = crawl**m
        assert word_probability(out.lmc, out.pi1, w + ("b",)) == rate * Fraction(1, 4)
        assert word_probability(out.lmc, out.pi1, w + ("acc",)) == rate * Fraction(1, 4)
        pr = acceptance_probability(pa, w)
        assert word_probability(out.lmc, out.pi2, w + ("acc",)) == rate * pr / 2
        assert word_probability(out.lmc, out.pi2, w + ("rej",)) == rate * (1 - pr) / 2
        assert word_probability(out.lmc, out.pi2, w + ("b",)) == 0


def test_pa_reduction_bound_is_exact_acc_mass():
    out = pa_to_lmc(at_most_half_pa())
    # Solved by hand: total acc mass is 1/5, so the bound is 4/5.
    assert out.bound == Fraction(4, 5)


def test_bounded_estimates_the_known_distance_of_a_pa_reduction():
    # When no word is accepted with probability above 1/2, the reduction's
    # cyclic chain has distance exactly ``bound``: tv_bounded must land
    # within epsilon/2 of it.  A PA with a majority witness pushes the
    # distance above the bound, so there the same check fails.
    rng = random.Random(0)
    for pa in [at_most_half_pa(), *(half_sink_pa(rng) for _ in range(8))]:
        out = pa_to_lmc(pa)
        for eps in (Fraction(1, 16), Fraction(1, 64)):
            estimate = tv_bounded(out.lmc, out.pi1, out.pi2, eps).estimate
            assert abs(estimate - out.bound) <= eps / 2
    witness = late_branch_pa()
    assert find_majority_witness(witness, 3) is not None
    out = pa_to_lmc(witness)
    eps = Fraction(1, 64)
    assert tv_bounded(out.lmc, out.pi1, out.pi2, eps).estimate - out.bound > eps / 2


def test_pa_reduction_renames_on_collision():
    pa = Pa(
        states=("start",),
        alphabet=("x",),
        matrices=(((Fraction(1),),),),
        initial=(Fraction(1),),
        accepting=frozenset({"start"}),
    )
    out = pa_to_lmc(pa)
    assert "start'" in out.lmc.states
    assert validate(out.lmc) == []
    with pytest.raises(DomainError, match="reserved"):
        pa_to_lmc(
            Pa(("u",), ("rej",), (((Fraction(1),),),), (Fraction(1),), frozenset())
        )


def test_pa_reduction_rejects_an_empty_alphabet():
    # The first start emits each letter at rate 1/(2k): no letter, no encoding.
    pa = Pa(("q",), (), (), (Fraction(1),), frozenset({"q"}))
    with pytest.raises(DomainError, match="at least one letter"):
        pa_to_lmc(pa)
    assert find_majority_witness(pa, 3) == ()


def test_linear_solver_rejects_singular_systems():
    with pytest.raises(DomainError, match="singular"):
        _solve_linear(
            ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))),
            (Fraction(1), Fraction(0)),
        )
