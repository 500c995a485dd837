"""Sampling, certified logarithms, length bounds, bounded-precision estimation."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from lmcdist import (
    BudgetExceededError,
    DomainError,
    InitialDistribution,
    LengthExceededError,
    Lmc,
    disjoint_union,
    length_bound,
    ln_upper,
    sample_count,
    tail_mass,
    tv_bounded,
    tv_distance_acyclic,
    tv_sample_acyclic,
    validate,
    word_probability,
)
from lmcdist import approx, floatk
from lmcdist.approx import _WINDOW_BITS, BitStream, _Sampler, _SuffixTable
from lmcdist.floatk import RoundedModel, fp_word_probability, precision_for
from lmcdist.model import advance, common_denominator, scale, stop_mass, walk_prefixes

from helpers import (
    digit_limit_fault_chain,
    half_distance_instance,
    worked_example_union,
    random_acyclic_instance,
    reference_draw,
)

###############################################################################
# Certified logarithm and sample sizes
###############################################################################


def test_ln_upper_is_a_tight_upper_bound():
    for arg in [Fraction(2), Fraction(4), Fraction(10), Fraction(4, 3), Fraction(80)]:
        bound = ln_upper(arg)
        true = math.log(arg)
        assert float(bound) >= true
        assert float(bound) - true < 1e-12


def test_ln_upper_edge_cases():
    assert ln_upper(Fraction(1)) == 0
    with pytest.raises(DomainError):
        ln_upper(Fraction(1, 2))


def exp_partial_sum_reaches(y, x, cap=3000):
    """Whether some Taylor partial sum of e**y, y >= 0, reaches x.

    Each partial sum is a lower bound on e**y, so True proves y >= ln x.
    The sums are kept exactly, over the nested denominators q**k * k!."""
    p, q = y.numerator, y.denominator
    total, term, den = 1, 1, 1  # S_k = total / den, y**k / k! = term / den
    for k in range(1, cap + 1):
        total *= q * k
        term *= p
        den *= q * k
        total += term
        if total * x.denominator >= x.numerator * den:
            return True
    return False


@pytest.mark.parametrize(
    "x",
    [
        Fraction(2),
        Fraction(4, 3),
        Fraction(80),
        Fraction(4 * 10**9),
        1 + Fraction(1, 10**30),
        1 + Fraction(1, 10**45),
        Fraction(10**50),
        Fraction(3**50, 2**70),
    ],
)
def test_ln_upper_is_certified_exactly(x):
    bound = ln_upper(x)
    assert type(bound) is Fraction and bound > 0
    assert exp_partial_sum_reaches(bound, x)


def test_ln_upper_of_a_huge_argument():
    bound = ln_upper(Fraction(10**5000))
    assert bound == pytest.approx(5000 * math.log(10), rel=1e-12)


def test_sample_count_frozen_values():
    assert sample_count(Fraction(1, 10), Fraction(1, 20)) == 877
    assert sample_count(Fraction(1, 20), Fraction(1, 20)) == 3506
    assert sample_count(Fraction(1, 20), Fraction(1, 1000)) == 6636


def test_sample_count_dominates_hoeffding():
    for eps, delta in [(Fraction(1, 10), Fraction(1, 20)), (Fraction(1, 4), Fraction(1, 100))]:
        m = sample_count(eps, delta)
        assert m >= 2 * math.log(4 / delta) / float(eps) ** 2 - 1


def test_sample_count_rejects_bad_parameters():
    with pytest.raises(DomainError):
        sample_count(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        sample_count(Fraction(1, 2), Fraction(1))


###############################################################################
# Bit streams and exact sampling
###############################################################################


def test_bitstream_is_deterministic_and_chunk_consistent():
    a = BitStream(99)
    b = BitStream(99)
    bits = [a.bit() for _ in range(128)]
    chunk = b.bits(128)
    assert chunk == int("".join(map(str, bits)), 2)
    assert a.bits_consumed == b.bits_consumed == 128
    assert BitStream.algorithm == "mt19937"


def test_bitstream_refuses_a_bad_count_and_stays_intact():
    stream = BitStream(99)
    stream.bits(5)
    for bad in (-3, 1.5, 2.0):
        with pytest.raises(DomainError, match="bit count"):
            stream.bits(bad)
    assert stream.bits_consumed == 5
    fresh = BitStream(99)
    fresh.bits(5)
    assert stream.bits(64) == fresh.bits(64)


def test_bitstream_refuses_a_negative_or_bool_seed():
    # random.Random seeds with abs(seed): BitStream(-5) would replay
    # BitStream(5).  True and False would pass as the ints 1 and 0.
    for bad in (-5, -1, True, False, 1.0, "5"):
        with pytest.raises(DomainError, match="seed"):
            BitStream(bad)
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(DomainError, match="seed"):
        tv_sample_acyclic(lmc, pi1, pi2, Fraction(1, 4), Fraction(1, 4), seed=-5)
    assert BitStream(0).bits(64) != BitStream(1).bits(64)


def test_tally_distribution_on_fixture():
    lmc, pi1, _ = half_distance_instance()
    stream = BitStream(42)
    counts = _Sampler(lmc).tally(pi1, stream, 5, 2000)
    assert set(counts) == {("a",), ("b",)}
    assert abs(counts[("a",)] / 2000 - 0.5) < 0.05
    # The a/b split needs exactly one bit; everything else is forced.
    assert stream.bits_consumed == 2000


def test_single_outcome_consumes_no_bits():
    lmc = Lmc.from_transitions(
        ["u", "t"], ["a"], [("u", "a", "t", 1)], {"t": 1}
    )
    pi = InitialDistribution.dirac(lmc, "u")
    stream = BitStream(1)
    assert _Sampler(lmc).tally(pi, stream, 3, 1) == {("a",): 1}
    assert stream.bits_consumed == 0


def test_tally_length_cap():
    lmc = Lmc.from_transitions(["u", "t"], ["a"], [("u", "a", "t", 1)], {"t": 1})
    pi = InitialDistribution.dirac(lmc, "u")
    with pytest.raises(LengthExceededError) as err:
        _Sampler(lmc).tally(pi, BitStream(1), 0, 1)
    assert err.value.prefix == ("a",)
    # A cycle with a choice at every state: the cap trips after bits were
    # drawn, and the stream still accounts for every one of them.
    third, half = Fraction(1, 3), Fraction(1, 2)
    cyclic = Lmc.from_transitions(
        ["u", "v"],
        ["a", "b"],
        [("u", "a", "v", third), ("u", "b", "u", third), ("v", "a", "u", half)],
        {"u": third, "v": half},
    )
    pi = InitialDistribution.dirac(cyclic, "u")
    sampler = _Sampler(cyclic)
    stream, ref = BitStream(5), BitStream(5)
    for _ in range(40):
        with pytest.raises(LengthExceededError) as err:
            while True:
                sampler.tally(pi, stream, 2, 1)
        with pytest.raises(LengthExceededError) as ref_err:
            while True:
                reference_draw(cyclic, pi, ref, 2)
        assert err.value.prefix == ref_err.value.prefix
        assert len(err.value.prefix) == 3
        assert stream.bits_consumed == ref.bits_consumed > 0
    assert stream.bits(64) == ref.bits(64)


def test_tally_rejects_a_bad_length_before_drawing():
    lmc, pi1, _ = half_distance_instance()
    sampler = _Sampler(lmc)
    stream = BitStream(1)
    for bad in (1.5, 1.0, -1):
        with pytest.raises(DomainError, match="word length cap"):
            sampler.tally(pi1, stream, bad, 1)
    assert stream.bits_consumed == 0


def test_window_entries_are_interned_and_built_on_a_first_visit():
    # u and v have equal tables (stop, or a or b to t, in thirds), so their
    # windows share entries; w is never reached and gets no window.
    third = Fraction(1, 3)
    lmc = Lmc.from_transitions(
        ["u", "v", "t", "w"],
        ["a", "b"],
        [(s, x, "t", third) for s in ("u", "v") for x in ("a", "b")] + [("w", "a", "t", 1)],
        {"u": third, "v": third, "t": 1},
    )
    pi = InitialDistribution.from_map(lmc, {"u": Fraction(1, 2), "v": Fraction(1, 2)})
    other = InitialDistribution.dirac(lmc, "v")
    sampler = _Sampler(lmc)
    sampler.tally(pi, BitStream(3), 2, 200)
    sampler.tally(other, BitStream(4), 2, 200)
    u, v, _, w = range(4)
    assert sampler._windows[w] is sampler._unbuilt
    assert w not in {state for state, _ in sampler._decoded}
    assert sampler._window(u) is not sampler._window(v)
    assert all(x is y for x, y in zip(sampler._window(u), sampler._window(v), strict=True))
    # The start windows are not kept; decoding them again finds only
    # entries the tallies interned.
    starts = [sampler._decode(_Sampler._start_table(p), _WINDOW_BITS, True) for p in (pi, other)]
    seen = {}
    for table in [*starts, *sampler._decoded.values()]:
        for entry in table:
            if entry is not None:
                assert seen.setdefault(entry, entry) is entry
    assert len(seen) == len(sampler._entries)


def test_sampled_words_match_model_probabilities():
    rng = random.Random(7)
    lmc, pi, _ = random_acyclic_instance(rng)
    stream = BitStream(1234)
    n = 4000
    counts = Counter(_Sampler(lmc).tally(pi, stream, 20, n))
    for word, seen in counts.most_common(3):
        expected = word_probability(lmc, pi, word)
        assert abs(seen / n - float(expected)) < 0.05


###############################################################################
# Statistical distance estimation
###############################################################################


def test_tv_sample_deterministic_and_accurate_on_fixture():
    lmc, pi1, pi2 = half_distance_instance()
    est = tv_sample_acyclic(lmc, pi1, pi2, Fraction(1, 20), Fraction(1, 20), seed=7)
    again = tv_sample_acyclic(lmc, pi1, pi2, Fraction(1, 20), Fraction(1, 20), seed=7)
    assert est == again
    assert est.samples_per_side == 3506
    assert est.estimate == 1 - est.p_hat_1 - est.p_hat_2
    assert abs(est.estimate - Fraction(1, 2)) <= Fraction(1, 20)
    assert est.rng_algorithm == "mt19937"


def test_tv_sample_requires_acyclic():
    union, u1, u2 = worked_example_union()
    with pytest.raises(DomainError, match="cycle"):
        tv_sample_acyclic(union, u1, u2, Fraction(1, 10), Fraction(1, 10))


def test_a_sampler_fault_past_the_digit_limit_is_a_domain_error():
    # The row sum at s is past the int/str digit limit, and formatting it
    # once raised ValueError.  The sampler refuses the chain with the
    # contract's text, as the exact routines do.
    limit = sys.get_int_max_str_digits()
    lmc, text = digit_limit_fault_chain()
    pi = InitialDistribution.dirac(lmc, "s")
    with pytest.raises(DomainError) as exc:
        tv_sample_acyclic(lmc, pi, pi, Fraction(1, 2), Fraction(1, 2))
    assert sys.get_int_max_str_digits() == limit
    assert str(exc.value) == text


###############################################################################
# Length bounds
###############################################################################


def test_length_bound_is_minimal_for_the_iterative_path():
    union, u1, u2 = worked_example_union()
    lam = Fraction(1, 64)
    n = length_bound(union, lam)
    # Uniform over starts: check the defining property via exact tail masses.
    for pi in (u1, u2):
        assert tail_mass(union, pi, n) <= lam
    assert n > 0
    worst_prev = max(tail_mass(union, pi, n - 1) for pi in (u1, u2))
    assert worst_prev > lam or n == 0


def test_length_bound_fallback_frozen_value():
    lmc = Lmc.from_transitions(
        ["u", "v"],
        ["a"],
        [("u", "a", "v", Fraction(1, 2)), ("v", "a", "u", Fraction(1, 2))],
        {"u": Fraction(1, 2), "v": Fraction(1, 2)},
    )
    assert length_bound(lmc, Fraction(1, 4), step_cap=0) == 12
    # The iterative path needs far less: after one step the tail is 1/4.
    assert length_bound(lmc, Fraction(1, 4)) == 1


def test_length_bound_trivial_cases():
    lmc = Lmc.from_transitions(["u", "t"], ["a"], [("u", "a", "t", 1)], {"t": 1})
    assert length_bound(lmc, Fraction(2)) == 0  # tails never exceed 1
    # Deterministic chain: the fallback is the state count minus one.
    assert length_bound(lmc, Fraction(1, 2), step_cap=0) == 1
    with pytest.raises(DomainError):
        length_bound(lmc, Fraction(0))


def test_length_bound_refuses_a_state_that_cannot_stop():
    # u loops on itself forever, so its tail is 1 at every length and the
    # closed form (k * |Q| = 1 here) would bound nothing.  The chain is no
    # word distribution, so every routine refuses it with validate's text,
    # also from v alone, where u is out of reach.
    lmc = Lmc.from_transitions(["u", "v"], ["a"], [("u", "a", "u", 1)], {"v": 1})
    u, v = (InitialDistribution.dirac(lmc, s) for s in ("u", "v"))
    text = "state u has no positive-probability path to a state that can end the word"
    assert validate(lmc) == [text]
    refused = [lambda: tail_mass(lmc, u, 1), lambda: tv_bounded(lmc, u, v, Fraction(1, 4))]
    refused += [lambda cap=cap: length_bound(lmc, Fraction(1, 4), step_cap=cap) for cap in (0, 3, 1024)]
    refused.append(lambda: tv_bounded(lmc, v, v, Fraction(1, 4)))
    for call in refused:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == text


###############################################################################
# Bounded-precision estimation
###############################################################################


def test_tv_bounded_exact_on_dyadic_fixture():
    lmc, pi1, pi2 = half_distance_instance()
    for eps in (Fraction(1, 4), Fraction(1, 16)):
        est = tv_bounded(lmc, pi1, pi2, eps)
        assert est.estimate == Fraction(1, 2)
        assert est.estimate == 1 - est.mass1_lt - est.mass2_ge
        assert 0 <= est.estimate <= 1
        assert est.tail_budget == eps / 4
        assert est.rounding_budget == eps / 8


def test_tv_bounded_encloses_exact_distance():
    rng = random.Random(91)
    for _ in range(10):
        lmc, pi1, pi2 = random_acyclic_instance(rng)
        d = tv_distance_acyclic(lmc, pi1, pi2).distance
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            est = tv_bounded(lmc, pi1, pi2, eps)
            assert abs(est.estimate - d) <= eps / 2


def test_tv_bounded_zero_distance():
    lmc, pi1, _ = half_distance_instance()
    est = tv_bounded(lmc, pi1, pi1, Fraction(1, 8))
    assert abs(est.estimate) <= Fraction(1, 16)


def test_tv_bounded_handles_cycles():
    union, u1, u2 = worked_example_union()
    coarse = tv_bounded(union, u1, u2, Fraction(1, 4))
    fine = tv_bounded(union, u1, u2, Fraction(1, 8))
    assert abs(coarse.estimate - fine.estimate) <= Fraction(3, 16)
    assert coarse.length_cutoff < fine.length_cutoff


def test_tv_bounded_budget_and_epsilon_checks():
    lmc, pi1, pi2 = half_distance_instance()
    with pytest.raises(BudgetExceededError):
        tv_bounded(lmc, pi1, pi2, Fraction(1, 8), budget=1)
    with pytest.raises(DomainError):
        tv_bounded(lmc, pi1, pi2, Fraction(0))


def test_tv_bounded_refuses_negative_entries(monkeypatch):
    # A negative entry would make a packed field borrow from its neighbour.
    # Such a chain has no word distribution (the strict loader refuses it),
    # so the estimator refuses it with validate's first violation, before it
    # builds or packs a table.
    def refuse(*args):
        raise AssertionError("suffix table built")

    monkeypatch.setattr(approx, "_SuffixTable", refuse)
    negative_move = Lmc.from_transitions(
        ["s0", "s1"], ["a"], [("s0", "a", "s1", Fraction(-1, 4))], {"s0": Fraction(5, 4), "s1": 1}
    )
    negative_stop = Lmc.from_transitions(
        ["s0", "s1"], ["a"], [("s0", "a", "s1", Fraction(5, 4))], {"s0": Fraction(-1, 4), "s1": 1}
    )
    for lmc in (negative_move, negative_stop):
        pi1 = InitialDistribution.from_map(lmc, {"s0": 1})
        pi2 = InitialDistribution.from_map(lmc, {"s1": 1})
        with pytest.raises(DomainError) as exc:
            tv_bounded(lmc, pi1, pi2, Fraction(1, 8))
        assert str(exc.value) == validate(lmc)[0]
    assert validate(negative_move)[0] == "transition s0 --a--> s1 has probability -1/4, outside [0, 1]"
    assert validate(negative_stop)[0] == "transition s0 --a--> s1 has probability 5/4, outside [0, 1]"


def test_tv_bounded_reads_only_the_states_the_starts_reach(monkeypatch):
    # The cyclic worked example beside s0 -a-> s1 -b-> s2 is out of both
    # starts' reach: it sets neither the cutoff nor the suffix table.
    union, pi, _ = worked_example_union()
    line = Lmc.from_transitions(
        ["s0", "s1", "s2"],
        ["a", "b"],
        [("s0", "a", "s1", Fraction(1, 2)), ("s1", "b", "s2", Fraction(1, 2))],
        {"s0": Fraction(1, 2), "s1": Fraction(1, 2), "s2": 1},
    )
    lmc = disjoint_union(union, pi, line, InitialDistribution.dirac(line, "s0"))[0]
    tables = []

    class Recorded(_SuffixTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(approx, "_SuffixTable", Recorded)
    pi1, pi2 = (InitialDistribution.dirac(lmc, s) for s in ("s0", "s1"))
    estimate = tv_bounded(lmc, pi1, pi2, Fraction(1, 8))
    assert estimate.length_cutoff == 2
    assert [len(table.lives) for table in tables] == [2]
    alone = tv_distance_acyclic(line, *(InitialDistribution.dirac(line, s) for s in ("s0", "s1")))
    assert estimate.estimate == alone.distance == Fraction(1, 2)


def test_tv_bounded_budget_message_names_cutoff_and_depth():
    lmc, pi1, pi2 = worked_example_union()
    cutoff = tv_bounded(lmc, pi1, pi2, Fraction(1, 4)).length_cutoff
    with pytest.raises(BudgetExceededError) as info:
        tv_bounded(lmc, pi1, pi2, Fraction(1, 4), budget=5)
    assert info.value.depth == 5
    assert str(info.value) == (
        f"enumeration exceeded the node budget of 5 at depth 5 (length cutoff {cutoff})"
    )


def test_tv_bounded_does_no_k_bit_arithmetic(monkeypatch):
    # Words are classified on exact integers; the k-bit kernels stay for
    # ``fp_word_probability`` alone.
    def refuse(*args):
        raise AssertionError("k-bit arithmetic called")

    for name in ("fp_mul", "fp_add", "fp_round"):
        monkeypatch.setattr(floatk, name, refuse)
    union, u1, u2 = worked_example_union()
    est = tv_bounded(union, u1, u2, Fraction(1, 8))
    assert 0 <= est.estimate <= 1
    with pytest.raises(AssertionError, match="k-bit arithmetic called"):
        fp_word_probability(union, u1, ("a",), est.precision)


def test_bounded_walk_keeps_floats_in_relative_band():
    """Every node of the walk carries k-bit stop probabilities within the
    planned relative error of the exact ones, and with matching zero sets."""
    rng = random.Random(55)
    theta = Fraction(1, 8)
    for _ in range(10):
        lmc, pi1, pi2 = random_acyclic_instance(rng)
        cutoff = 4
        k = precision_for(cutoff, lmc.n_states, theta)
        model = RoundedModel(lmc, k)
        den, rows, eow = lmc.integer_form
        den_pi = common_denominator([*pi1.weights, *pi2.weights])

        # Exact integer vectors with k-bit twins, advanced together per word.
        def step(node, depth):
            if depth == cutoff:
                return None
            v1, v2, f1, f2 = node
            children = []
            for li, r in enumerate(rows):
                n1, n2 = advance(v1, r), advance(v2, r)
                children.append(
                    (n1, n2, model.advance(f1, li), model.advance(f2, li)) if n1 or n2 else None
                )
            return children

        root = (
            scale(pi1.weights, den_pi),
            scale(pi2.weights, den_pi),
            model.initial(pi1),
            model.initial(pi2),
        )
        for path, (v1, v2, f1, f2) in walk_prefixes(root, step, 10**6):
            over = den_pi * den ** (len(path) + 1)
            p1 = Fraction(stop_mass(v1, eow), over)
            p2 = Fraction(stop_mass(v2, eow), over)
            for exact, fp in ((p1, model.stop_mass(f1)), (p2, model.stop_mass(f2))):
                assert (exact == 0) == fp.is_zero
                assert exact * (1 - theta) <= fp.value <= exact * (1 + theta)


def test_suffix_table_grows_while_it_holds_at_most_budget_entries():
    # From q1 of the worked example every word over {a, b} is live, so level
    # d holds 2**d entries and levels 0..6 hold 127 with the empty word.
    union, _, _ = worked_example_union()
    for budget, height in [(None, 6), (127, 6), (126, 5), (63, 5), (62, 4), (1, 0)]:
        table = _SuffixTable(union, 6, budget)
        assert table.height == height
        assert len(table.lives) == 2 ** (height + 1) - 2
