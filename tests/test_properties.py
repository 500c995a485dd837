"""Property tests: results of the prefix walker, the sampler, the integer
elimination, the integer tail and acceptance kernels, the integer
``validate`` and sampler tables, the bounded estimator's exact classes and
the one-pass chain loader against independent routes; and the PA loader
against the chain loader."""

import copy
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcdist import (
    BudgetExceededError,
    InitialDistribution,
    Lmc,
    DomainError,
    LengthExceededError,
    acceptance_probability,
    are_equivalent,
    disjoint_union,
    find_majority_witness,
    length_bound,
    lk_distance_acyclic,
    nfa_to_lmc,
    pa_to_lmc,
    sample_count,
    tail_mass,
    threshold_decide_acyclic,
    tv_bounded,
    tv_distance_acyclic,
    tv_sample_acyclic,
    validate,
    word_probability,
)
from lmcdist.approx import BitStream, _Sampler
from lmcdist.automata import _solve_linear
from lmcdist.exact import WITNESS_WORD_CAP, DistanceReport, WitnessSummary, _pair_walk
from lmcdist.formats import (
    InputFile,
    distribution_from_dict,
    distribution_to_dict,
    lmc_from_dict,
    lmc_to_dict,
    load_distribution,
    load_lmc,
    load_pa,
    pa_to_dict,
)

from helpers import (
    all_two_state_nfas,
    random_acyclic_instance,
    random_acyclic_lmc,
    random_cyclic_lmc,
    random_distribution,
    random_pa,
    reference_choose,
    reference_cumulative,
    reference_draw,
    reference_equivalent,
    reference_solve,
    reference_tv_bounded,
    relabeled_copy,
    reference_acceptance_probability,
    reference_bounded_classes,
    reference_distribution_from_dict,
    reference_initial_weights,
    reference_lmc,
    reference_lmc_from_dict,
    reference_length_bound,
    reference_pair_nodes,
    reference_sampler_table,
    reference_tail_mass,
    reference_validate,
    split_letters,
)

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


def _instance(kind, rng):
    """A random acyclic instance; every kind but "plain" has words that
    reach equal prefix vectors, so the merged walk really merges."""
    if kind == "plain":
        return random_acyclic_instance(rng)
    if kind == "nfa":
        red = nfa_to_lmc(rng.choice(all_two_state_nfas()), rng.randint(1, 3))
        return red.lmc, red.pi1, red.pi2
    lmc = split_letters(random_acyclic_lmc(rng, max_states=4))
    if kind == "union":
        pi = random_distribution(rng, lmc)
        lmc, _, _ = disjoint_union(lmc, pi, *relabeled_copy(lmc, pi))
    return lmc, random_distribution(rng, lmc), random_distribution(rng, lmc)


def _depth_first_words(lmc, pi1, pi2):
    """(word, p1, p2) for every support word, one walker node per word."""
    base, words = _pair_walk(lmc, pi1, pi2, budget=10**6)
    ratio = lmc.integer_form[0]
    out = []
    for path, s1, s2 in words:
        den = base * ratio ** len(path)
        out.append((tuple(lmc.alphabet[li] for li in path), Fraction(s1, den), Fraction(s2, den)))
    return out


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(["plain", "split", "union", "nfa"]))
def test_merged_walk_matches_depth_first_walk(seed, kind):
    lmc, pi1, pi2 = _instance(kind, random.Random(seed))
    words = _depth_first_words(lmc, pi1, pi2)
    won = [(w, p1, p2) for w, p1, p2 in words if p1 >= p2]
    distance = sum(abs(p1 - p2) for _, p1, p2 in words) / 2
    expected = DistanceReport(
        distance=distance,
        witness=WitnessSummary(
            word_count=len(won),
            mass_1=sum(p1 for _, p1, _ in won),
            mass_2=sum(p2 for _, _, p2 in won),
            words=tuple(w for w, _, _ in won) if len(won) <= WITNESS_WORD_CAP else None,
        ),
        enumerated_words=len(words),
    )
    assert tv_distance_acyclic(lmc, pi1, pi2) == expected
    for k in (1, 2, 3):
        power_sum = sum(abs(p1 - p2) ** k for _, p1, p2 in words)
        assert lk_distance_acyclic(lmc, pi1, pi2, k) == power_sum
    cert = threshold_decide_acyclic(lmc, pi1, pi2, Fraction(1, 3))
    assert cert.lhs_integer == 2 * cert.denominator_product ** (cert.support_length + 2) * distance


@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from(["plain", "split", "union", "nfa"]))
def test_distance_budget_counts_distinct_vector_pairs_per_depth(seed, kind):
    # --budget on `exact` means the distinct nonzero (p1, p2) prefix-vector
    # pairs of each depth, summed; the root counts.
    lmc, pi1, pi2 = _instance(kind, random.Random(seed))
    nodes = reference_pair_nodes(lmc, pi1, pi2)
    tv_distance_acyclic(lmc, pi1, pi2, budget=nodes)
    if nodes > 1:
        with pytest.raises(BudgetExceededError) as info:
            tv_distance_acyclic(lmc, pi1, pi2, budget=nodes - 1)
        assert info.value.nodes_visited == nodes


@st.composite
def weight_lists(draw, totals=st.one_of(st.integers(2, 2**80), st.integers(1, 80).map(lambda k: 2**k))):
    """1-6 positive integer weights whose total is drawn from ``totals``, by
    default 2 to 2**80 with powers of two included."""
    total = draw(totals)
    n = min(draw(st.integers(1, 6)), total)
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=n - 1, max_size=n - 1, unique=True))
    bounds = [0, *sorted(cuts), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, deadline=None)
@given(weight_lists(), seeds)
def test_sampler_step_matches_reference_chooser(weights, seed):
    # One state "u" whose outcomes are stop, a0, a1, ... with the given
    # weights, all letters leading to a stopping sink: each draw is one choice.
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    labels = [f"a{k}" for k in range(len(weights) - 1)]
    lmc = Lmc.from_transitions(
        ["u", "t"],
        labels or ["a0"],
        [("u", label, "t", p) for label, p in zip(labels, probs[1:])],
        {"u": probs[0], "t": 1},
    )
    sampler, start = _Sampler(lmc), InitialDistribution.dirac(lmc, "u")
    stream, ref = BitStream(seed), BitStream(seed)
    cum, den = reference_cumulative(probs)
    got, expected = [], []
    for _ in range(20):
        (word,) = sampler.tally(start, stream, 1, 1)
        got.append(labels.index(word[0]) + 1 if word else 0)
        expected.append(reference_choose(ref, cum, den))
    assert got == expected
    assert stream.bits_consumed == ref.bits_consumed
    # The draw loop wrote the stream's buffer back: both streams go on alike.
    assert [stream.bits(n) for n in (1, 7, 64, 65)] == [ref.bits(n) for n in (1, 7, 64, 65)]


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from(["acyclic", "split", "cyclic"]), st.integers(1, 60))
def test_tally_matches_reference_draws(seed, kind, count):
    # One batch of ``count`` draws tallies the words of ``count`` reference
    # draws and reads the same bits.  A cyclic chain gets the cap one below
    # its longest word among those draws, so the batch trips on that word.
    rng = random.Random(seed)
    lmc = random_cyclic_lmc(rng) if kind == "cyclic" else random_acyclic_lmc(rng)
    if kind == "split":
        lmc = split_letters(lmc)
    pi = random_distribution(rng, lmc)
    cap = lmc.n_states
    if kind == "cyclic":
        probe = BitStream(seed)
        cap = max(max(len(reference_draw(lmc, pi, probe, 10**6)) for _ in range(count)) - 1, 0)
    stream, ref = BitStream(seed), BitStream(seed)
    sampler = _Sampler(lmc)
    try:
        expected = Counter(reference_draw(lmc, pi, ref, cap) for _ in range(count))
    except LengthExceededError as exc:
        with pytest.raises(LengthExceededError) as got:
            sampler.tally(pi, stream, cap, count)
        assert got.value.prefix == exc.prefix
    else:
        assert sampler.tally(pi, stream, cap, count) == expected
    assert stream.bits_consumed == ref.bits_consumed
    assert stream.bits(64) == ref.bits(64)


#: Totals of the window tests' tables: small, just past the 8-bit window,
#: powers of two, and near 2**80.
window_totals = st.one_of(
    st.integers(2, 40),
    st.integers(2**8, 2**12),
    st.integers(1, 80).map(lambda k: 2**k),
    st.integers(2**80 - 8, 2**80 + 8),
)


@st.composite
def window_parts(draw, k):
    """``k`` positive probabilities summing to 1: just 1 for one outcome,
    else a cut of a total drawn from ``window_totals``."""
    if k == 1:
        return [Fraction(1)]
    total = draw(window_totals.filter(lambda t: t >= k))
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1, unique=True))
    bounds = [0, *sorted(cuts), total]
    return [Fraction(b - a, total) for a, b in zip(bounds, bounds[1:])]


@st.composite
def window_chains(draw):
    """A chain of 1-4 states, cycles allowed, and two starts.  A state has
    1-4 outcomes among the stop and every (letter, state); with one outcome
    it reads 0 bits, so such states sit in the middle of words and on
    cycles."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    alphabet = ("a", "b", "c")
    outcomes = [None, *itertools.product(alphabet, states)]
    transitions, eow = [], {}
    for state in states:
        k = draw(st.integers(1, 4))
        picks = draw(st.lists(st.sampled_from(outcomes), min_size=k, max_size=k, unique=True))
        for pick, p in zip(picks, draw(window_parts(k))):
            if pick is None:
                eow[state] = p
            else:
                transitions.append((state, pick[0], pick[1], p))
    lmc = Lmc.from_transitions(states, alphabet, transitions, eow)

    def start():
        support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=4, unique=True))
        weights = draw(window_parts(len(support)))
        return InitialDistribution.from_map(lmc, dict(zip(support, weights)))

    return lmc, start(), start()


@settings(max_examples=300, deadline=None)
@given(window_chains(), seeds, st.integers(0, 70), st.integers(0, 40), st.integers(1, 30))
def test_window_tables_draw_what_the_reference_draws(case, seed, offset, cap, count):
    # Both starts draw through one set of shared state windows.  Totals past
    # the window, 0-bit states, caps inside a window and stream offsets that
    # put windows across the 64-bit refill all read the reference's bits.
    lmc, pi1, pi2 = case
    stream, ref = BitStream(seed), BitStream(seed)
    assert stream.bits(offset) == ref.bits(offset)
    sampler = _Sampler(lmc)
    for pi in (pi1, pi2):
        try:
            expected = Counter(reference_draw(lmc, pi, ref, cap) for _ in range(count))
        except LengthExceededError as exc:
            with pytest.raises(LengthExceededError) as got:
                sampler.tally(pi, stream, cap, count)
            assert got.value.prefix == exc.prefix
        else:
            assert sampler.tally(pi, stream, cap, count) == expected
        assert stream.bits_consumed == ref.bits_consumed
    assert stream.bits(64) == ref.bits(64)


def _reference_estimate(lmc, pi1, pi2, epsilon, delta, seed):
    """(estimate, p_hat_1, p_hat_2) from reference draws and Fraction
    comparisons of ``word_probability``."""
    m = sample_count(epsilon, delta)
    stream = BitStream(seed)
    horizon = lmc.n_states

    def compare(pi):
        word = reference_draw(lmc, pi, stream, horizon)
        return word_probability(lmc, pi1, word), word_probability(lmc, pi2, word)

    below = [p1 < p2 for p1, p2 in (compare(pi1) for _ in range(m))]
    at_least = [p1 >= p2 for p1, p2 in (compare(pi2) for _ in range(m))]
    p_hat_1, p_hat_2 = Fraction(sum(below), m), Fraction(sum(at_least), m)
    return 1 - p_hat_1 - p_hat_2, p_hat_1, p_hat_2


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["plain", "split", "union", "twin"]))
def test_sample_estimate_matches_reference_estimator(seed, kind):
    rng = random.Random(seed)
    if kind == "twin":
        # A chain against its relabelled copy: every word is a tie.
        lmc = random_acyclic_lmc(rng, max_states=4)
        pi = random_distribution(rng, lmc)
        lmc, pi1, pi2 = disjoint_union(lmc, pi, *relabeled_copy(lmc, pi))
    else:
        lmc, pi1, pi2 = _instance(kind, rng)
    epsilon, delta = Fraction(1, 4), Fraction(1, 4)
    est = tv_sample_acyclic(lmc, pi1, pi2, epsilon, delta, seed=seed)
    assert (est.estimate, est.p_hat_1, est.p_hat_2) == _reference_estimate(
        lmc, pi1, pi2, epsilon, delta, seed
    )
    if kind == "twin":
        assert (est.p_hat_1, est.p_hat_2) == (0, 1)


def _shift_b_edges_at(lmc, state):
    """The chain with each ``b`` edge of ``state`` retargeted to the next
    state in state order: words that never read ``b`` there keep their
    probabilities."""
    n = lmc.n_states
    moved = {t: lmc.states[(i + 1) % n] for i, t in enumerate(lmc.states)}
    transitions = [
        (src, label, moved[tgt] if (src, label) == (state, "b") else tgt, prob)
        for src, label, tgt, prob in lmc.transition_records()
    ]
    eow = {s: e for s, e in zip(lmc.states, lmc.eow) if e}
    return Lmc.from_transitions(lmc.states, lmc.alphabet, transitions, eow)


@settings(max_examples=100, deadline=None)
@given(seeds, st.sampled_from(["cyclic", "split", "twin", "shift"]))
def test_equivalence_matches_reference_closure(seed, kind):
    rng = random.Random(seed)
    lmc = random_cyclic_lmc(rng)
    if kind == "split":
        lmc = split_letters(lmc)
    if kind in ("twin", "shift"):
        # A chain against its relabelled copy (always equivalent), or against
        # a copy that differs only after some ``b``.
        pi = random_distribution(rng, lmc)
        other = _shift_b_edges_at(lmc, rng.choice(lmc.states)) if kind == "shift" else lmc
        lmc, pi1, pi2 = disjoint_union(lmc, pi, *relabeled_copy(other, pi))
    else:
        pi1, pi2 = random_distribution(rng, lmc), random_distribution(rng, lmc)
    assert are_equivalent(lmc, pi1, pi2) is reference_equivalent(lmc, pi1, pi2)
    if kind == "twin":
        assert are_equivalent(lmc, pi1, pi2)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def linear_systems(draw):
    """A square rational system of size 1-4 (the matrix may be singular)."""
    n = draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix, draw(st.lists(rationals, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_linear_solver_matches_reference(system):
    try:
        expected = reference_solve(*system)
    except DomainError:
        with pytest.raises(DomainError, match="singular"):
            _solve_linear(*system)
    else:
        assert _solve_linear(*system) == expected


@settings(max_examples=100, deadline=None)
@given(linear_systems(), st.lists(rationals, min_size=3, max_size=3))
def test_linear_solver_rejects_singular_systems_like_reference(system, weights):
    # The last row becomes a combination of the others (the zero row for n = 1).
    matrix, rhs = system
    matrix[-1] = [sum((w * row[j] for w, row in zip(weights, matrix[:-1])), Fraction(0)) for j in range(len(rhs))]
    for solve in (reference_solve, _solve_linear):
        with pytest.raises(DomainError, match="singular"):
            solve(matrix, rhs)


def _valid_chain(kind, rng):
    """A random valid chain: acyclic, cyclic, or the chain of a random
    probabilistic automaton's reduction."""
    if kind == "acyclic":
        return random_acyclic_lmc(rng)
    if kind == "cyclic":
        return random_cyclic_lmc(rng)
    return pa_to_lmc(random_pa(rng)).lmc


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(["acyclic", "cyclic", "pa"]), st.integers(0, 8))
def test_tail_mass_matches_reference(seed, kind, n):
    rng = random.Random(seed)
    lmc = _valid_chain(kind, rng)
    pi = random_distribution(rng, lmc)
    assert tail_mass(lmc, pi, n) == reference_tail_mass(lmc, pi, n)


@settings(max_examples=80, deadline=None)
@given(
    seeds,
    st.sampled_from(["acyclic", "cyclic", "pa"]),
    st.sampled_from([Fraction(1, 64), Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(3, 2)]),
    st.sampled_from([0, 1, 3, 1024]),
)
def test_length_bound_matches_reference(seed, kind, lam, step_cap):
    lmc = _valid_chain(kind, random.Random(seed))
    assert length_bound(lmc, lam, step_cap) == reference_length_bound(lmc, lam, step_cap)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 5))
def test_acceptance_probability_matches_reference(seed, length):
    rng = random.Random(seed)
    pa = random_pa(rng)
    word = tuple(rng.choice(pa.alphabet) for _ in range(length))
    assert acceptance_probability(pa, word) == reference_acceptance_probability(pa, word)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(0, 5))
def test_word_probability_matches_dense_product(seed, length):
    rng = random.Random(seed)
    lmc = random_cyclic_lmc(rng)
    pi = random_distribution(rng, lmc)
    word = tuple(rng.choice(lmc.alphabet) for _ in range(length))
    vec = list(pi.weights)
    for label in word:
        mat = lmc.matrices[lmc.label_index[label]]
        vec = [sum(vec[i] * mat[i][j] for i in range(lmc.n_states)) for j in range(lmc.n_states)]
    assert word_probability(lmc, pi, word) == sum(x * e for x, e in zip(vec, lmc.eow))


@settings(max_examples=80, deadline=None)
@given(seeds, st.sampled_from(["acyclic", "cyclic"]), st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
def test_bounded_classifies_every_word_exactly(seed, kind, eps):
    # Exact classes make the estimate the sum of (p1 - p2)+ up to the cutoff
    # plus the first start's tail beyond it.  Epsilon doubles until the
    # cutoff keeps the reference's word-by-word walk small.
    rng = random.Random(seed)
    lmc = random_acyclic_lmc(rng) if kind == "acyclic" else random_cyclic_lmc(rng)
    pi1, pi2 = random_distribution(rng, lmc), random_distribution(rng, lmc)
    while length_bound(lmc, eps / 4) > 7:
        eps *= 2
    est = tv_bounded(lmc, pi1, pi2, eps)
    plus, mass1_lt, mass2_ge = reference_bounded_classes(lmc, pi1, pi2, est.length_cutoff)
    tail = tail_mass(lmc, pi1, est.length_cutoff)
    assert est.estimate == plus + tail
    assert (est.mass1_lt, est.mass2_ge) == (mass1_lt, mass2_ge)
    if kind == "acyclic":
        distance = tv_distance_acyclic(lmc, pi1, pi2).distance
        assert est.estimate - tail <= distance <= est.estimate


def _bounded_instance(kind, rng):
    """A random pair of starts on a cyclic, acyclic or three-letter chain, or
    on a cyclic chain next to an acyclic one, whose rows die out while the
    cyclic part's stay live."""
    if kind == "cyclic":
        lmc = random_cyclic_lmc(rng)
    elif kind == "acyclic":
        lmc = random_acyclic_lmc(rng)
    elif kind == "three-letter":
        lmc = random_cyclic_lmc(rng, max_states=3, n_labels=3)
    else:
        cyclic, acyclic = random_cyclic_lmc(rng, max_states=3), random_acyclic_lmc(rng, max_states=4)
        lmc, _, _ = disjoint_union(
            cyclic, random_distribution(rng, cyclic), acyclic, random_distribution(rng, acyclic)
        )
    return lmc, random_distribution(rng, lmc), random_distribution(rng, lmc)


def _bounded_outcome(estimator, *args, **kwargs):
    try:
        return estimator(*args, **kwargs)
    except BudgetExceededError as exc:
        return str(exc), exc.nodes_visited, exc.depth


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["cyclic", "acyclic", "three-letter", "dying"]))
def test_bounded_matches_full_walk_at_every_budget(seed, kind):
    # Reading the bottom levels from the suffix table changes neither the
    # result nor where a budget stops the walk: every budget from 1 to the
    # node count gives the full walk's message, node count and depth.
    rng = random.Random(seed)
    lmc, pi1, pi2 = _bounded_instance(kind, rng)
    eps = Fraction(1, 8)
    while length_bound(lmc, eps / 4) > (4 if kind == "three-letter" else 7):
        eps *= 2
    assert tv_bounded(lmc, pi1, pi2, eps) == reference_tv_bounded(lmc, pi1, pi2, eps)
    while (nodes := reference_tv_bounded(lmc, pi1, pi2, eps).words_enumerated) > 120:
        eps *= 2
    for budget in range(1, nodes + 2):
        got = _bounded_outcome(tv_bounded, lmc, pi1, pi2, eps, budget)
        assert got == _bounded_outcome(reference_tv_bounded, lmc, pi1, pi2, eps, budget)


#: Row and start totals of the packed-kernel tests: small, powers of two and
#: up to 2**40, so that many fields are wider than 64 bits and their bit
#: lengths fall on every residue modulo 8.
packed_totals = st.one_of(
    st.integers(2, 12),
    st.integers(1, 40).map(lambda k: 2**k),
    st.integers(2**20, 2**40),
)


@st.composite
def packed_parts(draw, k, least=Fraction(0)):
    """``k`` positive parts of a total from ``packed_totals``, the first at
    least ``least`` of the total, as probabilities."""
    if k == 1:
        return [Fraction(1)]
    total = draw(packed_totals.filter(lambda t: t >= 4 * k))
    first = draw(st.integers(max(1, math.ceil(total * least)), total - k + 1))
    cuts = []
    if k > 2:
        cuts = draw(st.lists(st.integers(first + 1, total - 1), min_size=k - 2, max_size=k - 2, unique=True))
    bounds = [0, first, *sorted(cuts), total]
    return [Fraction(b - a, total) for a, b in zip(bounds, bounds[1:])]


@st.composite
def packed_chain(draw, alphabet, prefix, acyclic=False):
    """A chain of 1-3 states on ``alphabet``: each state stops with
    probability at least 1/4 and moves on up to 3 (letter, state) pairs,
    only to later states when ``acyclic``."""
    states = [f"{prefix}{i}" for i in range(draw(st.integers(1, 3)))]
    transitions, eow = [], {}
    for i, state in enumerate(states):
        targets = list(itertools.product(alphabet, states[i + 1 :] if acyclic else states))
        moves = draw(st.lists(st.sampled_from(targets), max_size=3, unique=True)) if targets else []
        stop, *probs = draw(packed_parts(len(moves) + 1, Fraction(1, 4)))
        eow[state] = stop
        transitions.extend((state, a, j, p) for (a, j), p in zip(moves, probs))
    return Lmc.from_transitions(states, alphabet, transitions, eow)


@st.composite
def packed_start(draw, lmc, states):
    support = draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))
    return InitialDistribution.from_map(lmc, dict(zip(support, draw(packed_parts(len(support))))))


@st.composite
def packed_cases(draw):
    """Instances on 1-3 letters of one kind: any two starts, equal starts or
    a chain next to its relabelled copy (every word ties), two chains side
    by side with a start on each (one side is zero below many nodes), both
    starts on an acyclic chain next to a cyclic one (the suffix table
    outgrows the walk, so a budget the walk fits cuts the table short), or
    "tight": eight instances whose fields come near the width bound."""
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    kind = draw(st.sampled_from(["pair", "equal", "relabelled", "side-by-side", "dying", "tight"]))
    if kind == "tight":
        # p0 loops on "a" with probability 1/q and p1 stops at once.  The
        # first field under p0 is then at least 3/4 of the width bound, and
        # the second start's weight 1/(t * 2**j) on p0, j = 0..7, doubles the
        # bound at each step, so its bit length falls on every residue
        # modulo 8.
        q, t = draw(packed_totals.filter(lambda x: x >= 4)), draw(packed_totals)
        lmc = Lmc.from_transitions(
            ["p0", "p1"], alphabet, [("p0", "a", "p0", Fraction(1, q))], {"p0": 1 - Fraction(1, q), "p1": 1}
        )
        pi1 = InitialDistribution.from_map(lmc, {"p0": 1})
        return kind, [
            (lmc, pi1, InitialDistribution.from_map(lmc, {"p0": Fraction(1, t << j), "p1": 1 - Fraction(1, t << j)}))
            for j in range(8)
        ]
    lmc = draw(packed_chain(alphabet, "p"))
    if kind == "relabelled":
        pi = draw(packed_start(lmc, lmc.states))
        return kind, [disjoint_union(lmc, pi, *relabeled_copy(lmc, pi))]
    if kind in ("side-by-side", "dying"):
        other = draw(packed_chain(alphabet, "q", acyclic=kind == "dying"))
        union, u1, u2 = disjoint_union(
            lmc, draw(packed_start(lmc, lmc.states)), other, draw(packed_start(other, other.states))
        )
        if kind == "side-by-side":
            return kind, [(union, u1, u2)]
        return kind, [(union, draw(packed_start(union, other.states)), draw(packed_start(union, other.states)))]
    pi1 = draw(packed_start(lmc, lmc.states))
    return kind, [(lmc, pi1, pi1 if kind == "equal" else draw(packed_start(lmc, lmc.states)))]


@settings(max_examples=200, deadline=None)
@given(packed_cases(), st.data())
def test_packed_subtrees_match_full_walk(case, data):
    # Each top node files its whole subtree through packed fields; the
    # result, or the budget error's text, node count and depth, is that of
    # the one-node-per-word walk.  Budgets: the default, exactly the walk's
    # node count (with "dying" chains this cuts the suffix table short), and
    # any smaller or one larger.
    _, instances = case
    for lmc, pi1, pi2 in instances:
        eps = Fraction(1, 16)
        while length_bound(lmc, eps / 4) > (12, 7, 5)[len(lmc.alphabet) - 1]:
            eps *= 2
        expected = reference_tv_bounded(lmc, pi1, pi2, eps)
        assert tv_bounded(lmc, pi1, pi2, eps) == expected
        nodes = expected.words_enumerated
        budget = data.draw(st.sampled_from([nodes, nodes + 1]) | st.integers(1, nodes))
        got = _bounded_outcome(tv_bounded, lmc, pi1, pi2, eps, budget)
        assert got == _bounded_outcome(reference_tv_bounded, lmc, pi1, pi2, eps, budget)


def _chain_of_kind(kind, rng):
    """A random acyclic or cyclic chain, or a cyclic one broken on purpose:
    one negative entry or one above 1 (a transition or a stop probability),
    one row summing to 7/6 (1/6 added to a stop probability), or an extra
    state whose denominator the others lack, so their weights over the
    chain's common denominator are not in lowest terms."""
    base = random_acyclic_lmc(rng) if kind == "acyclic" else random_cyclic_lmc(rng)
    states = list(base.states)
    records = [list(r) for r in base.transition_records()]
    eow = dict(zip(base.states, base.eow))
    if kind in ("negative", "above-one"):
        change = (lambda p: -p) if kind == "negative" else (lambda p: p + 1)
        if records and rng.random() < 0.5:
            record = rng.choice(records)
            record[3] = change(record[3])
        else:
            state = rng.choice(states)
            eow[state] = change(eow[state])
    elif kind == "seven-sixths":
        eow[rng.choice(states)] += Fraction(1, 6)
    elif kind == "non-reduced":
        d = rng.choice([7, 9, 25, 49])
        states.append("z")
        records.append(("z", base.alphabet[0], "z", Fraction(d - 1, d)))
        eow["z"] = Fraction(1, d)
    return Lmc.from_transitions(states, base.alphabet, records, eow)


CHAIN_KINDS = ["acyclic", "cyclic", "negative", "above-one", "seven-sixths", "non-reduced"]


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(CHAIN_KINDS))
def test_validate_matches_fraction_reference(seed, kind):
    lmc = _chain_of_kind(kind, random.Random(seed))
    assert validate(lmc) == reference_validate(lmc)


@settings(max_examples=150, deadline=None)
@given(seeds, st.sampled_from(CHAIN_KINDS))
def test_sampler_tables_match_fraction_reference(seed, kind):
    # Every choice's outcomes, uppers and total, or the first refusal (a
    # start never refuses, so it is the chain's), equal
    # those built from Fractions with the per-table lcm of reduced
    # denominators; its first read is ceil(log2(total)) bits, none at total 1.
    rng = random.Random(seed)
    lmc = _chain_of_kind(kind, rng)
    pi = random_distribution(rng, lmc)
    starts = [i for i, w in enumerate(pi.weights) if w > 0]
    choices = [([(None, i) for i in starts], [pi.weights[i] for i in starts], "the initial distribution")]
    for i, state in enumerate(lmc.states):
        outs, probs = ([None], [lmc.eow[i]]) if lmc.eow[i] > 0 else ([], [])
        for label, rows in zip(lmc.alphabet, lmc.sparse_rows):
            for j, p in rows[i]:
                if p > 0:
                    outs.append((label, j))
                    probs.append(p)
        choices.append((outs, probs, f"state {state!r}"))
    expected = []
    try:
        for choice in choices:
            expected.append(reference_sampler_table(*choice))
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            _Sampler(lmc)
        assert str(got.value) == str(exc)
        return
    tables = [_Sampler._start_table(pi), *_Sampler(lmc)._tables]
    assert [table[:3] for table in tables] == [table[:3] for table in expected]
    assert all(width == (total - 1).bit_length() for _, _, total, width in tables)


def _outcome(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return "ok", build()
    except (ValueError, TypeError) as exc:  # ParseError and DomainError among them
        return type(exc), str(exc)


#: Faults written into a chain's or a start's interchange dictionary; the
#: probability faults land on a random transition, stop or start entry.
FILE_FAULTS = {
    "float": lambda rng: rng.choice([0.5, 1.0, 0.0]),
    "negative": lambda rng: rng.choice(["-1/2", -1]),
    "above-one": lambda rng: rng.choice(["3/2", 2, "5/4"]),
    "zero-denominator": lambda rng: "1/0",
    "shifted": lambda rng: rng.choice(["1/7", "0", "1", 0]),
}
RECORD_FAULTS = ("unknown-key", "unknown-state", "unknown-label", "duplicate", "repeat-bad")


def _break_files(rng, chain: dict, start: dict, fault: str) -> None:
    records = chain["transitions"]
    if fault in RECORD_FAULTS and records:
        record = rng.choice(records)
        if fault == "unknown-key":
            record["weight"] = record["prob"]
        elif fault == "unknown-state":
            record[rng.choice(["from", "to"])] = "zz"
        elif fault == "unknown-label":
            record["label"] = "zz"
        elif fault == "duplicate":
            records.insert(rng.randrange(len(records) + 1), dict(record))
        else:  # one bad string in several records
            for other in rng.sample(records, rng.randint(1, len(records))):
                other["prob"] = "1/0"
    elif fault in FILE_FAULTS:
        places = [(r, "prob") for r in records] + [(chain["eow"], k) for k in chain["eow"]]
        places += [(start, k) for k in start]
        where, key = rng.choice(places)
        where[key] = FILE_FAULTS[fault](rng)
    elif fault == "unknown-start":
        start["zz"] = "0"


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    st.sampled_from(["acyclic", "cyclic", "pa"]),
    st.sampled_from([None, *FILE_FAULTS, *RECORD_FAULTS, "unknown-start"]),
    st.booleans(),
)
def test_chain_loader_matches_reference(seed, kind, fault, strict):
    # Loaded chains and starts equal the old loader's, and every fault
    # raises the same error with the same text.
    rng = random.Random(seed)
    lmc = _valid_chain(kind, rng)
    chain = lmc_to_dict(lmc)
    start = distribution_to_dict(random_distribution(rng, lmc), lmc)
    _break_files(rng, chain, start, fault)

    def load(from_chain, from_start):
        def build():
            loaded = from_chain(copy.deepcopy(chain), strict=strict, where="c.json")
            return loaded, from_start(copy.deepcopy(start), loaded, where="d.json")

        return build

    got = _outcome(load(lmc_from_dict, distribution_from_dict))
    assert got == _outcome(load(reference_lmc_from_dict, reference_distribution_from_dict))
    if fault is None:
        assert got[0] == "ok" and got[1][0] == lmc


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from([*FILE_FAULTS, *RECORD_FAULTS]))
def test_pa_loader_faults_as_the_chain_loader(seed, fault):
    # A PA file's states, alphabet and transitions are read by the chain
    # reader: given the same broken records, the two files raise the same
    # text.  Records that load as a chain can still break a row's sum.
    rng = random.Random(seed)
    data = pa_to_dict(random_pa(rng, 5, rng.randint(1, 2)))
    _break_files(rng, {"transitions": data["transitions"], "eow": {}}, {}, fault)
    chain = {key: data[key] for key in ("states", "alphabet", "transitions")}
    pa_file = InputFile("pa.json", json.dumps(data).encode())
    chain_file = InputFile("chain.json", json.dumps({**chain, "eow": {}}).encode())
    kind, got = _outcome(lambda: load_pa(pa_file))
    chain_kind, expected = _outcome(lambda: load_lmc(chain_file, strict=False))
    if chain_kind != "ok":
        assert (kind, got.removeprefix("pa.json: ")) == (chain_kind, expected.removeprefix("chain.json: "))
    elif kind == "ok":
        assert got.chain.integer_form[:2] == expected.integer_form[:2]
    else:
        assert "sums to" in got


def _file_bytes(rng, data, layout: str) -> bytes:
    """``data`` as the bytes of a JSON file in one of the layouts a hand or a
    tool may write: the saver's, compact, each object's keys shuffled, or
    with CRLF line ends."""
    if layout == "shuffled":
        data = _shuffled(rng, data)
    text = json.dumps(data, separators=(",", ":")) if layout == "compact" else json.dumps(data, indent=2)
    return (text.replace("\n", "\r\n") if layout == "crlf" else text).encode("utf-8")


def _shuffled(rng, value):
    if isinstance(value, dict):
        return dict(rng.sample([(k, _shuffled(rng, v)) for k, v in value.items()], len(value)))
    return [_shuffled(rng, v) for v in value] if isinstance(value, list) else value


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    st.sampled_from(["acyclic", "cyclic", "pa"]),
    st.sampled_from([None, *FILE_FAULTS, *RECORD_FAULTS, "unknown-start"]),
    st.booleans(),
    st.sampled_from(["indent", "compact", "shuffled", "crlf"]),
)
def test_file_loader_matches_reference(seed, kind, fault, strict, layout):
    # The same broken chains and starts as above, written as files: the
    # loader reads each object as its pairs, and must still give what the
    # old loader gives on the file's dicts, chain and start or error text.
    rng = random.Random(seed)
    lmc = _valid_chain(kind, rng)
    chain = lmc_to_dict(lmc)
    start = distribution_to_dict(random_distribution(rng, lmc), lmc)
    _break_files(rng, chain, start, fault)
    chain_file = InputFile("c.json", _file_bytes(rng, chain, layout))
    start_file = InputFile("d.json", _file_bytes(rng, start, layout))

    def from_files():
        loaded = load_lmc(chain_file, strict=strict)
        return loaded, load_distribution(start_file, loaded)

    def reference():
        loaded = reference_lmc_from_dict(json.loads(chain_file.data), strict=strict, where="c.json")
        return loaded, reference_distribution_from_dict(json.loads(start_file.data), loaded, where="d.json")

    got = _outcome(from_files)
    assert got == _outcome(reference)
    if fault is None:
        assert got[0] == "ok" and got[1][0] == lmc


ROW_FAULTS = ("descending", "repeated", "out-of-range", "negative", "bool", "float-target",
              "not-a-pair", "list-pair", "float-prob", "float-then-bad-target", "zero-prob",
              "int-prob", "generator")


def _break_rows(rng, lmc: Lmc, fault: str):
    """``lmc.sparse_rows`` as lists, one row changed by ``fault``."""
    rows = [[list(row) for row in label_rows] for label_rows in lmc.sparse_rows]
    row = rng.choice(rng.choice(rows))
    at = rng.randrange(len(row)) if row else 0
    j, p = row[at] if row else (0, Fraction(1, 2))
    size = lmc.n_states
    if fault == "descending" and len(row) > 1:
        row.reverse()
    elif fault == "repeated" and row:
        row.insert(at, row[at])
    elif fault == "out-of-range":
        row.append((rng.choice([size, size + 3]), p))
    elif fault == "negative":
        row.insert(0, (-1, p))
    elif fault == "bool":
        row[at:at + 1] = [(j == 1, p)]
    elif fault == "float-target":
        row[at:at + 1] = [(float(j), p)]
    elif fault == "not-a-pair":
        row[at:at + 1] = [rng.choice([(j, p, 0), (j,), j])]
    elif fault == "list-pair":
        row[at:at + 1] = [[j, p]]
    elif fault == "float-prob":
        row[at:at + 1] = [(j, float(p))]
    elif fault == "float-then-bad-target":  # the target is reported, not the float
        row[at:at + 1] = [(j, float(p))]
        row.append((size, p))
    elif fault == "zero-prob":
        row[at:at + 1] = [(j, rng.choice([0, Fraction(0)]))]
    elif fault == "int-prob":
        row[at:at + 1] = [(j, rng.choice([1, True, 2, -1]))]
    return rows


@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(["acyclic", "cyclic", "pa"]), st.sampled_from([None, *ROW_FAULTS]))
def test_chain_rows_match_reference(seed, kind, fault):
    # Lmc(...) checks every target of a row before its probabilities, as
    # the old two-pass check did, and stores the same rows.
    rng = random.Random(seed)
    lmc = _valid_chain(kind, rng)
    rows = _break_rows(rng, lmc, fault) if fault else lmc.sparse_rows

    def fresh():  # each side gets its own one-shot rows
        if fault == "generator":
            return [[iter(row) for row in label_rows] for label_rows in rows]
        return rows

    got = _outcome(lambda: Lmc(lmc.states, lmc.alphabet, fresh(), lmc.eow))
    assert got == _outcome(lambda: reference_lmc(lmc.states, lmc.alphabet, fresh(), lmc.eow))
    if got[0] == "ok":
        stored = got[1].sparse_rows
        assert all(type(e) is tuple and type(e[1]) is Fraction for r in stored for row in r for e in row)


def _near_start(rng):
    """Weights summing to 1, perhaps with one entry nudged."""
    parts = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
    parts[0] += 1
    total = sum(parts)
    weights = [Fraction(x, total) for x in parts]
    if rng.random() < 0.5:
        weights[rng.randrange(len(weights))] += rng.choice([Fraction(1, 7), Fraction(-1, total), 1])
    return weights


start_weights = st.lists(
    st.one_of(
        st.fractions(min_value=-1, max_value=2, max_denominator=12),
        st.integers(-1, 2),
        st.sampled_from([0.5, True, False, "1"]),
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(start_weights, seeds.map(lambda s: _near_start(random.Random(s)))))
def test_initial_distribution_matches_reference(weights):
    got = _outcome(lambda: InitialDistribution(tuple(weights)).weights)
    assert got == _outcome(lambda: reference_initial_weights(weights))

