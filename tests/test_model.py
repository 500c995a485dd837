"""Core model types: construction, validation, probabilities, unions."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from lmcdist import (
    BudgetExceededError,
    DomainError,
    InitialDistribution,
    Lmc,
    disjoint_union,
    is_acyclic,
    max_support_length,
    support_lengths,
    tail_mass,
    validate,
    word_probability,
)
from lmcdist.automata import Pa
from lmcdist.formats import load_lmc, save_lmc
from lmcdist.model import (
    depth_total,
    eliminate,
    no_digit_limit,
    spell_words,
    state_tails,
    walk_layers,
    walk_prefixes,
)

from helpers import (
    half_distance_instance,
    worked_example_pair,
    worked_example_union,
    random_acyclic_lmc,
    random_cyclic_lmc,
    random_distribution,
)

###############################################################################
# Construction and validation
###############################################################################


def test_from_transitions_builds_expected_matrices():
    lmc = Lmc.from_transitions(
        ["u", "v"],
        ["a"],
        [("u", "a", "v", Fraction(1, 3)), ("u", "a", "u", Fraction(1, 3))],
        {"u": Fraction(1, 3), "v": 1},
    )
    assert lmc.matrices[0] == (
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(0), Fraction(0)),
    )
    assert lmc.eow == (Fraction(1, 3), Fraction(1))
    assert validate(lmc) == []


@pytest.mark.parametrize(
    ("rows", "match"),
    [
        (((((0, 1),),),) * 2, "2 row sets for 1 labels"),
        ((((),) * 3,), "3 rows, expected 2"),
        (((((2, 1),), ()),), "targets in"),  # out of range
        ((((("1", 1),), ()),), "int targets"),
        (((((1, Fraction(1, 2)), (1, Fraction(1, 2))), ()),), "strictly ascending"),
        (((((1, Fraction(1, 2)), (0, Fraction(1, 2))), ()),), "strictly ascending"),
        (((((1, 0.5),), ()),), "exact rational"),
        ((((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),), "pairs"),  # dense
    ],
)
def test_constructor_rejects_malformed_rows(rows, match):
    with pytest.raises(DomainError, match=match):
        Lmc(("u", "v"), ("a",), rows, (Fraction(0), Fraction(1)))


def test_zero_records_are_dropped_but_still_count_as_duplicates(tmp_path):
    records = [("u", "a", "v", 1), ("u", "a", "u", 0)]
    lmc = Lmc.from_transitions(["u", "v"], ["a"], records, {"v": 1})
    assert lmc.sparse_rows == ((((1, Fraction(1)),), ()),)
    save_lmc(lmc, tmp_path / "lmc.json")
    assert load_lmc(tmp_path / "lmc.json") == lmc
    assert [t["prob"] for t in json.loads((tmp_path / "lmc.json").read_text())["transitions"]] == ["1"]
    with pytest.raises(DomainError, match="duplicate transition"):
        Lmc.from_transitions(["u", "v"], ["a"], records + records[1:], {"v": 1})


def test_record_order_does_not_change_the_chain():
    union = worked_example_union()[0]
    records = union.transition_records()
    eow = dict(zip(union.states, union.eow))
    shuffled = Lmc.from_transitions(union.states, union.alphabet, reversed(records), eow)
    assert shuffled == union
    assert hash(shuffled) == hash(union)


def test_duplicate_transition_rejected():
    with pytest.raises(DomainError, match="duplicate"):
        Lmc.from_transitions(
            ["u"],
            ["a"],
            [("u", "a", "u", Fraction(1, 4)), ("u", "a", "u", Fraction(1, 4))],
            {"u": Fraction(1, 2)},
        )


def test_unknown_names_rejected():
    with pytest.raises(DomainError, match="not a declared state"):
        Lmc.from_transitions(["u"], ["a"], [("u", "a", "w", 1)], {})
    with pytest.raises(DomainError, match="not in the alphabet"):
        Lmc.from_transitions(["u"], ["a"], [("u", "c", "u", 1)], {})
    with pytest.raises(DomainError, match="unknown state"):
        Lmc.from_transitions(["u"], ["a"], [], {"w": 1})


def test_floats_rejected_loudly():
    with pytest.raises(DomainError, match="exact rational"):
        Lmc.from_transitions(["u"], ["a"], [("u", "a", "u", 0.5)], {"u": 0.5})


def test_validate_names_state_with_bad_row_sum():
    lmc = Lmc.from_transitions(
        ["u", "v"], ["a"], [("u", "a", "v", Fraction(1, 3))], {"v": 1}
    )
    problems = validate(lmc)
    assert any("u" in p and "sums to 1/3" in p for p in problems)


def test_validate_flags_states_that_never_stop():
    # v loops forever with probability 1 and has no stopping state below it.
    lmc = Lmc.from_transitions(
        ["u", "v"], ["a"], [("u", "a", "v", 1), ("v", "a", "v", 1)], {}
    )
    problems = validate(lmc)
    assert problems and any("v" in p for p in problems)


def test_messages_past_the_digit_limit_are_in_full():
    # Every number in these texts is over D(D+1), past the interpreter's
    # int/str digit limit, while D's own digits are under it.  Such a text
    # once raised ValueError where it was formatted.
    limit = sys.get_int_max_str_digits()
    d = 10 ** ((limit or 4300) // 2 + 50)
    den = d * (d + 1)
    over, off = Fraction(den + 1, den), Fraction(2 * d + 1, den)
    lmc = Lmc.from_integer_form(["s", "t"], ["a"], den, [[((1, den + 1),), ()]], [den + 1, 2 * d + 1])
    texts = [validate(lmc)]
    for weights in ([(0, den + 1)], [(0, d), (1, d + 1)]):
        with pytest.raises(DomainError) as exc:
            InitialDistribution.from_integer_form(2, den, weights)
        texts.append(str(exc.value))
    with pytest.raises(DomainError) as exc:
        Pa(["s", "t"], ["a"], [((Fraction(1, d), Fraction(1, d + 1)), (0, 1))], [1, 0], ["t"])
    texts.append(str(exc.value))
    assert sys.get_int_max_str_digits() == limit
    with no_digit_limit():
        assert texts == [
            [
                f"transition s --a--> t has probability {over}, outside [0, 1]",
                f"end-of-word probability at state s is {over}, outside [0, 1]",
                f"outgoing probability at state s sums to {2 * over}, expected 1",
                f"outgoing probability at state t sums to {off}, expected 1",
            ],
            f"initial weight at position 0 is {over}, outside [0, 1]",
            f"initial weights sum to {off}, expected exactly 1",
            f"row of state 's' under label 'a' sums to {off}, expected 1",
        ]
        assert limit == 0 or len(str(off)) > limit


def test_validate_accepts_worked_example_chains():
    first, _, second, _ = worked_example_pair()
    assert validate(first) == []
    assert validate(second) == []


def test_negative_and_oversized_probabilities_flagged():
    # Construction is shape-only by design; validate reports the damage.
    negative = Lmc.from_transitions(
        ["u"], ["a"], [("u", "a", "u", Fraction(-1, 2))], {"u": Fraction(3, 2)}
    )
    problems = validate(negative)
    assert any("outside [0, 1]" in p and "--a-->" in p for p in problems)
    assert any("end-of-word" in p and "outside [0, 1]" in p for p in problems)
    oversized = Lmc.from_transitions(["u"], ["a"], [], {"u": Fraction(3, 2)})
    assert any("outside [0, 1]" in p for p in validate(oversized))


def test_validate_reports_violations_in_a_fixed_order():
    # Ranges by label, source and target; then end-of-word ranges; then row
    # sums by state; then states that cannot stop.
    lmc = Lmc.from_transitions(
        ["u", "v", "w", "x"],
        ["a", "b"],
        [
            ("u", "b", "w", Fraction(3, 2)),
            ("u", "a", "v", Fraction(-1, 2)),
            ("v", "a", "w", Fraction(1, 3)),
            ("v", "b", "u", Fraction(1, 3)),
            ("x", "a", "x", 1),
            ("w", "a", "u", Fraction(-1, 4)),
        ],
        {"v": Fraction(1, 6), "w": Fraction(3, 2)},
    )
    assert validate(lmc) == [
        "transition u --a--> v has probability -1/2, outside [0, 1]",
        "transition w --a--> u has probability -1/4, outside [0, 1]",
        "transition u --b--> w has probability 3/2, outside [0, 1]",
        "end-of-word probability at state w is 3/2, outside [0, 1]",
        "outgoing probability at state v sums to 5/6, expected 1",
        "outgoing probability at state w sums to 5/4, expected 1",
        "state x has no positive-probability path to a state that can end the word",
    ]
    assert lmc.successors == ((2,), (0, 2), (), (3,))  # positive steps only


###############################################################################
# Initial distributions
###############################################################################


def test_dirac_and_from_map():
    lmc, pi1, _ = half_distance_instance()
    assert pi1.weights == (Fraction(1), Fraction(0), Fraction(0))
    mixed = InitialDistribution.from_map(
        lmc, {"s": Fraction(1, 3), "s2": Fraction(2, 3)}
    )
    assert sum(mixed.weights) == 1
    assert mixed.support() == (0, 1)


def test_distribution_must_sum_to_one():
    lmc, _, _ = half_distance_instance()
    with pytest.raises(DomainError):
        InitialDistribution.from_map(lmc, {"s": Fraction(1, 2)})


def test_distribution_rejects_unknown_state():
    lmc, _, _ = half_distance_instance()
    with pytest.raises(DomainError):
        InitialDistribution.from_map(lmc, {"nope": 1})


###############################################################################
# Word probabilities
###############################################################################


def test_worked_example_word_probabilities():
    first, pi1, second, pi2 = worked_example_pair()
    assert word_probability(first, pi1, ("a", "a")) == Fraction(1, 16)
    assert word_probability(second, pi2, ("a", "a")) == Fraction(5, 36)


def test_word_probability_empty_and_unknown_label():
    first, pi1, _, _ = worked_example_pair()
    assert word_probability(first, pi1, ()) == Fraction(1, 4)
    with pytest.raises(DomainError, match="alphabet"):
        word_probability(first, pi1, ("z",))


def test_word_probability_checks_labels_after_a_zero_prefix():
    lmc, pi, _ = half_distance_instance()
    assert word_probability(lmc, pi, ("a", "a")) == 0  # t cannot emit
    with pytest.raises(DomainError, match="'zzz' is not in the alphabet"):
        word_probability(lmc, pi, ("a", "a", "zzz"))
    with pytest.raises(DomainError, match="'zzz' is not in the alphabet"):
        word_probability(lmc, pi, ("a", "zzz"))


def test_probabilities_sum_to_one_on_random_acyclic_chain():
    rng = random.Random(11)
    for _ in range(20):
        lmc = random_acyclic_lmc(rng)
        pi = random_distribution(rng, lmc)
        horizon = max_support_length(lmc)
        words = [()]
        total = word_probability(lmc, pi, ())
        frontier = [()]
        for _ in range(horizon):
            frontier = [w + (a,) for w in frontier for a in lmc.alphabet]
            total += sum(word_probability(lmc, pi, w) for w in frontier)
        assert total == 1
        assert tail_mass(lmc, pi, horizon) == 0


###############################################################################
# Structure queries
###############################################################################


def test_acyclicity_detection():
    acyclic, _, _ = half_distance_instance()
    assert is_acyclic(acyclic)
    cyclic, _, _, _ = worked_example_pair()
    assert not is_acyclic(cyclic)


def test_support_lengths_on_fixture():
    lmc, _, _ = half_distance_instance()
    # s and s2 emit exactly one letter; t stops immediately.
    assert support_lengths(lmc) == [1, 1, 0]
    assert max_support_length(lmc) == 1


def test_support_lengths_require_acyclic():
    cyclic, _, _, _ = worked_example_pair()
    with pytest.raises(DomainError, match="cycle"):
        support_lengths(cyclic)


def test_tail_mass_monotone_and_exact():
    _, pi1, second, pi2 = worked_example_pair()
    # From q2: still running after n letters with probability (2/3)^n weighted
    # by where the walk sits; check monotonicity and the first values.
    values = [tail_mass(second, pi2, n) for n in range(6)]
    assert values[0] == 1  # q2 cannot stop without emitting
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[1] == 1 - word_probability(second, pi2, ("a",))


def test_tail_mass_stops_once_every_tail_is_zero():
    # On an acyclic chain the tails vanish past the support length, so a huge
    # cutoff costs no more than that.
    lmc, pi1, pi2 = half_distance_instance()
    assert tail_mass(lmc, pi1, 0) == 1
    assert tail_mass(lmc, pi1, 1) == 0
    assert tail_mass(lmc, pi2, 10**6) == 0
    # Integers over L**(n+1), L = 2: s and s2 must emit one letter.
    assert list(state_tails(lmc)) == [[2, 2, 0], [0, 0, 0]]


def test_tail_mass_rejects_a_non_int_length():
    # A tail past 0.5 letters from s would be 1; on the cyclic chain no depth
    # ever equals 1.5, so an unchecked length would walk the tails forever.
    lmc, pi1, _ = half_distance_instance()
    with pytest.raises(DomainError, match="nonnegative int"):
        tail_mass(lmc, pi1, 0.5)
    cyclic, pi, _, _ = worked_example_pair()
    with pytest.raises(DomainError, match="nonnegative int"):
        tail_mass(cyclic, pi, 1.5)


###############################################################################
# Disjoint union
###############################################################################


def test_disjoint_union_preserves_probabilities():
    union, u1, u2 = worked_example_union()
    assert word_probability(union, u1, ("a", "a")) == Fraction(1, 16)
    assert word_probability(union, u2, ("a", "a")) == Fraction(5, 36)
    assert validate(union) == []


def test_disjoint_union_renames_on_collision():
    first, pi1, _, _ = worked_example_pair()
    union, u1, u2 = disjoint_union(first, pi1, first, pi1)
    assert len(union.states) == 2
    assert len(set(union.states)) == 2
    assert word_probability(union, u1, ("a", "a")) == Fraction(1, 16)
    assert word_probability(union, u2, ("a", "a")) == Fraction(1, 16)


def test_disjoint_union_pairs_rows_by_label():
    first, pi1, second, pi2 = worked_example_pair()
    flipped = Lmc.from_transitions(
        second.states, ("b", "a"), second.transition_records(), dict(zip(second.states, second.eow))
    )
    assert flipped.alphabet == ("b", "a")
    union, _, lifted = disjoint_union(first, pi1, flipped, InitialDistribution(pi2.weights))
    for n in range(4):
        for word in itertools.product("ab", repeat=n):
            assert word_probability(union, lifted, word) == word_probability(second, pi2, word)
    eow = dict(zip(first.states + flipped.states, first.eow + flipped.eow))
    records = first.transition_records() + flipped.transition_records()
    assert union == Lmc.from_transitions(first.states + flipped.states, first.alphabet, records, eow)


def test_disjoint_union_requires_same_alphabet():
    first, pi1, _, _ = worked_example_pair()
    other = Lmc.from_transitions(["w"], ["z"], [], {"w": 1})
    with pytest.raises(DomainError, match="alphabet"):
        disjoint_union(first, pi1, other, InitialDistribution.dirac(other, "w"))


def test_random_cyclic_chains_are_valid():
    rng = random.Random(5)
    for _ in range(20):
        lmc = random_cyclic_lmc(rng)
        assert validate(lmc) == []


###############################################################################
# The prefix walker
###############################################################################


def _binary_step(max_depth, pruned=()):
    """Children of a word over {0, 1}: the extended words, with the words in
    ``pruned`` cut off, and nothing below ``max_depth``."""

    def step(word, depth):
        if depth == max_depth:
            return None
        return [None if word + (li,) in pruned else word + (li,) for li in (0, 1)]

    return step


def test_walk_is_depth_first_in_alphabet_order():
    visited = [(tuple(path), word) for path, word in walk_prefixes((), _binary_step(2))]
    assert [word for _, word in visited] == [
        (), (0,), (0, 0), (0, 1), (1,), (1, 0), (1, 1)
    ]
    assert all(path == word for path, word in visited)


def test_walk_prunes_children_and_subtrees():
    step = _binary_step(3, pruned={(0,), (1, 1, 0)})
    words = [word for _, word in walk_prefixes((), step)]
    assert words == [(), (1,), (1, 0), (1, 0, 0), (1, 0, 1), (1, 1), (1, 1, 1)]


def test_walk_budget_counts_visited_nodes():
    assert len(list(walk_prefixes((), _binary_step(2), budget=7))) == 7
    with pytest.raises(BudgetExceededError) as info:
        list(walk_prefixes((), _binary_step(2), budget=6))
    assert (info.value.nodes_visited, info.value.depth) == (7, 2)
    with pytest.raises(DomainError):
        list(walk_prefixes((), _binary_step(2), budget=0))


def _weight_layers(max_depth, budget=None):
    """Binary words merged by their number of 1s."""
    return list(walk_layers((), _binary_step(max_depth), sum, budget))


def test_layers_merge_equal_keys_in_least_word_order():
    layers = _weight_layers(3)
    assert [layer.depth for layer in layers] == [0, 1, 2, 3]
    # Node i of layer d holds the words with i ones: C(d, i) of them, least
    # word 0...01...1, reached from the node with one 1 fewer by letter 1
    # before the node with as many by letter 0.  The node kept is the first
    # child met, which is that least word.
    assert [layer.nodes for layer in layers] == [
        [()],
        [(0,), (1,)],
        [(0, 0), (0, 1), (1, 1)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
    ]
    assert [layer.counts for layer in layers] == [[1], [1, 1], [1, 2, 1], [1, 3, 3, 1]]
    assert layers[2].edges == [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]]
    edges = [layer.edges for layer in layers]
    assert spell_words(edges, [(2, 1)], "ab") == [("a", "b"), ("b", "a")]
    # Targets at several depths come out in depth-first order.
    assert spell_words(edges, [(3, 3), (1, 0), (2, 1), (0, 0)], "ab") == [
        (), ("a",), ("a", "b"), ("b", "a"), ("b", "b", "b")
    ]
    assert spell_words(edges, [], "ab") == []


def test_layers_budget_counts_distinct_nodes():
    assert len(_weight_layers(2, budget=6)) == 3
    with pytest.raises(BudgetExceededError, match="at depth 2") as info:
        _weight_layers(2, budget=5)
    assert (info.value.nodes_visited, info.value.depth) == (6, 2)
    with pytest.raises(DomainError):
        _weight_layers(2, budget=0)


def test_depth_total_combines_scales():
    # 1/6 + 5/(6*4) + 0 + 7/(6*4**3)
    sums = {0: 1, 1: 5, 3: 7}
    assert depth_total(sums, 6, 4) == Fraction(1, 6) + Fraction(5, 24) + Fraction(7, 384)
    assert depth_total({}, 6, 4) == 0


def test_eliminate_keeps_primitive_echelon_rows():
    echelon = []
    rows = []
    for vec in ({0: 2, 1: 4, 2: 6}, {0: 3, 2: 1}, {1: 5, 2: -5}):
        row = eliminate(vec, echelon)
        assert math.gcd(*row.values()) == 1
        assert all(pivot not in row for pivot, _ in echelon)
        echelon.append((min(row), row))
        rows.append(row)
    assert rows == [{0: 1, 1: 2, 2: 3}, {1: -3, 2: -4}, {2: 1}]
    # 2 * first - second input lies in the span of the first two rows.
    assert eliminate({0: 1, 1: 8, 2: 11}, echelon[:2]) == {}
    assert eliminate({0: 1, 1: 8, 2: 12}, echelon[:2]) == {2: -1}
    assert eliminate({}, echelon) == {}
