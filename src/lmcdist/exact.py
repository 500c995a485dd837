"""Exact distance analysis for acyclic chains, plus equivalence for all chains.

The total variation distance between the word distributions of two starting
points is half the sum of |p1(w) - p2(w)| over all words; equivalently it is
the advantage p1(W) - p2(W) of the event W = {w : p1(w) >= p2(w)} (ties are
put into W throughout this package).  For acyclic chains the support is
finite, so these quantities are computed exactly by walking the prefix tree
on integer prefix vectors over a common denominator, pruning prefixes that
are unreachable under both starts.  The walk is breadth-first and merges
prefixes with equal vectors (``model.walk_layers``), so it costs one step per
distinct node, not per word; sums are weighted by the number of words behind
each node, kept per depth as integers and turned into one Fraction at the
end.  The distance needs p1 and p2 apart for its witness, so its node is one
vector on two copies of the states, p1's prefix vector on the first and
p2's on the second (``_pair_start``); the power sums and the threshold need
only p1 - p2 and walk the difference vector (``_difference``), which merges
at least as often.  All of them advance by one step (``_vector_step``).  The
exhaustive-subset oracle walks every word depth-first instead
(``model.walk_prefixes``), which keeps it an independent route.  No vector
here is a ``Fraction``; the Fraction paths that remain are named in ``model``.

Also here:

* power-sum distances (sum of |p1 - p2|^k),
* a comparison of the distance against a rational threshold decided by a pure
  big-integer inequality, returned with its certificate integers,
* distribution equivalence by linear-algebraic closure (works for cyclic
  chains too, in polynomial time) on ``model.eliminate``, the package's one
  fraction-free elimination,
* an exhaustive-subset oracle used to cross-check the enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, OracleInfeasibleError
from .model import (
    InitialDistribution,
    Lmc,
    advance,
    as_fraction,
    check_distribution,
    check_length,
    depth_total,
    eliminate,
    is_acyclic,
    rows_by_state,
    spell_words,
    start_vector,
    stop_mass,
    support_lengths,
    vector_key,
    walk_layers,
    walk_prefixes,
)

#: Default cap on enumeration nodes: distinct prefix vectors per depth for
#: the merged walks, prefixes for the depth-first ones.
DEFAULT_NODE_BUDGET = 10**7

#: Witness word lists larger than this are summarized by count/mass only.
WITNESS_WORD_CAP = 10**4


@dataclass(frozen=True)
class WitnessSummary:
    """The event W = {support words with p1(w) >= p2(w)} in summary form.

    ``words`` is the explicit list (in enumeration order) when the event has
    at most ``WITNESS_WORD_CAP`` words and the caller asked for it, else None.
    """

    word_count: int
    mass_1: Fraction
    mass_2: Fraction
    words: tuple[tuple[str, ...], ...] | None


@dataclass(frozen=True)
class DistanceReport:
    """Exact distance plus the maximizing event that realizes it."""

    distance: Fraction
    witness: WitnessSummary
    enumerated_words: int


@dataclass(frozen=True)
class ThresholdCertificate:
    """Outcome of an exact integer comparison of the distance with a threshold.

    The decision holds iff ``lhs_integer >= rhs_integer``; both integers are
    exact functions of the inputs (lhs equals the distance and rhs the
    threshold, both scaled by twice ``denominator_product ** (support_length
    + 2)``, with 1 added to rhs for a strict comparison), so the certificate
    can be re-verified independently.  ``denominator_product`` is D of
    ``threshold_decide_acyclic``, an lcm; the field keeps its older name.
    """

    decision: bool
    lhs_integer: int
    rhs_integer: int
    denominator_product: int
    support_length: int


def require_acyclic(lmc: Lmc) -> None:
    if not is_acyclic(lmc):
        raise DomainError(
            "chain has a positive-probability cycle; exact enumeration needs an acyclic chain"
        )


def _vector_step(by_state, labels: int, max_len: int | None):
    """The walkers' ``step`` over integer vectors: one child per label, None
    where it vanishes, and no children at ``max_len``.  ``by_state`` holds
    the rows grouped by source state (``model.rows_by_state``), so one pass
    over a node's support advances it over every letter, and a letter with
    no row there costs nothing."""

    def step(vec, depth):
        if depth == max_len:
            return None
        children = [None] * labels
        for i, x in vec.items():
            for li, row in by_state[i]:
                out = children[li]
                if out is None:
                    children[li] = out = {}
                for j, p in row:
                    out[j] = out.get(j, 0) + x * p
        for li, out in enumerate(children):
            # Difference vectors can cancel; sums of positive terms cannot.
            if out is not None and 0 in out.values():
                children[li] = {j: v for j, v in out.items() if v} or None
        return children

    return step


def _pair_start(lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution, max_len: int | None):
    """``(base, root, step, (eow1, eow2))`` of the walk under both starts, for
    words up to ``max_len``: a node is p1's integer prefix vector on states
    0..n-1 and p2's on n..2n-1, and ``eow1``/``eow2`` read off the two stop
    masses, integers over ``base * L**d`` at depth d (L from ``integer_form``)."""
    den, rows, eow = lmc.integer_form
    n = lmc.n_states
    den_pi = math.lcm(pi1.integer_form[0], pi2.integer_form[0])
    root = start_vector(pi1, den_pi)
    root.update(start_vector(pi2, den_pi, n))
    by_state = rows_by_state(rows, n)
    by_state += [[(li, tuple((j + n, p) for j, p in row)) for li, row in out] for out in by_state]
    return den_pi * den, root, _vector_step(by_state, len(rows), max_len), (eow + (0,) * n, (0,) * n + eow)


def _difference(pi1: InitialDistribution, pi2: InitialDistribution) -> tuple[int, dict[int, int]]:
    """``(L_pi, v)``: L_pi the lcm of both starts' denominators and v the
    integer vector of pi1 - pi2 times L_pi.  Advanced over a word w, v is
    p1 - p2's prefix vector over ``L_pi * L**len(w)``."""
    den_pi = math.lcm(pi1.integer_form[0], pi2.integer_form[0])
    diff = start_vector(pi1, den_pi)
    for i, x in start_vector(pi2, den_pi).items():
        diff[i] = diff.get(i, 0) - x
    return den_pi, {i: x for i, x in sorted(diff.items()) if x}


def _power_sum(
    lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution, k: int, budget: int, max_len: int | None = None
) -> Fraction:
    """Sum of |p1(w) - p2(w)|**k over the words w up to ``max_len`` (None:
    all), on the merged walk over the difference vector: ``budget`` caps the
    distinct difference vectors, and each sum is weighted by its words."""
    den, rows, eow = lmc.integer_form
    den_pi, diff = _difference(pi1, pi2)
    step = _vector_step(rows_by_state(rows, lmc.n_states), len(rows), max_len)
    # Stop masses at depth d are integers over den_pi * den**(d+1).
    sums = {
        layer.depth: sum(c * abs(stop_mass(vec, eow)) ** k for vec, c in zip(layer.nodes, layer.counts))
        for layer in walk_layers(diff, step, vector_key, budget)
    }
    return depth_total(sums, (den_pi * den) ** k, den**k)


def _pair_walk(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    budget: int,
    max_len: int | None = None,
) -> tuple[int, Iterator[tuple[list[int], int, int]]]:
    """The depth-first walk under both starts, one node per word.

    Returns ``(base, words)``.  ``words`` yields ``(path, s1, s2)`` for every
    word with positive probability under either start, where ``path`` is as
    in ``walk_prefixes`` and s1, s2 are the two stop masses, integers over
    ``base * L**len(path)``.  Every visited prefix counts against
    ``budget``.
    """
    base, root, step, (eow1, eow2) = _pair_start(lmc, pi1, pi2, max_len)

    def words():
        for path, vec in walk_prefixes(root, step, budget):
            s1, s2 = stop_mass(vec, eow1), stop_mass(vec, eow2)
            if s1 or s2:
                yield path, s1, s2

    return base, words()


def tv_distance_acyclic(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    budget: int = DEFAULT_NODE_BUDGET,
    *,
    list_words: bool = True,
) -> DistanceReport:
    """Exact total variation distance between the two word distributions.

    Enumerates the full (finite) support, so the chain must be acyclic.  The
    report carries the maximizing event W = {w : p1(w) >= p2(w)} restricted to
    support words; its masses satisfy distance = mass_1 - mass_2 exactly.
    Words with equal prefix vectors under both starts are walked once
    (``model.walk_layers``), and ``budget`` caps those distinct nodes, per
    depth.  The listed witness words
    are in the order of a depth-first walk: each word before its extensions,
    siblings in alphabet order.  With ``list_words=False`` no word is spelled
    and the witness's ``words`` is None whatever the event's size; its count
    and masses are the same.
    """
    require_acyclic(lmc)
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    base, root, step, (eow1, eow2) = _pair_start(lmc, pi1, pi2, None)
    ratio = lmc.integer_form[0]
    # Per-depth integer sums; stop masses at depth d are over base * ratio**d.
    gap, mass_1, mass_2 = {}, {}, {}
    count = 0
    enumerated = 0
    edges: list | None = [] if list_words else None  # per depth, while the words may be listed
    hits: list[tuple[int, int]] = []  # (depth, index) of the witness nodes
    for layer in walk_layers(root, step, vector_key, budget):
        depth = layer.depth
        g = m1 = m2 = 0
        for at, (vec, c) in enumerate(zip(layer.nodes, layer.counts)):
            s1, s2 = stop_mass(vec, eow1), stop_mass(vec, eow2)
            if not (s1 or s2):
                continue
            enumerated += c
            if s1 >= s2:
                g += c * (s1 - s2)
                m1 += c * s1
                m2 += c * s2
                count += c
                if edges is not None:
                    hits.append((depth, at))
            else:
                g += c * (s2 - s1)
        gap[depth], mass_1[depth], mass_2[depth] = g, m1, m2
        if edges is not None:
            edges.append(layer.edges)
            if count > WITNESS_WORD_CAP:
                edges = None
    listed = None if edges is None else tuple(spell_words(edges, hits, lmc.alphabet))
    witness = WitnessSummary(
        word_count=count,
        mass_1=depth_total(mass_1, base, ratio),
        mass_2=depth_total(mass_2, base, ratio),
        words=listed,
    )
    return DistanceReport(
        distance=depth_total(gap, base, ratio) / 2,
        witness=witness,
        enumerated_words=enumerated,
    )


def lk_distance_acyclic(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Fraction:
    """Exact k-th power-sum distance: sum over words of |p1(w) - p2(w)|^k.

    For k = 1 this is twice the total variation distance.  It needs only
    p1 - p2, so it walks the difference vector like the threshold decision
    (``_power_sum``), and ``budget`` caps the distinct difference vectors.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"exponent must be an integer >= 1, got {k!r}")
    require_acyclic(lmc)
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    return _power_sum(lmc, pi1, pi2, k, budget)


def _integer(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"certificate value {x} is not an integer")
    return x.numerator


def threshold_decide_acyclic(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    tau: Fraction | int,
    strict: bool = True,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ThresholdCertificate:
    """Decide distance > tau (strict) or >= tau by an exact integer inequality.

    Let D be the lcm of tau's denominator, the chain's common denominator L
    and the two starts' L_pi (``integer_form``), and let n be the length of
    the longest support word.  A word w of length at most n has probability
    x / (L_pi * L**(|w|+1)) for an integer x under each start, so
    2 D**(n+2) distance is an integer.  The certificate compares
    lhs = 2 D**(n+2) distance with rhs = 2 D**(n+2) tau (plus 1 when
    strict), two integers, so the decision needs no division at all.  Both
    sides are returned so the decision can be audited.

    The walk itself runs on the smaller denominators of the prefix walker:
    one integer difference vector per prefix, over L_pi * L**d at depth d
    (L and L_pi the lcms of the chain's and the starts' denominators), with
    prefixes of equal difference vector merged (``_power_sum`` with k = 1;
    the budget caps the distinct vectors).  Its sum is 2 * distance
    exactly, which is then rescaled to lhs.
    """
    lengths = support_lengths(lmc)  # raises DomainError on a cycle
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    tau = as_fraction(tau, "threshold")
    if not (0 <= tau <= 1):
        raise DomainError(f"threshold must lie in [0, 1], got {tau}")

    denominator = math.lcm(
        tau.denominator, lmc.integer_form[0], pi1.integer_form[0], pi2.integer_form[0]
    )
    n = max((lengths[i] for i in {*pi1.support(), *pi2.support()} if lengths[i] is not None), default=0)

    power = denominator ** (n + 2)
    lhs = _integer(_power_sum(lmc, pi1, pi2, 1, budget, n) * power)
    rhs = _integer(2 * tau * power) + (1 if strict else 0)
    return ThresholdCertificate(
        decision=lhs >= rhs,
        lhs_integer=lhs,
        rhs_integer=rhs,
        denominator_product=denominator,
        support_length=n,
    )


def are_equivalent(lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution) -> bool:
    """True when both starts give every word identical probability.

    Works for cyclic chains: the set of prefix-difference vectors spans a
    subspace of dimension at most |Q|, so closing a basis of it under every
    transition matrix and checking each basis vector against the end-of-word
    vector decides equivalence in polynomial time.  The basis is kept by
    ``model.eliminate`` as primitive integer rows, advanced over
    ``Lmc.integer_form``: span membership and whether eta . v is zero do
    not change when v is scaled by a nonzero integer, so no Fraction is
    needed.
    """
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    _, rows, eow = lmc.integer_form
    queue = [_difference(pi1, pi2)[1]]
    basis: list = []  # (pivot, primitive row)
    for v in queue:  # grows while it is read: breadth-first
        v = eliminate(v, basis)
        if not v:
            continue
        if stop_mass(v, eow) != 0:
            return False
        basis.append((min(v), v))
        if len(basis) > lmc.n_states:  # cannot happen: dimensions are bounded by |Q|
            raise AssertionError("independent set exceeded the space dimension")
        queue.extend(advance(v, r) for r in rows)
    return True


def brute_force_best_event(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    max_len: int,
    support_cap: int = 20,
    budget: int = 10**6,
) -> tuple[tuple[tuple[str, ...], ...], Fraction]:
    """Maximize p1(W) - p2(W) over every subset of the length-bounded support.

    An independent oracle for the enumeration-based distance: it inspects all
    2^m subsets of the at-most-``support_cap`` support words of length at most
    ``max_len``.  Among maximizing subsets it returns the largest, which is
    exactly the canonical tie convention (every word with p1 >= p2 included).
    """
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    check_length(max_len, "length cutoff")
    base, words = _pair_walk(lmc, pi1, pi2, budget, max_len=max_len)
    ratio = lmc.integer_form[0]
    # Gaps on the common scale base * ratio**max_len.
    found: list[tuple[tuple[str, ...], int]] = []
    for path, s1, s2 in words:
        word = tuple(lmc.alphabet[li] for li in path)
        found.append((word, (s1 - s2) * ratio ** (max_len - len(path))))
        if len(found) > support_cap:
            raise OracleInfeasibleError(
                f"more than {support_cap} support words of length <= {max_len}; "
                f"the exhaustive-subset oracle only handles tiny supports"
            )
    m = len(found)
    best_value = 0
    best_size = 0
    best_mask = 0
    value = 0
    size = 0
    mask = 0
    # Walk all subsets in Gray-code order so each step flips a single word.
    for g in range(1, 1 << m):
        bit = (g & -g).bit_length() - 1
        mask ^= 1 << bit
        if (mask >> bit) & 1:
            value += found[bit][1]
            size += 1
        else:
            value -= found[bit][1]
            size -= 1
        if value > best_value or (value == best_value and size > best_size):
            best_value, best_size, best_mask = value, size, mask
    chosen = tuple(word for i, (word, _) in enumerate(found) if (best_mask >> i) & 1)
    return chosen, Fraction(best_value, base * ratio**max_len)
