"""Reductions from automata problems to distance computation.

Two generators turn classical automata questions into labelled-Markov-chain
distance instances, pinning the hardness of distance computation:

* ``nfa_to_lmc`` -- counting: for an NFA and a length n it builds a chain and
  two starting distributions whose distance determines |L(A) ∩ Σ^n|, the
  number of accepted words of that length, through the exact identity

      distance = baseline_gap + (k^n - count) / (k^n * s^n)

  with k the alphabet size, s the NFA state count, and ``baseline_gap``
  computed from the total number of accepting runs (cheap integer matrix
  powering -- no word enumeration).  ``count_from_distance`` inverts the
  identity and tolerates an estimation error below 1/3 of a count unit.

* ``pa_to_lmc`` -- optimization: for a probabilistic automaton it builds an
  instance whose distance equals a certified ``bound`` exactly when no word
  is accepted with probability above 1/2, and strictly exceeds it otherwise.
  The bound is one exact linear solve on ``model.eliminate``, the package's
  one fraction-free elimination (shared with ``exact.are_equivalent``).
  ``find_majority_witness`` searches for such a word, shortest first, with
  the package's merging breadth-first walk and its one step
  (``model._vector_step``), dropping the children that can no longer reach
  acceptance above 1/2; one witness yields an explicit event separating the
  two distributions beyond the bound.

A ``Pa`` is a chain, a start and an accepting set: an integer ``Lmc`` whose
end-of-word vector is the acceptance flags, and an ``InitialDistribution``.
Those two check the names, the rows' shape and exactness, and the weights;
``Pa`` checks only that each letter's rows are stochastic and that the
accepting states are declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, DomainError
from .model import (
    ONE,
    ZERO,
    InitialDistribution,
    Lmc,
    Matrix,
    Word,
    _Frozen,
    _vector_step,
    as_fraction,
    check_length,
    common_denominator,
    eliminate,
    no_digit_limit,
    scale,
    stop_mass,
    vector_key,
    walk_layers,
    word_probability,
)

#: Labels appended to the input alphabet by both reductions.
RESERVED_LABELS = ("b", "acc", "rej")


# -- nondeterministic finite automata ------------------------------------------


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with a single initial state.

    ``transitions`` is a set of (source, label, target) triples; acceptance
    means some run over the whole word ends in an accepting state.  The
    triples are checked in the order given (the first fault is reported).
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]

    def __post_init__(self) -> None:
        states = tuple(self.states)
        alphabet = tuple(self.alphabet)
        accepting = frozenset(self.accepting)
        given = tuple(self.transitions)
        if len(set(states)) != len(states):
            raise DomainError("state names must be unique")
        if len(set(alphabet)) != len(alphabet):
            raise DomainError("labels must be unique")
        if not alphabet:
            raise DomainError("alphabet must not be empty")
        known = set(states)
        if self.initial not in known:
            raise DomainError(f"initial state {self.initial!r} is not declared")
        for q in accepting:
            if q not in known:
                raise DomainError(f"accepting state {q!r} is not declared")
        labels = set(alphabet)
        for src, label, tgt in given:
            if src not in known or tgt not in known:
                raise DomainError(f"transition ({src!r}, {label!r}, {tgt!r}) names an unknown state")
            if label not in labels:
                raise DomainError(f"transition label {label!r} is not in the alphabet")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "transitions", frozenset(given))

    @cached_property
    def _delta(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        order = {q: i for i, q in enumerate(self.states)}
        grouped: dict[tuple[str, str], list[str]] = {}
        for src, label, tgt in self.transitions:
            grouped.setdefault((src, label), []).append(tgt)
        return {
            key: tuple(sorted(tgts, key=order.__getitem__))
            for key, tgts in grouped.items()
        }

    def successors(self, state: str, label: str) -> tuple[str, ...]:
        """Targets of ``state`` under ``label``, in declaration order."""
        return self._delta.get((state, label), ())


def count_accepted_words(nfa: Nfa, length: int, state_cap: int = 2**20) -> int:
    """|L(A) ∩ Σ^length| by determinization on the fly.

    Tracks how many words of each length lead to each reachable state subset;
    raises ``BudgetExceededError`` if more than ``state_cap`` subsets appear
    in one layer (worst case 2^s, so this is the oracle of last resort), and
    ``DomainError`` for a ``state_cap`` below 1, before any work.
    """
    check_length(length, "word length")
    if state_cap < 1:
        raise DomainError(f"subset cap must be positive, got {state_cap}")
    layer: dict[frozenset[str], int] = {frozenset({nfa.initial}): 1}
    for _ in range(length):
        nxt: dict[frozenset[str], int] = {}
        for subset, c in layer.items():
            for label in nfa.alphabet:
                succ = frozenset(
                    t for q in subset for t in nfa.successors(q, label)
                )
                nxt[succ] = nxt.get(succ, 0) + c
        if len(nxt) > state_cap:
            raise BudgetExceededError(
                f"subset construction exceeded {state_cap} subsets",
                nodes_visited=len(nxt),
            )
        layer = nxt
    return sum(c for subset, c in layer.items() if subset & nfa.accepting)


def total_accepting_runs(nfa: Nfa, length: int) -> int:
    """Accepting runs summed over *all* words of the given length.

    Unlike the accepted-word count this needs no determinization: it is one
    integer vector iterated ``length`` times through the combined adjacency
    counts.
    """
    check_length(length, "word length")
    counts = {nfa.initial: 1}
    for _ in range(length):
        nxt: dict[str, int] = {}
        for q, c in counts.items():
            for label in nfa.alphabet:
                for t in nfa.successors(q, label):
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(c for q, c in counts.items() if q in nfa.accepting)


# -- probabilistic automata -----------------------------------------------------


class Pa(_Frozen):
    """A probabilistic automaton: one stochastic matrix per letter, an initial
    distribution over states, and a set of accepting states.

    ``acceptance_probability`` of a word is the chance that the random walk
    it drives ends in an accepting state.  The automaton is stored as
    ``chain``, one sparse integer ``Lmc`` whose end-of-word vector is the
    0/1 acceptance flags, and ``start``, its initial distribution; every
    routine below reads those.  The constructor takes dense Fraction
    ``matrices`` and an ``initial`` tuple, scales the matrices to integers
    over the lcm of their denominators and builds the chain with
    ``Lmc.from_integer_form``; on an automaton ``matrices`` and ``initial``
    are views, read by no library code.  Beyond what the chain and the
    start check, the constructor checks the matrices' count and shapes,
    that every row is stochastic (``_stochastic``) and that every accepting
    state is declared (``_built``).  The file loader reads the chain and
    the start with the chain and start readers and runs the same two checks.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    accepting: frozenset[str]
    chain: Lmc
    start: InitialDistribution
    _fields = ("chain", "start", "accepting")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        matrices: Sequence[Matrix],
        initial: Sequence[Fraction | int],
        accepting: Iterable[str],
    ):
        states, alphabet, accepting = tuple(states), tuple(alphabet), frozenset(accepting)
        n = len(states)
        mats = tuple(matrices)
        if len(mats) != len(alphabet):
            raise DomainError(
                f"expected one matrix per label ({len(alphabet)}), got {len(mats)}"
            )
        dense = []
        for label, mat in zip(alphabet, mats):
            # Every entry is checked for exactness before a zero one is dropped.
            mat = tuple(tuple(as_fraction(p, "transition probability") for p in row) for row in mat)
            if len(mat) != n or any(len(row) != n for row in mat):
                raise DomainError(f"matrix for label {label!r} is not {n}x{n}")
            dense.append(mat)
        den = common_denominator(p for mat in dense for row in mat for p in row)
        rows = [[tuple(scale(row, den).items()) for row in mat] for mat in dense]
        flags = tuple(den if q in accepting else 0 for q in states)
        chain = self._stochastic(Lmc.from_integer_form(states, alphabet, den, rows, flags))
        init = tuple(initial)
        if len(init) != n:
            raise DomainError(f"initial distribution has {len(init)} entries, expected {n}")
        self.__dict__.update(self._built(chain, InitialDistribution(init), accepting).__dict__)

    @staticmethod
    def _stochastic(chain: Lmc) -> Lmc:
        """``chain`` once every row of every letter is checked on its
        integers: each entry in [0, 1], and each row summing to exactly 1."""
        den, rows, _ = chain.integer_form
        for label, label_rows in zip(chain.alphabet, rows):
            for state, row in zip(chain.states, label_rows):
                if any(x < 0 or x > den for _, x in row):
                    raise DomainError(
                        f"matrix for label {label!r} has an entry outside [0, 1] "
                        f"in the row of state {state!r}"
                    )
                total = sum(x for _, x in row)
                if total != den:
                    with no_digit_limit():
                        raise DomainError(
                            f"row of state {state!r} under label {label!r} sums to "
                            f"{Fraction(total, den)}, expected 1"
                        )
        return chain

    @classmethod
    def _built(cls, chain: Lmc, start: InitialDistribution, accepting: frozenset[str]) -> "Pa":
        """The automaton of a chain whose rows ``_stochastic`` has checked
        and whose end-of-word vector flags ``accepting``, and a start over
        its states; only the accepting names are checked here."""
        for q in accepting:
            if q not in chain.state_index:
                raise DomainError(f"accepting state {q!r} is not declared")
        self = cls.__new__(cls)
        self.__dict__.update(
            states=chain.states, alphabet=chain.alphabet, accepting=accepting, chain=chain, start=start
        )
        return self

    @property
    def matrices(self) -> tuple[Matrix, ...]:
        """Per letter, the dense stochastic matrix: a view of ``chain``."""
        return self.chain.matrices

    @property
    def initial(self) -> tuple[Fraction, ...]:
        """Per state, the initial weight: a view of ``start``."""
        return self.start.weights


def acceptance_probability(pa: Pa, word: Word) -> Fraction:
    """Exact probability that the automaton accepts the word."""
    return word_probability(pa.chain, pa.start, word)


def _live_flags(rows: Sequence, accepting: Sequence[int]) -> list[tuple[int, ...]]:
    """``live[r]``: 0/1 flags of the states that can reach an accepting state
    within r letters (``rows`` as in ``model.advance``), for r = 0, 1, ... until
    the flags stop growing; the last entry then holds for every larger r."""
    live = [tuple(accepting)]
    while True:
        prev = live[-1]
        grown = tuple(
            1 if prev[i] or any(prev[j] for r in rows for j, _ in r[i]) else 0
            for i in range(len(prev))
        )
        if grown == prev:
            return live
        live.append(grown)


def find_majority_witness(pa: Pa, max_len: int) -> Word | None:
    """Shortest word accepted with probability strictly above 1/2, trying
    lengths 0..max_len in alphabet order; None if none exists in that range,
    and ``DomainError`` for a negative max_len.

    A breadth-first walk of the prefix tree on ``(vector, word)`` nodes
    that merges prefixes with equal integer vectors (``model.walk_layers``),
    keeping the least word of each; layers are ordered by those words, so
    the first witness in the first layer that has one is the answer.  The
    children come from the walks' step (``model._vector_step``); a child
    at depth d is dropped when it is empty or twice its mass on the states
    that can still reach an accepting state within the max_len - d letters
    left is at most its scale, because no extension can then be accepted
    with more than that mass.
    """
    check_length(max_len, "word length")
    den, rows, eow = pa.chain.integer_form
    flags = tuple(1 if e else 0 for e in eow)
    den_pi, start = pa.start.integer_form
    live = _live_flags(rows, flags)
    scales = [den_pi]  # the denominator of a prefix vector, per depth
    vector_step = _vector_step(rows, pa.chain.n_states, max_len)

    def step(node, depth):
        vec, word = node
        children = vector_step(vec, depth)
        if children is None:
            return None
        left = live[min(max_len - depth - 1, len(live) - 1)]
        if depth + 1 == len(scales):
            scales.append(scales[-1] * den)
        return [
            (child, word + (letter,)) if child and 2 * stop_mass(child, left) > scales[depth + 1] else None
            for letter, child in zip(pa.alphabet, children)
        ]

    for layer in walk_layers((dict(start), ()), step, lambda node: vector_key(node[0])):
        for vec, word in layer.nodes:
            if 2 * stop_mass(vec, flags) > scales[layer.depth]:
                return word
    return None


# -- reductions -----------------------------------------------------------------


@dataclass(frozen=True)
class ReductionOutput:
    """A generated distance instance plus the quantities tying it back to the
    source problem.

    For NFA instances ``baseline_gap`` is the run-count term of the distance
    identity and ``bound`` is None; for probabilistic-automaton instances
    ``bound`` is the certified distance lower bound (attained exactly when no
    word is accepted with probability above 1/2) and ``baseline_gap`` is None.
    """

    lmc: Lmc
    pi1: InitialDistribution
    pi2: InitialDistribution
    kind: str
    params: Mapping[str, int] = field(default_factory=dict)
    baseline_gap: Fraction | None = None
    bound: Fraction | None = None


def _check_reserved(alphabet: Iterable[str]) -> None:
    clash = sorted(set(alphabet) & set(RESERVED_LABELS))
    if clash:
        raise DomainError(
            f"alphabet uses reserved label(s) {', '.join(map(repr, clash))}; "
            f"the reduction appends {', '.join(map(repr, RESERVED_LABELS))}"
        )


def nfa_to_lmc(nfa: Nfa, word_length: int) -> ReductionOutput:
    """Encode counting the NFA's accepted words of one length as a distance.

    The first start walks an n-step spine emitting uniformly random letters
    and then flags a vanishing fraction of its words with ``b``; the second
    simulates one uniformly chosen run of the automaton, emitting ``acc`` or
    ``rej`` according to where the run ends (mass that would need more than
    s simultaneous successors overflows into a reject lane).  Every word of
    length n shifts the distance by an exact multiple of 1/(k^n s^n)
    depending on whether it is accepted, giving

        distance = baseline_gap + (k^n - |L ∩ Σ^n|) / (k^n * s^n).
    """
    if word_length < 1:
        raise DomainError(f"word length must be at least 1, got {word_length}")
    _check_reserved(nfa.alphabet)
    n = word_length
    k = len(nfa.alphabet)
    s = len(nfa.states)
    ordered = (nfa.initial,) + tuple(q for q in nfa.states if q != nfa.initial)

    def run_state(i: int, q: str) -> str:
        return f"q{i}:{q}"

    spine = [f"p{i}" for i in range(n + 1)]
    lanes = [f"r{i}" for i in range(n + 1)]
    states = (
        spine
        + [run_state(i, q) for i in range(n + 1) for q in ordered]
        + lanes
        + ["eow"]
    )
    letter = Fraction(1, k)
    per_run = Fraction(1, k * s)
    transitions: list[tuple[str, str, str, Fraction]] = []
    for i in range(n):
        for a in nfa.alphabet:
            transitions.append((spine[i], a, spine[i + 1], letter))
            transitions.append((lanes[i], a, lanes[i + 1], letter))
            for q in ordered:
                succ = nfa.successors(q, a)
                for t in succ:
                    transitions.append((run_state(i, q), a, run_state(i + 1, t), per_run))
                overflow = letter * (1 - Fraction(len(succ), s))
                if overflow:
                    transitions.append((run_state(i, q), a, lanes[i + 1], overflow))
    flag = Fraction(1, s**n)
    transitions.append((spine[n], "b", "eow", flag))
    if flag != 1:
        transitions.append((spine[n], "rej", "eow", 1 - flag))
    transitions.append((lanes[n], "rej", "eow", ONE))
    for q in ordered:
        verdict = "acc" if q in nfa.accepting else "rej"
        transitions.append((run_state(n, q), verdict, "eow", ONE))
    lmc = Lmc.from_transitions(
        states,
        tuple(nfa.alphabet) + RESERVED_LABELS,
        transitions,
        {"eow": ONE},
    )
    gap = Fraction(total_accepting_runs(nfa, n), k**n * s**n)
    return ReductionOutput(
        lmc=lmc,
        pi1=InitialDistribution.dirac(lmc, spine[0]),
        pi2=InitialDistribution.dirac(lmc, run_state(0, nfa.initial)),
        kind="nfa",
        params={"word_length": n, "alphabet_size": k, "state_count": s},
        baseline_gap=gap,
    )


def count_from_distance(
    baseline_gap: Fraction,
    distance: Fraction,
    word_length: int,
    alphabet_size: int,
    state_count: int,
) -> int:
    """Recover |L ∩ Σ^n| from a distance (estimate) of an NFA instance.

    Inverts the reduction identity and rounds to the nearest integer; the
    rounding is rejected unless the estimate lands within 1/3 of a count
    unit, so an estimator certified to within 1/(4 k^n s^n) always succeeds
    and never silently returns a wrong count.
    """
    if word_length < 1 or alphabet_size < 1 or state_count < 1:
        raise DomainError("word length, alphabet size and state count must be positive")
    baseline_gap = as_fraction(baseline_gap, "baseline gap")
    distance = as_fraction(distance, "distance")
    unit = Fraction(1, alphabet_size**word_length * state_count**word_length)
    exact = alphabet_size**word_length - (distance - baseline_gap) / unit
    count = math.floor(exact + Fraction(1, 2))
    with no_digit_limit():
        if abs(count - exact) > Fraction(1, 3):
            raise DomainError(
                f"distance estimate is {abs(count - exact)} count units away from an "
                f"integer; it is not accurate enough to certify a word count"
            )
        if not 0 <= count <= alphabet_size**word_length:
            raise DomainError(
                f"recovered count {count} is outside [0, {alphabet_size**word_length}]; "
                f"the inputs do not come from a consistent instance"
            )
    return count


def _solve_linear(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve matrix @ x = rhs exactly: each augmented row [A_i | b_i], scaled
    to integers, goes through ``model.eliminate``; back-substitution, last
    row first, gives one Fraction per unknown."""
    n = len(rhs)
    echelon: list = []
    for row, b in zip(matrix, rhs):
        aug = [*row, b]
        v = eliminate(scale(aug, common_denominator(aug)), echelon)
        if not v or min(v) == n:  # a dependent row, or 0 = b_i
            raise DomainError("linear system is singular")
        echelon.append((min(v), v))
    x = [ZERO] * n
    for pivot, v in reversed(echelon):
        # v is zero left of its pivot; the unknowns right of it are solved.
        known = sum((c * x[j] for j, c in v.items() if pivot < j < n), ZERO)
        x[pivot] = (v.get(n, 0) - known) / v[pivot]
    return x


def pa_to_lmc(pa: Pa) -> ReductionOutput:
    """Encode the majority-acceptance question as a distance instance.

    The first start idles in a fresh state, emitting random letters slowly
    and flagging half its stopping mass with ``b``; the second simulates the
    automaton at matching letter rates and reports ``acc`` or ``rej``.  Each
    word w accepted with probability above 1/2 pushes the distance strictly
    above the returned ``bound``; if no such word exists the distance equals
    ``bound`` exactly.  The bound itself is one exact linear solve (total
    ``acc`` mass of the second start), not an enumeration.
    """
    _check_reserved(pa.alphabet)
    k = len(pa.alphabet)
    if k == 0:
        raise DomainError("the majority reduction needs an automaton with at least one letter")
    s = len(pa.states)
    taken = set(pa.states)

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "'"
        taken.add(name)
        return name

    start = fresh("start")
    sink = fresh("eow")
    crawl = Fraction(1, 2 * k)
    quarter = Fraction(1, 4)
    half = Fraction(1, 2)
    transitions: list[tuple[str, str, str, Fraction]] = []
    for a in pa.alphabet:
        transitions.append((start, a, start, crawl))
    transitions.append((start, "b", sink, quarter))
    transitions.append((start, "acc", sink, quarter))
    transitions.extend((src, a, tgt, p * crawl) for src, a, tgt, p in pa.chain.transition_records())
    for q in pa.states:
        verdict = "acc" if q in pa.accepting else "rej"
        transitions.append((q, verdict, sink, half))
    lmc = Lmc.from_transitions(
        (start,) + pa.states + (sink,),
        tuple(pa.alphabet) + RESERVED_LABELS,
        transitions,
        {sink: ONE},
    )
    pi1 = InitialDistribution.dirac(lmc, start)
    den_pi, weights = pa.start.integer_form
    # The automaton's states follow ``start`` in the chain.
    pi2 = InitialDistribution.from_integer_form(lmc.n_states, den_pi, ((i + 1, w) for i, w in weights))
    # Total ``acc`` mass of the second start: x solves (I - sum_a M(a)/(2k)) x
    # = chi_F / 2, here times 2kL (L the automaton's denominator, its
    # acceptance flags L or 0), so every coefficient is an integer.
    den, rows, flags = pa.chain.integer_form
    system = [[2 * k * den if i == j else 0 for j in range(s)] for i in range(s)]
    for label_rows in rows:
        for i, row in enumerate(label_rows):
            for j, x in row:
                system[i][j] -= x
    x = _solve_linear(system, [k * flag for flag in flags])
    acc_mass = sum((w * x[i] for i, w in weights), ZERO) / den_pi
    return ReductionOutput(
        lmc=lmc,
        pi1=pi1,
        pi2=pi2,
        kind="pa",
        params={"alphabet_size": k, "state_count": s},
        bound=1 - acc_mass,
    )
