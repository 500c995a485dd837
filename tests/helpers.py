"""Shared fixtures and random-instance builders for the test suite.

All randomness flows through explicitly seeded ``random.Random`` instances,
so every test is deterministic run to run.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict, deque
from fractions import Fraction

from lmcdist import InitialDistribution, Lmc, Nfa, Pa, disjoint_union
from lmcdist.approx import BoundedEstimate, length_bound, ln_upper
from lmcdist.errors import BudgetExceededError, DomainError, LengthExceededError, ParseError
from lmcdist.exact import DEFAULT_NODE_BUDGET, _pair_start
from lmcdist.floatk import precision_for
from lmcdist.formats import _WEIGHTED, _expect_dict, _expect_keys, _expect_names, _expect_str, parse_prob
from lmcdist.model import (
    ONE,
    ZERO,
    advance,
    as_fraction,
    check_distribution,
    depth_total,
    stop_mass,
    walk_prefixes,
)

# ---------------------------------------------------------------------------
# Hand-built fixtures
# ---------------------------------------------------------------------------


def half_distance_instance() -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    """Two starts at exact distance 1/2: one splits a/b evenly, one always a."""
    lmc = Lmc.from_transitions(
        ["s", "s2", "t"],
        ["a", "b"],
        [
            ("s", "a", "t", Fraction(1, 2)),
            ("s", "b", "t", Fraction(1, 2)),
            ("s2", "a", "t", 1),
        ],
        {"t": 1},
    )
    return (
        lmc,
        InitialDistribution.dirac(lmc, "s"),
        InitialDistribution.dirac(lmc, "s2"),
    )


def worked_example_pair() -> tuple[Lmc, InitialDistribution, Lmc, InitialDistribution]:
    """The two one-loop/two-state cyclic chains with pi1(aa) = 1/16 and
    pi2(aa) = 5/36."""
    first = Lmc.from_transitions(
        ["q1"],
        ["a", "b"],
        [("q1", "a", "q1", Fraction(1, 2)), ("q1", "b", "q1", Fraction(1, 4))],
        {"q1": Fraction(1, 4)},
    )
    second = Lmc.from_transitions(
        ["q2", "q3"],
        ["a", "b"],
        [
            ("q2", "a", "q2", Fraction(1, 3)),
            ("q2", "b", "q2", Fraction(1, 3)),
            ("q2", "a", "q3", Fraction(1, 3)),
            ("q3", "a", "q3", Fraction(1, 2)),
        ],
        {"q3": Fraction(1, 2)},
    )
    return (
        first,
        InitialDistribution.dirac(first, "q1"),
        second,
        InitialDistribution.dirac(second, "q2"),
    )


def worked_example_union() -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    first, pi1, second, pi2 = worked_example_pair()
    return disjoint_union(first, pi1, second, pi2)


def example_nfa() -> Nfa:
    """Two states over a two-letter alphabet; accepts words containing ``y``.

    Frozen facts (verified by brute force before the implementation existed):
    4 of the 8 words of length 3 are accepted, with 7 accepting runs in total,
    e.g. 3 runs on yyy and 0 on xxx.
    """
    return Nfa(
        states=("s1", "s2"),
        alphabet=("x", "y"),
        initial="s1",
        accepting=frozenset({"s2"}),
        transitions=frozenset(
            {
                ("s1", "x", "s1"),
                ("s1", "y", "s1"),
                ("s1", "y", "s2"),
                ("s2", "y", "s2"),
            }
        ),
    )


def always_accepting_pa() -> Pa:
    """One state, always accepting: every word has acceptance probability 1."""
    return Pa(
        states=("u",),
        alphabet=("x",),
        matrices=(((Fraction(1),),),),
        initial=(Fraction(1),),
        accepting=frozenset({"u"}),
    )


def at_most_half_pa() -> Pa:
    """Acceptance probability is exactly 1/2 for ``x`` and below 1/2 for every
    other word -- never strictly above, so no majority witness exists."""
    half = Fraction(1, 2)
    return Pa(
        states=("u", "f"),
        alphabet=("x",),
        matrices=((((half), half), (Fraction(1), Fraction(0))),),
        initial=(Fraction(1), Fraction(0)),
        accepting=frozenset({"f"}),
    )


def half_sink_pa(rng: random.Random) -> Pa:
    """Half the start mass sits in a rejecting sink, so no word is accepted
    with probability above 1/2; every other row is a random split of twelve
    twelfths over the four states."""

    def row() -> tuple[Fraction, ...]:
        cells = [0] * 4
        for _ in range(12):
            cells[rng.randrange(4)] += 1
        return tuple(Fraction(c, 12) for c in cells)

    sink = (Fraction(0),) * 3 + (Fraction(1),)
    return Pa(
        states=("u0", "u1", "u2", "t"),
        alphabet=("x", "y"),
        matrices=tuple((row(), row(), row(), sink) for _ in range(2)),
        initial=(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)),
        accepting=frozenset({"u2"}),
    )


def twin_letter_instance() -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    """A three-state line where ``a`` and ``b`` do the same thing: every
    word of one length reaches the same prefix vectors.  The first start
    emits each of the four two-letter words with probability 1/4, the
    second each one-letter word with probability 1/2: distance 1, six
    support words, and three distinct prefix-vector pairs (depths 0-2)
    against seven prefixes."""
    half = Fraction(1, 2)
    lmc = Lmc.from_transitions(
        ["s0", "s1", "s2"],
        ["a", "b"],
        [(f"s{i}", a, f"s{i + 1}", half) for i in (0, 1) for a in ("a", "b")],
        {"s2": 1},
    )
    return (
        lmc,
        InitialDistribution.dirac(lmc, "s0"),
        InitialDistribution.dirac(lmc, "s1"),
    )


def split_letters(lmc: Lmc) -> Lmc:
    """The chain with every label ``a`` split into ``a`` and ``a'``, each
    taking half of each ``a`` transition: every word has 2**len twins that
    reach the same prefix vectors, with the original probability shared
    evenly among them."""
    alphabet = tuple(lmc.alphabet) + tuple(f"{a}'" for a in lmc.alphabet)
    transitions = []
    for src, label, tgt, prob in lmc.transition_records():
        transitions.append((src, label, tgt, prob / 2))
        transitions.append((src, f"{label}'", tgt, prob / 2))
    eow = {s: e for s, e in zip(lmc.states, lmc.eow) if e}
    return Lmc.from_transitions(lmc.states, alphabet, transitions, eow)


def all_two_state_nfas() -> list[Nfa]:
    """Every NFA with states {A, B}, alphabet {x, y}, initial A: all 256
    transition sets crossed with all 4 accepting sets."""
    states = ("A", "B")
    alphabet = ("x", "y")
    triples = [(s, a, t) for s in states for a in alphabet for t in states]
    machines = []
    for mask in range(1 << len(triples)):
        trans = frozenset(t for i, t in enumerate(triples) if mask >> i & 1)
        for fmask in range(4):
            acc = frozenset(s for i, s in enumerate(states) if fmask >> i & 1)
            machines.append(
                Nfa(
                    states=states,
                    alphabet=alphabet,
                    initial="A",
                    accepting=acc,
                    transitions=trans,
                )
            )
    return machines


def accepting_run_count(nfa: Nfa, word) -> int:
    """Number of accepting runs of the automaton on the word: the reference
    the accepted-word counts are checked against."""
    counts = {nfa.initial: 1}
    for label in word:
        if label not in nfa.alphabet:
            raise DomainError(f"letter {label!r} is not in the automaton's alphabet")
        nxt: dict[str, int] = {}
        for q, c in counts.items():
            for t in nfa.successors(q, label):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(c for q, c in counts.items() if q in nfa.accepting)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_acyclic_lmc(
    rng: random.Random, max_states: int = 5, n_labels: int = 2
) -> Lmc:
    """A random acyclic chain: edges only go forward in state order, weights
    are small integers normalized per state, and any state without outgoing
    edges stops with probability 1, so validity is guaranteed."""
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    alphabet = ("a", "b", "c")[:n_labels]
    transitions = []
    eow = {}
    for i in range(n):
        weights: dict[tuple[str, int], int] = {}
        for j in range(i + 1, n):
            for a in alphabet:
                if rng.random() < 0.5:
                    weights[(a, j)] = rng.randint(1, 4)
        stop = rng.randint(0, 3)
        if not weights and stop == 0:
            stop = 1
        total = stop + sum(weights.values())
        for (a, j), w in weights.items():
            transitions.append((states[i], a, states[j], Fraction(w, total)))
        if stop:
            eow[states[i]] = Fraction(stop, total)
    return Lmc.from_transitions(states, alphabet, transitions, eow)


def random_cyclic_lmc(
    rng: random.Random, max_states: int = 4, n_labels: int = 2
) -> Lmc:
    """A random chain with cycles allowed; every state keeps a positive
    stopping probability, so validity is guaranteed."""
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    alphabet = ("a", "b", "c")[:n_labels]
    transitions = []
    eow = {}
    for i in range(n):
        weights: dict[tuple[str, int], int] = {}
        for j in range(n):
            for a in alphabet:
                if rng.random() < 0.4:
                    weights[(a, j)] = rng.randint(1, 4)
        stop = rng.randint(1, 3)
        total = stop + sum(weights.values())
        for (a, j), w in weights.items():
            transitions.append((states[i], a, states[j], Fraction(w, total)))
        eow[states[i]] = Fraction(stop, total)
    return Lmc.from_transitions(states, alphabet, transitions, eow)


def random_distribution(rng: random.Random, lmc: Lmc) -> InitialDistribution:
    size = rng.randint(1, lmc.n_states)
    support = rng.sample(list(lmc.states), size)
    weights = {s: rng.randint(1, 4) for s in support}
    total = sum(weights.values())
    return InitialDistribution.from_map(
        lmc, {s: Fraction(w, total) for s, w in weights.items()}
    )


def random_acyclic_instance(
    rng: random.Random, max_states: int = 5
) -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    lmc = random_acyclic_lmc(rng, max_states=max_states)
    return lmc, random_distribution(rng, lmc), random_distribution(rng, lmc)


def random_pa(rng: random.Random, max_states: int = 4, n_labels: int = 2) -> Pa:
    """A random probabilistic automaton started in a rejecting state, with
    quarter-step weights so that acceptance probabilities often sit near 1/2."""
    n = rng.randint(2, max_states)
    states = tuple(f"u{i}" for i in range(n))

    def row() -> tuple[Fraction, ...]:
        cells = [0] * n
        for _ in range(4):
            cells[rng.randrange(n)] += 1
        return tuple(Fraction(c, 4) for c in cells)

    return Pa(
        states=states,
        alphabet=("x", "y")[:n_labels],
        matrices=tuple(tuple(row() for _ in states) for _ in range(n_labels)),
        initial=(Fraction(1),) + (Fraction(0),) * (n - 1),
        accepting=frozenset(q for q in states[1:] if rng.random() < 0.5),
    )


def relabeled_copy(lmc: Lmc, pi: InitialDistribution, prefix: str = "t") -> tuple[Lmc, InitialDistribution]:
    """The same chain with states renamed and reordered (reversed order)."""
    names = {s: f"{prefix}{i}" for i, s in enumerate(lmc.states)}
    new_states = [names[s] for s in reversed(lmc.states)]
    transitions = [
        (names[src], label, names[tgt], prob)
        for src, label, tgt, prob in lmc.transition_records()
    ]
    eow = {names[s]: e for s, e in zip(lmc.states, lmc.eow) if e}
    copy = Lmc.from_transitions(new_states, lmc.alphabet, transitions, eow)
    weights = {names[s]: w for s, w in zip(lmc.states, pi.weights) if w}
    return copy, InitialDistribution.from_map(copy, weights)


def late_branch_pa() -> Pa:
    """Three states: ``x`` sends the start to a rejecting sink and ``y`` to an
    accepting one, so ``y`` is the only shortest majority witness and every
    word starting with ``x`` is accepted with probability 0."""
    one, zero = Fraction(1), Fraction(0)
    to_rej = ((zero, one, zero), (zero, one, zero), (zero, zero, one))
    to_acc = ((zero, zero, one), (zero, one, zero), (zero, zero, one))
    return Pa(
        states=("start", "rej", "acc"),
        alphabet=("x", "y"),
        matrices=(to_rej, to_acc),
        initial=(one, zero, zero),
        accepting=frozenset({"acc"}),
    )


def wide_denominator_instance() -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    """A five-state acyclic chain whose start table and first three states
    have odd outcome totals between 2**69 and 2**71 (11**20, 3**44, 5**30,
    7**25), so the sampler's first reads span two 64-bit refills.  A read
    that wide almost never straddles a bucket bound (chance about 2**-70 per
    bound), so state ``s3`` splits evenly three ways: its total 3 makes half
    of its first two-bit reads refine bit by bit."""
    d0, d1, d2, e = 3**44, 5**30, 7**25, 11**20
    lmc = Lmc.from_transitions(
        ["s0", "s1", "s2", "s3", "s4"],
        ["a", "b"],
        [
            ("s0", "a", "s1", Fraction(d0 // 3 + 1, d0)),
            ("s0", "b", "s2", Fraction(d0 // 3 + 2, d0)),
            ("s1", "a", "s3", Fraction(d1 // 2 + 1, d1)),
            ("s1", "b", "s2", Fraction(d1 // 7 + 3, d1)),
            ("s2", "a", "s3", Fraction(d2 // 5 + 1, d2)),
            ("s2", "b", "s3", Fraction(2 * (d2 // 5) + 1, d2)),
            ("s3", "a", "s4", Fraction(1, 3)),
            ("s3", "b", "s4", Fraction(1, 3)),
        ],
        {
            "s0": Fraction(d0 - 2 * (d0 // 3) - 3, d0),
            "s1": Fraction(d1 - d1 // 2 - d1 // 7 - 4, d1),
            "s2": Fraction(d2 - 3 * (d2 // 5) - 2, d2),
            "s3": Fraction(1, 3),
            "s4": 1,
        },
    )
    pi1 = InitialDistribution.from_map(lmc, {"s0": Fraction(e // 3 + 1, e), "s1": Fraction(e - e // 3 - 1, e)})
    pi2 = InitialDistribution.from_map(lmc, {"s0": Fraction(e // 2 + 1, e), "s2": Fraction(e - e // 2 - 1, e)})
    return lmc, pi1, pi2


# ---------------------------------------------------------------------------
# Reference sampler
# ---------------------------------------------------------------------------


def reference_choose(stream, cum: list[int], total: int) -> int:
    """Pick bucket i with probability (cum[i+1] - cum[i]) / total, exactly.

    The sampler's original one-call-per-step chooser, kept as the reference
    that the inlined draw loop must match bit for bit.  Draws bits to refine
    a dyadic interval until it fits inside one bucket of [0, 1).  The first
    draw takes ceil(log2(total)) bits at once (for power-of-two totals that
    already decides), then single bits.
    """
    if len(cum) == 2:
        return 0
    width = max(1, (total - 1).bit_length())
    a = stream.bits(width)
    scale = 1 << width
    while True:
        lo = a * total
        hi = lo + total
        for i in range(len(cum) - 1):
            upper = cum[i + 1] * scale
            if lo < upper:
                if hi <= upper:
                    return i
                break
        a = (a << 1) | stream.bit()
        scale <<= 1


def reference_cumulative(probs: list[Fraction]) -> tuple[list[int], int]:
    """Cumulative integer weights of ``probs`` over the lcm of their
    denominators, and that lcm: the tables ``reference_choose`` reads."""
    total = math.lcm(*(p.denominator for p in probs))
    cum = [0]
    for p in probs:
        cum.append(cum[-1] + p.numerator * (total // p.denominator))
    return cum, total


def reference_draw(lmc: Lmc, pi: InitialDistribution, stream, max_len: int) -> tuple[str, ...]:
    """One word drawn with ``reference_choose``, one call per choice: the
    start state, then per state the outcomes stop (if it can), then each
    positive transition in label order and target order."""
    starts = [i for i, w in enumerate(pi.weights) if w > 0]
    state = starts[reference_choose(stream, *reference_cumulative([pi.weights[i] for i in starts]))]
    word: list[str] = []
    while True:
        outs: list[tuple[str, int] | None] = [None] if lmc.eow[state] else []
        probs = [lmc.eow[state]] if lmc.eow[state] else []
        for label, matrix in zip(lmc.alphabet, lmc.matrices):
            for j, p in enumerate(matrix[state]):
                if p:
                    outs.append((label, j))
                    probs.append(p)
        pick = outs[reference_choose(stream, *reference_cumulative(probs))]
        if pick is None:
            return tuple(word)
        word.append(pick[0])
        if len(word) > max_len:
            raise LengthExceededError("trajectory too long", prefix=tuple(word))
        state = pick[1]


# ---------------------------------------------------------------------------
# Reference eliminations
# ---------------------------------------------------------------------------


def reference_equivalent(lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution) -> bool:
    """Equivalence by the dense Fraction basis closure that ``are_equivalent``
    used before it moved onto ``model.eliminate``, kept as the reference it
    must agree with."""
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    n = lmc.n_states
    eow = lmc.eow

    def eta_dot(v: list[Fraction]) -> Fraction:
        return sum((x * e for x, e in zip(v, eow) if x and e), ZERO)

    def times_matrix(v: list[Fraction], rows) -> list[Fraction]:
        out = [ZERO] * n
        for i, x in enumerate(v):
            if x:
                for j, p in enumerate(rows[i]):
                    if p:
                        out[j] += x * p
        return out

    basis: list[tuple[int, list[Fraction]]] = []  # (pivot index, pivot-normalized vector)
    queue: deque[list[Fraction]] = deque()
    queue.append([a - b for a, b in zip(pi1.weights, pi2.weights)])
    while queue:
        v = queue.popleft()
        for pivot, b in basis:
            c = v[pivot]
            if c:
                v = [x - c * y for x, y in zip(v, b)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        if eta_dot(v) != 0:
            return False
        inv = 1 / v[pivot]
        v = [x * inv for x in v]
        basis.append((pivot, v))
        if len(basis) > n:  # cannot happen: dimensions are bounded by |Q|
            raise AssertionError("independent set exceeded the space dimension")
        for rows in lmc.matrices:
            queue.append(times_matrix(v, rows))
    return True


def reference_solve(matrix, rhs) -> list[Fraction]:
    """Solve matrix @ x = rhs by the Gauss-Jordan loop over Fractions that
    ``automata._solve_linear`` used before it moved onto ``model.eliminate``,
    kept as the reference it must agree with."""
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DomainError("linear system is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# Reference Fraction kernels
# ---------------------------------------------------------------------------
#
# ``tail_mass``, ``length_bound``, ``acceptance_probability``, ``validate``
# and the sampler's ``_Sampler._table`` as they were before they moved onto
# integers over a common denominator, kept as the references the integer
# versions must equal.  The bodies are unchanged but for the names they read
# that no longer exist in the package: ``Lmc.combined_rows`` (now
# ``_combined_rows`` below, built once per call), ``model.sparsify`` (now
# ``_sparsify``), ``Pa.accepting_vector`` (now built inline) and
# ``Pa.label_index`` (now built inline).


def _sparsify(weights) -> dict[int, Fraction]:
    return {i: w for i, w in enumerate(weights) if w}


def _combined_rows(lmc: Lmc):
    """Sparse rows of the label-summed transition matrix."""
    summed = [
        [sum(cells) for cells in zip(*(mat[i] for mat in lmc.matrices))]
        for i in range(lmc.n_states)
    ]
    return tuple(tuple((j, p) for j, p in enumerate(row) if p) for row in summed)


def reference_tail_mass(lmc: Lmc, pi: InitialDistribution, n: int) -> Fraction:
    """Exact probability of emitting a word strictly longer than ``n``."""
    check_distribution(lmc, pi)
    if n < 0:
        raise DomainError(f"length cutoff must be nonnegative, got {n}")
    rows = _combined_rows(lmc)
    vec = _sparsify(pi.weights)
    stopped = stop_mass(vec, lmc.eow)
    for _ in range(n):
        vec = advance(vec, rows)
        if not vec:
            break
        stopped += stop_mass(vec, lmc.eow)
    return ONE - stopped


def reference_length_bound(lmc: Lmc, tail_budget: Fraction | int, step_cap: int = 1024) -> int:
    """A length n with tail mass at most ``tail_budget`` from *every* start."""
    lam = as_fraction(tail_budget, "tail budget")
    if lam <= 0:
        raise DomainError(f"tail budget must be positive, got {lam}")
    if step_cap < 0:
        raise DomainError(f"step cap must be nonnegative, got {step_cap}")
    # tails[q] = probability of emitting a word longer than n from state q.
    tails = [ONE - e for e in lmc.eow]
    if max(tails) <= lam:
        return 0
    rows = _combined_rows(lmc)
    n_states = lmc.n_states
    for n in range(1, step_cap + 1):
        tails = [
            sum((p * tails[j] for j, p in rows[i]), ZERO) for i in range(n_states)
        ]
        if max(tails) <= lam:
            return n
    # Certified fallback.
    positives = [e for e in lmc.eow if e > 0]
    positives.extend(p for mat in lmc.matrices for row in mat for p in row if p > 0)
    if not positives:
        raise DomainError("chain has no positive probabilities; cannot bound its tail")
    p_min = min(positives)
    if p_min == 1:
        return max(n_states - 1, 0)
    k = math.ceil(ln_upper(1 / lam) / p_min**n_states)
    return k * n_states


def reference_acceptance_probability(pa: Pa, word) -> Fraction:
    """Exact probability that the automaton accepts the word."""
    accepting_vector = tuple(ONE if q in pa.accepting else ZERO for q in pa.states)
    vec = list(pa.initial)
    n = len(pa.states)
    label_index = {a: i for i, a in enumerate(pa.alphabet)}
    for label in word:
        li = label_index.get(label)
        if li is None:
            raise DomainError(f"letter {label!r} is not in the automaton's alphabet")
        mat = pa.matrices[li]
        vec = [
            sum((vec[i] * mat[i][j] for i in range(n) if vec[i]), ZERO)
            for j in range(n)
        ]
    return sum(
        (p for p, flag in zip(vec, accepting_vector) if flag), ZERO
    )


def reference_validate(lmc: Lmc) -> list[str]:
    """Check the semantic invariants; return human-readable violations.

    Checks, in order: every probability lies in [0, 1]; at every state the
    end-of-word probability plus all outgoing transition probabilities sums to
    exactly 1; every state has a positive-probability path to some state that
    can end the word.  An empty result means the chain is a well-defined
    probability distribution over finite words.
    """
    problems: list[str] = []
    for src, label, tgt, p in lmc.transition_records():
        if not (0 <= p <= 1):
            problems.append(
                f"transition {src} --{label}--> {tgt} has probability {p}, outside [0, 1]"
            )
    for i, e in enumerate(lmc.eow):
        if not (0 <= e <= 1):
            problems.append(
                f"end-of-word probability at state {lmc.states[i]} is {e}, outside [0, 1]"
            )
    for i in range(lmc.n_states):
        total = lmc.eow[i] + sum(p for matrix in lmc.matrices for p in matrix[i])
        if total != 1:
            problems.append(
                f"outgoing probability at state {lmc.states[i]} sums to {total}, expected 1"
            )
    # Backward reachability from the states that can stop.
    can_stop = {i for i, e in enumerate(lmc.eow) if e > 0}
    preds: list[set[int]] = [set() for _ in lmc.states]
    for i, targets in enumerate(lmc.successors):
        for j in targets:
            preds[j].add(i)
    reached = set(can_stop)
    frontier = deque(can_stop)
    while frontier:
        j = frontier.popleft()
        for i in preds[j]:
            if i not in reached:
                reached.add(i)
                frontier.append(i)
    for i in range(lmc.n_states):
        if i not in reached:
            problems.append(
                f"state {lmc.states[i]} has no positive-probability path to a state "
                f"that can end the word"
            )
    return problems


def reference_sampler_table(outs: list, probs: list[Fraction], where: str) -> tuple:
    """``(outcomes, uppers, total, width, bounds)``: ``uppers`` are the
    integer cumulative weights over ``total`` (cum[1:]), ``bounds`` the
    same shifted left by the first read's ``width``."""
    if not probs:
        raise DomainError(f"cannot sample: {where} has no positive outcome")
    total = math.lcm(*(p.denominator for p in probs))
    uppers = list(itertools.accumulate(p.numerator * (total // p.denominator) for p in probs))
    if uppers[-1] != total:
        raise DomainError(
            f"cannot sample: probabilities at {where} sum to "
            f"{Fraction(uppers[-1], total)}, expected 1"
        )
    width = max(1, (total - 1).bit_length())
    return outs, uppers, total, width, [u << width for u in uppers]


def reference_bounded_classes(
    lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution, n: int
) -> tuple[Fraction, Fraction, Fraction]:
    """``(plus, mass1_lt, mass2_ge)`` over every word of length at most
    ``n``: ``plus`` the sum of (p1 - p2)+, ``mass1_lt`` the first-start mass
    of the words with p1 < p2 and ``mass2_ge`` the second-start mass of the
    rest.  Prefix vectors are dense Fraction products with ``lmc.matrices``;
    a prefix whose two vectors vanish is not extended, since every word
    below it has zero mass on both sides."""
    size = lmc.n_states
    plus = mass1_lt = mass2_ge = ZERO
    stack = [(0, list(pi1.weights), list(pi2.weights))]
    while stack:
        depth, v1, v2 = stack.pop()
        p1 = sum(x * e for x, e in zip(v1, lmc.eow))
        p2 = sum(x * e for x, e in zip(v2, lmc.eow))
        plus += max(p1 - p2, ZERO)
        if p1 < p2:
            mass1_lt += p1
        else:
            mass2_ge += p2
        if depth == n:
            continue
        for mat in lmc.matrices:
            n1 = [sum(v1[i] * mat[i][j] for i in range(size)) for j in range(size)]
            n2 = [sum(v2[i] * mat[i][j] for i in range(size)) for j in range(size)]
            if any(n1) or any(n2):
                stack.append((depth + 1, n1, n2))
    return plus, mass1_lt, mass2_ge


def reference_pair_nodes(lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution) -> int:
    """The nodes an exact pair walk of an acyclic chain visits: per depth,
    the distinct pairs (p1's, p2's prefix vector) that are not both zero,
    summed over depths.  Vectors are dense Fraction products with
    ``lmc.matrices``, one word at a time."""
    size = lmc.n_states

    def times(vec, mat):
        return tuple(sum(vec[i] * mat[i][j] for i in range(size)) for j in range(size))

    total = 0
    frontier = [(pi1.weights, pi2.weights)]  # one entry per word of this length
    while frontier:
        total += len(set(frontier))
        children = [(times(v1, mat), times(v2, mat)) for v1, v2 in frontier for mat in lmc.matrices]
        frontier = [(n1, n2) for n1, n2 in children if any(n1) or any(n2)]
    return total


def reference_reachable_chain(lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution) -> Lmc:
    """The chain on the states either start reaches with positive probability,
    found on the dense matrices and rebuilt from its transition records."""
    reached = {i for pi in (pi1, pi2) for i, w in enumerate(pi.weights) if w > 0}
    grown = True
    while grown:
        grown = False
        for mat in lmc.matrices:
            for i in list(reached):
                for j, p in enumerate(mat[i]):
                    if p > 0 and j not in reached:
                        reached.add(j)
                        grown = True
    kept = [s for i, s in enumerate(lmc.states) if i in reached]
    records = [r for r in lmc.transition_records() if r[0] in kept]
    eow = {s: e for s, e in zip(lmc.states, lmc.eow) if s in kept}
    return Lmc.from_transitions(kept, lmc.alphabet, records, eow)


def reference_tv_bounded(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    epsilon: Fraction | int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> BoundedEstimate:
    """``approx.tv_bounded`` as it was before it read the bottom levels of
    the prefix tree from a suffix table: one depth-first walk over every
    word up to the cutoff, each node advanced and both stop masses taken on
    its own.  The body is unchanged, except that the cutoff is taken from
    the states either start can reach (``reference_reachable_chain``)."""
    epsilon = as_fraction(epsilon, "epsilon")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    tail_budget = epsilon / 4
    rounding_budget = epsilon / 8
    cutoff = length_bound(reference_reachable_chain(lmc, pi1, pi2), tail_budget)
    precision = precision_for(cutoff, lmc.n_states, rounding_budget)
    den = lmc.integer_form[0]
    base, root, step, (eow1, eow2) = _pair_start(lmc, pi1, pi2, cutoff)
    # Stop masses are integers over base * den**depth.  The walk prunes where
    # both prefix vectors vanish: every word below has zero mass on both sides.
    below: defaultdict[int, int] = defaultdict(int)
    at_least: defaultdict[int, int] = defaultdict(int)
    count = 0
    try:
        for path, vec in walk_prefixes(root, step, budget):
            count += 1
            s1, s2 = stop_mass(vec, eow1), stop_mass(vec, eow2)
            if s1 < s2:
                below[len(path)] += s1
            else:
                at_least[len(path)] += s2
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc} (length cutoff {cutoff})",
            nodes_visited=exc.nodes_visited,
            depth=exc.depth,
        ) from None
    mass1_lt = depth_total(below, base, den)
    mass2_ge = depth_total(at_least, base, den)
    return BoundedEstimate(
        estimate=1 - mass1_lt - mass2_ge,
        mass1_lt=mass1_lt,
        mass2_ge=mass2_ge,
        length_cutoff=cutoff,
        precision=precision,
        tail_budget=tail_budget,
        rounding_budget=rounding_budget,
        words_enumerated=count,
    )

# ---------------------------------------------------------------------------
# The strict chain loader as it was before the one-pass checks: every record
# names its location up front, every probability is parsed where it stands,
# rows are checked target list first, and starts are checked on Fractions.
# ---------------------------------------------------------------------------


def reference_freeze_rows(rows, size: int, label: str, coerce=as_fraction, what="transition probability"):
    rows = tuple(rows)
    if len(rows) != size:
        raise DomainError(f"label {label!r} has {len(rows)} rows, expected {size}")
    what = f"{what} for label {label!r}"
    out = []
    for row in map(tuple, rows):
        targets = [e[0] if isinstance(e, tuple) and len(e) == 2 else None for e in row]
        if not all(type(j) is int and 0 <= j < size for j in targets) or targets != sorted(set(targets)):
            raise DomainError(
                f"a row for label {label!r} must hold (target, probability) pairs "
                f"with int targets in [0, {size}), strictly ascending"
            )
        pairs = [(j, coerce(p, what)) for j, p in row]
        out.append(tuple((j, p) for j, p in pairs if p))
    return tuple(out)


def _reference_int(value, what: str) -> int:
    if type(value) is not int:
        raise DomainError(f"{what} must be an int, got {type(value).__name__}")
    return value


def _reference_names(states, alphabet, rows):
    states, alphabet, rows = tuple(states), tuple(alphabet), tuple(rows)
    if not states:
        raise DomainError("a chain needs at least one state")
    if len(set(states)) != len(states):
        raise DomainError("state names must be unique")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError("labels must be unique")
    if len(rows) != len(alphabet):
        raise DomainError(f"got {len(rows)} row sets for {len(alphabet)} labels")
    return states, alphabet, rows


def reference_lmc(states, alphabet, sparse_rows, eow) -> Lmc:
    """A chain from Fraction (or int) rows and end-of-word entries, checked
    the old way first, then scaled to integers over the lcm of their
    denominators."""
    states, alphabet, sparse_rows = _reference_names(states, alphabet, sparse_rows)
    rows = tuple(reference_freeze_rows(r, len(states), a) for r, a in zip(sparse_rows, alphabet))
    eow = tuple(as_fraction(e, "end-of-word probability") for e in eow)
    den = math.lcm(*(p.denominator for r in rows for row in r for _, p in row), *(e.denominator for e in eow))
    int_rows = [[[(j, (p * den).numerator) for j, p in row] for row in r] for r in rows]
    return Lmc.from_integer_form(states, alphabet, den, int_rows, [(e * den).numerator for e in eow])


def reference_integer_lmc(states, alphabet, den, rows, eow) -> Lmc:
    """``Lmc.from_integer_form`` with its rows checked the old way, target
    list first, and reduced by the gcd of every entry."""
    states, alphabet, rows = _reference_names(states, alphabet, rows)
    rows = tuple(
        reference_freeze_rows(r, len(states), a, _reference_int, "transition entry") for r, a in zip(rows, alphabet)
    )
    eow = tuple(_reference_int(e, "end-of-word entry") for e in eow)
    if len(eow) != len(states):
        raise DomainError(f"end-of-word vector has length {len(eow)}, expected {len(states)}")
    if type(den) is not int or den < 1:
        raise DomainError(f"common denominator must be a positive int, got {den!r}")
    g = math.gcd(den, *eow, *(x for r in rows for row in r for _, x in row))
    int_rows = tuple(tuple(tuple((j, x // g) for j, x in row) for row in r) for r in rows)
    return Lmc._built(states, alphabet, (den // g, int_rows, tuple(e // g for e in eow)))


def reference_initial_weights(weights) -> tuple[Fraction, ...]:
    """The checks of ``InitialDistribution(weights)``, on Fractions."""
    weights = tuple(as_fraction(w, "initial weight") for w in weights)
    if not weights:
        raise DomainError("an initial distribution needs at least one state")
    for i, w in enumerate(weights):
        if not (0 <= w <= 1):
            raise DomainError(f"initial weight at position {i} is {w}, outside [0, 1]")
    total = sum(weights)
    if total != 1:
        raise DomainError(f"initial weights sum to {total}, expected exactly 1")
    return weights


def _reference_transitions(data: dict, keys, where: str):
    items = data["transitions"]
    if not isinstance(items, list):
        raise ParseError(f"{where}: transitions: expected an array")
    for i, item in enumerate(items):
        spot = f"{where}: transitions[{i}]"
        item = _expect_dict(item, spot)
        _expect_keys(item, keys, spot)
        yield (
            spot,
            item,
            _expect_str(item["from"], f"{spot}: from"),
            _expect_str(item["label"], f"{spot}: label"),
            _expect_str(item["to"], f"{spot}: to"),
        )


def _reference_from_transitions(states, alphabet, transitions, eow) -> Lmc:
    states = tuple(states)
    alphabet = tuple(alphabet)
    sidx = {s: i for i, s in enumerate(states)}
    lidx = {a: i for i, a in enumerate(alphabet)}
    if len(sidx) != len(states):
        raise DomainError("state names must be unique")
    if len(lidx) != len(alphabet):
        raise DomainError("labels must be unique")
    rows: list[list[dict[int, Fraction]]] = [[{} for _ in states] for _ in alphabet]
    for src, label, tgt, prob in transitions:
        if src not in sidx:
            raise DomainError(f"transition source {src!r} is not a declared state")
        if tgt not in sidx:
            raise DomainError(f"transition target {tgt!r} is not a declared state")
        if label not in lidx:
            raise DomainError(f"transition label {label!r} is not in the alphabet")
        row = rows[lidx[label]][sidx[src]]
        if sidx[tgt] in row:
            raise DomainError(f"duplicate transition {src!r} --{label!r}--> {tgt!r}")
        row[sidx[tgt]] = as_fraction(prob, "transition probability")
    for state in eow:
        if state not in sidx:
            raise DomainError(f"end-of-word entry names unknown state {state!r}")
    eow_vec = tuple(as_fraction(eow.get(s, ZERO), "end-of-word probability") for s in states)
    sparse = tuple(tuple(tuple(sorted(row.items())) for row in label_rows) for label_rows in rows)
    return reference_lmc(states, alphabet, sparse, eow_vec)


def reference_lmc_from_dict(data, strict: bool = True, where: str = "<chain>") -> Lmc:
    data = _expect_dict(data, where)
    _expect_keys(data, ("states", "alphabet", "transitions", "eow"), where)
    states = _expect_names(data["states"], f"{where}: states")
    alphabet = _expect_names(data["alphabet"], f"{where}: alphabet")
    records = [
        (src, label, tgt, parse_prob(item["prob"], f"{spot}: prob"))
        for spot, item, src, label, tgt in _reference_transitions(data, _WEIGHTED, where)
    ]
    eow_data = _expect_dict(data["eow"], f"{where}: eow")
    eow = {
        _expect_str(state, f"{where}: eow key"): parse_prob(
            prob, f"{where}: eow[{state!r}]"
        )
        for state, prob in eow_data.items()
    }
    try:
        lmc = _reference_from_transitions(states, alphabet, records, eow)
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if strict:
        violations = reference_validate(lmc)
        if violations:
            raise ParseError(f"{where}: " + "; ".join(violations))
    return lmc


def reference_distribution_from_dict(data, lmc: Lmc, where: str = "<distribution>") -> InitialDistribution:
    data = _expect_dict(data, where)
    weights = {
        _expect_str(state, f"{where}: key"): parse_prob(prob, f"{where}[{state!r}]")
        for state, prob in data.items()
    }
    try:
        for state in weights:
            if state not in lmc.state_index:
                raise DomainError(f"initial distribution names unknown state {state!r}")
        checked = reference_initial_weights(
            as_fraction(weights.get(s, ZERO), "initial weight") for s in lmc.states
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None
    return InitialDistribution(checked)
