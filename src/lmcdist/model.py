"""Labelled Markov chains over exact rationals.

A chain is a finite state set, a finite alphabet, the transitions of each
label, and a per-state end-of-word probability.  Started from an initial
distribution it emits a label and moves, or stops; that induces a probability
distribution on finite words, which is the object everything else in this
package analyses.

Contents:

* ``Lmc`` and ``InitialDistribution`` -- immutable model types, each
  stored in its integer form only (``integer_form``: integers over a common
  denominator, sparse); ``Lmc.sparse_rows``, ``Lmc.eow``, the dense
  ``Lmc.matrices`` and ``InitialDistribution.weights`` are Fraction views
  for readers outside the library, built on first use.
* ``validate`` -- semantic invariant violations, returned as data.
* ``word_probability`` -- exact probability of a single word.
* ``is_acyclic`` / ``max_support_length`` -- shape of the word support.
* ``tail_mass`` -- exact probability of emitting a word longer than n, from
  the per-state tails ``state_tails`` (also behind ``approx.length_bound``).
* ``disjoint_union`` -- embed two chains in one state space so that a single
  analysis can compare their induced distributions.
* ``walk_layers`` -- the breadth-first prefix walk behind the exact
  distance, power sums, threshold certificates and the majority-witness
  search: one entry per distinct prefix vector per depth, weighted by how
  many words reach it.
* ``walk_prefixes`` -- the depth-first walk, one node per word, kept for the
  exhaustive-subset oracle (an independent route), ``spell_words`` and the
  top half of the bounded estimator's tree, whose cyclic chains merge few
  vectors, so one path takes less memory than a whole layer; the estimator reads the bottom
  half from a table of suffix stop vectors (``approx._SuffixTable``).
* Both walk integer vectors over a common denominator (``Lmc.integer_form``);
  ``depth_total`` reads per-depth sums out as one Fraction.
* ``eliminate`` -- the one fraction-free elimination on the same integer
  vectors, behind equivalence and the PA reduction's linear solve.

Probabilities enter and leave as ``fractions.Fraction``; floats are rejected
so that no silent rounding can creep in.  Inside, every vector kernel (the
walkers, ``word_probability``, ``state_tails``, ``eliminate``) runs on
integers over a common denominator: the same rationals times a known power
of it, so it is exact too; so are ``validate``, the range and sum checks
of ``InitialDistribution`` and the exact sampler's tables
(``approx._Sampler._table``).  ``Lmc`` and ``Lmc.from_integer_form`` check
each row in one pass: all its targets (int, in range, strictly ascending),
then its entries' exactness (Fractions or ints, or ints over the given
denominator), and keep a row of plain nonzero pairs as it is.  The
Fraction views are read only by ``floatk.RoundedModel``, which rounds each
probability to k bits on its own, and by callers outside the library.  All
model types are frozen and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceededError, DomainError

ZERO = Fraction(0)
ONE = Fraction(1)

#: A dense square matrix of exact probabilities.
Matrix = tuple[tuple[Fraction, ...], ...]

#: A word is any sequence of labels.
Word = Sequence[str]

#: Sparse row form: for each source state, the (target, probability) pairs
#: with a nonzero probability, targets strictly ascending.
SparseRows = tuple[tuple[tuple[int, Fraction], ...], ...]

#: Sparse rows scaled by a common denominator to integers.
IntRows = tuple[tuple[tuple[int, int], ...], ...]


@contextmanager
def no_digit_limit() -> Iterator[None]:
    """Lift the interpreter's int/str digit limit inside the block, and
    restore it after.  The limit guards the parsing of input; an exact
    number in a message or a report is formatted in full."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def as_fraction(value: Fraction | int, what: str = "value") -> Fraction:
    """Coerce ints to Fraction; reject floats and anything else inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(
        f"{what} must be an exact rational (Fraction or int), got {type(value).__name__}"
    )


def _as_int(value: Any, what: str) -> int:
    """An entry of an integer form: an int and nothing else (not a bool)."""
    if type(value) is int:
        return value
    raise DomainError(f"{what} must be an int, got {type(value).__name__}")


def _check_rows(rows, size: int, label: str, kind: type) -> tuple:
    """One label's rows, checked and copied in one pass per row: every
    target of a row (an int, in range, strictly ascending) before any of its
    entries, which must be of type ``kind`` (Fractions may also be given as
    ints); zero pairs are dropped.  A row that is already a tuple of such
    pairs, none zero, is kept as it is."""
    rows = tuple(rows)
    if len(rows) != size:
        raise DomainError(f"label {label!r} has {len(rows)} rows, expected {size}")
    out = []
    for row in rows:
        if type(row) is not tuple:
            row = tuple(row)
        if not row:
            out.append(())
            continue
        last = -1
        kept = True
        for e in row:
            if isinstance(e, tuple) and len(e) == 2:
                j, p = e
                if type(j) is int and last < j < size:
                    last = j
                    if type(p) is not kind or not p or type(e) is not tuple:
                        kept = False
                    continue
            raise DomainError(
                f"a row for label {label!r} must hold (target, probability) pairs "
                f"with int targets in [0, {size}), strictly ascending"
            )
        if not kept:
            coerce, what = (
                (as_fraction, "transition probability") if kind is Fraction else (_as_int, "transition entry")
            )
            what = f"{what} for label {label!r}"
            row = tuple((j, p) for j, p in ((j, p if type(p) is kind else coerce(p, what)) for j, p in row) if p)
        out.append(row)
    return tuple(out)


class _Frozen:
    """An immutable value: no attribute can be set or deleted after
    construction (constructors fill ``__dict__`` directly, and so does
    ``cached_property``), and equality, hash and repr read the attributes
    named in ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__name__}({parts})"


def _chain_parts(states, alphabet, rows, eow, kind: type) -> tuple:
    """``(states, alphabet, rows, eow)`` as tuples, checked in order: the
    names, one row set per label (``_check_rows``), and one end-of-word
    entry of type ``kind`` per state (Fractions may also be given as ints)."""
    states = tuple(states)
    alphabet = tuple(alphabet)
    if not states:
        raise DomainError("a chain needs at least one state")
    if len(set(states)) != len(states):
        raise DomainError("state names must be unique")
    if len(set(alphabet)) != len(alphabet):
        raise DomainError("labels must be unique")
    n = len(states)
    rows = tuple(rows)
    if len(rows) != len(alphabet):
        raise DomainError(f"got {len(rows)} row sets for {len(alphabet)} labels")
    rows = tuple(_check_rows(r, n, a, kind) for r, a in zip(rows, alphabet))
    coerce, what = (
        (as_fraction, "end-of-word probability") if kind is Fraction else (_as_int, "end-of-word entry")
    )
    eow = tuple(e if type(e) is kind else coerce(e, what) for e in eow)
    if len(eow) != n:
        raise DomainError(f"end-of-word vector has length {len(eow)}, expected {n}")
    return states, alphabet, rows, eow


def _check_denominator(den: Any) -> None:
    if type(den) is not int or den < 1:
        raise DomainError(f"common denominator must be a positive int, got {den!r}")


class Lmc(_Frozen):
    """A labelled Markov chain.

    The stored form is ``integer_form = (L, rows, eow)``: L is the lcm of
    every transition and end-of-word denominator; ``rows`` holds, per label
    (aligned with ``alphabet``) and source state, the nonzero ``(target,
    probability * L)`` pairs, targets strictly ascending; ``eow`` is the
    per-state probability of stopping (ending the word), times L.  It is in
    lowest terms, so equal chains have equal integer forms.
    ``sparse_rows`` and ``eow`` are the same as Fractions and ``matrices``
    dense, all three views built on first use for readers outside the
    library.

    ``Lmc(states, alphabet, sparse_rows, eow)`` takes Fraction (or int)
    entries, ``from_integer_form`` the integers and L.  Construction checks
    shape and exactness only -- semantically broken models are
    representable on purpose so that :func:`validate` can report their
    violations as data.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    integer_form: tuple[int, tuple[IntRows, ...], tuple[int, ...]]
    _fields = ("states", "alphabet", "integer_form")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        sparse_rows: Iterable,
        eow: Iterable[Fraction | int],
    ):
        states, alphabet, rows, eow = _chain_parts(states, alphabet, sparse_rows, eow, Fraction)
        # The lcm of the reduced denominators leaves the integers in lowest terms.
        den = math.lcm(
            *{p.denominator for label_rows in rows for row in label_rows for _, p in row},
            *{e.denominator for e in eow},
        )
        self.__dict__.update(
            states=states,
            alphabet=alphabet,
            integer_form=(
                den,
                tuple(
                    tuple(tuple((j, _times(p, den)) for j, p in row) for row in label_rows)
                    for label_rows in rows
                ),
                tuple(_times(e, den) for e in eow),
            ),
        )

    # -- builders -----------------------------------------------------------

    @classmethod
    def from_integer_form(
        cls,
        states: Sequence[str],
        alphabet: Sequence[str],
        den: int,
        rows: Iterable,
        eow: Iterable[int],
    ) -> "Lmc":
        """A chain from its integer form: every transition and end-of-word
        entry an int, the probability times ``den``.  The rows are checked
        as the constructor checks Fraction rows, and the result is reduced
        to lowest terms, so it equals the chain built from the Fractions."""
        states, alphabet, rows, eow = _chain_parts(states, alphabet, rows, eow, int)
        _check_denominator(den)
        g = math.gcd(den, *eow, *(x for label_rows in rows for row in label_rows for _, x in row))
        if g > 1:
            den //= g
            rows = tuple(
                tuple(tuple((j, x // g) for j, x in row) for row in label_rows) for label_rows in rows
            )
            eow = tuple(e // g for e in eow)
        return cls._built(states, alphabet, (den, rows, eow))

    @classmethod
    def _built(cls, states: tuple, alphabet: tuple, integer_form: tuple) -> "Lmc":
        """A chain stored as given, unchecked: for a caller that built its
        parts to every invariant ``from_integer_form`` checks."""
        self = cls.__new__(cls)
        self.__dict__.update(states=states, alphabet=alphabet, integer_form=integer_form)
        return self

    @classmethod
    def from_transitions(
        cls,
        states: Sequence[str],
        alphabet: Sequence[str],
        transitions: Iterable[tuple[str, str, str, Fraction | int]],
        eow: Mapping[str, Fraction | int],
    ) -> "Lmc":
        """Build a chain from (source, label, target, probability) records.

        States absent from ``eow`` get end-of-word probability 0.  Duplicate
        (source, label, target) records are rejected rather than summed.
        """
        states = tuple(states)
        alphabet = tuple(alphabet)
        sidx = {s: i for i, s in enumerate(states)}
        lidx = {a: i for i, a in enumerate(alphabet)}
        if len(sidx) != len(states):
            raise DomainError("state names must be unique")
        if len(lidx) != len(alphabet):
            raise DomainError("labels must be unique")
        # Every name and duplicate fault is raised before any value is coerced.
        rows: list[list[dict[int, Any]]] = [[{} for _ in states] for _ in alphabet]
        for src, label, tgt, value in transitions:
            if src not in sidx or tgt not in sidx or label not in lidx:
                raise DomainError(name_fault(src, label, tgt, sidx, lidx))
            row = rows[lidx[label]][sidx[src]]
            if sidx[tgt] in row:
                raise DomainError(f"duplicate transition {src!r} --{label!r}--> {tgt!r}")
            row[sidx[tgt]] = value
        for state in eow:
            if state not in sidx:
                raise DomainError(f"end-of-word entry names unknown state {state!r}")
        sparse = [
            [
                sorted(
                    (j, p if type(p) is Fraction else as_fraction(p, "transition probability"))
                    for j, p in row.items()
                )
                for row in label_rows
            ]
            for label_rows in rows
        ]
        eow_vec = [as_fraction(eow.get(s, ZERO), "end-of-word probability") for s in states]
        return cls(states, alphabet, sparse, eow_vec)

    # -- lookups ------------------------------------------------------------

    @cached_property
    def state_index(self) -> Mapping[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def label_index(self) -> Mapping[str, int]:
        return {a: i for i, a in enumerate(self.alphabet)}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def transition_records(self) -> list[tuple[str, str, str, Fraction]]:
        """All nonzero transitions as (source, label, target, probability),
        by label, then source, then target."""
        den, rows, _ = self.integer_form
        return [
            (self.states[i], label, self.states[j], Fraction(x, den))
            for label, label_rows in zip(self.alphabet, rows)
            for i, row in enumerate(label_rows)
            for j, x in row
        ]

    # -- views and derived forms, built on first use -------------------------

    @cached_property
    def sparse_rows(self) -> tuple[SparseRows, ...]:
        """Per label and source state, the nonzero ``(target, probability)``
        pairs as Fractions: a view of ``integer_form``."""
        den, rows, _ = self.integer_form
        return tuple(
            tuple(tuple((j, Fraction(x, den)) for j, x in row) for row in label_rows)
            for label_rows in rows
        )

    @cached_property
    def eow(self) -> tuple[Fraction, ...]:
        """Per state, the end-of-word probability as a Fraction: a view of
        ``integer_form``."""
        den, _, eow = self.integer_form
        return tuple(Fraction(e, den) for e in eow)

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """Per label, the dense |Q| x |Q| matrix: a view for readers outside
        the library."""
        n = range(self.n_states)
        return tuple(
            tuple(tuple(dict(row).get(j, ZERO) for j in n) for row in rows)
            for rows in self.sparse_rows
        )

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per state: targets reachable by one positive-probability step."""
        targets: list[set[int]] = [set() for _ in self.states]
        for label_rows in self.integer_form[1]:
            for out, row in zip(targets, label_rows):
                for j, x in row:
                    if x > 0:
                        out.add(j)
        return tuple(tuple(sorted(out)) for out in targets)


def name_fault(src: str, label: str, tgt: str, sidx: Mapping, lidx: Mapping) -> str | None:
    """What is wrong with the names of a (source, label, target) record, if
    anything, given the state and label indices."""
    for name, role in ((src, "source"), (tgt, "target")):
        if name not in sidx:
            return f"transition {role} {name!r} is not a declared state"
    return None if label in lidx else f"transition label {label!r} is not in the alphabet"


class InitialDistribution(_Frozen):
    """An exact probability distribution over the states of a chain.

    The stored form is ``integer_form = (L_pi, weights)``: L_pi is the lcm of
    the weights' denominators and ``weights`` the ``(state, weight * L_pi)``
    pairs of the nonzero weights, states ascending, in lowest terms.  The
    attribute ``weights`` is the per-state Fraction view, built on first
    use.  Unlike :class:`Lmc`, construction enforces the invariants (entries
    in [0, 1], total exactly 1), on the integers: a broken start
    distribution is never useful.
    """

    n_states: int
    integer_form: tuple[int, tuple[tuple[int, int], ...]]
    _fields = ("n_states", "integer_form")

    def __init__(self, weights: Iterable[Fraction | int]):
        weights = tuple(w if type(w) is Fraction else as_fraction(w, "initial weight") for w in weights)
        if not weights:
            raise DomainError("an initial distribution needs at least one state")
        den = common_denominator(weights)
        self._set(len(weights), den, tuple((i, _times(w, den)) for i, w in enumerate(weights) if w))

    @classmethod
    def from_integer_form(
        cls, n_states: int, den: int, weights: Iterable[tuple[int, int]]
    ) -> "InitialDistribution":
        """A start over ``n_states`` states from ``(state, weight * den)``
        pairs, states strictly ascending (an omitted state has weight 0);
        checked like Fraction weights and reduced to lowest terms."""
        if type(n_states) is not int or n_states < 1:
            raise DomainError("an initial distribution needs at least one state")
        _check_denominator(den)
        pairs = []
        last = -1
        for e in weights:
            if not (isinstance(e, tuple) and len(e) == 2 and type(e[0]) is int and last < e[0] < n_states):
                raise DomainError(
                    f"initial weights must be (state, int) pairs with int states in "
                    f"[0, {n_states}), strictly ascending"
                )
            last = e[0]
            x = _as_int(e[1], "initial weight entry")
            if x:
                pairs.append((last, x))
        g = math.gcd(den, *(x for _, x in pairs))
        self = cls.__new__(cls)
        self._set(n_states, den // g, tuple((i, x // g) for i, x in pairs) if g > 1 else tuple(pairs))
        return self

    def _set(self, n_states: int, den: int, pairs: tuple[tuple[int, int], ...]) -> None:
        total = 0
        for i, x in pairs:
            if not 0 <= x <= den:
                with no_digit_limit():
                    raise DomainError(f"initial weight at position {i} is {Fraction(x, den)}, outside [0, 1]")
            total += x
        if total != den:
            with no_digit_limit():
                raise DomainError(f"initial weights sum to {Fraction(total, den)}, expected exactly 1")
        self.__dict__.update(n_states=n_states, integer_form=(den, pairs))

    @classmethod
    def dirac(cls, lmc: Lmc, state: str) -> "InitialDistribution":
        """All mass on one state."""
        try:
            idx = lmc.state_index[state]
        except KeyError:
            raise DomainError(f"state {state!r} is not in the chain") from None
        return cls.from_integer_form(lmc.n_states, 1, ((idx, 1),))

    @classmethod
    def from_map(cls, lmc: Lmc, weights: Mapping[str, Fraction | int]) -> "InitialDistribution":
        """Build from a state->weight map; omitted states get weight 0."""
        check_start_names(lmc, weights)
        return cls(tuple(as_fraction(weights.get(s, ZERO), "initial weight") for s in lmc.states))

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """Per state, the weight as a Fraction: a view of ``integer_form``."""
        den, pairs = self.integer_form
        out = [ZERO] * self.n_states
        for i, x in pairs:
            out[i] = Fraction(x, den)
        return tuple(out)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.integer_form[1])


def check_start_names(lmc: Lmc, names: Iterable[str]) -> None:
    """Raise ``DomainError`` for the first name that is not a state of the
    chain."""
    for state in names:
        if state not in lmc.state_index:
            raise DomainError(f"initial distribution names unknown state {state!r}")


# -- shared sparse-vector plumbing (used by the analysis modules too) --------


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators (1 when there are none)."""
    return math.lcm(*{v.denominator for v in values})


def _times(x: Fraction, den: int) -> int:
    """x * den for a den that x's denominator divides."""
    return x.numerator * (den // x.denominator)


def rows_by_state(rows: Sequence[IntRows], n: int) -> list[list[tuple[int, tuple]]]:
    """Per source state, the ``(label index, row)`` pairs of every label with
    a nonempty row there: a step from a vector reads only the rows of its
    support."""
    out: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for li, label_rows in enumerate(rows):
        for group, row in zip(out, label_rows):
            if row:
                group.append((li, row))
    return out


def start_vector(pi: InitialDistribution, den: int, offset: int = 0) -> dict[int, int]:
    """``pi``'s weights times ``den`` as a sparse integer vector on states
    ``offset``.. ; the start's own denominator must divide ``den``."""
    den_pi, pairs = pi.integer_form
    ratio = den // den_pi
    return {i + offset: x * ratio for i, x in pairs}


def scale(weights: Sequence[Fraction], den: int) -> dict[int, int]:
    """Sparse integer vector of ``weights`` times ``den``; every denominator
    must divide ``den``."""
    return {i: _times(w, den) for i, w in enumerate(weights) if w}


def advance(vec: dict, rows: SparseRows | IntRows) -> dict:
    """One step of vector-times-matrix in sparse form (Fractions or ints)."""
    out: dict = {}
    for i, x in vec.items():
        for j, p in rows[i]:
            prev = out.get(j)
            out[j] = x * p if prev is None else prev + x * p
    # Difference vectors can cancel; sums of positive terms cannot.
    return {j: v for j, v in out.items() if v}


def stop_mass(vec: dict, eow: Sequence) -> Fraction | int:
    """Probability of stopping right now, given the sparse prefix vector.

    Integer in, integer out: with an integer vector over ``L_pi * L**d`` and
    the end-of-word vector times L, the result is over ``L_pi * L**(d+1)``.
    """
    total = 0
    for i, x in vec.items():
        e = eow[i]
        if e:
            total += x * e
    return total


def eliminate(vec: dict[int, int], echelon: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """Fraction-free reduction of an integer vector by ``(pivot, row)``
    echelon rows, each reduced this way before it was added: ``v = p*v -
    c*row`` clears each pivot, then the gcd is divided out.  Returns ``{}``
    for a vector in the rows' span, else a primitive vector that is zero at
    every pivot."""
    for pivot, row in echelon:
        c = vec.get(pivot)
        if c:
            p = row[pivot]
            out = {j: p * x for j, x in vec.items()}
            for j, y in row.items():
                out[j] = out.get(j, 0) - c * y
            vec = {j: x for j, x in out.items() if x}
    g = math.gcd(*vec.values())
    return {j: x // g for j, x in vec.items()} if g > 1 else vec


# -- the prefix walkers ------------------------------------------------------
#
# Every exact enumeration in the package walks one tree: the root is the empty
# word and a word's children are its one-letter extensions in alphabet order.
# Vectors travel as integers over a common denominator: with L the lcm of the
# chain's transition and end-of-word denominators (``Lmc.integer_form``) and
# L_pi the lcm of the start denominators, a prefix vector at depth d is an
# integer vector over L_pi * L**d and its stop mass an integer over
# L_pi * L**(d+1).  Deciding p1(w) >= p2(w) is then one integer comparison,
# and sums are kept per depth and turned into a single Fraction at the end
# (``depth_total``).
#
# What happens after a prefix w depends on w only through its vectors, so
# words that reach equal vectors are interchangeable.  ``walk_layers`` walks
# depth by depth and keeps one entry per distinct node with the number of
# words that reach it; callers weight every sum by that multiplicity.  On the
# reduction instances of the paper thousands of words collapse to a few
# hundred entries; a node that carries its word carries the least one.
# ``walk_prefixes`` visits every word and holds only the current path: it
# stays for the subset oracle, an independent route, for ``spell_words``, and
# for the top half of the bounded estimator's tree, whose cyclic chains merge
# few vectors while a layer of their prefix tree grows with the alphabet at
# every depth.


def walk_prefixes(
    root: Any,
    step: Callable[[Any, int], Sequence[Any] | None],
    budget: int | None = None,
) -> Iterator[tuple[list[int], Any]]:
    """Depth-first walk of the prefix tree from ``root``, in alphabet order.

    Yields ``(path, node)`` for the root and then for every node that
    ``step`` produces; ``path`` holds the label indices from the root and is
    reused by the walk, so copy it to keep it.  After a node is yielded,
    ``step(node, depth)`` gives its children, one per label with None for a
    pruned child, or None to prune the whole subtree.  Every yielded node
    counts against ``budget`` (None: no cap); the first node past it raises
    ``BudgetExceededError``.
    """
    _check_budget(budget)
    path: list[int] = []
    yield path, root
    children = step(root, 0)
    if children is None:
        return
    nodes = 1
    stack = [iter(enumerate(children))]
    while stack:
        for li, child in stack[-1]:
            if child is not None:
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        nodes += 1
        if budget is not None and nodes > budget:
            raise _over_budget(budget, nodes, len(path) + 1)
        path.append(li)
        yield path, child
        children = step(child, len(path))
        if children is None:
            path.pop()
        else:
            stack.append(iter(enumerate(children)))


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 1:
        raise DomainError(f"node budget must be positive, got {budget}")


def _over_budget(budget: int, nodes: int, depth: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"enumeration exceeded the node budget of {budget} at depth {depth}",
        nodes_visited=nodes,
        depth=depth,
    )


def vector_key(vec: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """A sparse vector's sorted items: equal vectors, equal keys."""
    return tuple(sorted(vec.items()))


#: Per node of a layer: its (parent index, label index) edges.
Edges = list[list[tuple[int, int]]]


@dataclass(frozen=True)
class Layer:
    """The distinct nodes at one depth of ``walk_layers``.

    ``counts[i]`` is the number of words that reach ``nodes[i]`` and
    ``edges[i]`` its ``(parent index, label index)`` pairs into the previous
    layer, in walk order.  Nodes are ordered by the least word (in alphabet
    order) that reaches them.
    """

    depth: int
    nodes: list
    counts: list[int]
    edges: Edges


def walk_layers(
    root: Any,
    step: Callable[[Any, int], Sequence[Any] | None],
    key: Callable[[Any], Hashable],
    budget: int | None = None,
) -> Iterator[Layer]:
    """Breadth-first walk of the prefix tree from ``root``, merging nodes.

    ``step`` is as in ``walk_prefixes``; children with equal ``key`` become
    one node, whose count is the sum of the counts of the parents they come
    from.  The node object kept for a key is the first child met, which is
    the one on the least word reaching it.  Yields one ``Layer`` per depth,
    the root alone first, and stops after the first empty layer.  Every distinct node counts against
    ``budget`` (None: no cap); the first node past it raises
    ``BudgetExceededError`` with the count and the depth it reached.
    """
    _check_budget(budget)
    layer = Layer(0, [root], [1], [[]])
    visited = 1
    while layer.nodes:
        yield layer
        depth = layer.depth + 1
        index: dict[Hashable, int] = {}
        nodes: list = []
        counts: list[int] = []
        edges: Edges = []
        for parent, (node, count) in enumerate(zip(layer.nodes, layer.counts)):
            children = step(node, depth - 1)
            if children is None:
                continue
            for li, child in enumerate(children):
                if child is None:
                    continue
                k = key(child)
                at = index.get(k)
                if at is None:
                    visited += 1
                    if budget is not None and visited > budget:
                        raise _over_budget(budget, visited, depth)
                    index[k] = len(nodes)
                    nodes.append(child)
                    counts.append(count)
                    edges.append([(parent, li)])
                else:
                    counts[at] += count
                    edges[at].append((parent, li))
        layer = Layer(depth, nodes, counts, edges)


def spell_words(
    edges: Sequence[Edges], targets: Iterable[tuple[int, int]], labels: Sequence[str]
) -> list[tuple[str, ...]]:
    """Every word that reaches one of the ``targets`` (``(depth, index)``
    pairs), in the order of a depth-first walk: each word before its
    extensions, siblings in label order.  ``edges[d]`` is layer d's
    ``edges`` list.  ``walk_prefixes`` walks the targets' ancestors only,
    so it visits each prefix of a returned word once.
    """
    wanted = set(targets)
    top = max((d for d, _ in wanted), default=-1)
    needed: list[set[int]] = [set() for _ in range(top + 1)]
    for d, at in wanted:
        needed[d].add(at)
    # Forward edges among the ancestors: (depth, index) -> child per label.
    children: dict[tuple[int, int], list] = {}
    for d in range(top, 0, -1):
        for at in needed[d]:
            for parent, li in edges[d][at]:
                needed[d - 1].add(parent)
                children.setdefault((d - 1, parent), [None] * len(labels))[li] = (d, at)
    return [
        tuple(labels[li] for li in path)
        for path, node in walk_prefixes((0, 0), lambda node, _: children.get(node))
        if node in wanted
    ]


def depth_total(sums: Mapping[int, int], base: int, ratio: int) -> Fraction:
    """The sum over d of ``sums[d] / (base * ratio**d)`` as one Fraction."""
    top = max(sums, default=0)
    num = 0
    for d in range(top + 1):
        num = num * ratio + sums.get(d, 0)
    return Fraction(num, base * ratio**top)


def check_distribution(lmc: Lmc, pi: InitialDistribution, name: str = "initial distribution") -> None:
    if pi.n_states != lmc.n_states:
        raise DomainError(
            f"{name} has {pi.n_states} weights but the chain has {lmc.n_states} states"
        )


def check_length(n: int, what: str) -> None:
    """Raise ``DomainError`` unless ``n`` is a nonnegative int: a float would
    never equal a depth, and a negative length has no words."""
    if not isinstance(n, int):
        raise DomainError(f"{what} must be a nonnegative int, got {n!r}")
    if n < 0:
        raise DomainError(f"{what} must be nonnegative, got {n}")


# -- operations ---------------------------------------------------------------


def validate(lmc: Lmc) -> list[str]:
    """Check the semantic invariants; return human-readable violations.

    Checks, in order: every probability lies in [0, 1]; at every state the
    end-of-word probability plus all outgoing transition probabilities sums to
    exactly 1; every state has a positive-probability path to some state that
    can end the word.  An empty result means the chain is a well-defined
    probability distribution over finite words.
    """
    den, rows, eow = lmc.integer_form
    problems: list[str] = []
    totals = list(eow)
    for label, label_rows in zip(lmc.alphabet, rows):
        for i, row in enumerate(label_rows):
            for j, x in row:
                if not (0 <= x <= den):
                    with no_digit_limit():
                        problems.append(
                            f"transition {lmc.states[i]} --{label}--> {lmc.states[j]} "
                            f"has probability {Fraction(x, den)}, outside [0, 1]"
                        )
                totals[i] += x
    for i, e in enumerate(eow):
        if not (0 <= e <= den):
            with no_digit_limit():
                problems.append(
                    f"end-of-word probability at state {lmc.states[i]} is {Fraction(e, den)}, "
                    f"outside [0, 1]"
                )
    for i, total in enumerate(totals):
        if total != den:
            with no_digit_limit():
                problems.append(
                    f"outgoing probability at state {lmc.states[i]} sums to "
                    f"{Fraction(total, den)}, expected 1"
                )
    preds: list[list[int]] = [[] for _ in lmc.states]
    for i, targets in enumerate(lmc.successors):
        for j in targets:
            preds[j].append(i)
    for i in unstoppable(preds, eow):
        problems.append(
            f"state {lmc.states[i]} has no positive-probability path to a state "
            f"that can end the word"
        )
    return problems


def unstoppable(preds: Sequence[Iterable[int]], eow: Sequence[int]) -> list[int]:
    """The states with no positive-probability path to a state that can stop,
    ascending: ``preds[j]`` holds the sources of every positive entry into j,
    and ``eow`` the stop entries (positive where a state can stop)."""
    reached = [i for i, e in enumerate(eow) if e > 0]
    seen = set(reached)
    for j in reached:  # backward reachability; the list grows as it is read
        for i in preds[j]:
            if i not in seen:
                seen.add(i)
                reached.append(i)
    return [i for i in range(len(eow)) if i not in seen]


def word_probability(lmc: Lmc, pi: InitialDistribution, word: Word) -> Fraction:
    """Exact probability that the chain emits exactly ``word`` and stops.
    Every label is checked, also after a prefix of probability 0."""
    check_distribution(lmc, pi)
    den, rows, eow = lmc.integer_form
    den_pi, start = pi.integer_form
    vec = dict(start)
    for label in word:
        li = lmc.label_index.get(label)
        if li is None:
            raise DomainError(f"label {label!r} is not in the alphabet")
        vec = advance(vec, rows[li])
    return Fraction(stop_mass(vec, eow), den_pi * den ** (len(word) + 1))


def _topological_order(lmc: Lmc) -> list[int] | None:
    """Topological order of the positive-transition graph, or None if cyclic."""
    n = lmc.n_states
    indegree = [0] * n
    for targets in lmc.successors:
        for j in targets:
            indegree[j] += 1
    ready = deque(i for i in range(n) if indegree[i] == 0)
    order: list[int] = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for j in lmc.successors[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return order if len(order) == n else None


def is_acyclic(lmc: Lmc) -> bool:
    """True when no positive-probability cycle exists (self-loops included)."""
    return _topological_order(lmc) is not None


def support_lengths(lmc: Lmc) -> list[int | None]:
    """Per state: length of the longest word emitted with positive probability
    when starting there, or None if no word has positive probability.

    Requires an acyclic chain.
    """
    order = _topological_order(lmc)
    if order is None:
        raise DomainError("chain has a positive-probability cycle; word support is unbounded")
    eow = lmc.integer_form[2]
    longest: list[int | None] = [None] * lmc.n_states
    for i in reversed(order):
        best: int | None = 0 if eow[i] > 0 else None
        for j in lmc.successors[i]:
            lj = longest[j]
            if lj is not None and (best is None or lj + 1 > best):
                best = lj + 1
        longest[i] = best
    return longest


def max_support_length(lmc: Lmc) -> int:
    """Length of the longest positive-probability word from any state.

    Requires an acyclic chain; 0 when only the empty word (or nothing) is
    emitted.
    """
    finite = [x for x in support_lengths(lmc) if x is not None]
    return max(finite, default=0)


def state_tails(lmc: Lmc) -> Iterator[list[int]]:
    """Per-state tails T_0, T_1, ...: ``T_n[i]`` is the probability of
    emitting a word longer than n from state i, as an integer over
    ``L**(n+1)`` (L from ``Lmc.integer_form``): T_0 = L - eow * L and T_n[i]
    = sum over labels and j of (p_ij * L) * T_(n-1)[j].  Ends after the
    first all-zero T_n, since every later one is zero too."""
    den, rows, eow = lmc.integer_form
    tails = [den - e for e in eow]
    while True:
        yield tails
        if not any(tails):
            return
        tails = [sum(p * tails[j] for r in rows for j, p in r[i]) for i in range(len(tails))]


def tail_mass(lmc: Lmc, pi: InitialDistribution, n: int) -> Fraction:
    """Exact probability of emitting a word strictly longer than ``n``:
    ``pi . T_n`` (``state_tails``)."""
    check_distribution(lmc, pi)
    check_length(n, "length cutoff")
    den_pi, start = pi.integer_form
    for depth, tails in enumerate(state_tails(lmc)):
        if depth == n:
            return Fraction(stop_mass(dict(start), tails), den_pi * lmc.integer_form[0] ** (n + 1))
    return ZERO


def disjoint_union(
    m1: Lmc,
    pi1: InitialDistribution,
    m2: Lmc,
    pi2: InitialDistribution,
) -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    """Embed two same-alphabet chains into one block-diagonal chain.

    Returns the union chain and both initial distributions lifted to the
    combined state space, so distances and equivalence between the two
    originals can be computed by any single-chain analysis.  State names are
    kept when the two name sets are disjoint; otherwise every state is renamed
    with a ``1:`` / ``2:`` prefix.
    """
    check_distribution(m1, pi1, "first initial distribution")
    check_distribution(m2, pi2, "second initial distribution")
    if set(m1.alphabet) != set(m2.alphabet):
        raise DomainError(
            f"alphabets differ: {sorted(m1.alphabet)} vs {sorted(m2.alphabet)}"
        )
    if set(m1.states) & set(m2.states):
        names = tuple(f"1:{s}" for s in m1.states) + tuple(f"2:{s}" for s in m2.states)
    else:
        names = m1.states + m2.states
    n1 = m1.n_states
    den1, rows1, eow1 = m1.integer_form
    den2, rows2, eow2 = m2.integer_form
    den = math.lcm(den1, den2)
    r1, r2 = den // den1, den // den2
    rows = tuple(
        tuple(tuple((j, x * r1) for j, x in row) for row in first)
        + tuple(
            tuple((j + n1, x * r2) for j, x in row)
            for row in rows2[m2.label_index[label]]
        )
        for label, first in zip(m1.alphabet, rows1)
    )
    eow = tuple(e * r1 for e in eow1) + tuple(e * r2 for e in eow2)
    union = Lmc.from_integer_form(names, m1.alphabet, den, rows, eow)
    n = union.n_states
    lifted1 = InitialDistribution.from_integer_form(n, *pi1.integer_form)
    den_pi, pairs = pi2.integer_form
    lifted2 = InitialDistribution.from_integer_form(n, den_pi, ((i + n1, x) for i, x in pairs))
    return union, lifted1, lifted2
