"""Approximate distance computation with certified error bounds.

Two estimators for the total variation distance between the word
distributions of two starting points:

* ``tv_sample_acyclic`` -- statistical: draw words from each distribution with
  an exact sampler and count how often the other distribution dominates.  The
  estimate is within epsilon of the distance with probability at least
  1 - delta when each side draws ``sample_count(epsilon, delta)`` words.

* ``tv_bounded`` -- deterministic: cut the support at a length where at most
  epsilon/4 of the mass remains (``length_bound``), enumerate all words up to
  that length, and classify each word exactly by comparing its two integer
  stop masses.  The exact masses of the two classes then pin the distance to
  within epsilon/2 (only the cut tail is unknown), with no randomness and no
  cycle restriction.  The package's depth-first walk covers the top half of
  the prefix tree; each node at its bottom files its whole subtree with a
  few big-integer operations on a table of suffix stop vectors
  (``_SuffixTable``), packed as one integer per state with one fixed-width
  field per suffix.  It holds O(depth) vectors, the n packed integers of at
  most min(budget, |alphabet|**h) fields each, h = ceil(cutoff/2), and a few
  temporaries of the same size per node.

Sampling uses exact dyadic-interval refinement against rational cumulative
weights, so sampled words follow the model distribution exactly -- the only
approximation in the statistical estimator is the finite sample size.  The
integer thresholds of every choice are computed once per call.  Each node
(the start, or a state) gets, on its first visit in a call that draws more
than one word, a window table indexed by the next ``_WINDOW_BITS`` bits
of the stream, whose entry names every choice those bits decide, so one index
often draws a whole word; it holds at most 2**8 entry references, plus at most
2**8 - 1 in the narrower tables it is joined from, and equal entries are one
object.  One sampler serves one chain, so both sides of a call share its
state windows; nothing is kept between calls.  All of a side's words are drawn
in one loop (``_Sampler.tally``) that keeps the bit stream's buffer in locals
and returns how often each word was drawn; it consumes exactly the bits of a
one-choice-at-a-time refinement, so a seed replays the same words and
estimates.  The tables are built from the chain's integer form
(``Lmc.integer_form``), but each is reduced to the least denominator of its
own outcomes (``_Sampler._table``), not kept over the chain's, because another
total would change the bits a seed draws.  Each distinct word drawn on either
side is classified once, by the sign of its integer (p1 - p2) stop mass; the
words are walked in sorted order, so each distinct prefix is advanced once.
The logarithms needed for sample sizes and fallback length bounds are
certified rational upper bounds (``decimal``'s correctly rounded logarithm
plus one unit in the last of its 40 digits), so every derived count errs on
the safe side.
"""

from __future__ import annotations

import decimal
import itertools
import math
import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import BudgetExceededError, DomainError, LengthExceededError
from .exact import DEFAULT_NODE_BUDGET, _difference, _pair_start
from .floatk import floor_log2, precision_for
from .model import (
    ZERO,
    InitialDistribution,
    Lmc,
    _check_budget,
    _over_budget,
    advance,
    as_fraction,
    check_distribution,
    check_length,
    depth_total,
    max_support_length,
    state_tails,
    stop_mass,
    unstoppable,
    walk_prefixes,
    word_probability,  # noqa: F401 -- kept importable here for callers and tracers
)

#: Fixed default seed: identical invocations give identical results.
DEFAULT_SEED = 0

# -- certified logarithm upper bound ------------------------------------------


def ln_upper(x: Fraction | int) -> Fraction:
    """A rational upper bound on the natural logarithm of x, for x >= 1.

    Splits x = 2**e * r with r in [1, 2), rounds r up to 40 digits, and takes
    ``decimal``'s logarithms of 2 and of that r in a 40-digit context.  Each
    is correctly rounded, so one unit in its last place added to it bounds
    the true value from above, and e * ln 2 + ln r bounds ln x.
    """
    x = as_fraction(x, "logarithm argument")
    if x < 1:
        raise DomainError(f"logarithm bound requires an argument >= 1, got {x}")
    if x == 1:
        return ZERO
    e = floor_log2(x)
    ctx = decimal.Context(prec=40)

    def ln_up(digits: int) -> Fraction:
        """Above ln(digits * 10**-39); every step is exact or rounds in ctx."""
        y = ctx.ln(ctx.scaleb(digits, -39))
        return Fraction(ctx.add(y, ctx.scaleb(1, y.adjusted() - 39)))

    r_up = -(-x.numerator * 10**39 // (x.denominator << e))  # in [10**39, 2 * 10**39]
    return e * ln_up(2 * 10**39) + ln_up(r_up)


# -- exact sampling ------------------------------------------------------------


class BitStream:
    """A buffered stream of pseudo-random bits from a fixed, documented
    generator (Mersenne Twister), so seeded runs replay identically.

    The seed must be a nonnegative int: ``random.Random`` seeds with the
    absolute value, so a negative seed would replay its positive twin."""

    algorithm = "mt19937"

    __slots__ = ("seed", "_rng", "_buffer", "_available", "bits_consumed")

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise DomainError(f"seed must be a nonnegative int, got {seed!r}")
        self.seed = seed
        self._rng = random.Random(seed)
        self._buffer = 0
        self._available = 0
        self.bits_consumed = 0

    def bits(self, n: int) -> int:
        """The next n bits as an integer (most significant drawn first)."""
        check_length(n, "bit count")
        while self._available < n:
            self._buffer = (self._buffer << 64) | self._rng.getrandbits(64)
            self._available += 64
        self._available -= n
        self.bits_consumed += n
        chunk = (self._buffer >> self._available) & ((1 << n) - 1)
        self._buffer &= (1 << self._available) - 1
        return chunk

    def bit(self) -> int:
        return self.bits(1)


#: Bits of the stream that index a window table (2**8 entries at most).
_WINDOW_BITS = 8


class _Sampler:
    """Ancestral sampler for one chain with exact thresholds.

    Each choice (the start's table, then one table per state) picks outcome i
    with probability (cum[i+1] - cum[i]) / total by dyadic refinement: read
    ``width = ceil(log2(total))`` bits as ``a``; the interval
    [a*total, (a+1)*total) over ``total << width`` lies in one bucket or
    straddles one bound, and then each further bit halves it until it fits.
    Power-of-two totals always decide on the first read; a one-outcome table
    has width 0 and reads nothing.

    On top of that, each node (the start, or a state) has a window table
    indexed by the next ``_WINDOW_BITS`` bits of the stream.  Its entry
    ``(labels, letters, bits, next)`` names every choice those bits decide,
    in order: the node's outcome on each value, by the same first read and
    refinement (``_decided``), joined to the successor's table for the bits
    left (``_decode``), so one index often draws a whole word; ``next`` is
    the state to go on from, or -1 after a stop.  Where the window decides
    no choice (the bits run out first, or the table is wider than the
    window) or the entry has more letters than the cap leaves, the draw
    takes one choice by the refinement loop above, reading the table
    directly.  The bits read are the same either way.  A state's window is
    built on its first visit by a ``tally`` of more than one word, with the
    narrower tables of its successors that it joins (``_window``); a
    node holds at most 2**8 entry references in its window and at most
    2**8 - 1 in its narrower tables, and equal entries are one object.  The
    sampler keeps only what depends on the chain, so every start shares it;
    a start's table and window live in the ``tally`` that draws from it.
    """

    def __init__(self, lmc: Lmc):
        self._lmc = lmc
        # Outcomes: None = stop or (label, target) per state.
        den, rows, eow = lmc.integer_form
        self._tables = []
        for i in range(lmc.n_states):
            outs: list[tuple[str, int] | None] = []
            weights: list[int] = []
            if eow[i] > 0:
                outs.append(None)
                weights.append(eow[i])
            for label, label_rows in zip(lmc.alphabet, rows):
                for j, x in label_rows[i]:
                    if x > 0:
                        outs.append((label, j))
                        weights.append(x)
            self._tables.append(self._table(outs, weights, den, f"state {lmc.states[i]!r}"))
        # An unbuilt window reads None everywhere, which sends the draw loop
        # to the one-choice path; a tally of more than one word builds it
        # there.
        self._unbuilt = [None] * (1 << _WINDOW_BITS)
        self._windows = [self._unbuilt] * lmc.n_states
        self._decoded: dict[tuple[int, int], list] = {}
        self._entries: dict[tuple, tuple] = {}

    @staticmethod
    def _table(outs: list, weights: list[int], den: int, where: str) -> tuple:
        """``(outcomes, uppers, total, width)`` for weights over ``den``:
        ``total`` is their least common denominator (the same for any
        ``den``), ``uppers`` the cumulative weights over it (cum[1:]), and
        ``width`` the bits of the first read, 0 when ``total`` is 1."""
        if not weights:
            raise DomainError(f"cannot sample: {where} has no positive outcome")
        unit = math.gcd(den, *weights)
        total = den // unit
        uppers = list(itertools.accumulate(w // unit for w in weights))
        if uppers[-1] != total:
            raise DomainError(
                f"cannot sample: probabilities at {where} sum to "
                f"{Fraction(uppers[-1], total)}, expected 1"
            )
        return outs, uppers, total, (total - 1).bit_length()

    @classmethod
    def _start_table(cls, pi: InitialDistribution) -> tuple:
        """The start's table; its outcomes are ``(None, state)``."""
        den_pi, start = pi.integer_form
        outs = [(None, i) for i, _ in start]
        return cls._table(outs, [x for _, x in start], den_pi, "the initial distribution")

    def _window(self, state: int, r: int = _WINDOW_BITS) -> list:
        """The ``r``-bit table of ``state`` (memoized): ``_decode`` of its
        table, joined to its successors' tables unless it reads 0 bits."""
        decoded = self._decoded.get((state, r))
        if decoded is None:
            table = self._tables[state]
            decoded = self._decoded[state, r] = self._decode(table, r, table[3] > 0)
        return decoded

    @staticmethod
    def _decided(table: tuple, r: int) -> list[tuple[int, int]]:
        """The choice of ``table`` on each r-bit value, in order, as runs
        ``(bits, outcome)``: the values whose first ``bits`` bits decide
        ``outcome`` by the draw loop's refinement, or a single value with
        outcome -1 that leaves it undecided."""
        _, uppers, total, width = table
        runs = []

        def refine(read: int, shift: int) -> None:
            lo = read * total
            i = bisect_right(uppers, lo >> shift)
            if lo + total <= uppers[i] << shift:
                runs.append((shift, i))
            elif shift == r:
                runs.append((r, -1))
            else:
                refine(read << 1, shift + 1)
                refine(read << 1 | 1, shift + 1)

        for read in range(1 << width):
            refine(read, width)
        return runs

    def _decode(self, table: tuple, r: int, follow: bool) -> list:
        """Entry v, for each r-bit value v of the stream: the choices v
        decides, starting with ``table``'s, as one interned ``(labels,
        letters, bits, next)``, or None where v does not decide the first
        one.  With ``follow`` the first outcome is joined to the successor's
        table for the bits left; without it (a one-outcome state, so that a
        cycle of them ends) the entry stops at the successor."""
        outs, width = table[0], table[3]
        if width > r:
            return [None] * (1 << r)
        intern = self._entries.setdefault
        entries: list = []
        for used, i in self._decided(table, r):
            size = 1 << (r - used)
            if i < 0:
                entries.append(None)
                continue
            pick = outs[i]
            if pick is None:
                stop = ((), 0, used, -1)
                entries += [intern(stop, stop)] * size
                continue
            label, target = pick
            head = () if label is None else (label,)
            letters = len(head)
            previous = joined = None
            for entry in self._window(target, r - used) if follow else [None] * size:
                if joined is None or entry is not previous:
                    previous = entry
                    if entry is None:
                        joined = (head, letters, used, target)
                    else:
                        labels, n, bits, end = entry
                        joined = (head + labels, letters + n, used + bits, end)
                    joined = intern(joined, joined)
                entries.append(joined)
        return entries

    def tally(
        self, pi: InitialDistribution, stream: BitStream, max_len: int, count: int
    ) -> dict[tuple[str, ...], int]:
        """Draw ``count`` words from ``pi``; return how often each was drawn.

        Raises ``LengthExceededError`` (with the prefix) when a word passes
        ``max_len`` letters; the stream has then used exactly the bits read
        up to that letter.
        """
        check_distribution(self._lmc, pi)
        check_length(max_len, "word length cap")
        first = self._start_table(pi)
        # A window costs far more to build than one draw saves, so a single
        # draw builds none and takes the one-choice path throughout.
        build = count > 1
        # The stream's buffer lives in locals for all the draws and is written
        # back on the way out; ``drawn`` counts every bit that entered it, so
        # the bits used are ``drawn - avail``.
        getrandbits = stream._rng.getrandbits
        buf = stream._buffer
        avail = drawn = stream._available
        tables = self._tables
        windows = self._windows
        unbuilt = self._unbuilt
        start = self._decode(first, _WINDOW_BITS, True) if build else unbuilt
        bits = _WINDOW_BITS
        mask = (1 << bits) - 1
        counts: dict[tuple[str, ...], int] = {}
        try:
            for _ in range(count):
                win = start
                node = -1
                word: tuple[str, ...] = ()
                room = max_len
                while True:
                    if avail < bits:
                        buf = (buf & ((1 << avail) - 1)) << 64 | getrandbits(64)
                        avail += 64
                        drawn += 64
                    entry = win[buf >> (avail - bits) & mask]
                    if entry is not None:
                        labels, n, used, target = entry
                        if n <= room:
                            avail -= used
                            room -= n
                            word += labels
                            if target < 0:
                                break
                            node = target
                            win = windows[target]
                            continue
                    if win is unbuilt and build:
                        win = windows[node] = self._window(node)
                        continue
                    # One choice at ``node``: the first read, then one more
                    # bit at a time until the interval fits in a bucket.
                    outs, uppers, total, shift = tables[node] if node >= 0 else first
                    while avail < shift:
                        buf = (buf & ((1 << avail) - 1)) << 64 | getrandbits(64)
                        avail += 64
                        drawn += 64
                    avail -= shift
                    lo = (buf >> avail & ((1 << shift) - 1)) * total
                    i = bisect_right(uppers, lo >> shift)
                    while lo + total > uppers[i] << shift:
                        if not avail:
                            buf = getrandbits(64)
                            avail = 64
                            drawn += 64
                        avail -= 1
                        lo = (lo << 1) + total if buf >> avail & 1 else lo << 1
                        shift += 1
                        i = bisect_right(uppers, lo >> shift)
                    pick = outs[i]
                    if pick is None:
                        break
                    label, node = pick
                    if label is not None:
                        word += (label,)
                        room -= 1
                        if room < 0:
                            raise LengthExceededError(
                                f"trajectory exceeded {max_len} letters", prefix=word
                            )
                    win = windows[node]
                counts[word] = counts.get(word, 0) + 1
        finally:
            stream._buffer = buf & ((1 << avail) - 1)
            stream._available = avail
            stream.bits_consumed += drawn - avail
        return counts


def sample_word(
    lmc: Lmc, pi: InitialDistribution, rng: BitStream, max_len: int
) -> tuple[str, ...]:
    """Draw one word from the chain's distribution, exactly.

    Walks the chain choosing each step by dyadic-interval refinement against
    the exact rational transition weights, so the returned word has exactly
    its model probability: a ``_Sampler.tally`` of one word, on a sampler
    built for that word alone.  Raises ``DomainError`` for a ``max_len``
    that is not a nonnegative int, before any bit is drawn, and
    ``LengthExceededError`` if the trajectory runs past ``max_len`` letters
    (cannot happen when ``max_len`` is at least the support length of an
    acyclic chain).
    """
    (word,) = _Sampler(lmc).tally(pi, rng, max_len, 1)
    return word


def sample_count(epsilon: Fraction | int, delta: Fraction | int) -> int:
    """Samples per side for an (epsilon, delta) additive distance estimate.

    The smallest integer m with m >= (2 / epsilon^2) * ln(4 / delta), using a
    certified upper bound on the logarithm (over-approximation only increases
    m, preserving the guarantee).
    """
    epsilon = as_fraction(epsilon, "epsilon")
    delta = as_fraction(delta, "delta")
    if not 0 < epsilon <= 1:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    bound = 2 * ln_upper(4 / delta) / (epsilon * epsilon)
    return math.ceil(bound)


@dataclass(frozen=True)
class SampleEstimate:
    """A statistical distance estimate with everything needed to replay it.

    ``p_hat_1`` is the fraction of words drawn from the first distribution
    whose first-start probability is strictly below the second's; ``p_hat_2``
    the fraction of second-side draws where the first dominates (ties count).
    The estimate is 1 - p_hat_1 - p_hat_2.
    """

    estimate: Fraction
    p_hat_1: Fraction
    p_hat_2: Fraction
    samples_per_side: int
    epsilon: Fraction
    delta: Fraction
    seed: int
    rng_algorithm: str = BitStream.algorithm


def tv_sample_acyclic(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    epsilon: Fraction | int,
    delta: Fraction | int,
    seed: int = DEFAULT_SEED,
) -> SampleEstimate:
    """Estimate the distance to within epsilon with confidence 1 - delta.

    Draws ``sample_count(epsilon, delta)`` words from each start with the
    exact sampler, one ``_Sampler.tally`` call per side on one sampler of
    the chain (the second side reuses the first's state windows), classifies
    each distinct drawn word once by the sign of p1 - p2, computed exactly
    in integers, and combines the two empirical fractions.  One seeded bit
    stream drives both sides, so a fixed seed replays exactly; the seed is
    a nonnegative int.
    """
    horizon = max_support_length(lmc)  # raises DomainError on a cycle
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    m = sample_count(epsilon, delta)
    stream = BitStream(seed)
    sampler = _Sampler(lmc)
    tally1 = sampler.tally(pi1, stream, horizon, m)
    tally2 = sampler.tally(pi2, stream, horizon, m)
    # After a word w, the stop mass of diff has the sign of p1(w) - p2(w);
    # ties count as not below.
    _, rows, eow = lmc.integer_form
    _, diff = _difference(pi1, pi2)
    # In sorted order each word shares its longest common prefix with the
    # one before it, so ``path`` (the vectors after each of the previous
    # word's prefixes) is kept up to there and advanced over the rest only.
    label_rows = {label: rows[li] for label, li in lmc.label_index.items()}
    below = set()
    path, previous = [diff], ()
    for word in sorted(tally1.keys() | tally2.keys()):
        shared = 0
        for a, b in zip(word, previous):
            if a != b:
                break
            shared += 1
        del path[shared + 1 :]
        for label in word[shared:]:
            path.append(advance(path[-1], label_rows[label]))
        if stop_mass(path[-1], eow) < 0:
            below.add(word)
        previous = word
    hits1 = sum(n for word, n in tally1.items() if word in below)
    hits2 = sum(n for word, n in tally2.items() if word not in below)
    p_hat_1 = Fraction(hits1, m)
    p_hat_2 = Fraction(hits2, m)
    return SampleEstimate(
        estimate=1 - p_hat_1 - p_hat_2,
        p_hat_1=p_hat_1,
        p_hat_2=p_hat_2,
        samples_per_side=m,
        epsilon=as_fraction(epsilon, "epsilon"),
        delta=as_fraction(delta, "delta"),
        seed=seed,
    )


# -- deterministic bounded-length estimation -----------------------------------


def length_bound(lmc: Lmc, tail_budget: Fraction | int, step_cap: int = 1024) -> int:
    """A length n with tail mass at most ``tail_budget`` from *every* start.

    Primary path: read the exact per-state tails (``model.state_tails``) and
    return the smallest such n found within ``step_cap`` steps.  If the cap
    is hit, fall back to the certified closed form k * |Q| with k >=
    -ln(tail_budget) / p_min^|Q| (p_min the smallest positive probability in
    the chain), which is sufficient when every state can reach a stop but
    usually far larger; a state that cannot raises ``DomainError`` there,
    since no length bounds its tail.
    """
    lam = as_fraction(tail_budget, "tail budget")
    if lam <= 0:
        raise DomainError(f"tail budget must be positive, got {lam}")
    if step_cap < 0:
        raise DomainError(f"step cap must be nonnegative, got {step_cap}")
    den, rows, eow = lmc.integer_form
    over = den  # L**(n+1)
    for n, tails in enumerate(state_tails(lmc)):
        if n > step_cap:
            break
        if max(tails) * lam.denominator <= lam.numerator * over:
            return n
        over *= den
    # Certified fallback.
    n_states = lmc.n_states
    preds: list[list[int]] = [[] for _ in range(n_states)]
    for i, targets in enumerate(lmc.successors):
        for j in targets:
            preds[j].append(i)
    stuck = unstoppable(preds, eow)
    if stuck:
        raise DomainError(f"state {lmc.states[stuck[0]]!r} cannot reach a stop; no length bounds its tail")
    positives = [e for e in eow if e > 0]
    positives.extend(x for label_rows in rows for row in label_rows for _, x in row if x > 0)
    p_min = Fraction(min(positives), den)
    if p_min == 1:
        return max(n_states - 1, 0)
    k = math.ceil(ln_upper(1 / lam) / p_min**n_states)
    return k * n_states


@dataclass(frozen=True)
class BoundedEstimate:
    """A deterministic distance estimate and the parameters behind it.

    Words up to ``length_cutoff`` were classified exactly; ``mass1_lt`` is
    the first-start mass of words whose first probability is strictly
    smaller, ``mass2_ge`` the second-start mass of the rest (ties included).
    The estimate 1 - mass1_lt - mass2_ge is the sum of (p1 - p2)+ over those
    words plus the first start's tail beyond the cutoff, so it lies within
    tail_budget = epsilon/4 above the true distance.  ``precision``, the
    k-bit width ``floatk.precision_for`` gives for relative error
    ``rounding_budget`` = epsilon/8, and ``rounding_budget`` itself do not
    shape the result; both stay in the report.
    """

    estimate: Fraction
    mass1_lt: Fraction
    mass2_ge: Fraction
    length_cutoff: int
    precision: int
    tail_budget: Fraction
    rounding_budget: Fraction
    words_enumerated: int


class _SuffixTable:
    """Stop vectors of every suffix up to ``height`` letters, packed by state.

    For a word w, M_w is the product of its letters' integer rows (over
    L**len(w)) and g_w = M_w * eow its per-state stop vector, integers over
    L**(len(w)+1).  The entries are the words of length 1..height with a
    nonzero row of M_w, level by level; ``lives[k]`` is entry k's bitmask of
    states whose row is nonzero.  Level d+1 comes from level d without any
    M_w: g_aw = M_a * g_w, as in ``model.state_tails``, and state i is live
    in a.w when one of its a-successors is live in w.

    The table grows a level at a time while it holds at most ``budget``
    entries (the empty word included), so ``height`` may come out lower than
    asked; it stops early, keeping ``height``, at an empty level, since every
    longer word is dead too.  ``pack`` then lays each state's column out as
    one integer of at most min(budget, |alphabet|**height) fields and drops
    the level lists, so the table keeps n such integers and the masks.
    """

    def __init__(self, lmc: Lmc, height: int, budget: int | None):
        den, rows, eow = lmc.integer_form
        n = lmc.n_states
        self._successors = [[sum(1 << j for j, _ in row) for row in label_rows] for label_rows in rows]
        self._live_before: list[dict[int, int]] = [{} for _ in rows]
        self._reached: dict[int, int] = {}
        self._den, self._rows = den, rows
        self._levels: list[list[list[int]]] = []
        self.lives: list[int] = []
        level, lives = [[e] for e in eow], [(1 << n) - 1]
        for depth in range(1, height + 1):
            children = list(self._children(lives))
            if not children:
                break
            if budget is not None and 1 + len(self.lives) + len(children) > budget:
                height = depth - 1
                break
            # g_aw[i] = sum over i's a-row of p * g_w[j].
            kept: list[list[int]] = [[] for _ in rows]
            for li, k, _ in children:
                kept[li].append(k)
            new_level: list[list[int]] = [[] for _ in range(n)]
            for label_rows, ks in zip(rows, kept):
                for column, row in zip(new_level, label_rows):
                    col = [0] * len(ks)
                    for j, p in row:
                        g = level[j]
                        col = [c + p * g[k] for c, k in zip(col, ks)]
                    column.extend(col)
            lives = [live for _, _, live in children]
            self.lives.extend(lives)
            self._levels.append(new_level)
            level = new_level
        self.height = height
        self.n_states = n

    def pack(self, start: dict[int, int], steps: int) -> tuple[list[int], int]:
        """``(columns, width)``: ``columns[i]`` holds state i's stop masses in
        ``width``-bit fields, field k being g_{w_k}[i] * L**(height - |w_k|),
        so every entry is at the scale of length ``height`` (over
        L**(height+1)).  ``start`` is the walk's two-copy root vector and
        ``steps`` the depth of the nodes that read the table.

        The width bound holds for any chain with nonnegative entries.  A
        side's nodes at depth ``steps`` sum to V = start * (sum_a
        M_a)**steps.  So in one node's combination sum_i v_i * columns[i],
        and in any sum of such combinations' fields over distinct nodes,
        every field and the total of all fields are at most B = (sum of V) *
        C, with C the largest field total of one column and V from the side
        with the larger sum, taken as at least 1 so that B also bounds the
        columns themselves.  B.bit_length() + 2 bits, rounded up to whole
        bytes, hold B with the top bit of every field clear: no field
        carries into or borrows from the next one, and the field total is
        below 2**width - 1.
        """
        n = self.n_states
        levels, self._levels = self._levels, []
        sides = [[start.get(i, 0) for i in range(n)], [start.get(n + i, 0) for i in range(n)]]
        for _ in range(steps):
            for k, vec in enumerate(sides):
                out = [0] * n
                for label_rows in self._rows:
                    for x, row in zip(vec, label_rows):
                        for j, p in row:
                            out[j] += x * p
                sides[k] = out
        scales = [self._den ** (self.height - d) for d in range(1, len(levels) + 1)]
        largest = max(sum(s * sum(level[i]) for s, level in zip(scales, levels)) for i in range(n))
        size = ((max(1, *map(sum, sides)) * largest).bit_length() + 2 + 7) // 8
        columns = [
            int.from_bytes(
                b"".join((s * x).to_bytes(size, "little") for s, level in zip(scales, levels) for x in level[i]),
                "little",
            )
            for i in range(n)
        ]
        return columns, 8 * size

    def _children(self, lives: list[int]) -> Iterator[tuple[int, int, int]]:
        """``(letter, index, mask)`` of every one-letter extension a.w of the
        words whose masks are ``lives`` that has a live state, by letter and
        then by the index of w."""
        for li, succ in enumerate(self._successors):
            cache = self._live_before[li]
            for k, live in enumerate(lives):
                new = cache.get(live)
                if new is None:
                    new = cache[live] = sum(1 << i for i, s in enumerate(succ) if s & live)
                if new:
                    yield li, k, new

    def reached(self, mask: int) -> int:
        """How many entries are live on some state of ``mask``: the nodes
        below a node with that support."""
        count = self._reached.get(mask)
        if count is None:
            count = self._reached[mask] = sum(1 for live in self.lives if live & mask)
        return count

    def depth_of(self, mask: int, k: int) -> int:
        """The length of the ``k``-th (from 0) entry live on ``mask`` in
        preorder: alphabet order, each word before its extensions."""
        words, lives = [()], [(1 << self.n_states) - 1]
        found = []
        for _ in range(self.height):
            children = list(self._children(lives))
            words = [(li,) + words[at] for li, at, _ in children]
            lives = [live for _, _, live in children]
            found.extend(w for w, live in zip(words, lives) if live & mask)
        return len(sorted(found)[k])


def _reachable_part(
    lmc: Lmc, pi1: InitialDistribution, pi2: InitialDistribution
) -> tuple[Lmc, InitialDistribution, InitialDistribution]:
    """The chain and both starts restricted to the states either start can
    reach, states kept in order; the arguments themselves when that is every
    state.  A state outside adds no word, so the distance is the same."""
    reached = {*pi1.support(), *pi2.support()}
    stack = list(reached)
    while stack:
        for j in lmc.successors[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    if len(reached) == lmc.n_states:
        return lmc, pi1, pi2
    kept = sorted(reached)
    new = {i: k for k, i in enumerate(kept)}
    den, rows, eow = lmc.integer_form
    part = Lmc.from_integer_form(
        [lmc.states[i] for i in kept],
        lmc.alphabet,
        den,
        [[tuple((new[j], x) for j, x in label_rows[i]) for i in kept] for label_rows in rows],
        [eow[i] for i in kept],
    )

    def restricted(pi: InitialDistribution) -> InitialDistribution:
        den_pi, pairs = pi.integer_form
        return InitialDistribution.from_integer_form(len(kept), den_pi, ((new[i], x) for i, x in pairs))

    return part, restricted(pi1), restricted(pi2)


def tv_bounded(
    lmc: Lmc,
    pi1: InitialDistribution,
    pi2: InitialDistribution,
    epsilon: Fraction | int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> BoundedEstimate:
    """Deterministically estimate the distance to within epsilon/2.

    Works for cyclic chains: the support is cut at a length keeping the tail
    mass of either start below epsilon/4, and every remaining word is
    classified by comparing its two integer stop masses.  The class masses
    are accumulated exactly, so the cut tail is the only error source.

    The walk is depth-first over the top levels of the prefix tree and reads
    the bottom ``h = ceil(cutoff/2)`` levels from a ``_SuffixTable``: below a
    node v at depth cutoff - h, the word v.w has stop masses v1 . g_w and
    v2 . g_w.  With the table packed (``_SuffixTable.pack``), m1 = v1 .
    columns holds every first-start mass below v, one field per suffix, and
    m2 = v2 . columns the second; a bitwise compare marks the fields where
    m1 < m2, m1's marked fields go to one accumulator and m2's others to a
    second, and after the walk both field sums are filed at depth cutoff.
    It holds one path, the n columns and a few integers of their size,
    counts nodes in the order of the full depth-first walk and so visits,
    sums and raises exactly as that walk does.  The cutoff, the table and
    the walk see only the states either start can reach
    (``_reachable_part``).  A chain with a negative transition or stop
    entry raises ``DomainError``: its fields could borrow from their
    neighbours.
    """
    epsilon = as_fraction(epsilon, "epsilon")
    if epsilon <= 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    check_distribution(lmc, pi1, "first initial distribution")
    check_distribution(lmc, pi2, "second initial distribution")
    _, rows, eow = lmc.integer_form
    if any(e < 0 for e in eow) or any(p < 0 for label_rows in rows for row in label_rows for _, p in row):
        raise DomainError("tv_bounded needs nonnegative transition and stop probabilities")
    n_states = lmc.n_states
    lmc, pi1, pi2 = _reachable_part(lmc, pi1, pi2)
    den = lmc.integer_form[0]
    tail_budget = epsilon / 4
    rounding_budget = epsilon / 8
    cutoff = length_bound(lmc, tail_budget)
    precision = precision_for(cutoff, n_states, rounding_budget)
    _check_budget(budget)
    n = lmc.n_states
    table = _SuffixTable(lmc, (cutoff + 1) // 2, budget)
    top = cutoff - table.height
    base, root, step, (eow1, eow2) = _pair_start(lmc, pi1, pi2, top)
    columns, width = table.pack(root, top)
    shift, field = width - 1, (1 << width) - 1
    ones = int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * len(table.lives), "little")
    high = ones << shift
    acc1 = acc2 = 0
    # Stop masses are integers over base * den**depth.  The walk prunes where
    # both prefix vectors vanish: every word below has zero mass on both sides.
    below: defaultdict[int, int] = defaultdict(int)
    at_least: defaultdict[int, int] = defaultdict(int)
    count = 0
    try:
        for path, vec in walk_prefixes(root, step):
            depth = len(path)
            count += 1
            if budget is not None and count > budget:
                raise _over_budget(budget, count, depth)
            s1, s2 = stop_mass(vec, eow1), stop_mass(vec, eow2)
            if s1 < s2:
                below[depth] += s1
            else:
                at_least[depth] += s2
            if depth < top or not table.lives:
                continue
            # The subtree of v: the suffixes live on v's support, in the
            # walk's preorder.  A suffix dead on the support has g_w zero
            # there, so summing over every entry adds only zeros for it.
            m1 = m2 = mask = 0
            for i, x in vec.items():
                if i < n:
                    m1 += x * columns[i]
                else:
                    m2 += x * columns[i - n]
                mask |= 1 << (i % n)
            reached = table.reached(mask)
            if budget is not None and count + reached > budget:
                raise _over_budget(budget, budget + 1, top + table.depth_of(mask, budget - count))
            count += reached
            if m1 and m2:
                # A field of m2 + high - m1 - ones is 2**(width-1) + m2_k -
                # m1_k - 1, in [0, 2**width): its top bit is set exactly
                # where m1_k < m2_k.  Ties stay with "at least".
                lt = (((m2 + high - m1 - ones) & high) >> shift) * field
                acc1 += m1 & lt
                acc2 += m2 & ~lt
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc} (length cutoff {cutoff})",
            nodes_visited=exc.nodes_visited,
            depth=exc.depth,
        ) from None
    # x % (2**width - 1) is the sum of x's fields, since 2**width is 1 modulo
    # it, and that sum is below 2**(width-2) (``_SuffixTable.pack``).
    below[cutoff] += acc1 % field
    at_least[cutoff] += acc2 % field
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
