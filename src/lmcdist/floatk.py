"""Arbitrary-precision binary floating point with a k-bit mantissa.

The value set for precision k is {m * 2**z : 0 <= m < 2**k, z any integer}
with an unbounded exponent, so there is no overflow and no underflow; zero is
the single non-normalized value.  Rounding is to nearest with ties away from
zero, which gives round(x) = x * (1 + d) with |d| < 2**-k for every x >= 0.

Evaluating a chain's word probability in this arithmetic -- rounding the
inputs once and then rounding after every scalar multiplication and addition
-- keeps the result inside [p * (1 - theta), p * (1 + theta)] of the exact
probability p provided the mantissa is wide enough; ``precision_for`` returns
a sufficient width from the word length, state count and target relative
error.  Because the relative error is multiplicative, comparing two such
computed probabilities misclassifies only words whose true probabilities are
within a (1 +/- theta) band of each other.  The bounded distance estimator
classifies words exactly on integers and only reports ``precision_for``'s
width; this module is the k-bit arithmetic itself and its certified bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .model import InitialDistribution, Lmc, Word, as_fraction, check_distribution, check_length


@dataclass(frozen=True)
class FloatK:
    """A nonnegative k-bit float: ``mantissa * 2**exponent``.

    Nonzero values are normalized (``2**(k-1) <= mantissa < 2**k``); zero is
    represented as mantissa 0, exponent 0.  Normalization makes the
    representation unique, so dataclass equality is value equality at a fixed
    precision.
    """

    mantissa: int
    exponent: int
    precision: int

    def __post_init__(self):
        k = self.precision
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"precision must be an integer >= 1, got {k!r}")
        m = self.mantissa
        if not isinstance(m, int) or m < 0:
            raise DomainError(f"mantissa must be a nonnegative integer, got {m!r}")
        if m == 0:
            if self.exponent != 0:
                raise DomainError("zero must be represented with exponent 0")
        elif not (1 << (k - 1)) <= m < (1 << k):
            raise DomainError(
                f"nonzero mantissa {m} is not normalized for precision {k} "
                f"(needs {1 << (k - 1)} <= m < {1 << k})"
            )

    @classmethod
    def zero(cls, precision: int) -> "FloatK":
        return cls(0, 0, precision)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def value(self) -> Fraction:
        """The exact rational this float denotes."""
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    # Ordering is by value and ignores precision; equality stays structural
    # (same value at the same precision), consistent with hashing.
    def _key(self, other: "FloatK") -> tuple[int, int]:
        za, zb = self.exponent, other.exponent
        if za >= zb:
            return self.mantissa << (za - zb), other.mantissa
        return self.mantissa, other.mantissa << (zb - za)

    def __lt__(self, other: "FloatK") -> bool:
        a, b = self._key(other)
        return a < b

    def __le__(self, other: "FloatK") -> bool:
        a, b = self._key(other)
        return a <= b

    def __gt__(self, other: "FloatK") -> bool:
        a, b = self._key(other)
        return a > b

    def __ge__(self, other: "FloatK") -> bool:
        a, b = self._key(other)
        return a >= b


def _round_shifted(mantissa: int, exponent: int, k: int) -> FloatK:
    """Round the exact value mantissa * 2**exponent (mantissa >= 0) to k bits."""
    if mantissa == 0:
        return FloatK(0, 0, k)
    bits = mantissa.bit_length()
    if bits <= k:
        shift = k - bits
        return FloatK(mantissa << shift, exponent - shift, k)
    shift = bits - k
    kept, rest = divmod(mantissa, 1 << shift)
    if rest >= (1 << (shift - 1)):  # ties round away from zero, i.e. up
        kept += 1
        if kept == 1 << k:
            kept >>= 1
            shift += 1
    return FloatK(kept, exponent + shift, k)


def floor_log2(x: Fraction) -> int:
    """The integer t with 2**t <= x < 2**(t+1), for a positive rational x."""
    num, den = x.numerator, x.denominator
    # The bit lengths alone give 2**(t-1) < x < 2**(t+1).
    t = num.bit_length() - den.bit_length()
    below = num < den << t if t >= 0 else num << -t < den
    return t - 1 if below else t


def fp_round(x: Fraction | int, k: int) -> FloatK:
    """Nearest k-bit float to a nonnegative rational; ties away from zero."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"precision must be an integer >= 1, got {k!r}")
    x = as_fraction(x, "value to round")
    if x < 0:
        raise DomainError(f"only nonnegative values are representable, got {x}")
    if x == 0:
        return FloatK(0, 0, k)
    num, den = x.numerator, x.denominator
    if den == 1:
        return _round_shifted(num, 0, k)
    # Target exponent e puts the mantissa in [2**(k-1), 2**k).
    e = floor_log2(x) - (k - 1)
    p = num << max(0, -e)
    q = den << max(0, e)
    m = (2 * p + q) // (2 * q)  # floor(p/q + 1/2): nearest, ties up
    if m == 1 << k:
        m >>= 1
        e += 1
    return FloatK(m, e, k)


def _same_precision(a: FloatK, b: FloatK) -> int:
    if a.precision != b.precision:
        raise DomainError(
            f"mixed precisions {a.precision} and {b.precision}; round first"
        )
    return a.precision


def fp_add(a: FloatK, b: FloatK) -> FloatK:
    """Exact sum, then one rounding."""
    k = _same_precision(a, b)
    if a.mantissa == 0:
        return b
    if b.mantissa == 0:
        return a
    z = min(a.exponent, b.exponent)
    total = (a.mantissa << (a.exponent - z)) + (b.mantissa << (b.exponent - z))
    return _round_shifted(total, z, k)


def fp_mul(a: FloatK, b: FloatK) -> FloatK:
    """Exact product, then one rounding."""
    k = _same_precision(a, b)
    if a.mantissa == 0 or b.mantissa == 0:
        return FloatK(0, 0, k)
    return _round_shifted(a.mantissa * b.mantissa, a.exponent + b.exponent, k)


def precision_for(max_word_length: int, state_count: int, relative_error: Fraction | int) -> int:
    """Smallest mantissa width that keeps every computed word probability
    within relative ``relative_error`` of the exact value.

    Concretely: the smallest k >= 1 with 2**k >= 2 * (max_word_length + 2) *
    state_count / relative_error.  The "+ 2" budgets both the per-operation
    roundings along a word of that length and the initial rounding of the
    model's probabilities into k-bit floats.
    """
    check_length(max_word_length, "word length")
    if state_count < 1:
        raise DomainError(f"state count must be positive, got {state_count}")
    theta = as_fraction(relative_error, "relative error")
    if theta <= 0:
        raise DomainError(f"relative error must be positive, got {theta}")
    need = Fraction(2 * (max_word_length + 2) * state_count) / theta
    num, den = need.numerator, need.denominator
    k = max(1, num.bit_length() - den.bit_length() - 1)
    while (den << k) < num:
        k += 1
    return k


class RoundedModel:
    """A chain with all probabilities rounded to k bits, evaluated in k-bit
    arithmetic with one rounding per scalar operation.  Each probability is
    rounded from the chain's (or the start's) integer form, x over L.

    Accumulation order is fixed (ascending state index), so results are
    deterministic and identical to evaluating each word from scratch.
    """

    def __init__(self, lmc: Lmc, precision: int):
        if not isinstance(precision, int) or precision < 1:
            raise DomainError(f"precision must be an integer >= 1, got {precision!r}")
        self.lmc = lmc
        self.precision = precision
        self.zero = FloatK(0, 0, precision)
        den, rows, eow = lmc.integer_form
        self.eow = tuple(fp_round(Fraction(e, den), precision) for e in eow)
        # Per label, per target state: (source, rounded probability), ascending source.
        columns = [[[] for _ in lmc.states] for _ in lmc.alphabet]
        for cols, label_rows in zip(columns, rows):
            for i, row in enumerate(label_rows):
                for j, x in row:
                    cols[j].append((i, fp_round(Fraction(x, den), precision)))
        self.columns = tuple(tuple(map(tuple, cols)) for cols in columns)

    def initial(self, pi: InitialDistribution) -> tuple[FloatK, ...]:
        check_distribution(self.lmc, pi)
        den, pairs = pi.integer_form
        vec = [self.zero] * pi.n_states
        for i, x in pairs:
            vec[i] = fp_round(Fraction(x, den), self.precision)
        return tuple(vec)

    def advance(self, vec: Sequence[FloatK], label_idx: int) -> tuple[FloatK, ...]:
        """One vector-matrix step; every multiply and add rounds once."""
        out = []
        for col in self.columns[label_idx]:
            acc = self.zero
            for i, p in col:
                x = vec[i]
                if x.mantissa:
                    acc = fp_add(acc, fp_mul(x, p))
            out.append(acc)
        return tuple(out)

    def stop_mass(self, vec: Sequence[FloatK]) -> FloatK:
        acc = self.zero
        for x, e in zip(vec, self.eow):
            if x.mantissa and e.mantissa:
                acc = fp_add(acc, fp_mul(x, e))
        return acc


def fp_word_probability(lmc: Lmc, pi: InitialDistribution, word: Word, k: int) -> FloatK:
    """The word's probability computed entirely in k-bit arithmetic.

    Inputs are rounded to k bits once, then the prefix vector is advanced one
    label at a time with a rounding after every scalar multiplication and
    addition (``RoundedModel``).
    """
    model = RoundedModel(lmc, k)
    vec = model.initial(pi)
    for label in word:
        li = lmc.label_index.get(label)
        if li is None:
            raise DomainError(f"label {label!r} is not in the alphabet")
        vec = model.advance(vec, li)
    return model.stop_mass(vec)
