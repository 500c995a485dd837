"""Reading and writing chains, distributions and automata as JSON (NFAs are only read).

All probabilities travel as exact rational strings ("1/3", "1") -- never as
binary floats -- so a chain survives any number of save/load round trips
bit-for-bit.  Malformed input raises ``ParseError`` with the offending file
and element named, and so does an object that repeats a key (plain JSON
parsing would silently keep the last value).  Semantic violations (rows not
summing to one, states that can never stop) are also ``ParseError`` under
the default strict loading, or can be collected separately via ``validate``
after a shape-only load.  A file that is not UTF-8, nests too deeply for
the JSON parser or holds a number past the interpreter's int/str digit
limit is malformed input too.

What each check runs on, in a strict chain load:

* the bytes, read once (``InputFile``): UTF-8 and JSON syntax;
* each transition record: one test of its type, key set and name types,
  with the field-by-field checks and their location text only on failure;
* each distinct probability string or int of a file: ``parse_prob`` once,
  then one conversion to an integer over the lcm of the file's
  denominators (``_prob_reader``); a bad value raises at its first
  occurrence;
* the chain: names and duplicates in ``model.group_records``, the integer
  rows in one shape pass each in ``Lmc.from_integer_form``, and row sums
  and stopping on integers in ``validate``; the start: its integer weights
  in ``InitialDistribution.from_integer_form``.  A loaded chain or start
  is stored in that integer form; no Fraction is built for its entries
  until a reader asks for the ``Fraction`` views.

File shapes:

* chain:         {"states": [..], "alphabet": [..],
                  "transitions": [{"from","label","to","prob"}, ..],
                  "eow": {state: prob, ..}}            (omitted state: 0)
* distribution:  {state: prob, ..}                     (omitted state: 0)
* NFA:           {"states", "alphabet", "initial", "accepting",
                  "transitions": [{"from","label","to"}, ..]}
* PA:            like a chain but with "initial_dist" and "accepting"
                  instead of "eow"; rows must be exactly stochastic.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from decimal import ROUND_05UP, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .automata import Nfa, Pa
from .errors import DomainError, ParseError
from .model import InitialDistribution, Lmc, Word, check_start_names, group_records, validate

#: The documented probability strings: ASCII digits, at most one "/", nothing else.
_PROB_RE = re.compile(r"[0-9]+(/[0-9]+)?")

#: Name of the empty word in command-line input and text reports.
EMPTY_WORD_MARK = "ε"


# -- scalars --------------------------------------------------------------------


def parse_prob(value: Any, where: str) -> Fraction:
    """An exact probability from its interchange form.

    Accepts "num/den", an integer string, or a JSON integer; rejects floats
    (inexact by construction), negative values and anything above 1.
    """
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a probability, got {value!r}")
    if isinstance(value, int):
        prob = Fraction(value)
    elif isinstance(value, str):
        if not _PROB_RE.fullmatch(value):
            raise ParseError(
                f"{where}: {value!r} is not a probability; write it as "
                f'"num/den" or an integer string'
            )
        try:
            prob = Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"{where}: {value!r} has denominator zero") from None
        except ValueError:  # past the interpreter's int/str digit limit
            raise _too_many_digits(where) from None
    elif isinstance(value, float):
        raise ParseError(
            f"{where}: {value!r} is a binary float; write the exact rational "
            f'as "num/den"'
        )
    else:
        raise ParseError(f"{where}: expected a probability, got {value!r}")
    if not 0 <= prob <= 1:
        raise ParseError(f"{where}: probability {prob} is outside [0, 1]")
    return prob


def _too_many_digits(where: str) -> ParseError:
    return ParseError(
        f"{where}: a number has more than {sys.get_int_max_str_digits()} digits"
    )


def _prob_reader():
    """``(read, integers)``: ``parse_prob`` for one file, each distinct
    string or int value parsed once.

    ``read(value, where, *args)`` checks a value and returns its key, the
    value itself; only accepted values are kept, so a bad value raises at
    each occurrence, the first one first.  The location is
    ``where.format(*args)``, built only when a value is parsed.
    ``integers()`` returns ``(L, {key: probability * L})`` over every value
    read so far, L the lcm of their denominators: each distinct probability
    becomes an integer once.
    """
    parsed: dict = {}

    def read(value: Any, where: str, *args: Any) -> Any:
        # Exact types only: True == 1 and 1.0 == 1 must not hit the int's
        # entry.  Any other value that parses is keyed by its probability.
        if type(value) is not str and type(value) is not int:
            prob = parse_prob(value, where.format(*args))
            parsed[prob] = prob
            return prob
        if value not in parsed:
            parsed[value] = parse_prob(value, where.format(*args))
        return value

    def integers() -> tuple[int, dict]:
        den = math.lcm(*{p.denominator for p in parsed.values()})
        return den, {key: p.numerator * (den // p.denominator) for key, p in parsed.items()}

    return read, integers


def decimal15(value: Fraction | int) -> str:
    """A decimal rendering correct to 15 significant digits.

    Round-half-even at the 15th significant digit, then printed in plain
    positional notation; exact zero prints as "0".
    """
    value = Fraction(value)
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 50
        ctx.rounding = ROUND_05UP  # round to odd, so the second rounding is correct
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        quantum = Decimal(1).scaleb(dec.adjusted() - 14)
        return format(dec.quantize(quantum, rounding=ROUND_HALF_EVEN), "f")


def parse_word(text: str, alphabet: Sequence[str] | None = None) -> Word:
    """A word from command-line text.

    Letters are separated by spaces or commas; "ε" (or an empty string)
    denotes the empty word.  As a convenience, a single unseparated token is
    split into characters when every character is a label of the given
    alphabet (so ``abb`` works for one-letter labels).
    """
    text = text.strip()
    if text in ("", EMPTY_WORD_MARK):
        return ()
    letters = tuple(t for t in re.split(r"[,\s]+", text) if t)
    if alphabet is not None:
        labels = set(alphabet)
        if (
            len(letters) == 1
            and letters[0] not in labels
            and all(ch in labels for ch in letters[0])
        ):
            return tuple(letters[0])
    return letters


def format_word(word: Word) -> str:
    """Inverse of ``parse_word`` (letters joined by spaces, "ε" if empty)."""
    return " ".join(word) if word else EMPTY_WORD_MARK


# -- shape helpers ---------------------------------------------------------------


def _expect_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _expect_names(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where}: expected an array of strings")
    return tuple(value)


def _expect_keys(data: dict, required: Sequence[str], where: str) -> None:
    missing = [k for k in required if k not in data]
    if missing:
        raise ParseError(f"{where}: missing key(s) {', '.join(map(repr, missing))}")
    unknown = [k for k in data if k not in required]
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {type(value).__name__}")
    return value


#: Keys of a chain or PA transition record.
_WEIGHTED = ("from", "label", "to", "prob")


def _integer_rows(rows: list[list[dict[int, Any]]], ints: dict) -> list[list[tuple]]:
    """Rows grouped as ``{target: key}`` dicts (``model.group_records``) as
    ``(target, integer)`` pairs, targets ascending, each key's integer from
    ``ints``."""
    out = []
    for label_rows in rows:
        converted = [()] * len(label_rows)
        for i, row in enumerate(label_rows):
            if len(row) == 1:
                ((j, v),) = row.items()
                converted[i] = ((j, ints[v]),)
            elif row:
                converted[i] = tuple(sorted([(j, ints[v]) for j, v in row.items()]))
        out.append(converted)
    return out


def _spot(where: str, i: int) -> str:
    """Names record ``i`` of the transitions in a message."""
    return f"{where}: transitions[{i}]"


def _transitions(data: dict, keys: Sequence[str], where: str):
    """Each record of ``data["transitions"]`` as ``(i, item, from, label,
    to)``, checked for shape only.

    A generator, so a caller's own checks on one record run before the next
    record is read, and faults are reported in file order.  A record with
    exactly ``keys`` and string names passes one test; any other is checked
    field by field, and its location is formatted only then.
    """
    items = data["transitions"]
    if not isinstance(items, list):
        raise ParseError(f"{where}: transitions: expected an array")
    wanted = set(keys)
    for i, item in enumerate(items):
        if type(item) is dict and item.keys() == wanted:
            src, label, tgt = item["from"], item["label"], item["to"]
            if type(src) is str and type(label) is str and type(tgt) is str:
                yield i, item, src, label, tgt
                continue
        spot = _spot(where, i)
        item = _expect_dict(item, spot)
        _expect_keys(item, keys, spot)
        yield (
            i,
            item,
            _expect_str(item["from"], f"{spot}: from"),
            _expect_str(item["label"], f"{spot}: label"),
            _expect_str(item["to"], f"{spot}: to"),
        )


@dataclass(frozen=True)
class InputFile:
    """The bytes of one input file, read once: a loader given an
    ``InputFile`` in place of a path parses these bytes, so a digest of
    ``data`` describes exactly what was loaded."""

    path: str
    data: bytes

    @classmethod
    def read(cls, path: str | Path) -> "InputFile":
        try:
            return cls(str(path), Path(path).read_bytes())
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None

    def __str__(self) -> str:
        return self.path


def _load_json(source: str | Path | InputFile) -> Any:
    if not isinstance(source, InputFile):
        source = InputFile.read(source)
    path = source.path
    try:
        text = source.data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    # Universal newlines, as a file opened in text mode reads them, so that
    # the positions in a JSON error message count the same characters.
    text = text.replace("\r\n", "\n").replace("\r", "\n")

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        data = dict(pairs)
        if len(data) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"{path}: repeated key {key!r}")
                seen.add(key)
        return data

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    except ValueError:  # an integer past the interpreter's int/str digit limit
        raise _too_many_digits(path) from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from None


def _write_json(data: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


# -- labelled Markov chains -------------------------------------------------------


def lmc_from_dict(data: Any, strict: bool = True, where: str = "<chain>") -> Lmc:
    """Build a chain from its interchange dictionary.

    With ``strict`` (the default) semantic violations -- rows not summing to
    one, states that cannot reach a stopping state -- are raised as
    ``ParseError``; without it only shapes and probability ranges are
    enforced, leaving ``validate`` to report the rest.
    """
    data = _expect_dict(data, where)
    _expect_keys(data, ("states", "alphabet", "transitions", "eow"), where)
    states = _expect_names(data["states"], f"{where}: states")
    alphabet = _expect_names(data["alphabet"], f"{where}: alphabet")
    read, integers = _prob_reader()
    records = [
        (src, label, tgt, read(item["prob"], "{}: transitions[{}]: prob", where, i))
        for i, item, src, label, tgt in _transitions(data, _WEIGHTED, where)
    ]
    eow_data = _expect_dict(data["eow"], f"{where}: eow")
    eow = {
        _expect_str(state, f"{where}: eow key"): read(prob, "{}: eow[{!r}]", where, state)
        for state, prob in eow_data.items()
    }
    try:
        states, alphabet, rows, stops = group_records(states, alphabet, records, eow)
        den, ints = integers()
        lmc = Lmc.from_integer_form(
            states,
            alphabet,
            den,
            _integer_rows(rows, ints),
            [ints[stops[i]] if i in stops else 0 for i in range(len(states))],
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if strict:
        violations = validate(lmc)
        if violations:
            raise ParseError(f"{where}: " + "; ".join(violations))
    return lmc


def load_lmc(path: str | Path | InputFile, strict: bool = True) -> Lmc:
    return lmc_from_dict(_load_json(path), strict=strict, where=str(path))


def _ratio_strs(den: int):
    """The interchange form of x / den ("num/den" in lowest terms, or an
    integer) for an int x, each distinct x formatted once."""
    done: dict[int, str] = {}

    def text(x: int) -> str:
        out = done.get(x)
        if out is None:
            g = math.gcd(x, den)
            out = done[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
        return out

    return text


def _transition_dicts(lmc: Lmc) -> list[dict]:
    den, rows, _ = lmc.integer_form
    text = _ratio_strs(den)
    states = lmc.states
    return [
        {"from": states[i], "label": label, "to": states[j], "prob": text(x)}
        for label, label_rows in zip(lmc.alphabet, rows)
        for i, row in enumerate(label_rows)
        for j, x in row
    ]


def lmc_to_dict(lmc: Lmc) -> dict:
    den, _, eow = lmc.integer_form
    text = _ratio_strs(den)
    return {
        "states": list(lmc.states),
        "alphabet": list(lmc.alphabet),
        "transitions": _transition_dicts(lmc),
        "eow": {state: text(e) for state, e in zip(lmc.states, eow) if e},
    }


def save_lmc(lmc: Lmc, path: str | Path) -> None:
    _write_json(lmc_to_dict(lmc), path)


# -- initial distributions ---------------------------------------------------------


def distribution_from_dict(
    data: Any, lmc: Lmc, where: str = "<distribution>"
) -> InitialDistribution:
    data = _expect_dict(data, where)
    read, integers = _prob_reader()
    weights = {
        _expect_str(state, f"{where}: key"): read(prob, "{}[{!r}]", where, state)
        for state, prob in data.items()
    }
    try:
        check_start_names(lmc, weights)
        den, ints = integers()
        index = lmc.state_index
        return InitialDistribution.from_integer_form(
            lmc.n_states, den, sorted((index[s], ints[v]) for s, v in weights.items())
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_distribution(path: str | Path | InputFile, lmc: Lmc) -> InitialDistribution:
    return distribution_from_dict(_load_json(path), lmc, where=str(path))


def distribution_to_dict(pi: InitialDistribution, lmc: Lmc) -> dict:
    den, pairs = pi.integer_form
    text = _ratio_strs(den)
    return {lmc.states[i]: text(x) for i, x in pairs}


def save_distribution(pi: InitialDistribution, lmc: Lmc, path: str | Path) -> None:
    _write_json(distribution_to_dict(pi, lmc), path)


# -- nondeterministic finite automata ----------------------------------------------


def nfa_from_dict(data: Any, where: str = "<nfa>") -> Nfa:
    data = _expect_dict(data, where)
    _expect_keys(data, ("states", "alphabet", "initial", "accepting", "transitions"), where)
    triples: dict[tuple[str, str, str], None] = {}  # in file order
    for i, _, src, label, tgt in _transitions(data, ("from", "label", "to"), where):
        if (src, label, tgt) in triples:
            raise ParseError(f"{_spot(where, i)}: duplicate transition")
        triples[src, label, tgt] = None
    try:
        return Nfa(
            states=_expect_names(data["states"], f"{where}: states"),
            alphabet=_expect_names(data["alphabet"], f"{where}: alphabet"),
            initial=_expect_str(data["initial"], f"{where}: initial"),
            accepting=frozenset(_expect_names(data["accepting"], f"{where}: accepting")),
            transitions=tuple(triples),
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_nfa(path: str | Path | InputFile) -> Nfa:
    return nfa_from_dict(_load_json(path), where=str(path))


# -- probabilistic automata ---------------------------------------------------------


def pa_from_dict(data: Any, where: str = "<pa>") -> Pa:
    data = _expect_dict(data, where)
    _expect_keys(
        data, ("states", "alphabet", "transitions", "initial_dist", "accepting"), where
    )
    states = _expect_names(data["states"], f"{where}: states")
    alphabet = _expect_names(data["alphabet"], f"{where}: alphabet")
    sidx = {s: i for i, s in enumerate(states)}
    lidx = {a: i for i, a in enumerate(alphabet)}
    if len(sidx) != len(states) or len(lidx) != len(alphabet):
        raise ParseError(f"{where}: state names and labels must be unique")
    rows: list[list[dict[int, Any]]] = [[{} for _ in states] for _ in alphabet]
    read, integers = _prob_reader()
    for i, item, src, label, tgt in _transitions(data, _WEIGHTED, where):
        if src not in sidx or tgt not in sidx:
            raise ParseError(f"{_spot(where, i)}: names an unknown state")
        if label not in lidx:
            raise ParseError(f"{_spot(where, i)}: label {label!r} is not in the alphabet")
        row = rows[lidx[label]][sidx[src]]
        if sidx[tgt] in row:
            raise ParseError(f"{_spot(where, i)}: duplicate transition")
        row[sidx[tgt]] = read(item["prob"], "{}: transitions[{}]: prob", where, i)
    init_data = _expect_dict(data["initial_dist"], f"{where}: initial_dist")
    weights = {}
    for state, prob in init_data.items():
        if state not in sidx:
            raise ParseError(f"{where}: initial_dist names unknown state {state!r}")
        weights[sidx[state]] = read(prob, "{}: initial_dist[{!r}]", where, state)
    accepting = frozenset(_expect_names(data["accepting"], f"{where}: accepting"))
    den, ints = integers()
    try:
        return Pa.from_integer_form(
            states,
            alphabet,
            den,
            _integer_rows(rows, ints),
            sorted((i, ints[v]) for i, v in weights.items()),
            accepting,
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_pa(path: str | Path | InputFile) -> Pa:
    return pa_from_dict(_load_json(path), where=str(path))


def pa_to_dict(pa: Pa) -> dict:
    return {
        "states": list(pa.states),
        "alphabet": list(pa.alphabet),
        "transitions": _transition_dicts(pa.chain),
        "initial_dist": distribution_to_dict(pa.start, pa.chain),
        "accepting": [q for q in pa.states if q in pa.accepting],
    }


def save_pa(pa: Pa, path: str | Path) -> None:
    _write_json(pa_to_dict(pa), path)
