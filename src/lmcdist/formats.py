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
limit is malformed input too.  The ``*_from_dict`` readers also take an
object as the tuple of its (key, value) pairs, the form a file parses to.

What each check runs on, in a strict chain load:

* the bytes, read once (``InputFile``) and parsed with no Python code per
  JSON object: each is the tuple of its pairs, made a dict only where a
  loader reads it, which catches a repeated key (``_load_json``);
* each distinct probability string: ``parse_prob`` once, before the
  records, then one conversion to an integer over the lcm L of the file's
  denominators (``_scale``); a bad value raises where it first occurs;
* each transition record: one step puts its integer in its row and adds it
  to its source's total and predecessors; the field-by-field checks run only
  on a record not in the saver's form, and name and duplicate faults come
  after every other, in the order ``Lmc.from_transitions`` reports them;
* the chain: row totals against L and ``model.unstoppable`` on what the
  record pass collected, ``validate`` only for a violation's text; the
  start: its integer weights in ``InitialDistribution.from_integer_form``.

A PA file is read by the same two readers: its states, alphabet and
transitions by the chain reader, as a chain with no end-of-word entries
that is not checked for stopping, and its "initial_dist" by the start
reader, once ``Pa._stochastic`` has checked the rows on their integers.

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
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import DomainError, ParseError
from .model import InitialDistribution, Lmc, Word, check_start_names, name_fault, unstoppable, validate

# The automaton readers import these where they build one, so reading or
# writing a chain or a start never loads the automata module.
if TYPE_CHECKING:
    from .automata import Nfa, Pa

#: The documented probability strings: ASCII digits, at most one "/", nothing else.
_PROB_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")

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
        match = _PROB_RE.fullmatch(value)
        if not match:
            raise ParseError(
                f"{where}: {value!r} is not a probability; write it as "
                f'"num/den" or an integer string'
            )
        num, den = match.groups()
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past the interpreter's int/str digit limit
            raise _too_many_digits(where) from None
        if not den:
            raise ParseError(f"{where}: {value!r} has denominator zero")
        prob = Fraction(num, den)
    elif isinstance(value, float):
        raise ParseError(
            f"{where}: {value!r} is a binary float; write the exact rational "
            f'as "num/den"'
        )
    else:
        raise ParseError(f"{where}: expected a probability, got {_plain(value)!r}")
    if not 0 <= prob <= 1:
        raise ParseError(f"{where}: probability {prob} is outside [0, 1]")
    return prob


def _too_many_digits(where: str) -> ParseError:
    return ParseError(
        f"{where}: a number has more than {sys.get_int_max_str_digits()} digits"
    )


def _scale(items: list, obj: Any) -> tuple[int, dict[str, int]]:
    """``(L, {s: probability * L})`` over the distinct strings s that
    ``parse_prob`` accepts among the "prob" values of the records ``items``
    and the values of the object ``obj``, L the lcm of their denominators:
    each parsed once, and a bad one left out, to raise where a loader first
    meets it (``_integer``)."""
    try:  # a record of four pairs in the saver's order holds "prob" last
        values = {
            item[3][1] if type(item) is tuple and len(item) == 4 and item[3][0] == "prob"
            else _loose(item).get("prob")
            for item in items
        }
    except (TypeError, IndexError):  # an unhashable value, or a tuple that is not pairs
        values = [_loose(item).get("prob") for item in items]
    probs = {}
    for value in {v for v in [*values, *_loose(obj).values()] if isinstance(v, str)}:
        try:
            probs[value] = parse_prob(value, "")
        except ParseError:
            pass
    den = math.lcm(*{p.denominator for p in probs.values()})
    return den, {value: p.numerator * (den // p.denominator) for value, p in probs.items()}


def _integer(value: Any, den: int, ints: dict[str, int], where: str, *args: Any) -> int:
    """The probability ``value`` times ``den``, from ``ints`` (``_scale``), or
    else an int's (0 or 1); ``parse_prob`` raises for any other value, naming
    ``where.format(*args)``."""
    if isinstance(value, str) and value in ints:
        return ints[value]
    return parse_prob(value, where.format(*args)).numerator * den


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


def _pairs(value: Any) -> bool:
    """Whether ``value`` is a parsed JSON object: a tuple of (key, value) pairs."""
    return type(value) is tuple and (not value or bool(_loose(value)))


def _object(pairs: Sequence[tuple[str, Any]], where: str) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key is a fault."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"{where}: repeated key {key!r}")
            seen.add(key)
    return data


def _loose(value: Any) -> dict:
    """``value`` as a dict if it is a dict or a tuple of pairs, else empty."""
    try:
        return dict(value) if isinstance(value, (dict, tuple)) else {}
    except (TypeError, ValueError):
        return {}


def _plain(value: Any) -> Any:
    """A parsed JSON value with each object a dict again, as messages print it."""
    if _pairs(value):
        return {key: _plain(v) for key, v in value}
    return [_plain(v) for v in value] if type(value) is list else value


def _expect_dict(value: Any, where: str) -> dict:
    if type(value) is tuple:  # a parsed JSON object: its (key, value) pairs
        data = _loose(value)
        if data or not value:
            return data if len(data) == len(value) else _object(value, where)
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
    if len(data) > len(required):  # all of them are there, so some other key is too
        unknown = [k for k in data if k not in required]
        raise ParseError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        kind = "dict" if _pairs(value) else type(value).__name__
        raise ParseError(f"{where}: expected a string, got {kind}")
    return value


#: Keys of a chain or PA transition record, in the order the saver writes them.
_WEIGHTED = ("from", "label", "to", "prob")


def _transition_list(data: dict, where: str) -> list:
    if not isinstance(data["transitions"], list):
        raise ParseError(f"{where}: transitions: expected an array")
    return data["transitions"]


def _record(item: Any, keys: Sequence[str], spot: str) -> tuple[dict, str, str, str]:
    """A transition record checked field by field: ``(record, from, label, to)``."""
    item = _expect_dict(item, spot)
    _expect_keys(item, keys, spot)
    src, label, tgt = item["from"], item["label"], item["to"]
    if type(src) is str and type(label) is str and type(tgt) is str:
        return item, src, label, tgt
    return (item, *(_expect_str(item[key], f"{spot}: {key}") for key in ("from", "label", "to")))


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


def _load_json(source: str | Path | InputFile, build: Callable, *args: Any) -> Any:
    """``build(tree, *args, where=path)`` on one file's JSON, each object in
    it the tuple of its pairs (``_expect_dict`` reads them).  A file that
    fails is parsed again, each object checked as it closes, so that a
    repeated key is reported before any other fault, JSON faults next."""
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
    try:
        return build(json.loads(text, object_pairs_hook=tuple), *args, where=path)
    except (ValueError, RecursionError):  # a ParseError, or a JSON fault
        try:
            json.loads(text, object_pairs_hook=lambda pairs: _object(pairs, path))
        except ParseError as repeated:
            raise repeated from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
        except ValueError:  # an integer past the interpreter's int/str digit limit
            raise _too_many_digits(path) from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply to parse") from None
        raise


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
    items = _transition_list(data, where)
    den, ints = _scale(items, data["eow"])
    n = len(states)
    sidx = {s: i for i, s in enumerate(states)}
    lidx = {a: k for k, a in enumerate(alphabet)}
    rows = [[()] * n for _ in alphabet]
    totals = [0] * n
    preds: list[list[int]] = [[] for _ in states]
    zero = 0 in ints.values()  # a zero entry stays in its row for the duplicate check
    fault = None  # the first name or duplicate fault: raised after every other fault
    for at, item in enumerate(items):
        try:
            if type(item) is tuple:  # a parsed record: four pairs in the saver's order
                (f, src), (l, label), (t, tgt), (p, prob) = item
                if f != "from" or l != "label" or t != "to" or p != "prob":
                    raise KeyError
            elif isinstance(item, dict) and len(item) == 4:
                src, label, tgt, prob = item["from"], item["label"], item["to"], item["prob"]
            else:
                raise KeyError
            k, i, j, x = lidx[label], sidx[src], sidx[tgt], ints[prob]
        except (KeyError, TypeError, ValueError):
            spot = f"{where}: transitions[{at}]"
            item, src, label, tgt = _record(item, _WEIGHTED, spot)
            x = _integer(item["prob"], den, ints, "{}: prob", spot)
            zero = zero or not x
            fault = fault or name_fault(src, label, tgt, sidx, lidx)
            if fault:
                continue
            k, i, j = lidx[label], sidx[src], sidx[tgt]
        row = rows[k][i]
        if row and row[-1][0] >= j:  # out of target order: a duplicate, or a row to sort
            if any(e[0] == j for e in row):
                fault = fault or f"duplicate transition {src!r} --{label!r}--> {tgt!r}"
                continue
            rows[k][i] = tuple(sorted(row + ((j, x),)))
        else:
            rows[k][i] = row + ((j, x),)
        totals[i] += x
        if x:
            preds[j].append(i)
    eow = [0] * n
    for state, prob in _expect_dict(data["eow"], f"{where}: eow").items():
        x = _integer(prob, den, ints, "{}: eow[{!r}]", where, _expect_str(state, f"{where}: eow key"))
        if state in sidx:
            eow[sidx[state]] = x
        else:
            fault = fault or f"end-of-word entry names unknown state {state!r}"
    if len(sidx) < n:
        fault = "state names must be unique"
    elif len(lidx) < len(alphabet):
        fault = "labels must be unique"
    if fault or not n:
        raise ParseError(f"{where}: {fault or 'a chain needs at least one state'}")
    if zero:
        rows = [[tuple(e for e in row if e[1]) for row in label_rows] for label_rows in rows]
    # Every invariant ``Lmc.from_integer_form`` checks holds by construction,
    # so the chain is stored as built: the entries are ints (from ``_scale``,
    # or an int probability times L); the targets are state indices, so in
    # range, and strictly ascending (a row that arrives out of order is
    # sorted, and a repeated target is a duplicate fault); no zero entry is
    # left; and the form is in lowest terms, because L is the lcm of the
    # reduced denominators of the probabilities the chain holds.
    lmc = Lmc._built(states, alphabet, (den, tuple(map(tuple, rows)), tuple(eow)))
    if strict and (any(t + e != den for t, e in zip(totals, eow)) or unstoppable(preds, eow)):
        raise ParseError(f"{where}: " + "; ".join(validate(lmc)))
    return lmc


def load_lmc(path: str | Path | InputFile, strict: bool = True) -> Lmc:
    return _load_json(path, lmc_from_dict, strict)


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
    den, ints = _scale([], data)
    weights = {
        _expect_str(state, f"{where}: key"): _integer(prob, den, ints, "{}[{!r}]", where, state)
        for state, prob in data.items()
    }
    try:
        check_start_names(lmc, weights)
        index = lmc.state_index
        return InitialDistribution.from_integer_form(
            lmc.n_states, den, sorted((index[s], x) for s, x in weights.items())
        )
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_distribution(path: str | Path | InputFile, lmc: Lmc) -> InitialDistribution:
    return _load_json(path, distribution_from_dict, lmc)


def distribution_to_dict(pi: InitialDistribution, lmc: Lmc) -> dict:
    den, pairs = pi.integer_form
    text = _ratio_strs(den)
    return {lmc.states[i]: text(x) for i, x in pairs}


def save_distribution(pi: InitialDistribution, lmc: Lmc, path: str | Path) -> None:
    _write_json(distribution_to_dict(pi, lmc), path)


# -- nondeterministic finite automata ----------------------------------------------


def nfa_from_dict(data: Any, where: str = "<nfa>") -> Nfa:
    from .automata import Nfa

    data = _expect_dict(data, where)
    _expect_keys(data, ("states", "alphabet", "initial", "accepting", "transitions"), where)
    triples: dict[tuple[str, str, str], None] = {}  # in file order
    for at, item in enumerate(_transition_list(data, where)):
        spot = f"{where}: transitions[{at}]"
        triple = _record(item, ("from", "label", "to"), spot)[1:]
        if triple in triples:
            raise ParseError(f"{spot}: duplicate transition")
        triples[triple] = None
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
    return _load_json(path, nfa_from_dict)


# -- probabilistic automata ---------------------------------------------------------


def pa_from_dict(data: Any, where: str = "<pa>") -> Pa:
    from .automata import Pa

    data = _expect_dict(data, where)
    _expect_keys(data, ("states", "alphabet", "transitions", "initial_dist", "accepting"), where)
    fields = {key: data[key] for key in ("states", "alphabet", "transitions")}
    chain = lmc_from_dict({**fields, "eow": {}}, strict=False, where=where)
    accepting = frozenset(_expect_names(data["accepting"], f"{where}: accepting"))
    # L is the lcm of the records' denominators: L or 0 keeps lowest terms.
    den, rows, _ = chain.integer_form
    flags = tuple(den if q in accepting else 0 for q in chain.states)
    try:
        chain = Pa._stochastic(Lmc._built(chain.states, chain.alphabet, (den, rows, flags)))
        start = distribution_from_dict(data["initial_dist"], chain, f"{where}: initial_dist")
        return Pa._built(chain, start, accepting)
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from None


def load_pa(path: str | Path | InputFile) -> Pa:
    return _load_json(path, pa_from_dict)


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
