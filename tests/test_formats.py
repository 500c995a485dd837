"""Loader messages: the exact ``ParseError`` text for malformed ``transitions``
in chain, NFA and PA files, the order in which two faults are reported, the
rejection of a key repeated in any JSON object, and exit 3 for files that
are not UTF-8, nest too deeply or hold over-long numbers; and hand-written
files: rows out of target order, objects where names belong."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lmcdist
from lmcdist.cli import main
from lmcdist.errors import ParseError
from lmcdist.formats import (
    InputFile,
    decimal15,
    load_distribution,
    load_lmc,
    load_nfa,
    load_pa,
    parse_prob,
    save_lmc,
    save_pa,
)

from helpers import always_accepting_pa, at_most_half_pa, late_branch_pa, random_pa

CHAIN = {
    "states": ["s", "t"],
    "alphabet": ["a"],
    "transitions": [{"from": "s", "label": "a", "to": "t", "prob": "1/2"}],
    "eow": {"s": "1/2", "t": 1},
}

NFA = {
    "states": ["s", "t"],
    "alphabet": ["a"],
    "initial": "s",
    "accepting": ["t"],
    "transitions": [{"from": "s", "label": "a", "to": "t"}],
}

PA = {
    "states": ["s", "t"],
    "alphabet": ["a"],
    "transitions": [
        {"from": "s", "label": "a", "to": "t", "prob": 1},
        {"from": "t", "label": "a", "to": "t", "prob": 1},
    ],
    "initial_dist": {"s": 1},
    "accepting": ["t"],
}

KINDS = {"chain": (CHAIN, load_lmc), "nfa": (NFA, load_nfa), "pa": (PA, load_pa)}

FLOAT = 'f.json: transitions[0]: prob: 0.5 is a binary float; write the exact rational as "num/den"'


def _set_first(**changes):
    """Edit the first transition: a value of None deletes that key."""

    def edit(data):
        item = data["transitions"][0]
        for key, value in changes.items():
            if value is None:
                del item[key]
            else:
                item[key] = value

    return edit


def _not_array(data):
    data["transitions"] = {}


def _list_item(data):
    data["transitions"][0] = ["s", "a", "t"]


def _duplicate(data):
    data["transitions"].append(dict(data["transitions"][0]))


def _no_states(data):
    data.update(states=[], transitions=[], initial_dist={}, accepting=[])


FAULTS = {
    "not-array": _not_array,
    "item-not-object": _list_item,
    "missing-key": _set_first(to=None),
    "unknown-key": _set_first(weight="1"),
    "non-string-from": _set_first(**{"from": 0}),
    "float-prob": _set_first(prob=0.5),
    "unknown-state": _set_first(to="z"),
    "unknown-label": _set_first(label="b"),
    "duplicate": _duplicate,
    "duplicate-state": lambda data: data["states"].append("s"),
    "duplicate-label": lambda data: data["alphabet"].append("a"),
    "no-states": _no_states,
}

#: (fault, kind) -> the ParseError text when ``f.json`` holds that file
MESSAGES = {
    ("not-array", "chain"): "f.json: transitions: expected an array",
    ("not-array", "nfa"): "f.json: transitions: expected an array",
    ("not-array", "pa"): "f.json: transitions: expected an array",
    ("item-not-object", "chain"): "f.json: transitions[0]: expected an object, got list",
    ("item-not-object", "nfa"): "f.json: transitions[0]: expected an object, got list",
    ("item-not-object", "pa"): "f.json: transitions[0]: expected an object, got list",
    ("missing-key", "chain"): "f.json: transitions[0]: missing key(s) 'to'",
    ("missing-key", "nfa"): "f.json: transitions[0]: missing key(s) 'to'",
    ("missing-key", "pa"): "f.json: transitions[0]: missing key(s) 'to'",
    ("unknown-key", "chain"): "f.json: transitions[0]: unknown key(s) 'weight'",
    ("unknown-key", "nfa"): "f.json: transitions[0]: unknown key(s) 'weight'",
    ("unknown-key", "pa"): "f.json: transitions[0]: unknown key(s) 'weight'",
    ("non-string-from", "chain"): "f.json: transitions[0]: from: expected a string, got int",
    ("non-string-from", "nfa"): "f.json: transitions[0]: from: expected a string, got int",
    ("non-string-from", "pa"): "f.json: transitions[0]: from: expected a string, got int",
    ("float-prob", "chain"): FLOAT,
    # An NFA transition has no probability, so "prob" is an unknown key.
    ("float-prob", "nfa"): "f.json: transitions[0]: unknown key(s) 'prob'",
    ("float-prob", "pa"): FLOAT,
    ("unknown-state", "chain"): "f.json: transition target 'z' is not a declared state",
    ("unknown-state", "nfa"): "f.json: transition ('s', 'a', 'z') names an unknown state",
    ("unknown-state", "pa"): "f.json: transition target 'z' is not a declared state",
    ("unknown-label", "chain"): "f.json: transition label 'b' is not in the alphabet",
    ("unknown-label", "nfa"): "f.json: transition label 'b' is not in the alphabet",
    ("unknown-label", "pa"): "f.json: transition label 'b' is not in the alphabet",
    ("duplicate", "chain"): "f.json: duplicate transition 's' --'a'--> 't'",
    ("duplicate", "nfa"): "f.json: transitions[1]: duplicate transition",
    ("duplicate", "pa"): "f.json: duplicate transition 's' --'a'--> 't'",
    ("duplicate-state", "pa"): "f.json: state names must be unique",
    ("duplicate-label", "pa"): "f.json: labels must be unique",
    ("no-states", "pa"): "f.json: a chain needs at least one state",
}


def _write(tmp_path, monkeypatch, data):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps(data), encoding="utf-8")
    return "f.json"


@pytest.mark.parametrize("fault, kind", sorted(MESSAGES))
def test_transition_faults_are_named(tmp_path, monkeypatch, fault, kind):
    base, load = KINDS[kind]
    data = copy.deepcopy(base)
    FAULTS[fault](data)
    path = _write(tmp_path, monkeypatch, data)
    with pytest.raises(ParseError) as exc:
        load(path)
    assert str(exc.value) == MESSAGES[fault, kind]


@pytest.mark.parametrize(
    "transitions, message",
    [
        # Within one record, the probability is checked before membership,
        # as in a chain file: name faults come after every other.
        ([{"from": "s", "label": "a", "to": "z", "prob": 0.5}], FLOAT),
        # Records are checked in order: the first record's probability before
        # the second record's shape.
        ([{"from": "s", "label": "a", "to": "t", "prob": 0.5}, 7], FLOAT),
    ],
    ids=["membership-before-prob", "records-in-order"],
)
def test_pa_reports_the_first_of_two_faults(tmp_path, monkeypatch, transitions, message):
    data = copy.deepcopy(PA)
    data["transitions"] = transitions
    with pytest.raises(ParseError) as exc:
        load_pa(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == message


def test_pa_reports_a_row_sum_before_the_start(tmp_path, monkeypatch):
    data = copy.deepcopy(PA)
    data["transitions"][0]["prob"] = "1/2"
    data["initial_dist"] = {"s": "1/2"}
    with pytest.raises(ParseError) as exc:
        load_pa(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == "f.json: row of state 's' under label 'a' sums to 1/2, expected 1"


@pytest.mark.parametrize("seed", range(6))
def test_a_saved_pa_loads_equal(tmp_path, seed):
    rng = random.Random(seed)
    for pa in (always_accepting_pa(), at_most_half_pa(), late_branch_pa(), random_pa(rng), random_pa(rng, 5, 1)):
        save_pa(pa, tmp_path / "pa.json")
        loaded = load_pa(tmp_path / "pa.json")
        assert loaded == pa and hash(loaded) == hash(pa)


#: Loads ``f.json`` as an NFA and prints the ParseError text.
_LOAD_NFA = """
from lmcdist.errors import ParseError
from lmcdist.formats import load_nfa
try:
    load_nfa("f.json")
except ParseError as exc:
    print(exc)
"""


def test_nfa_reports_the_first_unknown_state_under_every_hash_seed(tmp_path, monkeypatch):
    # Nfa.transitions is a frozenset; the faults must still be checked in
    # file order, not in the set's string-hash order.
    data = copy.deepcopy(NFA)
    data["transitions"] = [{"from": "s", "label": "a", "to": name} for name in ("x", "y", "z")]
    _write(tmp_path, monkeypatch, data)
    src = str(Path(lmcdist.__file__).resolve().parent.parent)
    seen = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _LOAD_NFA], env=env, capture_output=True, text=True, check=True
        )
        seen.add(done.stdout)
    assert seen == {"f.json: transition ('s', 'a', 'x') names an unknown state\n"}


#: (file kind, JSON text with one repeated key, that key)
REPEATED = {
    "chain-eow": (
        '{"states": ["s", "t"], "alphabet": ["a"], "transitions": [], '
        '"eow": {"s": "1", "s": "0", "t": "1"}}',
        "s",
    ),
    "chain-top-level": (
        '{"states": ["s"], "alphabet": ["a"], "transitions": [], "eow": {"s": 1}, "eow": {}}',
        "eow",
    ),
    "pa-initial-dist": (
        '{"states": ["s"], "alphabet": ["a"], '
        '"transitions": [{"from": "s", "label": "a", "to": "s", "prob": 1}], '
        '"initial_dist": {"s": 1, "s": 1}, "accepting": []}',
        "s",
    ),
    "pa-transition-record": (
        '{"states": ["s"], "alphabet": ["a"], '
        '"transitions": [{"from": "s", "label": "a", "to": "s", "prob": 1, "prob": 0}], '
        '"initial_dist": {"s": 1}, "accepting": []}',
        "prob",
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_repeated_keys_are_rejected(tmp_path, monkeypatch, case):
    text, key = REPEATED[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(text, encoding="utf-8")
    load = load_pa if case.startswith("pa") else load_lmc
    with pytest.raises(ParseError) as exc:
        load("f.json")
    assert str(exc.value) == f"f.json: repeated key {key!r}"


def test_repeated_key_in_a_distribution_file_exits_3(tmp_path, monkeypatch, capsys):
    # Plain JSON parsing keeps the last "s0", and the report would read s0 = 0.
    monkeypatch.chdir(tmp_path)
    Path("lmc.json").write_text(
        json.dumps({"states": ["s0", "s1"], "alphabet": [], "transitions": [], "eow": {"s0": 1, "s1": 1}}),
        encoding="utf-8",
    )
    Path("dup.json").write_text('{"s0": "1", "s0": "0", "s1": "1"}', encoding="utf-8")
    assert main(["prob", "lmc.json", "dup.json", "ε"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "dup.json: repeated key 's0'" in err


#: A chain record in the saver's key order, with its probability.
_RECORD = '{"from": "s", "label": "a", "to": "t", "prob": %s}'

#: (loader, JSON text with one key repeated, that key): one case per place an
#: object stands in a file; a parsed object is its pairs until a loader reads it.
REPEATED_EVERYWHERE = {
    "top-level": ("chain", '{"states": ["s", "t"], "states": ["s", "t"], "alphabet": ["a"], '
                  '"transitions": [], "eow": {"s": 1, "t": 1}}', "states"),
    "chain-record": ("chain", '{"states": ["s", "t"], "alphabet": ["a"], "transitions": ['
                     + _RECORD % '"1/2"' + ", "
                     + '{"from": "s", "label": "a", "label": "a", "to": "t", "prob": "1/2"}], '
                     '"eow": {"t": 1}}', "label"),
    "eow": ("chain", '{"states": ["s", "t"], "alphabet": ["a"], "transitions": [], '
            '"eow": {"s": 1, "t": 1, "t": 1}}', "t"),
    "start": ("start", '{"s": "1/2", "t": "1/2", "s": "1/2"}', "s"),
    "pa-initial-dist": ("pa", '{"states": ["s"], "alphabet": ["a"], '
                        '"transitions": [{"from": "s", "label": "a", "to": "s", "prob": 1}], '
                        '"initial_dist": {"s": "1/2", "s": "1/2"}, "accepting": []}', "s"),
    "nfa-record": ("nfa", '{"states": ["s"], "alphabet": ["a"], "initial": "s", "accepting": [], '
                   '"transitions": [{"from": "s", "to": "s", "label": "a", "to": "s"}]}', "to"),
}


def _load_any(kind: str, path: str):
    if kind == "start":
        return load_distribution(path, load_lmc(InputFile("c.json", json.dumps(CHAIN).encode())))
    return {"chain": load_lmc, "nfa": load_nfa, "pa": load_pa}[kind](path)


@pytest.mark.parametrize("case", sorted(REPEATED_EVERYWHERE))
def test_a_repeated_key_is_caught_in_every_object_position(tmp_path, monkeypatch, case):
    kind, text, key = REPEATED_EVERYWHERE[case]
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        _load_any(kind, "f.json")
    assert str(exc.value) == f"f.json: repeated key {key!r}"


@pytest.mark.parametrize(
    "text, key",
    [
        # An earlier record's shape fault, a later record's repeated key.
        ('{"states": ["s", "t"], "alphabet": ["a"], "transitions": [7, '
         '{"from": "s", "label": "a", "to": "t", "prob": "1", "prob": "1"}], "eow": {"t": 1}}', "prob"),
        # A repeated key in an object that closes before a syntax fault.
        ('{"eow": {"s": 1, "s": 1}, "states": [}', "s"),
        # Two repeats: the inner object closes first.
        ('{"eow": {"s": 1, "s": 1}, "eow": {}}', "s"),
    ],
    ids=["before-a-shape-fault", "before-a-syntax-fault", "inner-object-first"],
)
def test_a_repeated_key_is_reported_before_any_other_fault(tmp_path, monkeypatch, text, key):
    # As when every object was checked as the parser closed it.
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_lmc("f.json")
    assert str(exc.value) == f"f.json: repeated key {key!r}"


def test_rows_out_of_target_order_load_as_saved(tmp_path, monkeypatch):
    # A hand-written chain lists a row's targets in any order; the saver
    # writes them ascending.  Both load to the same chain.
    data = {
        "states": ["s", "t", "u"],
        "alphabet": ["a", "b"],
        "transitions": [
            {"from": "s", "label": "a", "to": "u", "prob": "1/4"},
            {"from": "s", "label": "b", "to": "s", "prob": "1/8"},
            {"from": "s", "label": "a", "to": "t", "prob": "1/4"},
            {"prob": "1/8", "to": "s", "label": "a", "from": "s"},
            {"from": "t", "label": "a", "to": "u", "prob": 1},
        ],
        "eow": {"s": "1/4", "u": 1},
    }
    hand = load_lmc(_write(tmp_path, monkeypatch, data))
    saved = tmp_path / "saved.json"
    save_lmc(hand, saved)
    assert load_lmc(saved) == hand
    assert hand.integer_form[1][0][0] == ((0, 1), (1, 2), (2, 2))
    assert json.loads(saved.read_text())["transitions"][0]["to"] == "s"
    # A duplicate in such a row is still found, also of a target not last.
    data["transitions"].append({"from": "s", "label": "a", "to": "t", "prob": "1/4"})
    with pytest.raises(ParseError) as exc:
        load_lmc(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == "f.json: duplicate transition 's' --'a'--> 't'"


@pytest.mark.parametrize(
    "field, message",
    [
        ("from", "f.json: transitions[0]: from: expected a string, got dict"),
        ("prob", "f.json: transitions[0]: prob: expected a probability, got {'x': [{'y': 1}]}"),
    ],
)
def test_an_object_in_a_field_prints_as_a_dict(tmp_path, monkeypatch, field, message):
    # A file's objects are parsed as tuples of pairs; messages still name
    # and print them as the dicts they are.
    data = copy.deepcopy(CHAIN)
    data["transitions"][0][field] = {"x": [{"y": 1}]}
    with pytest.raises(ParseError) as exc:
        load_lmc(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == message


#: Loads ``f.json`` as a chain and prints the ParseError text.
_LOAD_CHAIN = _LOAD_NFA.replace("load_nfa", "load_lmc")


def test_the_first_bad_probability_is_reported_under_every_hash_seed(tmp_path, monkeypatch):
    # Each distinct probability string is parsed once, from a set, before
    # the records are read; the fault must still be the earlier record's.
    data = copy.deepcopy(CHAIN)
    data["transitions"] = [
        {"from": "s", "label": "a", "to": "t", "prob": "1/2"},
        {"from": "t", "label": "a", "to": "t", "prob": "5/0"},
        {"from": "t", "label": "a", "to": "s", "prob": "3/2"},
    ]
    data["eow"] = {"s": "1/0", "t": "7/4"}
    _write(tmp_path, monkeypatch, data)
    src = str(Path(lmcdist.__file__).resolve().parent.parent)
    seen = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _LOAD_CHAIN], env=env, capture_output=True, text=True, check=True
        )
        seen.add(done.stdout)
    assert seen == {"f.json: transitions[1]: prob: '5/0' has denominator zero\n"}


def test_decimal15_rounds_once_at_the_fifteenth_digit():
    # Just above a tie at the 15th digit: a half-even division to 50 digits
    # would land on the tie and then round down.
    tie = Fraction("0.1234567890123445")
    assert decimal15(tie + Fraction(1, 10**80)) == "0.123456789012345"
    assert decimal15(tie) == "0.123456789012344"
    assert decimal15(tie - Fraction(1, 10**80)) == "0.123456789012344"


#: (file name, its bytes): each is malformed below the JSON grammar's checks.
MALFORMED = {
    "not-utf8": b'\xff{',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "long-json-integer": b'{"states": ["s"], "alphabet": [], "transitions": [], "eow": {"s": '
    + b"1" * 5000
    + b"}}",
    "long-probability-string": b'{"states": ["s"], "alphabet": [], "transitions": [], "eow": {"s": "1/'
    + b"1" * 5000
    + b'"}}',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_exit_3(tmp_path, monkeypatch, capsys, case):
    # Each of these raised past the loader (UnicodeDecodeError, RecursionError,
    # ValueError) and exited 1 with a traceback.
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_bytes(MALFORMED[case])
    assert main(["validate", "f.json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: f.json") and err.count("\n") == 1


def test_a_repeated_bad_probability_is_reported_where_it_first_occurs(tmp_path, monkeypatch):
    data = copy.deepcopy(CHAIN)
    data["transitions"] = [
        {"from": "s", "label": "a", "to": "t", "prob": "1/2"},
        {"from": "t", "label": "a", "to": "t", "prob": "1/0"},
        {"from": "t", "label": "a", "to": "s", "prob": "1/0"},
    ]
    data["eow"] = {"s": "1/0", "t": "1/2"}
    with pytest.raises(ParseError) as exc:
        load_lmc(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == "f.json: transitions[1]: prob: '1/0' has denominator zero"
    # Without the bad records, the first bad value is the stop probability.
    del data["transitions"][1:]
    with pytest.raises(ParseError) as exc:
        load_lmc(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == "f.json: eow['s']: '1/0' has denominator zero"


def test_each_input_is_read_once_and_hashed_as_parsed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("lmc.json").write_text(json.dumps(CHAIN), encoding="utf-8")
    Path("pi1.json").write_text('{"s": "1"}', encoding="utf-8")
    Path("pi2.json").write_text('{"t": 1}', encoding="utf-8")
    digests = [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in ("lmc.json", "pi1.json", "pi2.json")]
    reads = []
    for name in ("read_bytes", "read_text"):
        original = getattr(Path, name)

        def counted(self, *args, _original=original, **kwargs):
            reads.append(str(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, counted)
    assert main(["exact", "lmc.json", "pi1.json", "pi2.json", "--json"]) == 0
    assert sorted(reads) == ["lmc.json", "pi1.json", "pi2.json"]
    inputs = json.loads(capsys.readouterr().out)["manifest"]["inputs"]
    assert [item["sha256"] for item in inputs] == digests


def test_a_loader_parses_the_bytes_it_is_given(tmp_path, monkeypatch):
    # The file on disk changed after it was read: the chain comes from the
    # bytes read, which are the ones a report hashes.
    path = _write(tmp_path, monkeypatch, CHAIN)
    source = InputFile.read(path)
    Path(path).write_text("not JSON", encoding="utf-8")
    assert load_lmc(source).states == ("s", "t")
    assert str(source) == "f.json"


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "f.json: eow['t']: expected a probability, got True"),
        (1.0, 'f.json: eow[\'t\']: 1.0 is a binary float; write the exact rational as "num/den"'),
    ],
)
def test_a_bool_or_float_is_not_taken_for_an_equal_int(tmp_path, monkeypatch, value, message):
    # True == 1 and 1.0 == 1: a parse of the int 1 must not be reused for them.
    data = copy.deepcopy(CHAIN)
    data["transitions"][0]["prob"] = 1
    data["eow"] = {"s": 0, "t": value}
    with pytest.raises(ParseError) as exc:
        load_lmc(_write(tmp_path, monkeypatch, data))
    assert str(exc.value) == message


@pytest.mark.parametrize("value", ["1/2\n", "\u0661/\u0662", "\uff11", "1/2 "])
def test_a_probability_string_is_ascii_digits_and_nothing_else(value):
    # A trailing newline and non-ASCII decimal digits are not the "num/den"
    # form, though a looser pattern and Fraction would both read them.
    with pytest.raises(ParseError) as info:
        parse_prob(value, "here")
    assert str(info.value) == (
        f'here: {value!r} is not a probability; write it as "num/den" or an integer string'
    )


def test_num_den_and_integer_strings_still_parse():
    assert parse_prob("1/2", "here") == Fraction(1, 2)
    assert parse_prob("1", "here") == 1
    # "3" has the documented form; only the range check refuses it.
    with pytest.raises(ParseError, match=r"^here: probability 3 is outside \[0, 1\]$"):
        parse_prob("3", "here")
