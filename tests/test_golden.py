"""Golden CLI output: the ``--json`` stdout of the enumerating commands, and
the instance files that ``from-nfa`` and ``from-pa`` write, pinned byte for
byte by SHA-256.

The enumerating digests were recorded before the exact commands moved from
the depth-first walker to the layered one, and the ``sample`` digests before
the sampler's draw loop was inlined, and the ``bounded`` digests once
``--step-cap`` was gone (each equals the earlier report with only
``step_cap`` dropped from its manifest), and the ``equiv`` and ``from-pa``
digests before both moved onto the one integer elimination, so any change to
a report (a field, a digit, the order of the witness words, one bit more or
less drawn from a seeded stream) fails here.  Inputs are written under fixed relative names,
which the manifest records.
"""

import hashlib
import json

import pytest

from lmcdist import disjoint_union
from lmcdist.automata import nfa_to_lmc
from lmcdist.cli import main
from lmcdist.formats import save_distribution, save_lmc, save_pa

from helpers import (
    at_most_half_pa,
    example_nfa,
    late_branch_pa,
    relabeled_copy,
    wide_denominator_instance,
    worked_example_pair,
    worked_example_union,
)

#: command arguments (after the input files) -> SHA-256 of the stdout
PAIR_GOLDEN = {
    ("exact",): "15c87d21c8795c448859a0cea9f6c027422a51e6214fe310299578b52ec232f3",
    ("exact", "--words"): "233edecdee221bb8f99972474b071962f0cee40e8800178f56eefa15aaa7a70a",
    ("lk", "-k", "2"): "c7c4e93cd102612079a1495bef87af77c72bf7dbcc71c6131685c9fc4c7078cd",
    ("threshold", "--tau", "{distance}", "--strict"): "758402df3186e6bc621af125ad00bd8ea477f0bebc21196bdb26ecc3a6662cf6",
    ("threshold", "--tau", "{distance}", "--non-strict"): "8ecddd6e1fc1a5158c42e73621e66d7a7dfc085748bd350dc2790e488b4c61b5",
}

PA_GOLDEN = {
    ("late.json", "--max-len", "6"): "6b88488eb7387e53401d154050f0842e001759b12fbe340055b7923d7f8c2def",
    ("half.json", "--max-len", "6"): "95b2770b9808344905bda829adace650095c6976c4811bbbbf65311a007f4e38",
}

#: sample arguments (the chain prefix, then options) -> SHA-256 of the stdout.
#: The ``wide`` chain's large odd totals make draws span two 64-bit refills;
#: its small state refines bit by bit (``wide_denominator_instance``).
SAMPLE_GOLDEN = {
    ("", "--eps", "1/10", "--delta", "1/20", "--seed", "1"): "ae221917473b2ec48ee8a1923e19e48c21cbc321fa2527b9d866f4a04d9cceef",
    ("", "--eps", "1/10", "--delta", "1/20", "--seed", "5"): "6d1d44c63a50ee3a2a4c00eac7b825f5918251226ec003c1e17abde3f4c7df6a",
    ("wide-", "--eps", "1/5", "--delta", "1/10", "--seed", "3"): "31a24551bbb6ca1c75bc9c098860d7c0083e0ca9b4f653a5409ff0f3c03b236f",
}

#: bounded arguments (the chain prefix, then options) -> SHA-256 of the stdout
BOUNDED_GOLDEN = {
    ("", "--eps", "1/4"): "f4bd23dd4e3987d7994b4db0d3f96832c3e96cad6656a9dd7f190be6c1ed43f9",
    ("union-", "--eps", "1/4"): "3bfc04ece3504f613d317fbfab1706b97decf81f3704f18b3a06fc7532150ac1",
    ("union-", "--eps", "1/8"): "2e9fcb0da4bb263f47779c4b0700e46ad4c76eead83880ddf7ee195fd49efbc0",
}


#: equiv chain prefix -> SHA-256 of the stdout.  ``twin-`` is the worked
#: example's cyclic second chain united with its relabelled copy (equivalent);
#: the other two pairs are not equivalent.
EQUIV_GOLDEN = {
    ("",): "3d98dc51c870625f67c5edc442166da0df197c9190952d504f4a31e1d76423c9",
    ("union-",): "801f6b7d9b96a6edeb5e04529f57b881e60d29e82490a4f1d4405901c6176019",
    ("twin-",): "ac97e419215a211f36d9c0c5f15177cf8e0556b4a0d65a076cc5549e777e98ee",
}

#: from-pa arguments -> SHA-256 of the stdout, which prints the solved ``bound``
FROM_PA_GOLDEN = {
    ("half.json", "--out", "half-out"): "2d41ef8c26d7295ff34f6d9fea7935a49ff5660ec55323554de30fde8cba9412",
    ("late.json", "--out", "late-out"): "6f56472eb777f4452dd7f51f780cfa67cf363ffe0fea064ddd2e1c8dc64325c6",
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    red = nfa_to_lmc(example_nfa(), 4)
    save_lmc(red.lmc, "lmc.json")
    save_distribution(red.pi1, red.lmc, "pi1.json")
    save_distribution(red.pi2, red.lmc, "pi2.json")
    save_pa(late_branch_pa(), "late.json")
    save_pa(at_most_half_pa(), "half.json")
    wide, w1, w2 = wide_denominator_instance()
    save_lmc(wide, "wide-lmc.json")
    save_distribution(w1, wide, "wide-pi1.json")
    save_distribution(w2, wide, "wide-pi2.json")
    union, u1, u2 = worked_example_union()
    save_lmc(union, "union-lmc.json")
    save_distribution(u1, union, "union-pi1.json")
    save_distribution(u2, union, "union-pi2.json")
    _, _, chain, pi = worked_example_pair()
    twin, t1, t2 = disjoint_union(chain, pi, *relabeled_copy(chain, pi))
    save_lmc(twin, "twin-lmc.json")
    save_distribution(t1, twin, "twin-pi1.json")
    save_distribution(t2, twin, "twin-pi2.json")


def _stdout(capsys, *args):
    code = main([*args, "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_pair_commands_are_byte_identical(inputs, capsys):
    out = _stdout(capsys, "exact", "lmc.json", "pi1.json", "pi2.json")
    distance = json.loads(out)["results"]["distance"]["rational"]
    got = {}
    for args in PAIR_GOLDEN:
        filled = [a.format(distance=distance) for a in args]
        got[args] = _digest(_stdout(capsys, filled[0], "lmc.json", "pi1.json", "pi2.json", *filled[1:]))
    assert got == PAIR_GOLDEN


def test_pa_witness_is_byte_identical(inputs, capsys):
    got = {args: _digest(_stdout(capsys, "pa-witness", *args)) for args in PA_GOLDEN}
    assert got == PA_GOLDEN


def _prefixed_digests(capsys, command, golden):
    got = {}
    for prefix, *options in golden:
        files = [f"{prefix}{name}.json" for name in ("lmc", "pi1", "pi2")]
        got[(prefix, *options)] = _digest(_stdout(capsys, command, *files, *options))
    return got


def test_sample_is_byte_identical(inputs, capsys):
    assert _prefixed_digests(capsys, "sample", SAMPLE_GOLDEN) == SAMPLE_GOLDEN


def test_bounded_is_byte_identical(inputs, capsys):
    assert _prefixed_digests(capsys, "bounded", BOUNDED_GOLDEN) == BOUNDED_GOLDEN


def test_equiv_is_byte_identical(inputs, capsys):
    assert _prefixed_digests(capsys, "equiv", EQUIV_GOLDEN) == EQUIV_GOLDEN


def test_from_pa_is_byte_identical(inputs, capsys):
    got = {args: _digest(_stdout(capsys, "from-pa", *args)) for args in FROM_PA_GOLDEN}
    assert got == FROM_PA_GOLDEN


#: (command, input, options) -> SHA-256 of each instance file it writes,
#: recorded while chains were still stored as dense matrices.  The files list
#: transitions in ``Lmc.transition_records`` order (label, then source, then
#: target).
INSTANCE_GOLDEN = {
    ("from-nfa", "nfa.json", "-n", "3"): {
        "lmc.json": "9f6438083614c5bdd67c3d4b06ddb6e61c2daac9f09149530642e278c6ea1737",
        "pi1.json": "f75909ebf9b8c1a13a28234a9e57b405b30ecccf652fbc8a3a40589267d19d3a",
        "pi2.json": "934659e435d66d2f05d3d5f40dba8ee148e536381abdc68318b9785d4e2c12f9",
    },
    ("from-pa", "half.json"): {
        "lmc.json": "7a1d923ce994b87313df9256368a3f5965b1ed62cf198fe94f5ab4af6fd98b6a",
        "pi1.json": "32532617cad341d17dd9849a152ec5894b3801118202da4e61fe504c5aa536aa",
        "pi2.json": "2a75f704328a8ba80262e59c41cedb761fc3fd4ecef4590e854933151bfa0bb2",
    },
    ("from-pa", "late.json"): {
        "lmc.json": "766b94690deb2ac60bca5d12f2e2218bb4d143535d4fa390f54894b801364e0e",
        "pi1.json": "b4963d9abc37913e7fb66d867d502e0b764ebfcae1a1dc969aa0ef67dce5bdae",
        "pi2.json": "32532617cad341d17dd9849a152ec5894b3801118202da4e61fe504c5aa536aa",
    },
}


def test_reduction_instance_files_are_byte_identical(inputs, capsys, tmp_path):
    nfa = example_nfa()
    (tmp_path / "nfa.json").write_text(json.dumps({
        "states": list(nfa.states),
        "alphabet": list(nfa.alphabet),
        "initial": nfa.initial,
        "accepting": sorted(nfa.accepting),
        "transitions": [
            {"from": s, "label": a, "to": t} for s, a, t in sorted(nfa.transitions)
        ],
    }))
    got = {}
    for n, args in enumerate(INSTANCE_GOLDEN):
        _stdout(capsys, *args, "--out", f"out{n}")
        got[args] = {
            name: hashlib.sha256((tmp_path / f"out{n}" / name).read_bytes()).hexdigest()
            for name in INSTANCE_GOLDEN[args]
        }
    assert got == INSTANCE_GOLDEN
