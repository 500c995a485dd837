"""Command-line interface: reports, exit codes, reproducibility, pipelines."""

import argparse
import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lmcdist
from lmcdist.cli import build_parser, main
from lmcdist.approx import tv_bounded
from lmcdist.exact import lk_distance_acyclic, threshold_decide_acyclic, tv_distance_acyclic
from lmcdist.formats import load_distribution, load_lmc, save_distribution, save_lmc
from lmcdist.model import no_digit_limit, tail_mass, word_probability

from helpers import worked_example_union

###############################################################################
# Fixture files
###############################################################################

HALF_CHAIN = {
    "states": ["s", "s2", "t"],
    "alphabet": ["a", "b"],
    "transitions": [
        {"from": "s", "label": "a", "to": "t", "prob": "1/2"},
        {"from": "s", "label": "b", "to": "t", "prob": "1/2"},
        {"from": "s2", "label": "a", "to": "t", "prob": 1},
    ],
    "eow": {"t": 1},
}

WORKED_EXAMPLE_CHAIN = {
    "states": ["q1"],
    "alphabet": ["a", "b"],
    "transitions": [
        {"from": "q1", "label": "a", "to": "q1", "prob": "1/2"},
        {"from": "q1", "label": "b", "to": "q1", "prob": "1/4"},
    ],
    "eow": {"q1": "1/4"},
}

EXAMPLE_NFA = {
    "states": ["s1", "s2"],
    "alphabet": ["x", "y"],
    "initial": "s1",
    "accepting": ["s2"],
    "transitions": [
        {"from": "s1", "label": "x", "to": "s1"},
        {"from": "s1", "label": "y", "to": "s1"},
        {"from": "s1", "label": "y", "to": "s2"},
        {"from": "s2", "label": "y", "to": "s2"},
    ],
}

ALWAYS_PA = {
    "states": ["u"],
    "alphabet": ["x"],
    "transitions": [{"from": "u", "label": "x", "to": "u", "prob": 1}],
    "initial_dist": {"u": 1},
    "accepting": ["u"],
}

HALF_PA = {
    "states": ["u", "f"],
    "alphabet": ["x"],
    "transitions": [
        {"from": "u", "label": "x", "to": "u", "prob": "1/2"},
        {"from": "u", "label": "x", "to": "f", "prob": "1/2"},
        {"from": "f", "label": "x", "to": "u", "prob": 1},
    ],
    "initial_dist": {"u": 1},
    "accepting": ["f"],
}

#: A PA none of whose prefixes the witness search prunes: every letter
#: reaches the accepting state a with probability below 1/2, yet every state
#: can reach it, so the search keeps 2**d distinct vectors at depth d.
DOUBLING_PA = {
    "states": ["a", "b", "c"],
    "alphabet": ["x", "y"],
    "transitions": [
        {"from": src, "label": label, "to": tgt, "prob": prob}
        for label, rows in (
            ("x", (("1/3", "1/2", "1/6"), ("2/5", "1/5", "2/5"), ("1/7", "3/7", "3/7"))),
            ("y", (("2/7", "4/7", "1/7"), ("1/4", "1/4", "1/2"), ("3/8", "1/8", "1/2"))),
        )
        for src, row in zip("abc", rows)
        for tgt, prob in zip("abc", row)
    ],
    "initial_dist": {"b": "1"},
    "accepting": ["a"],
}


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def half_files(tmp_path):
    return (
        write(tmp_path / "chain.json", HALF_CHAIN),
        write(tmp_path / "pi1.json", {"s": 1}),
        write(tmp_path / "pi2.json", {"s2": 1}),
    )


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


###############################################################################
# Reports
###############################################################################


def test_exact_report(half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, err = run(capsys, "exact", chain, pi1, pi2)
    assert code == 0 and err == ""
    assert "distance: 1/2 = 0.500000000000000" in out
    assert f"# lmcdist {lmcdist.__version__} -- exact" in out
    assert out.count("sha256=") == 3
    assert "witness_word_count: 1" in out


def test_exact_witness_listing(half_files, capsys):
    code, out, _ = run(capsys, "exact", *half_files, "--words")
    assert code == 0
    assert "witness words: b" in out


def test_prob_report(tmp_path, capsys):
    chain = write(tmp_path / "c.json", WORKED_EXAMPLE_CHAIN)
    pi = write(tmp_path / "pi.json", {"q1": 1})
    code, out, _ = run(capsys, "prob", chain, pi, "aa")
    assert code == 0
    assert "probability: 1/16 = 0.0625" in out
    # the empty word spelled with the dedicated symbol
    code, out, _ = run(capsys, "prob", chain, pi, "ε")
    assert code == 0
    assert "probability: 1/4 = 0.250000000000000" in out
    assert "# param word = ε" in out


def test_prob_rejects_unknown_label_after_a_zero_prefix(half_files, capsys):
    chain, pi1, _ = half_files
    code, out, _ = run(capsys, "prob", chain, pi1, "a a")
    assert code == 0
    assert "probability: 0 = 0" in out
    code, out, err = run(capsys, "prob", chain, pi1, "a a zzz")
    assert (code, out) == (1, "")
    assert "'zzz' is not in the alphabet" in err


def test_tail_report(tmp_path, capsys):
    chain = write(tmp_path / "c.json", WORKED_EXAMPLE_CHAIN)
    pi = write(tmp_path / "pi.json", {"q1": 1})
    code, out, _ = run(capsys, "tail", chain, pi, "-n", "1")
    assert code == 0
    assert "mass of words longer than 1: 9/16" in out


def test_lk_report(half_files, capsys):
    code, out, _ = run(capsys, "lk", *half_files, "-k", "2")
    assert code == 0
    assert "sum over words of |p1 - p2|^2: 1/2" in out


def test_threshold_boundary(half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, _ = run(capsys, "threshold", chain, pi1, pi2, "--tau", "1/2")
    assert code == 0
    assert "distance > 1/2: no" in out
    assert "lhs_integer: 8" in out
    assert "rhs_integer: 9" in out
    code, out, _ = run(
        capsys, "threshold", chain, pi1, pi2, "--tau", "1/2", "--non-strict"
    )
    assert code == 0
    assert "distance >= 1/2: yes" in out
    assert "rhs_integer: 8" in out


def test_equiv_report(half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, _ = run(capsys, "equiv", chain, pi1, pi2)
    assert code == 0
    assert "not equivalent" in out
    code, out, _ = run(capsys, "equiv", chain, pi1, pi1)
    assert code == 0
    assert "not equivalent" not in out
    assert "equivalent" in out


def test_validate_reports_violations(tmp_path, capsys):
    good = write(tmp_path / "good.json", HALF_CHAIN)
    code, out, _ = run(capsys, "validate", good)
    assert code == 0
    assert "valid" in out
    bad_chain = {
        "states": ["s"],
        "alphabet": ["a"],
        "transitions": [{"from": "s", "label": "a", "to": "s", "prob": "3/4"}],
        "eow": {},
    }
    bad = write(tmp_path / "bad.json", bad_chain)
    code, out, _ = run(capsys, "validate", bad)
    assert code == 1
    assert "invalid" in out and "state s" in out
    code, out, _ = run(capsys, "validate", bad, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["results"]["valid"] is False
    assert payload["results"]["violations"]


###############################################################################
# Exit codes and clean failure behavior
###############################################################################


def test_exit_code_3_on_malformed_inputs(tmp_path, half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, err = run(capsys, "exact", str(tmp_path / "missing.json"), pi1, pi2)
    assert (code, out) == (3, "") and err.startswith("error:")
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, out, err = run(capsys, "exact", str(garbage), pi1, pi2)
    assert (code, out) == (3, "") and "garbage.json" in err
    code, out, err = run(capsys, "no-such-command")
    assert (code, out) == (3, "")
    code, out, err = run(capsys, "exact", chain, pi1, pi2, "--budget", "lots")
    assert (code, out) == (3, "")
    code, out, err = run(capsys)
    assert (code, out) == (3, "")


def failing_run(command, missing, out):
    """Arguments of a run of ``command`` that must fail: every input file is
    ``missing`` (exit 3), except for extract-count, which reads none and
    gets the impossible word length 0 (exit 1)."""
    pair = [missing, missing, missing]
    return {
        "validate": [missing],
        "prob": [missing, missing, "a"],
        "tail": [missing, missing, "-n", "1"],
        "exact": pair,
        "lk": pair + ["-k", "1"],
        "threshold": pair + ["--tau", "1/2"],
        "equiv": pair,
        "sample": pair + ["--eps", "1/2", "--delta", "1/2"],
        "bounded": pair + ["--eps", "1/2"],
        "from-nfa": [missing, "-n", "1", "--out", out],
        "from-pa": [missing, "--out", out],
        "count-nfa": [missing, "-n", "1"],
        "extract-count": ["--y", "0", "--dtilde", "0", "-n", "0", "-k", "1", "-s", "1"],
        "pa-witness": [missing, "--max-len", "1"],
    }[command]


def subcommands():
    (action,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return set(action.choices)


@pytest.mark.parametrize("command", sorted(subcommands()))
def test_a_failing_run_prints_nothing_to_stdout(tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    args = failing_run(command, str(tmp_path / "missing.json"), str(out_dir))
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, command, *args, *extra)
        assert code == (1 if command == "extract-count" else 3)
        assert out == ""
        assert err.startswith("error:")
    assert not out_dir.exists()


def test_validate_prints_its_whole_report_when_it_fails(tmp_path, capsys):
    bad_chain = {
        "states": ["s"],
        "alphabet": ["a"],
        "transitions": [{"from": "s", "label": "a", "to": "s", "prob": "3/4"}],
        "eow": {"s": "1/8"},
    }
    bad = write(tmp_path / "bad.json", bad_chain)
    code, out, err = run(capsys, "validate", bad)
    assert (code, err) == (1, "")
    header, source, verdict, violation = out.splitlines()
    assert header == f"# lmcdist {lmcdist.__version__} -- validate"
    assert source.startswith(f"# input chain: {bad} sha256=")
    assert verdict == "invalid (1 violation(s)):"
    assert violation == "  - outgoing probability at state s sums to 7/8, expected 1"
    code, out, err = run(capsys, "validate", bad, "--json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "validate"
    assert payload["results"]["valid"] is False
    assert len(payload["results"]["violations"]) == 1


def test_readme_command_lines_parse_and_name_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = set()
    for line in block.splitlines():
        if not line.strip():
            continue
        program, *args = shlex.split(line, comments=True)
        assert program == "lmcdist"
        named.add(build_parser().parse_args(args).command)
    assert named == subcommands()


def test_exit_code_3_on_float_probability(tmp_path, half_files, capsys):
    _, pi1, pi2 = half_files
    sloppy = dict(HALF_CHAIN, eow={"t": 1.0})
    chain = write(tmp_path / "sloppy.json", sloppy)
    code, out, err = run(capsys, "exact", chain, pi1, pi2)
    assert (code, out) == (3, "")
    assert "exact rational" in err


def test_exit_code_2_on_budget(half_files, capsys):
    code, out, err = run(capsys, "exact", *half_files, "--budget", "1")
    assert (code, out) == (2, "")
    assert "budget" in err
    assert "at depth 1" in err


def test_exit_code_1_on_nonpositive_budget(half_files, capsys):
    code, out, err = run(capsys, "exact", *half_files, "--budget", "0")
    assert (code, out) == (1, "")
    assert "budget must be positive" in err


def test_exit_code_1_on_domain_errors(tmp_path, half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, err = run(capsys, "sample", chain, pi1, pi2, "--eps", "2", "--delta", "1/20")
    assert (code, out) == (1, "")
    assert "epsilon" in err
    code, out, err = run(capsys, "threshold", chain, pi1, pi2, "--tau", "3/2")
    assert (code, out) == (1, "")
    # A cyclic chain is rejected by every acyclic-only command, with one message.
    cyc = write(tmp_path / "cyc.json", WORKED_EXAMPLE_CHAIN)
    cpi = write(tmp_path / "cpi.json", {"q1": 1})
    cycle = "error: chain has a positive-probability cycle; word support is unbounded\n"
    for command, *options in (
        ["exact"],
        ["lk", "-k", "2"],
        ["threshold", "--tau", "1/2"],
        ["sample", "--eps", "1/2", "--delta", "1/2"],
    ):
        code, out, err = run(capsys, command, cyc, cpi, cpi, *options)
        assert (code, out, err) == (1, "", cycle), command


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert lmcdist.__version__ in capsys.readouterr().out


###############################################################################
# JSON mode and reproducibility
###############################################################################


def test_json_manifest_shape(half_files, capsys):
    chain, pi1, pi2 = half_files
    code, out, _ = run(capsys, "exact", chain, pi1, pi2, "--json")
    assert code == 0
    payload = json.loads(out)
    manifest = payload["manifest"]
    assert manifest["command"] == "exact"
    assert manifest["version"] == lmcdist.__version__
    assert len(manifest["inputs"]) == 3
    for item in manifest["inputs"]:
        assert re.fullmatch(r"[0-9a-f]{64}", item["sha256"])
    assert payload["results"]["distance"] == {
        "rational": "1/2",
        "decimal": "0.500000000000000",
    }


def test_byte_reproducibility(half_files, capsys):
    first = run(capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20")
    second = run(capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20")
    assert first == second
    assert first[0] == 0
    assert "samples_per_side: 877" in first[1]
    assert "# param seed = 0" in first[1]
    assert "# param rng = mt19937" in first[1]


def test_random_seed_is_recorded_and_replayable(half_files, capsys):
    code, out, _ = run(
        capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20",
        "--seed", "random",
    )
    assert code == 0
    seed = re.search(r"# param seed = (\d+)", out).group(1)
    code, replay, _ = run(
        capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20",
        "--seed", seed,
    )
    assert code == 0
    assert replay == out


def test_negative_seed_is_rejected_like_a_malformed_one(half_files, capsys):
    # random.Random seeds with abs(seed), so -5 would replay seed 5 under
    # another name: it is refused as malformed input, as "abc" is.
    for bad in ("-5", "-1", "abc"):
        code, out, err = run(
            capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20", "--seed", bad,
        )
        assert (code, out) == (3, "") and "--seed" in err
    code, out, _ = run(
        capsys, "sample", *half_files, "--eps", "1/10", "--delta", "1/20", "--seed", "0",
    )
    assert code == 0 and "# param seed = 0" in out


def _rational_options(half_files):
    """Each rational option: the command line up to it, and its name."""
    return [
        (("threshold", *half_files, "--tau"), "--tau"),
        (("sample", *half_files, "--delta", "1/20", "--eps"), "--eps"),
        (("bounded", *half_files, "--eps"), "--eps"),
        (("sample", *half_files, "--eps", "1/10", "--delta"), "--delta"),
        (("extract-count", "--dtilde", "0", "-n", "1", "-k", "1", "-s", "1", "--y"), "--y"),
        (("extract-count", "--y", "0", "-n", "1", "-k", "1", "-s", "1", "--dtilde"), "--dtilde"),
    ]


def test_argument_converters_print_their_own_fault_texts(half_files, capsys):
    # Not argparse's generic "invalid _rational value: 'abc'".  A rational is
    # written as in the files, "num/den" or an integer: no decimal, exponent,
    # sign or surrounding space, so "1e-1000000" is refused before a
    # million-digit denominator is built.
    for args, option in _rational_options(half_files):
        for bad in ("abc", "1/0", "0.5", "1e-3", " 1/2 ", "-1", "1e-1000000"):
            code, out, err = run(capsys, *args, bad)
            assert (code, out, err) == (3, "", f"error: argument {option}: {bad!r} is not a rational number\n")
    sample = ("sample", *half_files, "--eps", "1/10", "--delta", "1/20")
    for bad in ("-1", "x"):
        code, out, err = run(capsys, *sample, "--seed", bad)
        expected = f"error: argument --seed: seed must be a nonnegative integer or 'random', got {bad!r}\n"
        assert (code, out, err) == (3, "", expected)


def test_a_rational_option_past_the_digit_limit_is_one_error_line(half_files, capsys):
    # Under the live limit, or under the default one where there is none.
    saved = sys.get_int_max_str_digits()
    limit = saved or 4300
    sys.set_int_max_str_digits(limit)
    try:
        for args, option in _rational_options(half_files):
            for bad in ("1" * (limit + 1), f"1/{'1' * (limit + 1)}"):
                code, out, err = run(capsys, *args, bad)
                assert (code, out) == (3, "")
                assert err == f"error: argument {option}: a number has more than {limit} digits\n"
    finally:
        sys.set_int_max_str_digits(saved)


def test_bounded_cli_on_cyclic_union(tmp_path, capsys):
    union, u1, u2 = worked_example_union()
    chain = tmp_path / "union.json"
    p1 = tmp_path / "u1.json"
    p2 = tmp_path / "u2.json"
    save_lmc(union, chain)
    save_distribution(u1, union, p1)
    save_distribution(u2, union, p2)
    code, out, _ = run(capsys, "bounded", str(chain), str(p1), str(p2), "--eps", "1/4")
    assert code == 0
    assert "guaranteed absolute error at most: 1/8" in out
    assert "estimate:" in out


###############################################################################
# Generator pipelines
###############################################################################


def test_from_nfa_pipeline(tmp_path, capsys):
    nfa = write(tmp_path / "nfa.json", EXAMPLE_NFA)
    out_dir = tmp_path / "inst"
    code, out, _ = run(capsys, "from-nfa", nfa, "-n", "3", "--out", str(out_dir))
    assert code == 0
    assert "run-count term y: 7/64" in out
    assert "certified distance: 11/64 = 0.171875000000000" in out
    assert "accepted_count: 4" in out
    for name in ("lmc.json", "pi1.json", "pi2.json"):
        assert (out_dir / name).exists()
    # The written instance reproduces the certified distance bit for bit.
    code, out, _ = run(
        capsys,
        "exact",
        str(out_dir / "lmc.json"),
        str(out_dir / "pi1.json"),
        str(out_dir / "pi2.json"),
    )
    assert code == 0
    assert "distance: 11/64" in out


def test_from_nfa_cap_note(tmp_path, capsys):
    nfa = write(tmp_path / "nfa.json", EXAMPLE_NFA)
    code, out, _ = run(
        capsys, "from-nfa", nfa, "-n", "3", "--out", str(tmp_path / "i"), "--cap", "1"
    )
    assert code == 0
    assert "not certified" in out
    assert "certified distance" not in out


@pytest.mark.parametrize(
    ("command", "data", "options"),
    [("from-nfa", EXAMPLE_NFA, ["-n", "3"]), ("from-pa", ALWAYS_PA, [])],
    ids=["from-nfa", "from-pa"],
)
def test_unwritable_out_directory_is_malformed_input(tmp_path, capsys, command, data, options):
    source = write(tmp_path / "input.json", data)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):  # names a file; sits under one
        code, stdout, err = run(capsys, command, source, "--out", str(out), *options)
        assert (code, stdout) == (3, "")
        assert err.startswith("error: cannot write")


def test_count_nfa(tmp_path, capsys):
    nfa = write(tmp_path / "nfa.json", EXAMPLE_NFA)
    code, out, _ = run(capsys, "count-nfa", nfa, "-n", "3")
    assert code == 0
    assert "accepted_count: 4" in out
    assert "total_words: 8" in out
    code, out, err = run(capsys, "count-nfa", nfa, "-n", "3", "--cap", "1")
    assert (code, out) == (2, "")


@pytest.mark.parametrize(("command", "n"), [("count-nfa", "0"), ("count-nfa", "2"), ("from-nfa", "2")])
def test_nonpositive_subset_cap_is_a_domain_error(tmp_path, capsys, command, n):
    # from-nfa needs words of at least one letter; it writes no instance.
    nfa = write(tmp_path / "nfa.json", EXAMPLE_NFA)
    out_dir = tmp_path / "inst"
    options = ["--out", str(out_dir)] if command == "from-nfa" else []
    for cap in ("0", "-3"):
        code, out, err = run(capsys, command, nfa, "-n", n, "--cap", cap, *options)
        assert (code, out) == (1, "")
        assert f"subset cap must be positive, got {cap}" in err
    assert not out_dir.exists()


def test_extract_count(capsys):
    base = ["extract-count", "--y", "7/64", "-n", "3", "-k", "2", "-s", "2"]
    code, out, _ = run(capsys, *base, "--dtilde", "11/64")
    assert code == 0
    assert "accepted_count: 4" in out
    # a quarter-unit perturbation still rounds home
    code, out, _ = run(capsys, *base, "--dtilde", "45/256")
    assert code == 0
    assert "accepted_count: 4" in out
    # half a unit away is rejected as uncertifiable, not rounded
    code, out, err = run(capsys, *base, "--dtilde", "23/128")
    assert (code, out) == (1, "")
    assert "not accurate enough" in err


def test_from_pa_and_witness(tmp_path, capsys):
    pa = write(tmp_path / "pa.json", ALWAYS_PA)
    code, out, _ = run(capsys, "from-pa", pa, "--out", str(tmp_path / "inst"))
    assert code == 0
    assert "distance lower bound: 0 = 0" in out
    assert (tmp_path / "inst" / "lmc.json").exists()
    code, out, _ = run(capsys, "pa-witness", pa, "--max-len", "2")
    assert code == 0
    assert "witness word: ε" in out
    assert "acceptance_probability: 1 = 1" in out
    half = write(tmp_path / "half.json", HALF_PA)
    code, out, _ = run(capsys, "pa-witness", half, "--max-len", "3")
    assert code == 0
    assert "no word of length <= 3" in out


def test_pa_witness_rejects_a_negative_max_len(tmp_path, capsys):
    half = write(tmp_path / "half.json", HALF_PA)
    code, out, err = run(capsys, "pa-witness", half, "--max-len", "-1")
    assert (code, out) == (1, "")
    assert "must be nonnegative, got -1" in err


def test_pa_witness_stops_at_its_budget(tmp_path, capsys):
    # Without a budget the walk doubles with each letter of --max-len.
    pa = write(tmp_path / "pa.json", DOUBLING_PA)
    code, out, err = run(capsys, "pa-witness", pa, "--max-len", "17", "--budget", "1000")
    assert (code, out, err) == (2, "", "error: enumeration exceeded the node budget of 1000 at depth 9\n")
    code, out, err = run(capsys, "pa-witness", pa, "--max-len", "8", "--budget", "1000")
    assert code == 0 and "# param budget = 1000\n" in out
    assert "no word of length <= 8" in out
    code, out, err = run(capsys, "pa-witness", pa, "--max-len", "8", "--budget", "0")
    assert (code, out, err) == (1, "", "error: node budget must be positive, got 0\n")


def test_from_pa_rejects_an_empty_alphabet(tmp_path, capsys):
    pa = write(
        tmp_path / "pa.json",
        {
            "states": ["q"],
            "alphabet": [],
            "transitions": [],
            "initial_dist": {"q": "1"},
            "accepting": ["q"],
        },
    )
    out_dir = tmp_path / "inst"
    code, out, err = run(capsys, "from-pa", pa, "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "at least one letter" in err
    assert not out_dir.exists()
    code, out, _ = run(capsys, "pa-witness", pa, "--max-len", "2")
    assert code == 0
    assert "witness word: ε" in out


def test_pa_witness_on_an_empty_alphabet_prints_no_margin(tmp_path, capsys):
    # The margin is over the bound of a reduction that from-pa refuses to
    # build without letters.
    pa = write(
        tmp_path / "pa.json",
        {
            "states": ["q"],
            "alphabet": [],
            "transitions": [],
            "initial_dist": {"q": "1"},
            "accepting": ["q"],
        },
    )
    code, out, _ = run(capsys, "pa-witness", pa, "--max-len", "2")
    assert code == 0
    assert out.endswith("witness word: ε\nacceptance_probability: 1 = 1.00000000000000\n")
    code, out, _ = run(capsys, "pa-witness", pa, "--max-len", "2", "--json")
    assert code == 0
    assert sorted(json.loads(out)["results"]) == ["acceptance_probability", "witness"]


#: command -> (its options after the chain and starts, the result's key, its
#: text label, and the library's value for the chain and starts)
LARGE_RESULTS = {
    "exact": ([], "distance", "distance", lambda c, p1, p2: tv_distance_acyclic(c, p1, p2).distance),
    "threshold": (
        ["--tau", "1/2"],
        "lhs_integer",
        "lhs_integer",
        lambda c, p1, p2: threshold_decide_acyclic(c, p1, p2, Fraction(1, 2)).lhs_integer,
    ),
    "lk": (["-k", "2"], "power_sum", "sum over words of |p1 - p2|^2", lambda c, p1, p2: lk_distance_acyclic(c, p1, p2, 2)),
    "prob": (["a"], "probability", "probability", lambda c, p1, p2: word_probability(c, p1, ("a",))),
    "tail": (["-n", "1"], "tail_mass", "mass of words longer than 1", lambda c, p1, p2: tail_mass(c, p1, 1)),
    "bounded": (
        ["--eps", "1/4"],
        "mass_first_below",
        "mass_first_below",
        lambda c, p1, p2: tv_bounded(c, p1, p2, Fraction(1, 4)).mass1_lt,
    ),
}


@pytest.mark.parametrize("command", sorted(LARGE_RESULTS))
def test_results_past_the_digit_limit_print_in_full(tmp_path, capsys, command):
    # The chain s0 -a-> s1 -a-> s2 steps with (D-1)/D and stops s0 and s1
    # with 1/D: every input number is under the interpreter's int/str digit
    # limit, and every result, over D^2, is over it.  Such a report once
    # ended in a traceback; the limit must still hold for input afterwards.
    limit = sys.get_int_max_str_digits()
    d = 10 ** ((limit or 4300) // 2 + 50)
    step, stop = f"{d - 1}/{d}", f"1/{d}"
    chain = write(
        tmp_path / "chain.json",
        {
            "states": ["s0", "s1", "s2"],
            "alphabet": ["a"],
            "transitions": [
                {"from": "s0", "label": "a", "to": "s1", "prob": step},
                {"from": "s1", "label": "a", "to": "s2", "prob": step},
            ],
            "eow": {"s0": stop, "s1": stop, "s2": "1"},
        },
    )
    starts = [write(tmp_path / "pi1.json", {"s0": "1"}), write(tmp_path / "pi2.json", {"s1": "1"})]
    options, key, label, library = LARGE_RESULTS[command]
    argv = [command, chain, *starts[: 1 if command in ("prob", "tail") else 2], *options]
    lmc = load_lmc(chain)
    value = library(lmc, *(load_distribution(p, lmc) for p in starts))
    reports = []
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        reports.append(out)
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
        assert limit == 0 or len(text) > limit
        results = json.loads(reports[1])["results"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert f"\n{label}: {text}" in reports[0]
    assert results[key] == (value if type(value) is int else {"rational": text, "decimal": lmcdist.formats.decimal15(value)})


def _past_the_digit_limit():
    """``(1/D, 1/(D+1), their sum)``: each input under the interpreter's
    int/str digit limit, and the sum, over D(D+1), over it."""
    limit = sys.get_int_max_str_digits()
    d = 10 ** ((limit or 4300) // 2 + 50)
    return f"1/{d}", f"1/{d + 1}", Fraction(1, d) + Fraction(1, d + 1)


def test_a_violation_past_the_digit_limit_prints_in_full(tmp_path, capsys):
    # s steps with 1/D and stops with 1/(D+1), so its row sums to a number
    # past the limit; validate once ended in a traceback formatting it.
    limit = sys.get_int_max_str_digits()
    step, stop, total = _past_the_digit_limit()
    chain = write(
        tmp_path / "v.json",
        {
            "states": ["s", "t"],
            "alphabet": ["a"],
            "transitions": [{"from": "s", "label": "a", "to": "t", "prob": step}],
            "eow": {"s": stop, "t": "1"},
        },
    )
    code, out, err = run(capsys, "validate", chain)
    assert (code, err) == (1, "")
    assert sys.get_int_max_str_digits() == limit
    with no_digit_limit():
        assert out.endswith(f"invalid (1 violation(s)):\n  - outgoing probability at state s sums to {total}, expected 1\n")


def _broken_files(tmp_path, case):
    """The argv of a command whose input faults with a sum past the limit."""
    first, second, _ = _past_the_digit_limit()
    if case == "extract-count":  # --y is 1/2 + 1/D as one fraction
        d = Fraction(first).denominator
        return [case, "--y", f"{d + 2}/{2 * d}", "--dtilde", second, "-n", "1", "-k", "1", "-s", "1"]
    chain = {"states": ["s", "t"], "alphabet": ["a"], "transitions": [], "eow": {"s": "1", "t": "1"}}
    if case == "strict-chain":
        chain["transitions"] = [{"from": "s", "label": "a", "to": "t", "prob": first}]
        chain["eow"] = {"s": second, "t": "1"}
        start = {"s": "1"}
    elif case == "start":
        start = {"s": first, "t": second}
    else:
        pa = write(
            tmp_path / "pa.json",
            {
                "states": ["s", "t"],
                "alphabet": ["a"],
                "transitions": [
                    {"from": "s", "label": "a", "to": "s", "prob": first},
                    {"from": "s", "label": "a", "to": "t", "prob": second},
                    {"from": "t", "label": "a", "to": "t", "prob": "1"},
                ],
                "initial_dist": {"s": "1"},
                "accepting": ["t"],
            },
        )
        return [case, pa, *(["--max-len", "2"] if case == "pa-witness" else ["--out", str(tmp_path)])]
    return ["prob", write(tmp_path / "c.json", chain), write(tmp_path / "d.json", start), "a"]


@pytest.mark.parametrize("case", ["strict-chain", "start", "pa-witness", "from-pa", "extract-count"])
def test_a_fault_past_the_digit_limit_is_one_error_line(tmp_path, capsys, case):
    # A chain, a start or a PA whose sum is past the limit: exit 3 and one
    # error line in full, where formatting the sum once ended in a traceback.
    # extract-count's two inputs are each under the limit, but the estimate
    # is 1/2 - 1/(D(D+1)) count units away from an integer: exit 1.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *_broken_files(tmp_path, case))
    assert (code, out) == (1 if case == "extract-count" else 3, "")
    assert sys.get_int_max_str_digits() == limit
    first, second, total = _past_the_digit_limit()
    with no_digit_limit():
        if case == "extract-count":
            expected = f"is {Fraction(1, 2) - Fraction(first) * Fraction(second)} count units away"
        else:
            expected = f" to {total}, expected"
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
