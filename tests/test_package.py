"""Package-wide checks: the public names and which modules a fresh import
loads, the README's library tour, no assert statements in library code, no
library entry point builds a chain's dense matrices (and only the functions
that make dense matrices read them), and every name the benchmark's tracer
wraps and every report field it counts still resolves."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import lmcdist
from lmcdist import (
    InitialDistribution,
    Lmc,
    Pa,
    are_equivalent,
    disjoint_union,
    length_bound,
    lk_distance_acyclic,
    tail_mass,
    threshold_decide_acyclic,
    tv_bounded,
    tv_distance_acyclic,
    tv_sample_acyclic,
    validate,
    word_probability,
)
from lmcdist.automata import acceptance_probability, find_majority_witness, nfa_to_lmc, pa_to_lmc
from lmcdist.cli import main
from lmcdist.floatk import fp_word_probability
from lmcdist.formats import (
    load_distribution,
    load_lmc,
    load_pa,
    save_distribution,
    save_lmc,
    save_pa,
)

from helpers import at_most_half_pa, example_nfa, worked_example_pair

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(lmcdist.__file__).parent.glob("*.py"))


#: Starts each fresh-interpreter script below; ``started`` holds the modules
#: the interpreter loaded at start-up (site hooks among them), ``loaded()``
#: lists the lmcdist submodules imported so far.
_PRELUDE = """
import sys

started = set(sys.modules)

import json

import lmcdist


def loaded():
    return sorted(m for m in sys.modules if m.startswith("lmcdist."))
"""


def _fresh_python(code, cwd):
    """Run ``code`` after ``_PRELUDE`` in a new interpreter that imports this
    lmcdist; return its last line of stdout, read as JSON."""
    env = {**os.environ, "PYTHONPATH": str(Path(lmcdist.__file__).resolve().parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


#: Builds, saves and loads chains and starts, as the benchmark's set-up does.
_CHAIN_ROUND_TRIP = """
from lmcdist import InitialDistribution, Lmc, disjoint_union, load_distribution, load_lmc
from lmcdist import save_distribution, save_lmc

chain = Lmc.from_transitions(["s", "t"], ["a"], [("s", "a", "t", 1)], {"t": 1})
union, pi1, pi2 = disjoint_union(
    chain, InitialDistribution.dirac(chain, "s"), chain, InitialDistribution.dirac(chain, "t"))
save_lmc(union, "lmc.json")
save_distribution(pi1, union, "pi1.json")
save_distribution(pi2, union, "pi2.json")
loaded_union = load_lmc("lmc.json")
load_distribution("pi1.json", loaded_union)
print(json.dumps(loaded()))
"""


def test_building_and_saving_chains_loads_only_the_model_and_formats(tmp_path):
    assert _fresh_python(_CHAIN_ROUND_TRIP, tmp_path) == [
        "lmcdist.errors",
        "lmcdist.formats",
        "lmcdist.model",
    ]


#: Reads an NFA, reduces it, reads and saves a PA, then reads two
#: submodules as the package's attributes; after each step it records the loaded
#: submodules.
_AUTOMATA_ROUND_TRIP = """
steps = {}
nfa = lmcdist.load_nfa("nfa.json")
steps["load_nfa"] = loaded()
lmcdist.nfa_to_lmc(nfa, 2)
steps["nfa_to_lmc"] = loaded()
pa = lmcdist.load_pa("pa.json")
steps["load_pa"] = loaded()
lmcdist.save_pa(pa, "copy.json")
steps["save_pa"] = loaded()
lmcdist.approx.tv_bounded, lmcdist.floatk.fp_mul
steps["approx"] = loaded()
print(json.dumps(steps))
"""


def test_automaton_readers_load_automata_and_no_estimator(tmp_path):
    nfa = example_nfa()
    (tmp_path / "nfa.json").write_text(json.dumps({
        "states": list(nfa.states),
        "alphabet": list(nfa.alphabet),
        "initial": nfa.initial,
        "accepting": sorted(nfa.accepting),
        "transitions": [{"from": s, "label": a, "to": t} for s, a, t in sorted(nfa.transitions)],
    }))
    save_pa(at_most_half_pa(), tmp_path / "pa.json")
    steps = _fresh_python(_AUTOMATA_ROUND_TRIP, tmp_path)
    expected = ["lmcdist.automata", "lmcdist.errors", "lmcdist.formats", "lmcdist.model"]
    assert steps.pop("approx") == sorted(
        [*expected, "lmcdist.approx", "lmcdist.floatk"])
    assert steps == dict.fromkeys(("load_nfa", "nfa_to_lmc", "load_pa", "save_pa"), expected)


#: Star-imports the package and imports the CLI, then prints the top-level
#: names of every module loaded since start-up.
_EVERY_IMPORT = """
from lmcdist import *
import lmcdist.cli

print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - started})))
"""


def test_package_imports_only_the_standard_library(tmp_path):
    top = _fresh_python(_EVERY_IMPORT, tmp_path)
    assert "lmcdist" in top
    assert [name for name in top if name != "lmcdist" and name not in sys.stdlib_module_names] == []


def test_each_public_name_is_its_modules_object():
    for module, names in lmcdist._EXPORTS.items():
        owner = importlib.import_module(f"lmcdist.{module}")
        for name in names:
            value = getattr(lmcdist, name)
            assert value is getattr(owner, name), name
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == owner.__name__, name


def test_all_lists_each_public_name_once_under_one_module():
    exported = [name for names in lmcdist._EXPORTS.values() for name in names]
    assert lmcdist.__all__ == sorted(set(exported))
    assert len(exported) == len(lmcdist.__all__)
    assert set(lmcdist.__all__) <= set(dir(lmcdist))
    namespace = {}
    exec("from lmcdist import *", namespace)
    assert {name: namespace[name] for name in lmcdist.__all__} == {
        name: getattr(lmcdist, name) for name in lmcdist.__all__
    }


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'lmcdist' has no attribute 'no_such_name'"):
        lmcdist.no_such_name
    assert not hasattr(lmcdist, "no_such_name")


def test_library_code_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_readme_library_tour_shows_what_its_comments_state():
    # Every bare expression of the README's tour stands for the value its
    # comment names; run the block and collect those values in order.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(tour)
    shown = []
    for node in tree.body:
        if isinstance(node, ast.Expr):
            node.value = ast.Call(ast.Name("_show", ast.Load()), [node.value], [])
    exec(compile(ast.fix_missing_locations(tree), "README.md", "exec"), {"_show": shown.append})
    half = Fraction(1, 2)
    # word probability, distance, witness, threshold, equivalence, the
    # seed-7 estimate within 1/20, and the bounded estimate.
    assert shown == [half, half, (("b",),), False, False, True, half]


def test_library_never_builds_the_dense_view(tmp_path):
    # The integer form is a chain's and a start's one stored form;
    # ``Lmc.matrices``, ``Lmc.eow`` and ``InitialDistribution.weights``
    # are views for outside readers, cached in the instance once built.
    chains = []
    starts = []
    for red in (nfa_to_lmc(example_nfa(), 3), pa_to_lmc(at_most_half_pa())):
        save_lmc(red.lmc, tmp_path / "lmc.json")
        save_distribution(red.pi1, red.lmc, tmp_path / "pi1.json")
        save_distribution(red.pi2, red.lmc, tmp_path / "pi2.json")
        lmc = load_lmc(tmp_path / "lmc.json")
        pi1, pi2 = (load_distribution(tmp_path / f"pi{i}.json", lmc) for i in (1, 2))
        chains += [red.lmc, lmc]
        starts += [red.pi1, red.pi2, pi1, pi2]
        assert validate(lmc) == []
        word_probability(lmc, pi1, lmc.alphabet[:1])
        tail_mass(lmc, pi1, 2)
        length_bound(lmc, Fraction(1, 8))
        are_equivalent(lmc, pi1, pi2)
        tv_bounded(lmc, pi1, pi2, Fraction(1, 2))
        if red.kind == "nfa":
            tv_distance_acyclic(lmc, pi1, pi2)
            lk_distance_acyclic(lmc, pi1, pi2, 2)
            threshold_decide_acyclic(lmc, pi1, pi2, Fraction(1, 4))
            tv_sample_acyclic(lmc, pi1, pi2, Fraction(1, 2), Fraction(1, 2))
    first, pi1, second, pi2 = worked_example_pair()
    union, lifted1, lifted2 = disjoint_union(first, pi1, second, pi2)
    chains += [first, second, union]
    starts += [pi1, pi2, lifted1, lifted2]
    # A probabilistic automaton keeps dense matrices as its constructor's
    # interface, but every routine reads its sparse ``Pa.chain``.
    save_pa(at_most_half_pa(), tmp_path / "pa.json")
    pa = load_pa(tmp_path / "pa.json")
    acceptance_probability(pa, pa.alphabet[:1])
    find_majority_witness(pa, 3)
    red = pa_to_lmc(pa)
    chains.append(red.lmc)
    starts += [red.pi1, red.pi2]
    save_pa(pa, tmp_path / "pa.json")
    chains.append(pa.chain)
    starts.append(pa.start)
    # A chain from Fraction records and an automaton from dense matrices.
    chains.append(
        Lmc.from_transitions(["u", "v"], ["a"], [("u", "a", "v", Fraction(1, 2))], {"u": Fraction(1, 2), "v": 1})
    )
    pa = Pa(("p", "q"), ("a",), [((Fraction(1, 2), Fraction(1, 2)), (0, 1))], (1, 0), {"q"})
    acceptance_probability(pa, "aa")
    chains.append(pa.chain)
    starts.append(pa.start)
    for lmc in chains:
        pi = InitialDistribution.dirac(lmc, lmc.states[0])
        fp_word_probability(lmc, pi, lmc.alphabet[:1], 8)
        starts.append(pi)
    views = ("matrices", "eow")
    assert [lmc for lmc in chains if any(view in vars(lmc) for view in views)] == []
    assert [pi for pi in starts if "weights" in vars(pi)] == []


#: The only functions in the library that read a ``.matrices`` attribute:
#: the automaton's and the chain's dense views.
DENSE_READERS = {"Pa.matrices", "Lmc.matrices"}


def test_library_reads_dense_matrices_only_where_they_are_made():
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name, path)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "matrices" and scope not in DENSE_READERS:
                found.append(f"{path.name}:{child.lineno} in {scope or '<module>'}")
            visit(child, scope, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    assert found == []


def test_bench_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"lmcdist.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"lmcdist.{module_name}.{attr}")
    assert tracing.TARGETS
    assert missing == []


#: Options, after the three input files, of one report of each counted kind.
COUNTED_KINDS = {
    "exact": (),
    "threshold": ("--tau", "1/2"),
    "bounded": ("--eps", "1/4"),
    "sample": ("--eps", "1/4", "--delta", "1/4"),
}


def test_bench_counted_report_fields_resolve(tmp_path, monkeypatch, capsys):
    # The benchmark drops a count whose report field is missing, and its
    # result line then lacks a declared metric.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.chdir(tmp_path)
    run = importlib.import_module("run")
    red = nfa_to_lmc(example_nfa(), 3)
    save_lmc(red.lmc, "lmc.json")
    save_distribution(red.pi1, red.lmc, "pi1.json")
    save_distribution(red.pi2, red.lmc, "pi2.json")
    results = {}
    for kind, options in COUNTED_KINDS.items():
        assert main([kind, "lmc.json", "pi1.json", "pi2.json", *options, "--json"]) == 0
        results[kind] = json.loads(capsys.readouterr().out)["results"]
    broken = []
    for name, count in run.COUNTS.items():
        try:
            count.transform(results[count.kind][count.field])
        except (KeyError, TypeError, ValueError):
            broken.append(name)
    assert run.COUNTS
    assert broken == []
