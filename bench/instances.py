"""Seeded instance generators and the op list of each benchmark workload.

Everything here is a pure function of (workload, seed, size): the same
arguments give the same instances, the same files byte for byte, and the same
op list.  Instances are built through the library (``nfa_to_lmc``,
``Lmc.from_transitions``, ``disjoint_union``) and written with its savers.

Run as a script this module is the benchmark's set-up step, timed from
process start until the files are written:

    python3 bench/instances.py --workload reduction-exact --seed 1 --out DIR

Its last line of output is JSON: ``written_at``, the ``time.monotonic()``
reading when the files were written, and ``probes``, speed probes taken
afterwards in the same process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from probe import probe

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("reduction-exact", "cyclic-bounded", "acyclic-sample")
#: Speed probes the set-up step takes after writing the files.
SETUP_PROBES = 9


def import_library():
    """Import ``lmcdist`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "lmcdist" / "__init__.py").is_file():
        raise SystemExit(f"error: no lmcdist sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import lmcdist

    if Path(lmcdist.__file__).resolve().parent != (src / "lmcdist").resolve():
        raise SystemExit(f"error: imported lmcdist from {lmcdist.__file__}, not {src}")
    return lmcdist


# -- sizes ------------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """How many instances of which shape one batch holds."""

    #: reduction-exact: (alphabet size, word length) per NFA instance.
    nfa_shapes: tuple[tuple[int, int], ...]
    #: reduction-exact: PAs per batch of each kind (no witness / witness).
    pa_pairs: int
    pa_max_len: int
    #: cyclic-bounded: state counts of the random cyclic chains.
    cyclic_states: tuple[int, ...]
    #: cyclic-bounded: epsilons for ``bounded``.
    bounded_eps: tuple[Fraction, ...]
    #: acyclic-sample: state counts of the random acyclic chains.
    acyclic_states: tuple[int, ...]
    sample_eps: Fraction
    sample_delta: Fraction


FULL = Size(
    nfa_shapes=((2, 7), (2, 8), (2, 9), (3, 7)) * 2,
    pa_pairs=2,
    pa_max_len=12,
    cyclic_states=(2, 3, 4) * 2,
    bounded_eps=(Fraction(1, 8), Fraction(1, 16)),
    acyclic_states=(8, 9, 10, 11, 12) * 3,
    sample_eps=Fraction(1, 20),
    sample_delta=Fraction(1, 1000),
)

#: A seconds-long version of every workload, for the self-tests.
TINY = Size(
    nfa_shapes=((2, 4), (3, 3)),
    pa_pairs=1,
    pa_max_len=6,
    cyclic_states=(2, 3),
    bounded_eps=(Fraction(1, 4),),
    acyclic_states=(8,),
    sample_eps=Fraction(1, 5),
    sample_delta=Fraction(1, 10),
)


# -- instances --------------------------------------------------------------------


@dataclass
class Pair:
    """A chain with two starts; ``facts`` holds what the generator knows."""

    name: str
    lmc: object
    pi1: object
    pi2: object
    facts: dict = field(default_factory=dict)


@dataclass
class PaCase:
    name: str
    pa: object
    has_witness: bool


@dataclass(frozen=True)
class Op:
    """One CLI call: ``lmcdist.cli.main(argv)`` and what its answer refers to."""

    op_id: int
    kind: str
    argv: tuple[str, ...]
    instance: str
    params: dict


def _parts(rng: random.Random, total: int, n: int) -> list[int]:
    """n positive integers summing to ``total``, uniformly among compositions."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def random_nfa(lib, rng: random.Random, letters: int):
    """Three states; every (state, letter) has two random successors, so each
    word has up to 2^n runs and the run simulation stays dense."""
    states = ("n0", "n1", "n2")
    alphabet = ("x", "y", "z")[:letters]
    edges = [(q, a, t) for q in states for a in alphabet for t in rng.sample(states, 2)]
    accepting = rng.sample(states, rng.randint(1, 2))
    return lib.Nfa(states, alphabet, states[0], frozenset(accepting), frozenset(edges))


def no_witness_pa(lib, rng: random.Random):
    """Half the start mass sits in a rejecting sink, so no word is accepted
    with probability above 1/2; every other row is a random composition."""
    F = Fraction
    rows = []
    for _ in ("x", "y"):
        mat = [tuple(F(w, 12) for w in _parts(rng, 12, 4)) for _ in range(3)]
        mat.append((F(0), F(0), F(0), F(1)))
        rows.append(tuple(mat))
    return lib.Pa(
        ("u0", "u1", "u2", "t"),
        ("x", "y"),
        tuple(rows),
        (F(1, 2), F(0), F(0), F(1, 2)),
        frozenset({"u2"}),
    )


def witness_pa(lib, rng: random.Random):
    """Letter ``x`` advances u0 -> u1 -> u2 -> f with probability at least
    10/12 per step and never skips, so ``xxx`` is accepted with probability
    above 1/2 and no shorter word reaches the accepting sink f."""
    F = Fraction
    x_rows = []
    for i in range(3):
        units = [0] * 4
        units[i + 1] = rng.choice((10, 11))
        for _ in range(12 - units[i + 1]):
            units[rng.randint(0, i)] += 1
        x_rows.append(tuple(F(u, 12) for u in units))
    y_rows = [tuple(F(w, 12) for w in _parts(rng, 12, 3)) + (F(0),) for _ in range(3)]
    sink = (F(0), F(0), F(0), F(1))
    return lib.Pa(
        ("u0", "u1", "u2", "f"),
        ("x", "y"),
        (tuple(x_rows) + (sink,), tuple(y_rows) + (sink,)),
        (F(1), F(0), F(0), F(0)),
        frozenset({"f"}),
    )


def random_cyclic_chain(lib, rng: random.Random, n: int):
    """n states over {a, b}; state i sends ``a`` to states i, i+1 and ``b``
    to states i+1, i+2 (mod n) with random weights, and stops with
    probability exactly 1/3.  The length cutoff depends on the end-of-word
    probability alone, every word has positive probability, and prefix
    vectors fill up alike for every seed, so only the probabilities vary."""
    states = [f"c{i}" for i in range(n)]
    transitions = []
    for i, src in enumerate(states):
        # No state splits its letters evenly, so swapping them changes the chain.
        wa = rng.choice((2, 3, 5, 6))
        for label, w, first in (("a", wa, i), ("b", 8 - wa, i + 1)):
            targets = sorted({first % n, (first + 1) % n})
            for j, part in zip(targets, _parts(rng, w, len(targets))):
                transitions.append((src, label, states[j], Fraction(part, 12)))
    return lib.Lmc.from_transitions(
        states, ("a", "b"), transitions, {s: Fraction(1, 3) for s in states}
    )


def relabelled(lib, lmc, prefix: str, swap_first: bool = False):
    """The chain with states renamed and listed in reverse; with
    ``swap_first`` the first state's two letters trade their transitions."""
    names = {s: f"{prefix}{i}" for i, s in enumerate(lmc.states)}
    swap = {"a": "b", "b": "a"}
    transitions = [
        (
            names[src],
            swap[label] if swap_first and src == lmc.states[0] else label,
            names[tgt],
            p,
        )
        for src, label, tgt, p in lmc.transition_records()
    ]
    eow = {names[s]: e for s, e in zip(lmc.states, lmc.eow) if e}
    return lib.Lmc.from_transitions(
        [names[s] for s in reversed(lmc.states)], lmc.alphabet, transitions, eow
    )


def random_acyclic_chain(lib, rng: random.Random, n: int):
    """n states over {a, b, c}; state i sends each letter to a distinct state
    among i+1..i+3 with a near-even weight and stops with probability 1/4, so
    the support and the spread of the word distribution depend on n alone
    while the probabilities are random."""
    states = [f"s{i}" for i in range(n)]
    weights = {1: [(9,)], 2: [(4, 5), (5, 4)], 3: [(3, 3, 3), *itertools.permutations((2, 3, 4))]}
    transitions = []
    eow = {states[-1]: Fraction(1)}
    for i in range(n - 1):
        targets = list(range(i + 1, min(i + 4, n)))
        letters = rng.sample(("a", "b", "c"), len(targets))
        for label, j, w in zip(letters, targets, rng.choice(weights[len(targets)])):
            transitions.append((states[i], label, states[j], Fraction(w, 12)))
        eow[states[i]] = Fraction(3, 12)
    return lib.Lmc.from_transitions(states, ("a", "b", "c"), transitions, eow)


def worked_example(lib) -> tuple:
    """The two cyclic chains of the paper's worked example, joined."""
    F = Fraction
    first = lib.Lmc.from_transitions(
        ["q1"], ["a", "b"], [("q1", "a", "q1", F(1, 2)), ("q1", "b", "q1", F(1, 4))],
        {"q1": F(1, 4)},
    )
    second = lib.Lmc.from_transitions(
        ["q2", "q3"],
        ["a", "b"],
        [
            ("q2", "a", "q2", F(1, 3)),
            ("q2", "b", "q2", F(1, 3)),
            ("q2", "a", "q3", F(1, 3)),
            ("q3", "a", "q3", F(1, 2)),
        ],
        {"q3": F(1, 2)},
    )
    dirac = lib.InitialDistribution.dirac
    return lib.disjoint_union(first, dirac(first, "q1"), second, dirac(second, "q2"))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"lmcdist-bench/{workload}/{seed}")


def generate(lib, workload: str, seed: int, size: Size = FULL) -> list:
    """The instances of one workload, in op order."""
    rng = _rng(workload, seed)
    dirac = lib.InitialDistribution.dirac
    out: list = []
    if workload == "reduction-exact":
        for idx, (k, n) in enumerate(size.nfa_shapes):
            nfa = random_nfa(lib, rng, k)
            red = lib.nfa_to_lmc(nfa, n)
            out.append(Pair(f"nfa{idx}", red.lmc, red.pi1, red.pi2, {"nfa": nfa, "reduction": red}))
        for idx in range(size.pa_pairs):
            out.append(PaCase(f"pa{2 * idx}", no_witness_pa(lib, rng), False))
            out.append(PaCase(f"pa{2 * idx + 1}", witness_pa(lib, rng), True))
    elif workload == "cyclic-bounded":
        lmc, pi1, pi2 = worked_example(lib)
        out.append(Pair("worked", lmc, pi1, pi2, {"bounded": True, "equivalent": False}))
        for idx, n in enumerate(size.cyclic_states):
            chain = random_cyclic_chain(lib, rng, n)
            weights = _parts(rng, n + 2, n)
            pi2 = lib.InitialDistribution(tuple(Fraction(w, n + 2) for w in weights))
            out.append(Pair(f"cyc{idx}", chain, dirac(chain, "c0"), pi2, {"bounded": True}))
            # Every other chain is paired with its relabelled copy (equivalent),
            # the rest with a copy whose first state swaps its letters (not).
            equivalent = idx % 2 == 0
            copy = relabelled(lib, chain, "d", swap_first=not equivalent)
            union, u1, u2 = lib.disjoint_union(chain, dirac(chain, "c0"), copy, dirac(copy, "d0"))
            out.append(Pair(f"cyc{idx}eq", union, u1, u2, {"equivalent": equivalent}))
    elif workload == "acyclic-sample":
        for idx, n in enumerate(size.acyclic_states):
            chain = random_acyclic_chain(lib, rng, n)
            start = {f"s{i}": Fraction(w, 6) for i, w in enumerate(_parts(rng, 6, 3))}
            pi2 = lib.InitialDistribution.from_map(chain, start)
            out.append(Pair(f"acy{idx}", chain, dirac(chain, "s0"), pi2))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write(lib, instances: list, outdir: Path) -> None:
    """Write every instance under ``outdir``, one directory each."""
    for inst in instances:
        d = outdir / inst.name
        d.mkdir(parents=True, exist_ok=True)
        if isinstance(inst, PaCase):
            lib.save_pa(inst.pa, d / "pa.json")
        else:
            lib.save_lmc(inst.lmc, d / "lmc.json")
            lib.save_distribution(inst.pi1, inst.lmc, d / "pi1.json")
            lib.save_distribution(inst.pi2, inst.lmc, d / "pi2.json")


def ops(
    workload: str, instances: list, taus: dict, outdir: str, size: Size = FULL
) -> list[Op]:
    """The fixed op list of one batch; paths are relative to the checkout.

    ``taus`` maps each NFA instance to its threshold, the reference distance,
    so the strict and non-strict decisions differ.
    """
    out: list[Op] = []

    def add(kind: str, inst, args: list[str], **params) -> None:
        if isinstance(inst, PaCase):
            files = [f"{outdir}/{inst.name}/pa.json"]
        else:
            files = [f"{outdir}/{inst.name}/{f}" for f in ("lmc.json", "pi1.json", "pi2.json")]
        argv = (kind, *files, *args, "--json")
        out.append(Op(len(out), kind, argv, inst.name, params))

    for inst in instances:
        if isinstance(inst, PaCase):
            add("pa-witness", inst, ["--max-len", str(size.pa_max_len)])
        elif workload == "reduction-exact":
            add("exact", inst, [])
            tau = taus[inst.name]
            add("threshold", inst, ["--tau", str(tau), "--strict"], tau=tau, strict=True)
            add("threshold", inst, ["--tau", str(tau), "--non-strict"], tau=tau, strict=False)
            add("lk", inst, ["-k", "2"])
            add("equiv", inst, [])
        elif workload == "cyclic-bounded":
            if inst.facts.get("bounded"):
                for eps in size.bounded_eps:
                    add("bounded", inst, ["--eps", str(eps)], eps=eps)
            if "equivalent" in inst.facts:
                add("equiv", inst, [])
        else:
            add(
                "sample",
                inst,
                ["--eps", str(size.sample_eps), "--delta", str(size.sample_delta),
                 "--seed", str(len(out))],
                eps=size.sample_eps,
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    ns = parser.parse_args(argv)
    lib = import_library()
    instances = generate(lib, ns.workload, ns.seed, TINY if ns.tiny else FULL)
    write(lib, instances, Path(ns.out))
    written_at = time.monotonic()
    print(json.dumps({"written_at": written_at,
                      "probes": [probe() for _ in range(SETUP_PROBES)]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
