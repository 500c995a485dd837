"""Reference answers, computed once before timing, and the per-op checks.

Every answer the CLI prints is checked against a route that does not share
the code path under test:

* ``exact``: the counting identity of the NFA reduction,
  distance = baseline_gap + (k^n - count) / (k^n s^n), with ``count`` from
  ``count_accepted_words`` (subset construction, no chain enumeration).
* ``threshold``: that reference distance compared with tau.
* ``equiv``: not-equivalent exactly when the reference distance is non-zero;
  on cyclic pairs, equivalent when built so, and not-equivalent when some
  short word has different probabilities (the same prefix walk).
* ``lk -k 2``: zero exactly when the distance is zero, and at most twice it.
* ``pa-witness``: the benchmark's own exhaustive sweep of acceptance
  probabilities, in integer arithmetic over a common denominator.
* ``bounded``: the estimate lies in [S_m/2 - eps/2, (S_m + T1 + T2)/2 + eps/2],
  S_m the sum of |p1 - p2| over words of length <= m, summed by the
  benchmark's own prefix walk, and T_i from ``tail_mass``.
* ``sample``: within eps of ``tv_distance_acyclic``.

Checks read only ``distance``, ``decision``, ``equivalent``, ``power_sum``,
``witness`` and ``estimate``; fields a refactor may rename feed counters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from instances import Op, PaCase, Pair

#: Word-length horizon of the ``bounded`` bracket.
BRACKET_DEPTH = 10
#: Word-length horizon that certifies a cyclic pair is not equivalent.
EQUIV_DEPTH = 3


@dataclass(frozen=True)
class Reference:
    """What one instance's answers must agree with."""

    distance: Fraction | None = None  # exact distance, when known
    bracket: tuple[Fraction, Fraction] | None = None  # (S_m/2, (S_m+T1+T2)/2)
    equivalent: bool | None = None
    witnesses: frozenset | None = None  # words accepted with probability > 1/2


def majority_words(pa, max_len: int) -> frozenset:
    """Every word of length <= max_len accepted with probability above 1/2,
    by depth-first sweep with integer vectors over a common denominator."""
    den = math.lcm(*(p.denominator for mat in pa.matrices for row in mat for p in row))
    den0 = math.lcm(*(p.denominator for p in pa.initial))
    n = len(pa.states)
    mats = [[[int(p * den) for p in row] for row in mat] for mat in pa.matrices]
    accepting = [i for i, q in enumerate(pa.states) if q in pa.accepting]
    found = set()
    stack = [((), [int(p * den0) for p in pa.initial], den0)]
    while stack:
        word, vec, scale = stack.pop()
        if 2 * sum(vec[i] for i in accepting) > scale:
            found.add(word)
        if len(word) < max_len:
            for label, mat in zip(pa.alphabet, mats):
                nxt = [sum(vec[i] * mat[i][j] for i in range(n) if vec[i]) for j in range(n)]
                stack.append((word + (label,), nxt, scale * den))
    return frozenset(found)


def gap_sum(pair: Pair, depth: int) -> Fraction:
    """S_depth: the sum of |p1(w) - p2(w)| over all words of length <= depth.

    A depth-first walk over prefixes carrying the difference of the two
    prefix vectors, with the chain's dense matrices in exact fractions; it
    shares no code with the library's walkers.
    """
    lmc = pair.lmc
    n = range(lmc.n_states)
    total = Fraction(0)
    stack = [([a - b for a, b in zip(pair.pi1.weights, pair.pi2.weights)], 0)]
    while stack:
        vec, length = stack.pop()
        total += abs(sum(x * e for x, e in zip(vec, lmc.eow) if x))
        if length < depth:
            for mat in lmc.matrices:
                nxt = [sum(vec[i] * mat[i][j] for i in n if vec[i]) for j in n]
                if any(nxt):
                    stack.append((nxt, length + 1))
    return total


def reference(lib, workload: str, inst, max_len: int) -> Reference:
    if isinstance(inst, PaCase):
        witnesses = majority_words(inst.pa, max_len)
        if bool(witnesses) != inst.has_witness:
            raise RuntimeError(f"{inst.name}: construction does not give has_witness={inst.has_witness}")
        return Reference(witnesses=witnesses)
    if "nfa" in inst.facts:
        nfa, red = inst.facts["nfa"], inst.facts["reduction"]
        n, k, s = (red.params[key] for key in ("word_length", "alphabet_size", "state_count"))
        count = lib.count_accepted_words(nfa, n)
        distance = red.baseline_gap + Fraction(k**n - count, k**n * s**n)
        return Reference(distance=distance, equivalent=distance == 0)
    if workload == "cyclic-bounded":
        known = {}
        if "equivalent" in inst.facts:
            built = known["equivalent"] = inst.facts["equivalent"]
            if (gap_sum(inst, EQUIV_DEPTH) == 0) != built:
                raise RuntimeError(f"{inst.name}: construction does not give equivalent={built}")
        if inst.facts.get("bounded"):
            gaps = gap_sum(inst, BRACKET_DEPTH)
            t1 = lib.tail_mass(inst.lmc, inst.pi1, BRACKET_DEPTH)
            t2 = lib.tail_mass(inst.lmc, inst.pi2, BRACKET_DEPTH)
            known["bracket"] = (gaps / 2, (gaps + t1 + t2) / 2)
        return Reference(**known)
    report = lib.tv_distance_acyclic(inst.lmc, inst.pi1, inst.pi2)
    return Reference(distance=report.distance)


def _rational(value) -> Fraction:
    return Fraction(value["rational"])


def check(op: Op, payload: dict, ref: Reference) -> bool:
    """True when the CLI's JSON answer to ``op`` agrees with the reference."""
    res = payload["results"]
    if op.kind == "exact":
        return _rational(res["distance"]) == ref.distance
    if op.kind == "threshold":
        tau = op.params["tau"]
        expect = ref.distance > tau if op.params["strict"] else ref.distance >= tau
        return res["decision"] is expect
    if op.kind == "lk":
        value = _rational(res["power_sum"])
        return (value == 0) == (ref.distance == 0) and value <= 2 * ref.distance
    if op.kind == "equiv":
        return res["equivalent"] is ref.equivalent
    if op.kind == "pa-witness":
        witness = res["witness"]
        if witness is None:
            return not ref.witnesses
        return tuple(witness) in ref.witnesses
    if op.kind == "bounded":
        estimate, half = _rational(res["estimate"]), op.params["eps"] / 2
        low, high = ref.bracket
        return low - half <= estimate <= high + half
    if op.kind == "sample":
        return abs(_rational(res["estimate"]) - ref.distance) <= op.params["eps"]
    raise ValueError(f"no check for op kind {op.kind!r}")
