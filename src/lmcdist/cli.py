"""Command-line front end.

Every command prints a self-describing report: a manifest (command, tool
version, SHA-256 of every input file, every parameter including resolved
seeds) followed by the results.  Reports carry no timestamps or machine
identifiers, so rerunning a command on the same inputs reproduces the output
byte for byte -- randomized commands included, because seeds default to a
fixed constant and ``--seed random`` records the entropy it drew.

Rational results print as "num/den = decimal" with 15 significant digits;
``--json`` switches to a machine-readable object with the same fields.

``main`` creates every report, hands it to the command's handler to fill
in, and prints it once the handler returns its exit code; a handler that
raises leaves stdout empty and prints one ``error:`` line to stderr.

Exit codes: 0 success, 1 domain error (valid syntax, impossible request),
2 budget or cap exceeded, 3 malformed input.  A nonzero exit never leaves a
partial result on stdout; ``validate`` on an invalid chain prints its whole
report and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import secrets
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .approx import (
    DEFAULT_SEED,
    BitStream,
    tv_bounded,
    tv_sample_acyclic,
)
from .automata import (
    acceptance_probability,
    count_accepted_words,
    count_from_distance,
    find_majority_witness,
    nfa_to_lmc,
    pa_to_lmc,
)
from .errors import BudgetExceededError, DomainError, ParseError
from .exact import (
    DEFAULT_NODE_BUDGET,
    are_equivalent,
    lk_distance_acyclic,
    threshold_decide_acyclic,
    tv_distance_acyclic,
)
from .formats import (
    InputFile,
    decimal15,
    format_word,
    load_distribution,
    load_lmc,
    load_nfa,
    load_pa,
    parse_word,
    save_distribution,
    save_lmc,
)
from .model import InitialDistribution, Lmc, no_digit_limit, tail_mass, validate, word_probability

DEFAULT_SUBSET_CAP = 2**20


# -- reports --------------------------------------------------------------------


class Report:
    """Accumulates manifest and result fields, then prints them exactly once."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: list[dict[str, str]] = []
        self.parameters: dict[str, Any] = {}
        self._fields: dict[str, Any] = {}
        self._lines: list[str] = []

    def input_file(self, role: str, path: str) -> InputFile:
        """Read an input file once, record its digest, and return its bytes
        for a loader, so the digest describes what was analysed."""
        source = InputFile.read(path)
        self.inputs.append(
            {"role": role, "path": path, "sha256": hashlib.sha256(source.data).hexdigest()}
        )
        return source

    def param(self, name: str, value: Any) -> None:
        self.parameters[name] = str(value) if isinstance(value, Fraction) else value

    def field(
        self, key: str, value: Any, text: str | None = None, show: bool = True
    ) -> None:
        self._fields[key] = value
        if show:
            self._lines.append(text if text is not None else (key, value))

    def rational(self, key: str, value: Fraction, label: str | None = None) -> None:
        self._fields[key] = value
        self._lines.append((label or key, value))

    def line(self, text: str) -> None:
        self._lines.append(text)

    def manifest(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "version": __version__,
            "inputs": self.inputs,
            "parameters": self.parameters,
        }

    def emit(self, as_json: bool) -> None:
        """Print the report.  Results print in full: the interpreter's
        int/str digit limit guards the parsing of input, so it is lifted only
        while the results are formatted here."""
        with no_digit_limit():
            if as_json:
                results = {
                    key: {"rational": str(v), "decimal": decimal15(v)} if type(v) is Fraction else v
                    for key, v in self._fields.items()
                }
                print(json.dumps({"manifest": self.manifest(), "results": results}, indent=2, sort_keys=True))
                return
            print(f"# lmcdist {__version__} -- {self.command}")
            for item in self.inputs:
                print(f"# input {item['role']}: {item['path']} sha256={item['sha256']}")
            for name, value in self.parameters.items():
                print(f"# param {name} = {value}")
            for line in self._lines:
                if type(line) is tuple:
                    key, value = line
                    line = f"{key}: {value}" + (f" = {decimal15(value)}" if type(value) is Fraction else "")
                print(line)

# -- argument plumbing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ParseError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _seed(text: str) -> int | None:
    if text == "random":
        return None
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        # random.Random seeds with abs(seed): -5 would replay seed 5.
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer or 'random', got {text!r}")
    return seed


def _load_chain(report: Report, path: str, strict: bool = True) -> Lmc:
    return load_lmc(report.input_file("chain", path), strict=strict)


def _load_dist(
    report: Report, role: str, path: str, lmc: Lmc
) -> InitialDistribution:
    return load_distribution(report.input_file(role, path), lmc)


def _load_pair(ns: argparse.Namespace, report: Report) -> tuple[
    Lmc, InitialDistribution, InitialDistribution
]:
    lmc = _load_chain(report, ns.chain)
    pi1 = _load_dist(report, "first-distribution", ns.pi1, lmc)
    pi2 = _load_dist(report, "second-distribution", ns.pi2, lmc)
    return lmc, pi1, pi2


# -- command handlers ---------------------------------------------------------------


def _cmd_validate(ns: argparse.Namespace, report: Report) -> int:
    lmc = _load_chain(report, ns.chain, strict=False)
    violations = validate(lmc)
    report.field(
        "valid",
        not violations,
        "valid" if not violations else f"invalid ({len(violations)} violation(s)):",
    )
    report.field("violations", violations, show=False)
    for violation in violations:
        report.line(f"  - {violation}")
    return 1 if violations else 0


def _cmd_prob(ns: argparse.Namespace, report: Report) -> int:
    lmc = _load_chain(report, ns.chain)
    pi = _load_dist(report, "distribution", ns.pi, lmc)
    word = parse_word(ns.word, lmc.alphabet)
    report.param("word", format_word(word))
    prob = word_probability(lmc, pi, word)
    report.rational("probability", prob)
    return 0


def _cmd_tail(ns: argparse.Namespace, report: Report) -> int:
    lmc = _load_chain(report, ns.chain)
    pi = _load_dist(report, "distribution", ns.pi, lmc)
    report.param("length", ns.length)
    mass = tail_mass(lmc, pi, ns.length)
    report.rational("tail_mass", mass, f"mass of words longer than {ns.length}")
    return 0


def _cmd_exact(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    report.param("budget", ns.budget)
    result = tv_distance_acyclic(lmc, pi1, pi2, budget=ns.budget, list_words=ns.words)
    report.rational("distance", result.distance)
    report.field("witness_word_count", result.witness.word_count)
    report.rational("witness_mass_1", result.witness.mass_1)
    report.rational("witness_mass_2", result.witness.mass_2)
    report.field("enumerated_words", result.enumerated_words)
    if ns.words:
        words = result.witness.words
        if words is None:
            report.field(
                "witness_words",
                None,
                "witness event too large to list; summarized above",
            )
        else:
            report.field(
                "witness_words",
                [list(w) for w in words],
                "witness words: " + ", ".join(format_word(w) for w in words),
            )
    return 0


def _cmd_lk(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    report.param("k", ns.k)
    report.param("budget", ns.budget)
    value = lk_distance_acyclic(lmc, pi1, pi2, ns.k, budget=ns.budget)
    report.rational("power_sum", value, f"sum over words of |p1 - p2|^{ns.k}")
    return 0


def _cmd_threshold(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    report.param("tau", ns.tau)
    report.param("strict", ns.strict)
    report.param("budget", ns.budget)
    cert = threshold_decide_acyclic(
        lmc, pi1, pi2, ns.tau, strict=ns.strict, budget=ns.budget
    )
    relation = ">" if ns.strict else ">="
    report.field(
        "decision",
        cert.decision,
        f"distance {relation} {ns.tau}: {'yes' if cert.decision else 'no'}",
    )
    report.field("lhs_integer", cert.lhs_integer)
    report.field("rhs_integer", cert.rhs_integer)
    report.field("denominator_product", cert.denominator_product)
    report.field("support_length", cert.support_length)
    return 0


def _cmd_equiv(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    equivalent = are_equivalent(lmc, pi1, pi2)
    report.field(
        "equivalent", equivalent, "equivalent" if equivalent else "not equivalent"
    )
    return 0


def _cmd_sample(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    seed = secrets.randbits(63) if ns.seed is None else ns.seed
    report.param("epsilon", ns.eps)
    report.param("delta", ns.delta)
    report.param("seed", seed)
    report.param("rng", BitStream.algorithm)
    est = tv_sample_acyclic(lmc, pi1, pi2, ns.eps, ns.delta, seed=seed)
    report.rational("estimate", est.estimate)
    report.rational("fraction_first_below", est.p_hat_1)
    report.rational("fraction_second_at_least", est.p_hat_2)
    report.field("samples_per_side", est.samples_per_side)
    report.line(
        f"within {ns.eps} of the distance with probability >= {1 - ns.delta}"
    )
    return 0


def _cmd_bounded(ns: argparse.Namespace, report: Report) -> int:
    lmc, pi1, pi2 = _load_pair(ns, report)
    report.param("epsilon", ns.eps)
    report.param("budget", ns.budget)
    est = tv_bounded(lmc, pi1, pi2, ns.eps, budget=ns.budget)
    report.rational("estimate", est.estimate)
    report.rational("error_bound", ns.eps / 2, "guaranteed absolute error at most")
    report.field("length_cutoff", est.length_cutoff)
    report.field("precision_bits", est.precision)
    report.rational("mass_first_below", est.mass1_lt)
    report.rational("mass_second_at_least", est.mass2_ge)
    report.field("words_enumerated", est.words_enumerated)
    return 0


def _write_instance(report: Report, out: str, red) -> None:
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        save_lmc(red.lmc, outdir / "lmc.json")
        save_distribution(red.pi1, red.lmc, outdir / "pi1.json")
        save_distribution(red.pi2, red.lmc, outdir / "pi2.json")
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc}") from None
    written = [str(outdir / name) for name in ("lmc.json", "pi1.json", "pi2.json")]
    report.field("files", written, "wrote " + ", ".join(written))


def _cmd_from_nfa(ns: argparse.Namespace, report: Report) -> int:
    nfa = load_nfa(report.input_file("nfa", ns.nfa))
    report.param("word_length", ns.length)
    report.param("out", ns.out)
    report.param("subset_cap", ns.cap)
    red = nfa_to_lmc(nfa, ns.length)
    n = red.params["word_length"]
    # Counted before the instance is written, so a refused cap leaves no files.
    try:
        count = count_accepted_words(nfa, n, state_cap=ns.cap)
    except BudgetExceededError:
        count = None
    _write_instance(report, ns.out, red)
    k = red.params["alphabet_size"]
    s = red.params["state_count"]
    report.field("alphabet_size", k)
    report.field("state_count", s)
    report.rational("baseline_gap", red.baseline_gap, "run-count term y")
    unit = Fraction(1, k**n * s**n)
    report.rational("count_unit", unit, "distance shift per accepted word")
    report.field("total_words", k**n, f"words of length {n}: {k**n}")
    report.line(f"identity: distance = y + ({k}^{n} - count) * {unit}")
    if count is None:
        report.field(
            "accepted_count",
            None,
            "accepted-word count not certified (subset cap exceeded); "
            "recover it from a distance via extract-count",
        )
    else:
        report.field("accepted_count", count)
        report.rational(
            "certified_distance",
            red.baseline_gap + (k**n - count) * unit,
            "certified distance",
        )
    return 0


def _cmd_from_pa(ns: argparse.Namespace, report: Report) -> int:
    pa = load_pa(report.input_file("pa", ns.pa))
    report.param("out", ns.out)
    red = pa_to_lmc(pa)
    _write_instance(report, ns.out, red)
    report.field("alphabet_size", red.params["alphabet_size"])
    report.field("state_count", red.params["state_count"])
    report.rational("bound", red.bound, "distance lower bound")
    report.line(
        "the distance exceeds the bound iff some word is accepted "
        "with probability > 1/2"
    )
    return 0


def _cmd_count_nfa(ns: argparse.Namespace, report: Report) -> int:
    nfa = load_nfa(report.input_file("nfa", ns.nfa))
    report.param("word_length", ns.length)
    report.param("subset_cap", ns.cap)
    count = count_accepted_words(nfa, ns.length, state_cap=ns.cap)
    report.field("accepted_count", count)
    report.field("total_words", len(nfa.alphabet) ** ns.length)
    return 0


def _cmd_extract_count(ns: argparse.Namespace, report: Report) -> int:
    report.param("baseline_gap", ns.baseline_gap)
    report.param("distance", ns.distance)
    report.param("word_length", ns.length)
    report.param("alphabet_size", ns.alphabet_size)
    report.param("state_count", ns.state_count)
    count = count_from_distance(
        ns.baseline_gap, ns.distance, ns.length, ns.alphabet_size, ns.state_count
    )
    report.field("accepted_count", count)
    return 0


def _cmd_pa_witness(ns: argparse.Namespace, report: Report) -> int:
    pa = load_pa(report.input_file("pa", ns.pa))
    report.param("max_len", ns.max_len)
    witness = find_majority_witness(pa, ns.max_len)
    if witness is None:
        report.field(
            "witness",
            None,
            f"no word of length <= {ns.max_len} is accepted with probability > 1/2",
        )
    else:
        prob = acceptance_probability(pa, witness)
        report.field("witness", list(witness), f"witness word: {format_word(witness)}")
        report.rational("acceptance_probability", prob)
        if pa.alphabet:  # with no letters, from-pa builds no reduction and so no bound
            margin = Fraction(1, (2 * len(pa.alphabet)) ** len(witness)) * (prob / 2 - Fraction(1, 4))
            report.rational("margin_over_bound", margin, "distance exceeds the bound by at least")
    return 0


# -- parser ----------------------------------------------------------------------


@functools.cache  # parsing leaves the parser unchanged; handlers read module globals
def build_parser() -> _Parser:
    parser = _Parser(
        prog="lmcdist",
        description=(
            "Exact and approximate total variation distance between the word "
            "distributions of labelled Markov chains."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(
        name: str, handler: Callable[[argparse.Namespace, Report], int], help_text: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    def pair_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("chain", help="chain file")
        p.add_argument("pi1", help="first initial distribution file")
        p.add_argument("pi2", help="second initial distribution file")

    def budget_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_NODE_BUDGET,
            help="enumeration node budget: distinct prefix vectors for exact, lk "
            "and threshold, prefixes for bounded (default %(default)s)",
        )

    p = command("validate", _cmd_validate, "check a chain file; exit 1 if invalid")
    p.add_argument("chain", help="chain file")

    p = command("prob", _cmd_prob, "exact probability of one word")
    p.add_argument("chain", help="chain file")
    p.add_argument("pi", help="initial distribution file")
    p.add_argument("word", help="letters separated by spaces or commas; ε = empty")

    p = command("tail", _cmd_tail, "exact probability of words longer than n")
    p.add_argument("chain", help="chain file")
    p.add_argument("pi", help="initial distribution file")
    p.add_argument("-n", "--length", type=int, required=True, help="length cutoff")

    p = command("exact", _cmd_exact, "exact distance of an acyclic chain pair")
    pair_args(p)
    budget_arg(p)
    p.add_argument("--words", action="store_true", help="also list the witness event")

    p = command("lk", _cmd_lk, "exact sum over words of |p1 - p2|^k (acyclic)")
    pair_args(p)
    p.add_argument("-k", type=int, required=True, help="exponent k >= 1")
    budget_arg(p)

    p = command(
        "threshold",
        _cmd_threshold,
        "decide distance > tau (or >= tau) by exact integer comparison (acyclic)",
    )
    pair_args(p)
    p.add_argument("--tau", type=_rational, required=True, help="threshold in [0, 1]")
    strictness = p.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict", dest="strict", action="store_true", help="decide > tau (default)"
    )
    strictness.add_argument(
        "--non-strict", dest="strict", action="store_false", help="decide >= tau"
    )
    p.set_defaults(strict=True)
    budget_arg(p)

    p = command("equiv", _cmd_equiv, "decide whether the distance is exactly 0")
    pair_args(p)

    p = command(
        "sample",
        _cmd_sample,
        "statistical distance estimate from exact word samples (acyclic)",
    )
    pair_args(p)
    p.add_argument("--eps", type=_rational, required=True, help="additive error")
    p.add_argument("--delta", type=_rational, required=True, help="failure probability")
    p.add_argument(
        "--seed",
        type=_seed,
        default=DEFAULT_SEED,
        help="nonnegative integer seed or 'random' (default %(default)s)",
    )

    p = command(
        "bounded",
        _cmd_bounded,
        "deterministic distance estimate within eps/2 (cycles allowed)",
    )
    pair_args(p)
    p.add_argument("--eps", type=_rational, required=True, help="target accuracy")
    budget_arg(p)

    p = command(
        "from-nfa",
        _cmd_from_nfa,
        "turn an NFA and a word length into a certified distance instance",
    )
    p.add_argument("nfa", help="NFA file")
    p.add_argument("-n", "--length", type=int, required=True, help="word length")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SUBSET_CAP,
        help="subset cap for the certified count (default %(default)s)",
    )

    p = command(
        "from-pa",
        _cmd_from_pa,
        "turn a probabilistic automaton into a distance instance with a "
        "certified lower bound",
    )
    p.add_argument("pa", help="PA file")
    p.add_argument("--out", default=".", help="output directory (default: current)")

    p = command("count-nfa", _cmd_count_nfa, "count accepted words of one length")
    p.add_argument("nfa", help="NFA file")
    p.add_argument("-n", "--length", type=int, required=True, help="word length")
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_SUBSET_CAP,
        help="subset cap (default %(default)s)",
    )

    p = command(
        "extract-count",
        _cmd_extract_count,
        "recover an accepted-word count from a distance estimate",
    )
    p.add_argument(
        "--y",
        dest="baseline_gap",
        type=_rational,
        required=True,
        help="run-count term printed by from-nfa",
    )
    p.add_argument(
        "--dtilde",
        dest="distance",
        type=_rational,
        required=True,
        help="distance estimate (within 1/(4 k^n s^n))",
    )
    p.add_argument("-n", "--length", type=int, required=True, help="word length")
    p.add_argument(
        "-k", "--alphabet-size", type=int, required=True, help="NFA alphabet size"
    )
    p.add_argument(
        "-s", "--state-count", type=int, required=True, help="NFA state count"
    )

    p = command(
        "pa-witness",
        _cmd_pa_witness,
        "search for a word accepted with probability above 1/2",
    )
    p.add_argument("pa", help="PA file")
    p.add_argument(
        "--max-len", type=int, required=True, help="longest word length to try"
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        report = Report(ns.command)
        code = ns.handler(ns, report)
    except (ParseError, BudgetExceededError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ParseError) else 2 if isinstance(exc, BudgetExceededError) else 1
    report.emit(ns.json)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
