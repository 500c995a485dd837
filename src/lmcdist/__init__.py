"""Total variation distance between labelled Markov chains.

A labelled Markov chain emits one random finite word per run; two starting
distributions therefore induce two probability distributions on words.  This
package computes, bounds, estimates and decides the total variation distance
between them -- exactly in rational arithmetic wherever the chain is acyclic,
and to any prescribed accuracy otherwise -- and generates certified hard
instances from finite automata.

Submodules load on first use: ``import lmcdist`` runs none of them, and
reading a public name (``lmcdist.Lmc``) or a submodule (``lmcdist.approx``)
imports only the module that defines it and what that module imports.  So a
process that builds and saves chains never compiles the estimators or the
automata.  ``lmcdist.cli`` alone imports every module eagerly: it binds the
functions it calls at import, and the benchmark's tracer replaces those
names on ``lmcdist.cli`` (``cli.tv_bounded``, ``cli.load_lmc``, ...) with
timing wrappers.
"""

__version__ = "0.1.0"

#: Each submodule and the public names it defines.
_EXPORTS = {
    "approx": (
        "DEFAULT_SEED",
        "BitStream",
        "BoundedEstimate",
        "SampleEstimate",
        "length_bound",
        "ln_upper",
        "sample_count",
        "tv_bounded",
        "tv_sample_acyclic",
    ),
    "automata": (
        "Nfa",
        "Pa",
        "ReductionOutput",
        "acceptance_probability",
        "count_accepted_words",
        "count_from_distance",
        "find_majority_witness",
        "nfa_to_lmc",
        "pa_to_lmc",
        "total_accepting_runs",
    ),
    "errors": (
        "BudgetExceededError",
        "DomainError",
        "LengthExceededError",
        "OracleInfeasibleError",
        "ParseError",
    ),
    "exact": (
        "DistanceReport",
        "ThresholdCertificate",
        "WitnessSummary",
        "are_equivalent",
        "brute_force_best_event",
        "lk_distance_acyclic",
        "threshold_decide_acyclic",
        "tv_distance_acyclic",
    ),
    "floatk": (
        "FloatK",
        "RoundedModel",
        "fp_add",
        "fp_mul",
        "fp_round",
        "fp_word_probability",
        "precision_for",
    ),
    "formats": (
        "decimal15",
        "format_word",
        "load_distribution",
        "load_lmc",
        "load_nfa",
        "load_pa",
        "parse_word",
        "save_distribution",
        "save_lmc",
        "save_pa",
    ),
    "model": (
        "DEFAULT_NODE_BUDGET",
        "InitialDistribution",
        "Lmc",
        "disjoint_union",
        "is_acyclic",
        "max_support_length",
        "require_chain",
        "support_lengths",
        "tail_mass",
        "validate",
        "word_probability",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Given a fromlist, __import__ returns the submodule itself; unlike
    # importlib.import_module, it shows in ``python -X importtime``.
    value = __import__(f"{__name__}.{module}", fromlist=["*"])
    if name in _OWNER:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
