"""Layer tracing from outside the library.

The tracer replaces functions at the module or class attribute their caller
looks up (``lmcdist.cli.tv_distance_acyclic``, ``lmcdist.exact.advance``,
``lmcdist.floatk.fp_mul``, ...) with timing wrappers, and puts the originals
back on ``uninstall``.  No library file changes.

* Every op is a span of layer ``cli``; every call from ``cli`` into a library
  function is a child span (name, start, end, parent, op id), kept in memory
  and written out at the end.
* Kernels called once per enumeration node are aggregated into a call count
  and a busy time instead of spans.
* A layer's self time is the time inside its wrapped functions minus the time
  inside wrapped functions they call; unwrapped helpers count toward the
  layer of the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "formats", "model", "exact", "approx", "floatk", "automata")

#: (module, attribute its caller looks up, layer of the function, span?)
TARGETS = (
    # cli -> library calls: one span each.
    ("cli", "load_lmc", "formats", True),
    ("cli", "load_distribution", "formats", True),
    ("cli", "load_pa", "formats", True),
    ("cli", "decimal15", "formats", True),
    ("cli", "format_word", "formats", True),
    ("cli", "tv_distance_acyclic", "exact", True),
    ("cli", "lk_distance_acyclic", "exact", True),
    ("cli", "threshold_decide_acyclic", "exact", True),
    ("cli", "are_equivalent", "exact", True),
    ("cli", "tv_bounded", "approx", True),
    ("cli", "tv_sample_acyclic", "approx", True),
    ("cli", "find_majority_witness", "automata", True),
    ("cli", "acceptance_probability", "automata", True),
    # Kernels and helpers below the cli: counted, not spanned.
    ("formats", "validate", "model", False),
    ("model", "Lmc.from_transitions", "model", False),
    ("exact", "advance", "model", False),
    ("approx", "advance", "model", False),
    ("model", "advance", "model", False),
    ("exact", "stop_mass", "model", False),
    ("approx", "stop_mass", "model", False),
    ("model", "stop_mass", "model", False),
    ("approx", "word_probability", "model", False),
    ("exact", "is_acyclic", "model", False),
    ("exact", "support_lengths", "model", False),
    ("approx", "max_support_length", "model", False),
    ("approx", "length_bound", "approx", False),
    ("approx", "precision_for", "floatk", False),
    ("floatk", "fp_mul", "floatk", False),
    ("floatk", "fp_add", "floatk", False),
    ("floatk", "fp_round", "floatk", False),
    ("floatk", "RoundedModel.__init__", "floatk", False),
    ("floatk", "RoundedModel.initial", "floatk", False),
    ("floatk", "RoundedModel.advance", "floatk", False),
    ("floatk", "RoundedModel.stop_mass", "floatk", False),
    ("floatk", "FloatK.__lt__", "floatk", False),
)

_ADVANCE = ("exact.advance", "approx.advance", "model.advance")
_STOP_MASS = ("exact.stop_mass", "approx.stop_mass", "model.stop_mass")

#: Call-count metrics: name -> the wrapped attributes whose calls it sums.
CALLS = {
    "model.advance_calls": _ADVANCE,
    "model.stop_mass_calls": _STOP_MASS,
    "model.word_probability_calls": ("approx.word_probability",),
    "floatk.fp_mul_calls": ("floatk.fp_mul",),
    "floatk.fp_add_calls": ("floatk.fp_add",),
}

#: Busy-time metrics: name -> the wrapped attributes whose busy times it sums.
BUSY = {
    "model.advance_s": _ADVANCE,
    "model.stop_mass_s": _STOP_MASS,
    "model.word_probability_s": ("approx.word_probability",),
    "floatk.fp_s": ("floatk.fp_mul", "floatk.fp_add"),
    "approx.length_bound_s": ("approx.length_bound",),
    "floatk.precision_for_s": ("approx.precision_for",),
    "exact.equivalent_s": ("cli.are_equivalent",),
    "formats.load_s": ("cli.load_lmc", "cli.load_distribution", "cli.load_pa"),
    "automata.majority_witness_s": ("cli.find_majority_witness",),
}


class Tracer:
    """Installs the wrappers and accumulates self times, counts and spans."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {f"{m}.{a}": 0 for m, a, _, _ in TARGETS}
        self.busy = dict.fromkeys(self.calls, 0.0)
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op id)
        self._inner = [0.0]  # per open wrapped call: time spent in wrapped callees
        self._open = [None]  # ids of the open spans
        self._op_id = None
        self._next_id = 0
        self._restore: list[tuple] = []

    def reset_counters(self) -> None:
        """Zero the self times, counts and busy times; spans are kept."""
        for table in (self.self_s, self.calls, self.busy):
            for key in table:
                table[key] = 0

    def install(self) -> None:
        for module_name, attr, layer, span in TARGETS:
            owner = importlib.import_module(f"lmcdist.{module_name}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if path else getattr(owner, name)
            func = original.__func__ if isinstance(original, classmethod) else original
            stat = f"{module_name}.{attr}"
            wrapper = self._span(func, layer, stat, attr) if span else self._kernel(func, layer, stat)
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            setattr(owner, name, wrapper)
            self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _kernel(self, func, layer, stat):
        inner, self_s, calls, busy = self._inner, self.self_s, self.calls, self.busy
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - inner.pop()
                inner[-1] += elapsed
                self_s[layer] += own
                calls[stat] += 1
                busy[stat] += elapsed

        return wrapper

    def _span(self, func, layer, stat, name):
        kernel = self._kernel(func, layer, stat)

        def wrapper(*args, **kwargs):
            with self._spanned(name):
                return kernel(*args, **kwargs)

        return wrapper

    @contextmanager
    def _spanned(self, name: str):
        span_id, parent = self._next_id, self._open[-1]
        self._next_id += 1
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((span_id, name, start, time.perf_counter(), parent, self._op_id))

    @contextmanager
    def op(self, op_id: int, name: str):
        """The root span of one op; its time outside wrapped callees is
        ``cli`` self time."""
        self._op_id = op_id
        self._inner.append(0.0)
        start = time.perf_counter()
        try:
            with self._spanned(name):
                yield
        finally:
            self.self_s["cli"] += (time.perf_counter() - start) - self._inner.pop()
            self._op_id = None

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last ``reset_counters``."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({name: sum(self.calls[s] for s in stats) for name, stats in CALLS.items()})
        out.update({name: sum(self.busy[s] for s in stats) for name, stats in BUSY.items()})
        return out

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
