"""Benchmark: time to a checked answer for lmcdist CLI commands.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reduction-exact --seed 1 --seconds 30 --trace 0

One run sets up the workload's instances (timed, several times, in fresh
processes), computes a reference answer for each instance, and then runs the
workload's fixed op list in batches, closed loop: one client, ops back to
back, each op one in-process call of ``lmcdist.cli.main([..., "--json"])``
with its stdout captured and checked.  Batches repeat while another one
still fits in ``--seconds`` (and, untraced, until at least 100 ops ran).

Every set-up and every op is timed next to speed probes (``probe.py``), and
the end-to-end times are reported at the probe's reference speed, so that a
host that runs slower for a minute does not read as a slower program.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced batches and reports the per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A record of the run, and with tracing
the spans, go to ``.bench_build/bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import instances
from probe import REFERENCE_S, probe
from tracing import Tracer

ROOT = instances.ROOT
WORK = Path(".bench_build") / "bench"
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 9
#: An op's speed factor is the median of the probes up to this many ops
#: before and after it.
PROBE_WINDOW = 3
#: Untraced runs continue until this many ops ran, so that the 90th
#: percentile has at least ten samples beyond it.
MIN_OPS = 100

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

class Count(NamedTuple):
    """A deterministic count read from one kind of CLI report."""

    kind: str  # op kind whose report holds the field
    field: str
    combine: Callable  # how the values of one batch combine
    transform: Callable  # from the report's value to this count's
    unit: str


COUNTS = {
    "exact.enumerated_words": Count("exact", "enumerated_words", sum, int, "count"),
    "exact.threshold_lhs_bits": Count("threshold", "lhs_integer", max, int.bit_length, "bits"),
    "exact.threshold_denominator_bits": Count(
        "threshold", "denominator_product", max, int.bit_length, "bits"),
    "approx.bounded_words": Count("bounded", "words_enumerated", sum, int, "count"),
    "approx.length_cutoff_max": Count("bounded", "length_cutoff", max, int, "count"),
    "approx.sample_draws": Count("sample", "samples_per_side", sum, lambda m: 2 * m, "count"),
    "floatk.precision_bits_max": Count("bounded", "precision_bits", max, int, "bits"),
}


@dataclass
class Batch:
    op_times: list[float]
    probe_times: list[float]
    failed: int
    counts: dict
    digest: str
    failures: list[str] = field(default_factory=list)
    layer_metrics: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.op_times)

    def scaled_op_times(self) -> list[float]:
        """Each op's time at the reference speed, by the probes taken
        before the nearest ops."""
        out = []
        for i, t in enumerate(self.op_times):
            near = self.probe_times[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
            out.append(t * REFERENCE_S / statistics.median(near))
        return out


def run_batch(main, ops, refs, tracer: Tracer | None = None, tamper=None) -> Batch:
    """Run every op once, in order; check each answer and tally the counts.

    ``tamper``, when given, rewrites each op's stdout before it is checked;
    the self-tests use it to show that a wrong answer counts as failed.
    """
    digest = hashlib.sha256()
    values: dict[str, list] = {name: [] for name in COUNTS}
    times, probes, failures = [], [], []
    for op in ops:
        probes.append(probe())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                start = time.perf_counter()
                code = main(list(op.argv))
                times.append(time.perf_counter() - start)
            else:
                with tracer.op(op.op_id, op.kind):
                    start = time.perf_counter()
                    code = main(list(op.argv))
                    times.append(time.perf_counter() - start)
        text = out.getvalue()
        digest.update(text.encode())
        if tamper is not None:
            text = tamper(op, text)
        try:
            payload = json.loads(text) if code == 0 else None
            ok = payload is not None and checks.check(op, payload, refs[op.instance])
        except (ValueError, KeyError, TypeError) as exc:
            ok, payload = False, None
            err.write(f"unreadable answer: {exc!r}")
        if not ok:
            failures.append(f"op {op.op_id} {' '.join(op.argv)}: exit {code} {err.getvalue()}")
        results = payload["results"] if payload else {}
        for name, count in COUNTS.items():
            if op.kind == count.kind:
                values[name].append(_count(results, count))
    counts = {
        name: 0 if not vals else None if None in vals else COUNTS[name].combine(vals)
        for name, vals in values.items()
    }
    return Batch(times, probes, len(failures), counts, digest.hexdigest(), failures)


def _count(results: dict, count: Count):
    """One op's contribution to a count, or None when the report lacks it."""
    try:
        return count.transform(results[count.field])
    except (KeyError, TypeError, ValueError):
        return None


# -- set-up ---------------------------------------------------------------------


def timed_setup(workload: str, seed: int, outdir: Path, tiny: bool) -> tuple[float, float]:
    """Generate and write the instances in a fresh process.  The time runs
    from starting it until it has written the files, so it covers interpreter
    start, importing lmcdist, generating and writing.  Returns that time and
    the median of the probes the process took afterwards, on the CPU it ran
    on."""
    cmd = [sys.executable, "bench/instances.py", "--workload", workload,
           "--seed", str(seed), "--out", str(outdir)] + (["--tiny"] if tiny else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["written_at"] - start, statistics.median(report["probes"])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@dataclass
class Workload:
    """A workload made ready to run: its op list and reference answers."""

    main: object
    ops: list
    refs: dict
    setup_times: list[float]
    setup_probes: list[float]  # median probe time of each set-up
    files_reproduced: bool

    def setup_s(self) -> float:
        """Median set-up time at the reference speed."""
        return statistics.median(
            t * REFERENCE_S / p for t, p in zip(self.setup_times, self.setup_probes))


def prepare(workload: str, seed: int, workdir: Path, size=instances.FULL) -> Workload:
    tiny = size is instances.TINY
    shutil.rmtree(workdir, ignore_errors=True)
    dirs = [workdir / f"setup{i}" for i in range(SETUP_RUNS)]
    setups = [timed_setup(workload, seed, d, tiny) for d in dirs]
    setup_times = [t for t, _ in setups]
    setup_probes = [p for _, p in setups]
    first = tree_bytes(dirs[0])
    reproduced = bool(first) and all(tree_bytes(d) == first for d in dirs[1:])
    lib = instances.import_library()
    from lmcdist.cli import main

    insts = instances.generate(lib, workload, seed, size)
    refs = {i.name: checks.reference(lib, workload, i, size.pa_max_len) for i in insts}
    taus = {name: ref.distance for name, ref in refs.items()}
    ops = instances.ops(workload, insts, taus, dirs[0].as_posix(), size)
    return Workload(main, ops, refs, setup_times, setup_probes, reproduced)


# -- measurement ------------------------------------------------------------------


def measure(wl: Workload, seconds: float, traced: bool) -> tuple[list, list, Tracer | None]:
    """Run batches while another still fits in ``seconds``.  Untraced: at
    least ``MIN_OPS`` ops.  Traced: untraced and traced batches alternate."""
    plain: list[Batch] = []
    traced_batches: list[Batch] = []
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while True:
        plain.append(run_batch(wl.main, wl.ops, wl.refs))
        if tracer is not None:
            tracer.reset_counters()
            tracer.install()
            try:
                batch = run_batch(wl.main, wl.ops, wl.refs, tracer)
            finally:
                tracer.uninstall()
            batch.layer_metrics = tracer.metrics()
            traced_batches.append(batch)
        rounds = len(plain)
        per_round = (time.perf_counter() - start) / rounds
        enough_ops = traced or rounds * len(wl.ops) >= MIN_OPS
        if enough_ops and time.perf_counter() - start + per_round > seconds:
            return plain, traced_batches, tracer


def end_to_end(wl: Workload, batches: list[Batch]) -> dict[str, float]:
    """Times at the reference speed.  ``wall_s`` sums, over the op list,
    each op's median time across the batches."""
    scaled = [b.scaled_op_times() for b in batches]
    op_times = [t for times in scaled for t in times]
    return {
        "setup_s": wl.setup_s(),
        "wall_s": sum(statistics.median(times) for times in zip(*scaled)),
        "op_p50_s": statistics.median(op_times),
        "op_p90_s": statistics.quantiles(op_times, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: list[Batch], traced: list[Batch]) -> dict[str, tuple[float, str]]:
    """Median over traced batches of each layer metric, with the counts of
    the reports and the tracing overhead."""
    out = {}
    for name in traced[0].layer_metrics:
        value = statistics.median(b.layer_metrics[name] for b in traced)
        out[name] = (value, "count" if name.endswith("_calls") else "s")
    for name, value in traced[0].counts.items():
        if value is not None:
            out[name] = (value, COUNTS[name].unit)
    ratio = statistics.median(b.wall for b in traced) / statistics.median(b.wall for b in plain)
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=instances.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "lmcdist" / "__init__.py").is_file():
        print(f"error: no lmcdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{ns.workload}_seed{ns.seed}"
    workdir = WORK / tag
    results = WORK / "results"
    try:
        wl = prepare(ns.workload, ns.seed, workdir)
        plain, traced, tracer = measure(wl, ns.seconds, bool(ns.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    batches = plain + traced
    attempted = sum(len(b.op_times) for b in batches)
    failed = sum(b.failed for b in batches)
    counts_stable = all(b.counts == batches[0].counts for b in batches)
    correct = failed == 0 and counts_stable and wl.files_reproduced
    if ns.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(wl, plain).items()}

    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "trace": ns.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "ops_per_batch": len(wl.ops),
        "batches": len(plain),
        "traced_batches": len(traced),
        "counts": batches[0].counts,
        "counts_stable": counts_stable,
        "files_reproduced": wl.files_reproduced,
        "stdout_sha256": batches[0].digest,
        "stdout_stable": all(b.digest == batches[0].digest for b in batches),
        "setup_times_s": wl.setup_times,
        "setup_probe_medians_s": wl.setup_probes,
        "batch_walls_s": [b.wall for b in plain],
        "batch_probe_medians_s": [statistics.median(b.probe_times) for b in plain],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [f for b in batches for f in b.failures][:20],
    }
    suffix = f"{tag}_trace{ns.trace}"
    (results / f"BENCH_{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"spans_{suffix}.json")

    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {ns.workload} seed {ns.seed}: {attempted} ops in {len(plain)} batches "
          f"of {len(wl.ops)}, {failed} failed (fail_ratio {failed / attempted:.4f})")
    for name, value in batches[0].counts.items():
        print(f"# count {name} = {value}")
    print(f"# stdout sha256 {record['stdout_sha256']} stable={record['stdout_stable']}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:34s} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
