"""hypercode benchmark: one workload, one seed, one line of JSON results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Each run imports ``hypercode`` from the checkout's ``src/``, generates the
workload's inputs from the seed, makes one untimed warm-up pass and then
timed passes over the inputs for about ``--seconds``.  Every item goes the
way ``hypercode analyze`` takes it: parse the text, ``analyze_*``,
``to_json`` (the ``selfdual`` workload runs the self-duality routes
instead).  Every result of every pass is checked by ``oracle.check``.
Items are timed in chunks of about ``CHUNK_S`` seconds with the fixed loop
of ``reference.py`` timed between chunks, and the end-to-end times are
reported as multiples of that loop's time (unit ``ref``), because on a
shared host the machine's own speed swings by up to 2x.  The set-up time is
scaled the same way and given in seconds at ``REF_SECONDS`` per loop.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs untraced passes, then traced passes, and reports the
per-layer metrics.  Lines before the last describe the run in
words; the last line is the JSON result.  Exit code 2 means the benchmark
could not run (no ``src/hypercode`` next to it, bad arguments), 3 that a
traced layer recorded no calls.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
import reference
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9  # set-ups in an untraced run, spread over its timed passes
SETUP_REF_S = 0.02  # reference samples around each set-up
REF_SECONDS = 0.001  # the reference loop's time that setup_s is scaled to
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
CHUNK_S = 0.1  # items timed between two samples of the reference loop
REF_SHARE = 0.1  # each sample lasts this share of the longer chunk beside it

def import_hypercode():
    """Import ``hypercode`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hypercode" or n.startswith("hypercode.")]:
        del sys.modules[name]
    hc = importlib.import_module("hypercode")
    if not Path(hc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hypercode was imported from {hc.__file__}, not from {SRC}")
    return hc


def plain_api(hc) -> SimpleNamespace:
    """The library calls the workloads make, untraced."""

    def linear_code(matrix):
        code = hc.from_generator(matrix)
        code.dimension  # the cached reduction runs here, before any other call
        return code

    return SimpleNamespace(
        parse_hypergraph=hc.parse_hypergraph,
        parse_matrix=hc.parse_matrix,
        analyze_hypergraph=hc.analyze_hypergraph,
        analyze_matrix=hc.analyze_matrix,
        to_json=hc.AnalysisReport.to_json,
        incidence_matrix=hc.incidence_matrix,
        linear_code=linear_code,
        is_self_orthogonal=hc.is_self_orthogonal,
        is_self_dual=hc.is_self_dual,
        nullspace_basis=hc.nullspace_basis,
        row_space_equal=hc.row_space_equal,
        structural_self_orthogonality=hc.structural_self_orthogonality,
        graph_self_duality_criterion=hc.graph_self_duality_criterion,
    )


def run_item(api, item):
    if item.task == "analyze":
        if item.fmt == "matrix":
            report = api.analyze_matrix(api.parse_matrix(item.text), method=item.method, weights=True)
        else:
            report = api.analyze_hypergraph(api.parse_hypergraph(item.text), method=item.method, weights=True)
        return api.to_json(report)
    hypergraph = api.parse_hypergraph(item.text)
    matrix = api.incidence_matrix(hypergraph)
    code = api.linear_code(matrix)
    out = {
        "dimension": code.dimension,
        "self_orthogonal": api.is_self_orthogonal(code),
        "self_dual": api.is_self_dual(code),
    }
    null = api.nullspace_basis(matrix)
    out["nullspace_rows"] = null.num_rows
    if item.task == "selfdual":
        out["structural"] = api.structural_self_orthogonality(hypergraph)
        out["row_space_is_null_space"] = api.row_space_equal(matrix, null)
        if item.uniformity == 2:
            out["graph_criterion"] = api.graph_self_duality_criterion(hypergraph)
    return out


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def plan_chunks(latency, target=CHUNK_S):
    """Runs of consecutive items, each of at least ``target`` seconds by the
    warm-up pass's ``latency`` (or a single item that takes longer), as
    (first item, item after the last, seconds)."""
    chunks, start, total = [], 0, 0.0
    for i, seconds in enumerate(latency):
        total += seconds
        if total >= target:
            chunks.append((start, i + 1, total))
            start, total = i + 1, 0.0
    if start < len(latency):
        chunks.append((start, len(latency), total))
    return chunks


def run_pass(api, items, chunks, tracer=None):
    """One pass over the items, chunk by chunk, with the reference loop
    sampled before the first chunk and after each.

    A sample lasts ``REF_SHARE`` of the longer chunk beside it, so that a
    long input is set against the machine's speed over a span of time, not
    over one short run of the loop.

    Returns the pass's CPU seconds without the reference samples,
    per-item seconds, per-item times in multiples of the reference loop
    (``scaled_latency``: seconds over the mean of the samples around the
    item's chunk), the median reference sample, the elapsed time with the
    samples, and the outputs (an exception in place of a failed item's
    output).
    """
    outputs = [None] * len(items)
    latency = array.array("d", bytes(8 * len(items)))  # compact: kept for every pass
    scaled_latency = array.array("d", bytes(8 * len(items)))
    cpu = 0.0
    samples = []
    gc.collect()
    planned = [0.0] + [seconds for _, _, seconds in chunks] + [0.0]
    windows = [REF_SHARE * max(a, b) for a, b in zip(planned, planned[1:])]
    begin = perf_counter()
    before = reference.sample(windows[0])
    for c, (start, stop, _) in enumerate(chunks):
        cpu0 = cpu_seconds()
        for i in range(start, stop):
            if tracer is not None:
                tracer.item = i
            t0 = perf_counter()
            try:
                outputs[i] = run_item(api, items[i])
            except Exception as exc:  # counted as a failure of this item
                outputs[i] = exc
            latency[i] = perf_counter() - t0
        cpu += cpu_seconds() - cpu0
        after = reference.sample(windows[c + 1])
        ref = (before + after) / 2
        samples.append(ref)
        for i in range(start, stop):
            scaled_latency[i] = latency[i] / ref
        before = after
    return SimpleNamespace(
        cpu=cpu,
        latency=latency,
        scaled_latency=scaled_latency,
        ref=statistics.median(samples),
        elapsed=perf_counter() - begin,
        outputs=outputs,
    )


class Tally:
    """Items attempted and failed, by cause."""

    def __init__(self, hc) -> None:
        self.hc = hc
        self.attempted = 0
        self.failed = 0
        self.disagreements = 0
        self.cap_errors = 0
        self.check_failures = 0
        self.reported = 0

    def record(self, items, outputs) -> None:
        for item, out in zip(items, outputs):
            self.attempted += 1
            if isinstance(out, BaseException):
                if isinstance(out, self.hc.EngineDisagreement):
                    self.disagreements += 1
                elif isinstance(out, self.hc.EnumerationCapError):
                    self.cap_errors += 1
                problems = [f"raised {out!r}"]
                if self.reported < 3:
                    traceback.print_exception(out, file=sys.stderr)
            else:
                problems = oracle.check(item, out)
                self.check_failures += bool(problems)
            if problems:
                self.failed += 1
                if self.reported < 10:
                    print(f"FAIL {item.label}: {'; '.join(problems)}", file=sys.stderr)
                self.reported += 1


def set_up(workload: str, seed: int):
    """Import ``hypercode`` afresh and generate the inputs; returns the
    module, the inputs, the seconds taken and those seconds scaled to
    ``REF_SECONDS`` by the reference loop sampled before and after."""
    before = reference.sample(SETUP_REF_S)
    t0 = perf_counter()
    hc = import_hypercode()
    items = workloads.generate(workload, seed)
    seconds = perf_counter() - t0
    scaled = seconds / ((before + reference.sample(SETUP_REF_S)) / 2) * REF_SECONDS
    return hc, items, seconds, scaled


def timed_passes(api, items, chunks, tally, seconds, min_passes, tracer=None, between=None):
    """Passes until ``seconds`` would be exceeded, at least ``min_passes``;
    ``between(elapsed)`` is called after each pass."""
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start + passes[-1].elapsed <= seconds:
        if tracer is not None:
            tracer.spans.clear()
        result = run_pass(api, items, chunks, tracer)
        tally.record(items, result.outputs)
        result.outputs = None  # checked; keeping them would inflate peak_rss_mb
        if tracer is not None:
            result.summary = tracer.summary(len(items))
        passes.append(result)
        if between is not None:
            between(perf_counter() - start)
    return passes


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_item_median(passes, field):
    """Each input's median over the passes of ``field``, a per-item array."""
    return [statistics.median(getattr(p, field)[i] for p in passes) for i in range(len(getattr(passes[0], field)))]


def end_to_end(setup_scaled, passes) -> dict:
    # A shared host slows down by up to 2x for seconds to minutes at a time,
    # and slows the reference loop with it, so the times are given in
    # multiples of the reference loop timed beside them.  Each input's time
    # is its median over the passes; a pass is the sum of those medians.
    per_item = per_item_median(passes, "scaled_latency")
    return {
        "setup_s": statistics.median(setup_scaled),
        "pass_ref": math.fsum(per_item),
        "item_p50_ref": percentile(per_item, 50),
        "item_p99_ref": percentile(per_item, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def unscaled(setup_seconds, passes) -> dict:
    """The same times as measured, in seconds: they move with the machine's
    speed, so they are printed but not declared."""
    per_item = per_item_median(passes, "latency")
    return {
        "setup_s": statistics.median(setup_seconds),
        "wall_s": math.fsum(per_item),
        "item_p50_ms": percentile(per_item, 50) * 1e3,
        "item_p99_ms": percentile(per_item, 99) * 1e3,
        "ref_s": statistics.median(p.ref for p in passes),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hypercode benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        hc, items, setup_seconds, setup_scaled = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import hypercode from {SRC}: {exc}", file=sys.stderr)
        return 2
    work = workloads.work_counts(items)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": workloads.fingerprint(items),
        "work": work,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print("run " + json.dumps(info))

    api = plain_api(hc)
    tally = Tally(hc)
    warm_up = run_pass(api, items, [(0, len(items), 0.0)])  # checked but not timed
    tally.record(items, warm_up.outputs)
    chunks = plan_chunks(warm_up.latency)
    if args.trace == 0:
        # The set-up is repeated at even times through the run, so that its
        # median does not hang on the machine's speed in one moment.  The
        # repeats only take time; the module and inputs in use stay the first.
        seconds, scaled = [setup_seconds], [setup_scaled]

        def set_up_again(elapsed):
            while len(seconds) < SETUP_REPEATS and elapsed >= len(seconds) * args.seconds / SETUP_REPEATS:
                again = set_up(args.workload, args.seed)
                seconds.append(again[2])
                scaled.append(again[3])

        passes = timed_passes(api, items, chunks, tally, args.seconds, MIN_PASSES, between=set_up_again)
        set_up_again(float("inf"))
        metrics = end_to_end(scaled, passes)
        print(f"passes {len(passes)}, items per pass {len(items)}, chunks per pass {len(chunks)}")
        for name, value in unscaled(seconds, passes).items():
            print(f"unscaled {name} {value} {unit(name)}")
    else:
        plain = timed_passes(api, items, chunks, tally, args.seconds / 2, MIN_TRACE_PASSES)
        tracer = tracing.Tracer()
        with tracing.instrumented(hc, tracer, api) as traced_api:
            traced = timed_passes(traced_api, items, chunks, tally, args.seconds / 2, MIN_TRACE_PASSES, tracer)
        summaries = [p.summary for p in traced]
        idle = [layer for layer in tracing.EXPECTED_BUSY[args.workload] if summaries[-1][layer]["calls"] == 0]
        if idle:
            print(f"error: layers recorded no calls on {args.workload}: {', '.join(idle)}", file=sys.stderr)
            return 3
        metrics = tracing.layer_metrics(summaries)
        ref_s = statistics.median(p.ref for p in plain)
        metrics["bench.cpu_s"] = statistics.median(p.cpu for p in plain)
        metrics["bench.pass_wall_s"] = math.fsum(per_item_median(plain, "latency"))
        metrics["bench.ref_s"] = ref_s
        # In seconds at the untraced passes' machine speed.
        metrics["bench.trace_overhead_s"] = ref_s * (
            math.fsum(per_item_median(traced, "scaled_latency")) - math.fsum(per_item_median(plain, "scaled_latency"))
        )
        metrics["analysis.engine_disagreements"] = tally.disagreements
        metrics["limits.cap_errors"] = tally.cap_errors
        metrics["bench.check_failures"] = tally.check_failures
        metrics.update({f"work.{key}": value for key, value in work.items()})
        print(f"passes {len(plain)} untraced, {len(traced)} traced, items per pass {len(items)}")

    units = {name: unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"fail_frac {tally.failed / tally.attempted} ratio ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def unit(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("words_per_s"):
        return "words/s"
    if name.endswith("cells_per_s"):
        return "cells/s"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("calls_per_item"):
        return "calls/item"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
