"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-m300 --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics, scaled to a nominal host speed (``host.SpeedProbe``).  ``--trace 1`` runs every unit (and the workload's
prologue, if it has one) twice, untraced and with every layer function
wrapped (see ``spans.py``), alternating which goes first; it checks that
both passes produced bit-identical outputs and prints the per-layer
metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it carries provenance (host, versions, code digest) and
the figures behind the metrics.  Both lines, and in traced runs every
recorded span, are also written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import host
import spans

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics: reported by every workload, never zero.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("throughput_per_s", "1/s"))

#: Workload-specific figures reported with the per-layer metrics
#: (measured on the untraced pass of a traced run).
DETAILS = (
    ("serve.rounds_per_s", "1/s", "higher"),
    ("serve.trade_round_p50_ms", "ms", "lower"),
    ("serve.trade_round_p95_ms", "ms", "lower"),
    ("serve.quote_p50_us", "us", "lower"),
    ("serve.quote_p99_us", "us", "lower"),
    ("serve.session_p50_us", "us", "lower"),
    ("serve.trade_samples", "count", "higher"),
    ("serve.quote_samples", "count", "higher"),
    ("serve.session_samples", "count", "higher"),
    ("runtime.messages_per_round", "count", "lower"),
    ("oracle.stage1_check_s", "s", "lower"),
    ("game.stage3_calls_per_stage1_check", "count", "lower"),
    ("sim.save_checkpoint.bytes_per_write", "B", "lower"),
    ("trace.overhead_share", "%", "lower"),
    ("trace.span_coverage", "%", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in order."""
    import workloads

    spec: list[tuple[str, str, str]] = []
    for layer in spans.LAYERS:
        spec.append((f"{layer.name}.calls", "count", "lower"))
        spec.append((f"{layer.name}.self_s", "s", "lower"))
        if layer.hot:
            spec.append((f"{layer.name}.p50_us", "us", "lower"))
        if layer.bytes_from_arrays:
            spec.append((f"{layer.name}.bytes_computed", "B/call", "lower"))
    spec.extend(DETAILS)
    spec.extend((f"serve.quote_p50_us.{workloads.bucket_label(low, high)}",
                 "us", "lower") for low, high in workloads.QUOTE_BUCKETS)
    return spec


def _within_budget(workload, budget: float, step) -> None:
    """Call ``step(index)`` for index 0, 1, ... until ``budget`` seconds
    pass, at least ``workload.min_units`` times.

    A step is not started when the mean step so far suggests it would
    end well past the budget.
    """
    index = 0
    start = perf_counter()
    while index < workload.min_units or (
            (perf_counter() - start) * (index + 1) / index <= budget * 1.05):
        step(index)
        index += 1


def _traced_pairs(workload, failures, budget: float, log):
    """Run each unit untraced and traced, alternating which goes first.

    Returns the untraced units, the traced units and the wall time spent
    in traced units.  Alternating the order cancels slow drift of the
    host out of the overhead estimate.
    """
    untraced, traced = [], []
    traced_wall = 0.0

    def pair(index: int) -> None:
        nonlocal traced_wall
        for with_spans in ((False, True) if index % 2 == 0
                           else (True, False)):
            if not with_spans:
                untraced.append(workload.unit(index, failures))
                continue
            restore = spans.instrument(log)
            try:
                unit_start = perf_counter()
                traced.append(workload.unit(index, failures))
                traced_wall += perf_counter() - unit_start
            finally:
                restore()

    _within_budget(workload, budget, pair)
    return untraced, traced, traced_wall


def _untraced_run(workload, failures, seconds: float):
    """Time units for ``seconds``; returns units, details, end-to-end.

    Each unit's rate is multiplied by the host's slowdown while that
    unit ran, and its set-up times divided by it (``host.SpeedProbe``:
    the loop probe's slowdown for rates, the calls probe's for set-up),
    so the figures read as on a host where the probes take
    ``host.PROBE_NOMINAL_S``.
    """
    units, slowdowns = [], []
    probe = host.SpeedProbe()

    def step(index: int) -> None:
        first = len(probe.samples)
        units.append(workload.unit(index, failures))
        slowdowns.append(probe.slowdown(first))

    with probe:
        _within_budget(workload, seconds, step)
    workload.finish(units, failures)
    setup = [(s, calls) for u, (_loop, calls) in zip(units, slowdowns)
             for s in u.samples["setup_s"]]
    rates = [u.items / u.seconds for u in units]
    metrics = {
        "setup_s": statistics.median(s / calls for s, calls in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "throughput_per_s": statistics.median(
            rate * loop for rate, (loop, _calls) in zip(rates, slowdowns)),
    }
    details = workload.details(units)
    details.update({
        "measured.setup_s": statistics.median(s for s, _ in setup),
        "measured.throughput_per_s": statistics.median(rates),
        "host.loop_slowdown": statistics.median(s[0] for s in slowdowns),
        "host.calls_slowdown": statistics.median(s[1] for s in slowdowns),
    })
    return units, details, metrics


def _traced_run(workload, failures, seconds: float, spans_path: Path):
    """Untraced and traced passes; returns units, details, per-layer.

    The prologue (if any) and every unit run once untraced and once
    traced; both passes must give bit-identical outputs.
    """
    log = spans.SpanLog()
    traced_wall = 0.0
    prologue = workload.prologue(failures)
    if prologue is not None:
        restore = spans.instrument(log)
        try:
            start = perf_counter()
            traced_prologue = workload.prologue(failures)
            traced_wall += perf_counter() - start
        finally:
            restore()
        failures.check(traced_prologue.digest == prologue.digest,
                       "traced prologue differs from the untraced one")
    units, traced, wall = _traced_pairs(workload, failures, seconds, log)
    traced_wall += wall
    failures.check([u.digest for u in traced] == [u.digest for u in units],
                   "traced outputs differ from the untraced pass")
    workload.finish(units, failures)
    details = workload.details(units)
    if prologue is not None:
        details[workload.prologue_metric] = prologue.seconds
    overhead = statistics.median(
        t.seconds / u.seconds for t, u in zip(traced, units)) - 1.0
    coverage = log.root_seconds() / traced_wall
    log.save(str(spans_path))
    return units, details, _layer_metrics(log, overhead, coverage, details)


def _layer_metrics(log, overhead: float, coverage: float,
                   details: dict[str, float]) -> dict[str, float]:
    summary = log.summary()
    out: dict[str, float] = {}
    for layer in spans.LAYERS:
        stats = summary.get(layer.name, {})
        calls = stats.get("calls", 0)
        out[f"{layer.name}.calls"] = calls
        out[f"{layer.name}.self_s"] = stats.get("self_s", 0.0)
        if layer.hot:
            out[f"{layer.name}.p50_us"] = stats.get("p50_us", 0.0)
        if layer.bytes_from_arrays:
            out[f"{layer.name}.bytes_computed"] = (
                log.array_bytes.get(layer.name, 0) / calls if calls else 0.0)
    stage1_checks = summary.get("verify.check_stage1_oracle",
                                {}).get("calls", 0)
    extra = {
        "game.stage3_calls_per_stage1_check": (
            log.calls_under("game.solve_stage3_batch",
                            "verify.check_stage1_oracle") / stage1_checks
            if stage1_checks else 0.0),
        "sim.save_checkpoint.bytes_per_write": (
            statistics.mean(log.file_bytes) if log.file_bytes else 0.0),
        "trace.overhead_share": 100.0 * overhead,
        "trace.span_coverage": 100.0 * coverage,
    }
    # The spec lists the layer entries above first, then these figures.
    for name, _unit, _better in per_layer_spec()[len(out):]:
        out[name] = extra.get(name, details.get(name, 0.0))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    workdir = workloads.scratch_dir(str(ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        failures = workloads.Failures()
        workload.gate(failures)
        if args.trace:
            units, details, metrics = _traced_run(
                workload, failures, args.seconds,
                out_dir / f"spans-{args.workload}-{args.seed}.npz")
            metric_units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            units, details, metrics = _untraced_run(workload, failures,
                                                    args.seconds)
            metric_units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {
        "provenance": host.provenance(ROOT, args.workload, args.seed),
        "trace": bool(args.trace),
        "units": len(units),
        "details": details,
        "failures": failures.reasons,
    }
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, value in metrics.items()},
    }
    report = out_dir / (f"report-{args.workload}-{args.seed}"
                        f"-trace{args.trace}.json")
    report.write_text(json.dumps({"context": context, "result": result},
                                 indent=1) + "\n", encoding="utf-8")
    print("perfbench: " + json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
