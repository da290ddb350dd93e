"""Self-test of the benchmark: planted slowdown and workload predictions.

Usage (from the repository root)::

    python3 perfbench/selftest.py

1. **Planted slowdown.**  ``engine-m100k`` units run traced twice, once
   as they are and once with a delay of a quarter of its median call
   time planted in ``kernels.top_k_partition`` through the benchmark's
   own wrapper.  The report must name that layer as the one whose
   per-call median self time grew most, relative to its own baseline
   and to the other layers.  ``sweep-m300``, which
   never calls it, runs untraced with and without the same plant; its
   throughput must not move by more than the benchmark's bound.
2. **Why each workload was chosen.**  Traced runs confirm that kernel
   self time exceeds ``core.solve_round_fast`` on ``engine-m100k``, that
   the kernels make no call on ``sweep-m300``, that ``game.*`` self time
   is most of the wall time of a Stage-1 check, and that ``runtime.*``
   spans appear only on ``serve-script``.
3. **Declared metrics.**  ``BENCHMARK.json`` lists exactly the metrics
   ``run.py`` prints.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PLANTED = "kernels.top_k_partition"
PLANT_SHARE = 0.25
PAIRS = 4
MIN_CALLS = 50


def _traced(workload: workloads.Workload, indices: range,
            log: spans.SpanLog) -> list[workloads.Unit]:
    restore = spans.instrument(log)
    try:
        failures = workloads.Failures()
        units = [workload.unit(i, failures) for i in indices]
    finally:
        restore()
    if failures.failed:
        raise RuntimeError(f"workload failed its checks: {failures.reasons}")
    return units


def _layer_share(summary: dict, prefix: str, key: str = "self_s") -> float:
    return sum(stats[key] for name, stats in summary.items()
               if name.startswith(prefix))


def _unit_summary(workload: workloads.Workload, index: int,
                  delays: dict[str, float]) -> dict:
    log = spans.SpanLog(delays=delays)
    _traced(workload, range(index, index + 1), log)
    return log.summary()


def planted_slowdown(workdir: str, report: list[str]) -> bool:
    engine = workloads.EngineWorkload(seed=7, workdir=workdir)
    warm = _unit_summary(engine, 0, {})
    delay = PLANT_SHARE * warm[PLANTED]["p50_us"] * 1e-6
    # Each unit runs once plain and once planted, back to back in
    # alternating order; a layer's growth is the median over units of
    # its per-call median self time, planted over plain.  Dividing by
    # the median growth of all layers removes a change of host speed
    # between the two runs of a pair.
    ratios: dict[str, list[float]] = {}
    for index in range(PAIRS):
        runs = {}
        for planted in ((False, True) if index % 2 == 0 else (True, False)):
            runs[planted] = _unit_summary(
                engine, index, {PLANTED: delay} if planted else {})
        for name, stats in runs[False].items():
            # A median of a handful of calls (checkpoint writes) is
            # mostly disk noise; rank only layers with many calls.
            if stats["calls"] >= MIN_CALLS and stats["self_p50_us"] > 0:
                ratios.setdefault(name, []).append(
                    runs[True][name]["self_p50_us"] / stats["self_p50_us"])
    growth = {name: statistics.median(values)
              for name, values in ratios.items()}
    host = statistics.median(growth.values())
    growth = {name: value / host - 1.0 for name, value in growth.items()}
    named = max(growth, key=growth.get)
    ok = named == PLANTED
    report.append(("ok   " if ok else "FAIL ")
                  + f"planted {delay * 1e6:.1f} us/call in {PLANTED}; "
                  f"largest self-time growth: {named} "
                  f"(+{100 * growth[named]:.1f}%), next: " + ", ".join(
                      f"{n} {100 * g:+.1f}%" for n, g in sorted(
                          growth.items(), key=lambda kv: -kv[1])[1:4]))

    sweep = workloads.SweepWorkload(seed=7, workdir=workdir)
    ratios_sweep = []
    for index in range(2 * PAIRS):
        rates = {}
        for planted in ((False, True) if index % 2 == 0 else (True, False)):
            restore = spans.instrument(
                spans.SpanLog(record=False,
                              delays={PLANTED: delay} if planted else {}),
                only=(PLANTED,))
            try:
                unit = sweep.unit(index, workloads.Failures())
            finally:
                restore()
            rates[planted] = unit.items / unit.seconds
        ratios_sweep.append(rates[True] / rates[False])
    moved = statistics.median(ratios_sweep) - 1.0
    bound = _bound("throughput_per_s")
    steady = abs(moved) <= bound
    report.append(("ok   " if steady else "FAIL ")
                  + f"sweep-m300 (bypasses {PLANTED}) throughput moved "
                  f"{100 * moved:+.1f}% with the plant (bound "
                  f"{100 * bound:.0f}%)")
    return ok and steady


def _bound(metric: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"]
                if m["name"] == metric)


def predictions(workdir: str, report: list[str]) -> bool:
    summaries = {}
    walls = {}
    for name in ("sweep-m300", "engine-m100k", "serve-script"):
        workload = workloads.WORKLOADS[name](seed=7, workdir=workdir)
        log = spans.SpanLog()
        _traced(workload, range(1), log)
        summaries[name] = log.summary()
    oracle = workloads.OracleWorkload(seed=7, workdir=workdir)
    log = spans.SpanLog()
    restore = spans.instrument(log)
    try:
        start = perf_counter()
        oracle.prologue(workloads.Failures())
        walls["oracle-stage1"] = perf_counter() - start
    finally:
        restore()
    summaries["oracle-stage1"] = log.summary()

    engine = summaries["engine-m100k"]
    kernels = _layer_share(engine, "kernels.")
    solve = engine["core.solve_round_fast"]["self_s"]
    game_share = (_layer_share(summaries["oracle-stage1"], "game.")
                  / walls["oracle-stage1"])
    runtime_calls = {name: _layer_share(summary, "runtime.", "calls")
                     for name, summary in summaries.items()}
    checks = [
        (kernels > solve,
         f"engine-m100k: kernels.* self {kernels:.3f} s vs "
         f"core.solve_round_fast {solve:.3f} s"),
        (_layer_share(summaries["sweep-m300"], "kernels.", "calls") == 0,
         "sweep-m300: kernels.* make no call"),
        (game_share > 0.5,
         f"oracle-stage1: game.* self time is {100 * game_share:.1f}% "
         "of the Stage-1 check's wall time"),
        (runtime_calls["serve-script"] > 0 and all(
            calls == 0 for name, calls in runtime_calls.items()
            if name != "serve-script"),
         f"runtime.* calls per workload: {runtime_calls}"),
    ]
    for ok, text in checks:
        report.append(("ok   " if ok else "FAIL ") + text)
    return all(ok for ok, _ in checks)


def declared_metrics(report: list[str]) -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"])
                       for m in spec["per_layer"]]
    ok = (declared_e2e == list(run.END_TO_END)
          and declared_layers == run.per_layer_spec()
          and [w["name"] for w in spec["workloads"]]
          == list(workloads.WORKLOADS))
    report.append(("ok   " if ok else "FAIL ")
                  + "BENCHMARK.json matches the metrics run.py prints")
    return ok


def main() -> int:
    report: list[str] = []
    workdir = workloads.scratch_dir(str(ROOT))
    try:
        results = [declared_metrics(report), planted_slowdown(workdir, report),
                   predictions(workdir, report)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(report))
    print("selftest:", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
