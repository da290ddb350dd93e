"""The four benchmark workloads and their correctness gates.

Each workload turns the benchmark seed into inputs, then runs *units*
of work; a unit is timed as a whole and returns how many work items it
did, a digest of its outputs, the time it took to set up and any
per-operation samples.  Gates run outside the timed region, and every
failed, skipped or wrong operation is counted against the operations
attempted.

Workloads (one process each, no worker pool):

* ``sweep-m300`` — ``replicate_comparison(workers=1)`` at Table II
  defaults with the paper's five policies; each unit sweeps one seed
  once clean and once under faults.  Work item: one policy-round.
* ``engine-m100k`` — ``TradingSimulator(backend="vector")`` with
  ``UCBPolicy`` at M=100,000, checkpointing every few hundred rounds.
  Work item: one round.
* ``serve-script`` — one closed-loop client replaying a generated
  session script against ``MarketService``; every request is timed.
  Work item: one request.
* ``oracle-stage1`` — the numerical oracles on seeded Table-II games
  whose interior premise holds.  Work item: the Stage-2 and Stage-3
  checks of one game.  The Stage-1 check (15-20 s each) runs once per
  traced run, as the run's prologue.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import deque
from dataclasses import dataclass, field, fields, replace
from time import perf_counter

import numpy as np

from repro.bandits import UCBPolicy
from repro.core.incentive import (
    optimal_collection_price,
    optimal_sensing_times,
    optimal_service_price,
)
from repro.exceptions import InvariantViolationError, ReproError
from repro.experiments.sweeps import default_policies
from repro.faults import FaultSpec
from repro.game.profits import GameInstance
from repro.runtime.loadgen import LoadSpec, generate_script
from repro.runtime.service import MarketService
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.sim.persistence import load_checkpoint
from repro.sim.replication import ReplicationResult, replicate_comparison
from repro.sim.results import RunMetrics
from repro.verify import oracles
from repro.verify.oracles import OracleCheck


@dataclass
class Unit:
    """One timed unit of work."""

    items: int
    seconds: float
    digest: str
    #: Per-operation samples; every unit gives ``setup_s``, the time it
    #: took to build its program objects from its inputs.
    samples: dict[str, list[float]] = field(default_factory=dict)


class Failures:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def _hash_arrays(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for value in arrays:
        value = np.ascontiguousarray(value)
        digest.update(str(value.dtype).encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _run_digest(run: RunMetrics) -> str:
    arrays = [getattr(run, f.name) for f in fields(run)
              if isinstance(getattr(run, f.name), np.ndarray)]
    return run.policy_name + ":" + _hash_arrays(*arrays)


def _runs_equal(a: RunMetrics, b: RunMetrics) -> bool:
    """``==`` on every field (arrays element-wise, NaN-free series)."""
    for f in fields(a):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray):
            if not np.array_equal(left, right):
                return False
        elif left != right:
            return False
    return True


def _replication_digest(result: ReplicationResult) -> str:
    digest = hashlib.sha256()
    for policy in sorted(result.summaries):
        for metric in sorted(result.summaries[policy]):
            summary = result.summaries[policy][metric]
            digest.update(f"{policy}/{metric}".encode())
            digest.update(np.array(
                [summary.mean, summary.std, summary.minimum,
                 summary.maximum, summary.num_seeds], dtype=np.float64,
            ).tobytes())
    digest.update(repr(result.seeds).encode())
    return digest.hexdigest()


class Workload:
    """Common shape: inputs from the seed, set-up, gate, units, finish."""

    name = ""
    #: Units run even when the time budget is already spent.
    min_units = 1
    #: Detail name the prologue's duration is reported under.
    prologue_metric: str | None = None

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def gate(self, failures: Failures) -> None:
        """Untimed correctness checks run before any number counts."""

    def prologue(self, failures: Failures) -> Unit | None:
        """A once-per-run operation timed on its own (``None``: none)."""
        return None

    def unit(self, index: int, failures: Failures) -> Unit:
        raise NotImplementedError

    def finish(self, units: list[Unit], failures: Failures) -> None:
        """Untimed checks over the whole run."""

    def details(self, units: list[Unit]) -> dict[str, float]:
        """Workload-specific figures derived from the units' samples."""
        return {}


# -- sweep-m300 ----------------------------------------------------------------------

class SweepWorkload(Workload):
    name = "sweep-m300"
    rounds = 300
    strict_prefix = 40
    faults = FaultSpec(dropout_rate=0.05, corruption_rate=0.02,
                       stall_rate=0.02)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.config = SimulationConfig(num_sellers=300, num_selected=10,
                                       num_pois=10, num_rounds=self.rounds,
                                       seed=seed)

    def _seed(self, index: int) -> int:
        return self.seed * 10_000 + index

    def _setup_seconds(self, index: int) -> float:
        """Time to build what one sweep seed builds inside
        ``replicate_comparison``: simulator, policies and fault model."""
        start = perf_counter()
        simulator = TradingSimulator(
            self.config.derive(seed=self._seed(index)))
        default_policies(simulator.population.expected_qualities)
        simulator.fault_model(self.faults)
        return perf_counter() - start

    def gate(self, failures: Failures) -> None:
        simulator = TradingSimulator(self.config.derive(seed=self._seed(0)))
        for fault_model in (None, simulator.fault_model(self.faults)):
            policies = default_policies(
                simulator.population.expected_qualities)
            try:
                simulator.compare(policies, self.strict_prefix,
                                  fault_model=fault_model, strict=True)
                ok, reason = True, ""
            except InvariantViolationError as error:
                ok, reason = False, f"strict prefix: {error}"
            failures.check(ok, reason)

    def _sweep(self, index: int) -> list[ReplicationResult]:
        """The clean and the faulty sweep of one seed."""
        seed = self._seed(index)
        return [replicate_comparison(self.config, default_policies,
                                     num_seeds=1, first_seed=seed,
                                     fault_spec=spec, workers=1)
                for spec in (None, self.faults)]

    def unit(self, index: int, failures: Failures) -> Unit:
        start = perf_counter()
        results = self._sweep(index)
        seconds = perf_counter() - start
        policies = len(default_policies(np.ones(1)))
        for result in results:
            failures.check(
                len(result.summaries) == policies
                and list(result.seeds) == [self._seed(index)],
                f"sweep of seed {self._seed(index)} is missing policies "
                "or seeds")
        return Unit(items=2 * policies * self.rounds, seconds=seconds,
                    digest=self._digest(results),
                    samples={"setup_s": [self._setup_seconds(index)]})

    @staticmethod
    def _digest(results: list[ReplicationResult]) -> str:
        return "/".join(_replication_digest(r) for r in results)

    def finish(self, units: list[Unit], failures: Failures) -> None:
        failures.check(self._digest(self._sweep(0)) == units[0].digest,
                       "same-seed sweep gave a different result digest")


# -- engine-m100k --------------------------------------------------------------------

class EngineWorkload(Workload):
    name = "engine-m100k"
    sellers = 100_000
    rounds = 800
    checkpoint_every = 300
    gate_rounds = 12

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.config = SimulationConfig(num_sellers=self.sellers,
                                       num_selected=10, num_pois=10,
                                       num_rounds=self.rounds, seed=seed)

    def _config(self, index: int) -> SimulationConfig:
        return self.config.derive(seed=self.seed * 10_000 + index)

    def gate(self, failures: Failures) -> None:
        config = self._config(0)
        scalar = TradingSimulator(config, backend="scalar").run(
            UCBPolicy(), self.gate_rounds)
        vector = TradingSimulator(config, backend="vector").run(
            UCBPolicy(), self.gate_rounds)
        failures.check(_runs_equal(scalar, vector),
                       "vector and scalar backends disagree on the prefix")

    def unit(self, index: int, failures: Failures) -> Unit:
        path = os.path.join(self.workdir, f"engine-{index}.npz")
        start = perf_counter()
        simulator = TradingSimulator(self._config(index), backend="vector")
        built = perf_counter()
        run = simulator.run(UCBPolicy(), checkpoint_path=path,
                            checkpoint_every=self.checkpoint_every)
        seconds = perf_counter() - built
        failures.check(self._checkpoint_ok(path, run),
                       f"checkpoint of unit {index} did not reload intact")
        os.remove(path)
        return Unit(items=self.rounds, seconds=seconds,
                    digest=_run_digest(run),
                    samples={"setup_s": [built - start]})

    def _checkpoint_ok(self, path: str, run: RunMetrics) -> bool:
        """The last checkpoint reloads, checksum verified, and matches."""
        try:
            meta, arrays = load_checkpoint(path)
        except ReproError:
            return False
        last = ((self.rounds - 1) // self.checkpoint_every
                * self.checkpoint_every)
        return (meta.get("next_round") == last
                and np.array_equal(arrays["series_realized"],
                                   run.realized_revenue[:last])
                and np.array_equal(arrays["regret_history"],
                                   run.regret[:last]))


# -- serve-script --------------------------------------------------------------------

#: Ledger-length buckets for quote latency (records before the quote).
QUOTE_BUCKETS = ((0, 1_000), (1_000, 2_000), (2_000, 3_000),
                 (3_000, None))


def bucket_label(low: int, high: int | None) -> str:
    return (f"ledger_{low // 1000}k-{high // 1000}k" if high is not None
            else f"ledger_ge{low // 1000}k")


class ServeWorkload(Workload):
    name = "serve-script"
    min_units = 2
    sessions = 1_400
    rounds_budget = 3_600

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.config = SimulationConfig(num_sellers=300, num_selected=10,
                                       num_pois=10,
                                       num_rounds=self.rounds_budget,
                                       seed=seed)
        self.script = generate_script(LoadSpec(
            seed=seed, num_sessions=self.sessions, max_open=256,
            rounds_budget=self.rounds_budget, max_rounds_per_trade=4,
        ))
        self.messages_per_round = 0.0

    def unit(self, index: int, failures: Failures) -> Unit:
        """Replay the script once, timing each request.

        Work items are the requests timed; a skipped request is a
        failure and adds neither time nor an item.
        """
        start = perf_counter()
        service = MarketService(self.config)
        setup = perf_counter() - start
        runtime = service.runtime
        open_sessions: deque[int] = deque()
        samples: dict[str, list[float]] = {
            "trade_s": [], "trade_rounds": [], "quote_s": [],
            "session_s": [], "quote_ledger": [], "setup_s": [setup],
        }
        quote_hash = hashlib.sha256()
        registers = closes = rounds = timed = 0
        wall = 0.0
        for op in self.script:
            kind = op["op"]
            if kind == "register":
                if not failures.check(runtime.num_online
                                      < runtime.config.num_sellers,
                                      "register skipped: every slot online"):
                    continue
                t0 = perf_counter()
                info = service.register()
                dt = perf_counter() - t0
                open_sessions.append(info["session"])
                samples["session_s"].append(dt)
                registers += 1
            elif kind == "trade":
                if not failures.check(runtime.num_online > 0,
                                      "trade skipped: nobody online"):
                    continue
                t0 = perf_counter()
                result = service.trade(int(op["rounds"]))
                dt = perf_counter() - t0
                played = int(result["rounds_played"])
                rounds += played
                if failures.check(played == int(op["rounds"]),
                                  "trade played fewer rounds than asked"):
                    samples["trade_s"].append(dt)
                    samples["trade_rounds"].append(played)
            elif kind == "quote":
                if not failures.check(bool(open_sessions),
                                      "quote skipped: nothing open"):
                    continue
                ledger_length = len(runtime.ledger)
                t0 = perf_counter()
                quote = service.quote(open_sessions[0])
                dt = perf_counter() - t0
                samples["quote_s"].append(dt)
                samples["quote_ledger"].append(ledger_length)
                quote_hash.update(repr(sorted(quote.items())).encode())
            else:
                if not failures.check(bool(open_sessions),
                                      "close skipped: nothing open"):
                    continue
                t0 = perf_counter()
                service.close(open_sessions.popleft())
                dt = perf_counter() - t0
                samples["session_s"].append(dt)
                closes += 1
            wall += dt
            timed += 1
        failures.check(registers == closes == runtime.sessions_closed
                       and runtime.num_online == 0,
                       "sessions left open after the script")
        failures.check(len(runtime.ledger) == rounds,
                       "ledger length differs from rounds traded")
        self.messages_per_round = (runtime.kernel.messages_delivered
                                   / max(rounds, 1))
        return Unit(items=timed, seconds=wall,
                    digest=runtime.ledger.digest() + quote_hash.hexdigest(),
                    samples=samples)

    def finish(self, units: list[Unit], failures: Failures) -> None:
        failures.check(all(u.digest == units[0].digest for u in units),
                       "replays of one script gave different ledgers")

    def details(self, units: list[Unit]) -> dict[str, float]:
        def pooled(key: str) -> np.ndarray:
            return np.concatenate([np.asarray(u.samples[key], dtype=float)
                                   for u in units])

        trade_s, trade_rounds = pooled("trade_s"), pooled("trade_rounds")
        trade = trade_s / trade_rounds
        quote, session = pooled("quote_s"), pooled("session_s")
        ledger = pooled("quote_ledger")
        out = {
            "serve.rounds_per_s": float(trade_rounds.sum() / trade_s.sum()),
            "serve.trade_round_p50_ms": float(np.percentile(trade, 50)) * 1e3,
            "serve.trade_round_p95_ms": float(np.percentile(trade, 95)) * 1e3,
            "serve.quote_p50_us": float(np.percentile(quote, 50)) * 1e6,
            "serve.quote_p99_us": float(np.percentile(quote, 99)) * 1e6,
            "serve.session_p50_us": float(np.percentile(session, 50)) * 1e6,
            "serve.trade_samples": float(trade.size),
            "serve.quote_samples": float(quote.size),
            "serve.session_samples": float(session.size),
            "runtime.messages_per_round": self.messages_per_round,
        }
        for low, high in QUOTE_BUCKETS:
            mask = ledger >= low
            if high is not None:
                mask &= ledger < high
            out[f"serve.quote_p50_us.{bucket_label(low, high)}"] = (
                float(np.percentile(quote[mask], 50)) * 1e6
                if mask.any() else 0.0)
        return out


# -- oracle-stage1 -------------------------------------------------------------------

def _table2_game(rng: np.random.Generator, sellers: int = 10) -> GameInstance:
    """A Table-II game with wide price bounds (interior optimum likely)."""
    return GameInstance(
        qualities=rng.uniform(1e-3, 1.0, sellers),
        cost_a=rng.uniform(0.1, 0.5, sellers),
        cost_b=rng.uniform(0.1, 1.0, sellers),
        theta=0.1, lam=1.0, omega=1_000.0,
        service_price_bounds=(0.0, 1_000.0),
        collection_price_bounds=(0.0, 1_000.0),
    )


def _interior(game: GameInstance) -> tuple[bool, float, float]:
    """Whether the closed-form equilibrium is interior (no clipping)."""
    pj = optimal_service_price(game)
    p = optimal_collection_price(game, pj)
    taus = optimal_sensing_times(game, p)
    svc_lo, svc_hi = game.service_price_bounds
    col_lo, col_hi = game.collection_price_bounds
    ok = (svc_lo + 1e-9 < pj < svc_hi - 1e-9
          and col_lo + 1e-9 < p < col_hi - 1e-9
          and bool(np.all(taus > 0.0)))
    return ok, pj, p


class OracleWorkload(Workload):
    """Stage-2/3 checks as the timed units; Stage-1 check when traced.

    One Stage-1 check takes 15-20 s, so a run could hold only a single
    sample of it, too few to be steady.  It runs as the prologue of
    traced runs, gated and timed (reported as
    ``oracle.stage1_check_s``); the end-to-end throughput comes from the
    Stage-2 and Stage-3 checks on a fresh game per unit, which exercise
    the same numerical solvers.
    """

    name = "oracle-stage1"
    prologue_metric = "oracle.stage1_check_s"

    def _game(self, index: int) -> tuple[GameInstance, float, float, float]:
        """The ``index``-th game of this seed whose premise holds, its
        closed-form prices, and the seconds its set-up took.

        Drawing candidates until one is interior is input generation and
        is not timed (the number of draws varies); set-up is building the
        accepted game from its inputs and solving its closed form.
        """
        rng = np.random.default_rng([self.seed, index])
        while True:
            drawn = _table2_game(rng)
            if _interior(drawn)[0]:
                break
        start = perf_counter()
        game = replace(drawn)
        _, pj, p = _interior(game)
        return game, pj, p, perf_counter() - start

    def _checked(self, checks: list[OracleCheck], failures: Failures,
                 seconds: float, setup: float) -> Unit:
        for check in checks:
            failures.check(_oracle_ok(check), check.describe())
        digest = hashlib.sha256(repr(
            [(c.oracle, c.passed, c.detail, c.max_error) for c in checks]
        ).encode()).hexdigest()
        return Unit(items=1, seconds=seconds, digest=digest,
                    samples={"setup_s": [setup]})

    def prologue(self, failures: Failures) -> Unit:
        game, _pj, _p, setup = self._game(0)
        start = perf_counter()
        check = oracles.check_stage1_oracle(game, f"seed-{self.seed}/stage1")
        return self._checked([check], failures, perf_counter() - start,
                             setup)

    def unit(self, index: int, failures: Failures) -> Unit:
        game, pj, p, setup = self._game(index + 1)
        case = f"seed-{self.seed}/game-{index + 1}"
        start = perf_counter()
        # Called through the module, so traced runs see the wrappers.
        checks = [oracles.check_stage2_oracle(game, pj, case),
                  oracles.check_stage3_oracle(game, p, case)]
        return self._checked(checks, failures, perf_counter() - start,
                             setup)


def _oracle_ok(check: OracleCheck) -> bool:
    """Passed and actually compared (a skipped check is a failure)."""
    return check.passed and not check.detail.startswith("skipped")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepWorkload, EngineWorkload,
                              ServeWorkload, OracleWorkload)
}


def scratch_dir(root: str) -> str:
    """A fresh directory for checkpoints inside the checkout."""
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
