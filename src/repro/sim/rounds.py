"""The one driver of Algorithm 1, shared by every single-consumer host.

One trading round is the same computation whether it is driven by
:class:`~repro.sim.engine.TradingSimulator`'s synchronous ``for t in
range(n)`` loop, by :class:`~repro.core.mechanism.CMABHSMechanism`
playing Algorithm 1, or fired as scheduled events by
:class:`~repro.runtime.MarketRuntime`'s discrete-event kernel.  This
module holds everything those hosts share exactly once, so "the
mechanism, the engine and a static-population runtime agree bit for
bit" is true *by construction* rather than by parallel maintenance of
several copies:

* **the instance and the run set-up** — :func:`build_instance` samples
  the seeded population and quality model; :meth:`RoundContext.new_run`
  wires a run's named random streams, learning state (per backend),
  tracker, series and policy;
* **the round bookkeeping** — :func:`begin_round`,
  :func:`record_selection` and :func:`end_round` (events, phase timers,
  counters, invariant checks), with :func:`play_round` composing them
  around selection and a round body, and :func:`open_run` /
  :func:`close_run` bracketing the run;
* **the round bodies** — :func:`play_clean_round`, the happy path
  (sample, learn, solve the three-stage game, settle, account profits),
  and :func:`play_degraded_round`, the graceful-degradation path driven
  by a :class:`~repro.faults.RoundFaultPlan`.  The batch engine feeds it
  plans drawn by a :class:`~repro.faults.FaultModel`; the event runtime
  reuses the *same* machinery for organic churn by synthesising plans
  whose ``dropped`` set is the sellers that departed mid-round;
* **the read-out** — :func:`run_metrics` builds the run's
  :class:`~repro.sim.results.RunMetrics` from the context's series.

The bodies consume randomness only through the sampler handed to them,
in a fixed call order, so bit-identity is decided entirely by stream
construction, which happens in :meth:`RoundContext.new_run` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.bandits.base import SelectionPolicy
from repro.bandits.policies import UCBPolicy
from repro.core.incentive import FormulaVariant, solve_round_fast
from repro.core.regret import RegretTracker
from repro.core.state import LearningState, observation_mask
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import FaultKind, FaultLog, FaultModel, RoundFaultPlan
from repro.kernels.selection import estimation_error as _estimation_error
from repro.obs.metrics import MetricsRegistry
from repro.obs.timing import perf_counter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.quality.distributions import QualityModel, TruncatedGaussianQuality
from repro.quality.sampler import QualitySampler
from repro.sim.config import SimulationConfig
from repro.sim.results import RunMetrics
from repro.sim.rng import RngFactory

if TYPE_CHECKING:  # runtime import would cycle: repro.verify runs rounds
    from repro.verify.invariants import InvariantMonitor

__all__ = [
    "PRIOR_MEAN",
    "QUALITY_FLOOR",
    "SERIES_NAMES",
    "RoundContext",
    "RoundSettlement",
    "build_instance",
    "game_terms",
    "open_run",
    "close_run",
    "begin_round",
    "select_round",
    "record_selection",
    "end_round",
    "play_round",
    "play_clean_round",
    "play_faulty_round",
    "play_degraded_round",
    "run_metrics",
]

#: Neutral estimate of a seller that has never been observed, used when
#: it enters the game unseen: a policy such as ``random`` picked it, or
#: it dropped out of the exploration round.
PRIOR_MEAN = 0.5

#: Floor applied to estimated qualities entering the game (the closed
#: forms divide by ``qbar_i``).
QUALITY_FLOOR = 1e-6

#: Metric series written round-by-round (regret lives in the tracker).
SERIES_NAMES = (
    "realized", "expected", "consumer", "platform", "sellers_mean",
    "service", "collection", "totals", "estimation_error",
)

#: :class:`~repro.sim.results.RunMetrics` field of each series.
_METRIC_FIELDS = (
    ("realized_revenue", "realized"), ("expected_revenue", "expected"),
    ("consumer_profit", "consumer"), ("platform_profit", "platform"),
    ("seller_profit_mean", "sellers_mean"), ("service_price", "service"),
    ("collection_price", "collection"), ("total_sensing_time", "totals"),
    ("estimation_error", "estimation_error"),
)


def build_instance(config: SimulationConfig,
                   population: SellerPopulation | None,
                   quality_model: QualityModel | None,
                   backend: str,
                   ) -> tuple[RngFactory, SellerPopulation, QualityModel]:
    """The seeded market instance a host trades on, validated.

    Returns the config seed's stream factory, the population (sampled
    from its ``"population"`` stream unless given) and the quality
    model (the config's truncated Gaussian unless given).  Raises
    :class:`~repro.exceptions.ConfigurationError` on an unknown
    ``backend`` or a population or model of the wrong size.
    """
    if backend not in ("scalar", "vector"):
        raise ConfigurationError(
            f"backend must be 'scalar' or 'vector', got {backend!r}"
        )
    factory = RngFactory(config.seed)
    if population is None:
        population = SellerPopulation.random(
            config.num_sellers,
            factory.generator("population"),
            a_range=config.a_range,
            b_range=config.b_range,
        )
    if len(population) != config.num_sellers:
        raise ConfigurationError(
            f"population has {len(population)} sellers but the config "
            f"says {config.num_sellers}"
        )
    if quality_model is None:
        quality_model = TruncatedGaussianQuality(
            population.expected_qualities, sigma=config.quality_sigma
        )
    if quality_model.num_sellers != config.num_sellers:
        raise ConfigurationError(
            "quality model covers a different number of sellers than "
            "the config"
        )
    return factory, population, quality_model


def game_terms(config: SimulationConfig) -> dict[str, object]:
    """The game parameters of a :class:`RoundContext`, from a config."""
    return {
        "theta": config.theta, "lam": config.lam, "omega": config.omega,
        "svc_bounds": config.service_price_bounds,
        "col_bounds": config.collection_price_bounds,
        "tau_max": config.max_sensing_time,
        "tau0": config.initial_sensing_time,
    }


@dataclass
class RoundContext:
    """Everything a round body needs, bundled once per run.

    Built only by :meth:`new_run`: the batch engine and the mechanism
    build one per run, the event runtime one for the lifetime of the
    market.  All array members are the *live* run objects (the bodies
    mutate ``series``, ``selection_counts``, ``state``, ...), not
    copies.
    """

    state: LearningState
    tracker: RegretTracker
    policy: SelectionPolicy
    sampler: QualitySampler
    series: dict[str, np.ndarray]
    selection_counts: np.ndarray
    qualities_truth: np.ndarray
    cost_a_all: np.ndarray
    cost_b_all: np.ndarray
    num_selected: int
    num_pois: int
    theta: float
    lam: float
    omega: float
    svc_bounds: tuple[float, float]
    col_bounds: tuple[float, float]
    tau_max: float
    tau0: float
    tracer: Tracer
    metrics: MetricsRegistry
    #: Master seed of the run's streams (reported by ``run_start``).
    seed: int
    #: The ``("policy", name)`` stream the policy selects with.
    policy_rng: np.random.Generator
    #: The ``"observations"`` stream the sampler draws from.
    observation_rng: np.random.Generator
    #: Whether the caller attached ``metrics``: only then do
    #: checkpoints and the run's metrics carry a telemetry snapshot.
    telemetry: bool = False
    monitor: "InvariantMonitor | None" = None
    #: Which closed-form Stage-2 constant the game is solved with (see
    #: :class:`~repro.core.incentive.FormulaVariant`).
    formula_variant: FormulaVariant = FormulaVariant.DERIVED
    #: Pre-allocated ``(M,)`` buffer the vector backend reuses for the
    #: per-round estimation-error reduction (``None`` on the scalar
    #: path, which allocates temporaries as it always has).
    scratch: np.ndarray | None = None

    @classmethod
    def new_run(cls, factory: RngFactory, policy: SelectionPolicy,
                population: SellerPopulation, quality_model: QualityModel,
                *, num_selected: int, num_pois: int, num_rounds: int,
                backend: str = "scalar", strict: bool = False,
                tracer: Tracer | None = None,
                metrics: MetricsRegistry | None = None,
                **terms: object) -> "RoundContext":
        """Set up a run of ``num_rounds`` rounds of ``policy``.

        The one place a run's randomness is wired: observations come
        from ``factory``'s ``"observations"`` stream and selection from
        its ``("policy", policy.name)`` stream, so every host consumes
        bit-identical randomness on the same seed.  ``backend`` picks
        the learning state (``"vector"``: the incrementally maintained
        :class:`~repro.kernels.state.VectorLearningState` plus its
        scratch buffer); ``strict`` attaches an
        :class:`~repro.verify.invariants.InvariantMonitor`.  The policy
        is reset, and ``terms`` are the game parameters (see
        :func:`game_terms`, plus an optional ``formula_variant``).
        """
        m = len(population)
        observation_rng = factory.generator("observations")
        scratch: np.ndarray | None = None
        if backend == "vector":
            # Imported lazily to keep the scalar path free of any
            # kernels dependency at import time.
            from repro.kernels.state import VectorLearningState

            state: LearningState = VectorLearningState(
                m, prior_mean=PRIOR_MEAN
            )
            scratch = np.empty(m)
        else:
            state = LearningState(m, prior_mean=PRIOR_MEAN)
        policy.reset(m, num_selected, num_rounds)
        tr = tracer if tracer is not None else NULL_TRACER
        monitor = None
        if strict:
            # Imported lazily: repro.verify runs these rounds (the
            # golden store computes goldens through them), so a
            # module-level import would be circular.
            from repro.verify.invariants import InvariantMonitor

            monitor = InvariantMonitor(num_pois, tracer=tr)
        return cls(
            state=state,
            tracker=RegretTracker(population.expected_qualities,
                                  num_selected, num_pois),
            policy=policy,
            sampler=QualitySampler(quality_model, num_pois,
                                   observation_rng),
            series={name: np.empty(num_rounds) for name in SERIES_NAMES},
            selection_counts=np.zeros(m, dtype=np.int64),
            qualities_truth=population.expected_qualities,
            cost_a_all=population.cost_a, cost_b_all=population.cost_b,
            num_selected=num_selected, num_pois=num_pois,
            tracer=tr,
            metrics=metrics if metrics is not None else MetricsRegistry(),
            seed=factory.master_seed,
            policy_rng=factory.generator("policy", policy.name),
            observation_rng=observation_rng,
            telemetry=metrics is not None,
            monitor=monitor, scratch=scratch, **terms,
        )

    @property
    def num_sellers(self) -> int:
        """Population size ``M``."""
        return self.selection_counts.size

    @property
    def num_rounds(self) -> int:
        """The run's horizon ``N`` (the length of every series)."""
        return self.series["realized"].size


# -- run and round bookkeeping --------------------------------------------------


def open_run(ctx: RoundContext, label: dict[str, object],
             start_round: int, **fields: object) -> float:
    """Emit the ``run_start`` event; returns the run's start time.

    ``label`` names the driver (``{"policy": name}`` or the mechanism's
    ``{"mechanism": "cmab-hs"}``) and opens both run events; ``fields``
    are host extras appended to the payload.
    """
    if ctx.tracer.enabled:
        ctx.tracer.emit("run_start", **label, num_rounds=ctx.num_rounds,
                        start_round=start_round, seed=ctx.seed,
                        num_sellers=ctx.num_sellers,
                        num_selected=ctx.num_selected,
                        num_pois=ctx.num_pois, **fields)
    return perf_counter()


def close_run(ctx: RoundContext, label: dict[str, object],
              start_time: float, rounds_played: int) -> None:
    """Emit the ``run_end`` event and flush the tracer."""
    if ctx.tracer.enabled:
        ctx.tracer.emit("run_end", **label, rounds_played=rounds_played,
                        total_revenue=float(ctx.series["realized"].sum()),
                        final_regret=ctx.tracker.cumulative_regret,
                        duration_s=perf_counter() - start_time)
        ctx.tracer.flush()


def begin_round(ctx: RoundContext, t: int) -> float:
    """Emit round ``t``'s ``round_start``; returns its start time."""
    start_time = perf_counter()
    if ctx.tracer.enabled:
        ctx.tracer.emit("round_start", round_index=t)
    return start_time


def select_round(ctx: RoundContext,
                 t: int) -> tuple[np.ndarray, bool, np.ndarray | None]:
    """The policy's own selection over every seller.

    Returns the selection, whether the round is Algorithm 1's
    exploration round (the selection is larger than ``K``, or round 0
    selected the whole population — including the ``K == M`` corner
    where "all sellers" and "top K" coincide), and the UCB index vector
    the policy ranked by (``None`` for policies without one).
    """
    selected = ctx.policy.select(t, ctx.state, ctx.policy_rng)
    explore = selected.size > ctx.num_selected or (
        t == 0 and selected.size == ctx.num_sellers
    )
    return selected, explore, getattr(ctx.policy, "last_ucb_values", None)


def record_selection(ctx: RoundContext, t: int, start_time: float,
                     selected: np.ndarray, explore: bool,
                     ucb: np.ndarray | None) -> None:
    """Close round ``t``'s selection phase.

    Observes the ``engine.selection`` timer, emits the ``selection``
    event and runs the strict monitor's selection check.  ``ucb`` is
    the full index vector the selection ranked by, if any.
    """
    duration = perf_counter() - start_time
    ctx.metrics.timer("engine.selection").observe(duration)
    if ctx.tracer.enabled:
        if ucb is not None:
            selected_ucb = ucb[selected]
        elif isinstance(ctx.policy, UCBPolicy):
            # UCB selected without indices only in its round-0
            # exploration, over never-observed sellers: Eq. 19 is +inf.
            selected_ucb = np.full(selected.size, np.inf)
        else:
            selected_ucb = None
        ctx.tracer.emit("selection", round_index=t, selected=selected,
                        explore=bool(explore), ucb=selected_ucb,
                        duration_s=duration)
    if ctx.monitor is not None:
        ctx.monitor.check_selection(t, selected, ctx.num_selected,
                                    ctx.num_sellers, bool(explore),
                                    ucb_values=ucb)


def end_round(ctx: RoundContext, t: int, start_time: float) -> None:
    """Close round ``t``: round counter, regret gauge, timer, event."""
    reg = ctx.metrics
    reg.counter("rounds").inc()
    reg.gauge("cumulative_regret").set(ctx.tracker.cumulative_regret)
    duration = perf_counter() - start_time
    reg.timer("engine.round").observe(duration)
    if ctx.tracer.enabled:
        ctx.tracer.emit("round_end", round_index=t, duration_s=duration)


def play_round(ctx: RoundContext, t: int,
               fault_model: FaultModel | None = None,
               log: FaultLog | None = None,
               ) -> tuple[np.ndarray, RoundSettlement]:
    """Play round ``t`` whole: select, then the clean or faulty body.

    The round of the batch engine and the mechanism, bookkeeping
    included.  Returns the selection and the round's settlement.
    """
    start_time = begin_round(ctx, t)
    selected, explore, ucb = select_round(ctx, t)
    record_selection(ctx, t, start_time, selected, explore, ucb)
    if fault_model is None:
        settlement = play_clean_round(ctx, t, selected, explore)
    else:
        settlement = play_faulty_round(ctx, t, selected, explore,
                                       fault_model, log)
    if ctx.monitor is not None:
        ctx.monitor.check_learning(
            t, ctx.state, ctx.selection_counts,
            clean=fault_model is None,
            exploration_coefficient=getattr(
                ctx.policy, "exploration_coefficient", None
            ),
        )
    end_round(ctx, t, start_time)
    return selected, settlement


def run_metrics(ctx: RoundContext, rounds: int) -> RunMetrics:
    """The metrics of the run's first ``rounds`` rounds (copies)."""
    series = ctx.series
    return RunMetrics(
        policy_name=ctx.policy.name,
        regret=ctx.tracker.history[:rounds].copy(),
        selection_counts=ctx.selection_counts.copy(),
        telemetry=ctx.metrics.snapshot() if ctx.telemetry else None,
        **{field: series[name][:rounds].copy()
           for field, name in _METRIC_FIELDS},
    )


def estimation_error_scalar(means: np.ndarray,
                            qualities_truth: np.ndarray) -> float:
    """Allocation-naive mean absolute estimation error.

    The scalar twin of
    :func:`repro.kernels.selection.estimation_error`: the identical
    subtract/abs/mean sequence, with ordinary temporaries instead of a
    caller-owned scratch buffer, so the value is bit-identical across
    backends.
    """
    return float(np.abs(means - qualities_truth).mean())


def _estimation_error_of(ctx: RoundContext, state: LearningState) -> float:
    """Mean absolute estimation error, allocation-free when possible."""
    if ctx.scratch is not None:
        return _estimation_error(state.means, ctx.qualities_truth,
                                 ctx.scratch)
    return estimation_error_scalar(state.means, ctx.qualities_truth)


@dataclass(frozen=True)
class RoundSettlement:
    """What one round settled: the strategy profile and who it covered.

    ``participants`` are the sellers settlement covered (the selection
    minus dropouts; empty for a no-trade round).  ``sensing_times``,
    ``seller_profits`` and ``estimates`` align with them; ``estimates``
    are the qualities the round's game was solved on.  The round's
    leader profits and realized revenue live in the run's ``series``.
    """

    participants: np.ndarray
    service_price: float
    collection_price: float
    sensing_times: np.ndarray
    seller_profits: np.ndarray
    estimates: np.ndarray


def _solve_and_settle(ctx: RoundContext, t: int, participants: np.ndarray,
                      explore_round: bool) -> RoundSettlement:
    """Price the round on ``participants`` and account its profits.

    The block both round bodies share: solve the game (exploration
    pricing or the closed-form three-stage game on the floored
    estimates), publish the price gauges and the ``equilibrium`` event,
    check the invariants, and write the round's profit and strategy
    series.  Exploration rounds must have learned before calling this:
    their profits are evaluated at the post-collection estimates.
    """
    theta, lam, omega = ctx.theta, ctx.lam, ctx.omega
    svc_bounds, col_bounds = ctx.svc_bounds, ctx.col_bounds
    tr, reg, series = ctx.tracer, ctx.metrics, ctx.series
    cost_a = ctx.cost_a_all[participants]
    cost_b = ctx.cost_b_all[participants]
    solve_start = perf_counter()
    means = ctx.state.means[participants]
    if explore_round:
        # Algorithm 1 initial exploration: fixed time, break-even price.
        game_means = means
        taus = np.full(participants.size, ctx.tau0)
        total = float(np.add.reduce(taus))
        p = col_bounds[1]
        aggregation = theta * total * total + lam * total
        p_j = min(max(p + aggregation / total, svc_bounds[0]),
                  svc_bounds[1])
    else:
        game_means = np.maximum(means, QUALITY_FLOOR)
        p_j, p, taus = solve_round_fast(
            game_means, cost_a, cost_b, theta, lam, omega,
            svc_bounds, col_bounds, ctx.tau_max,
            paper_variant=ctx.formula_variant is FormulaVariant.PAPER,
        )
        total = float(np.add.reduce(taus))
        aggregation = theta * total * total + lam * total
    solve_duration = perf_counter() - solve_start
    reg.timer("engine.solve").observe(solve_duration)
    reg.gauge("service_price").set(p_j)
    reg.gauge("collection_price").set(p)
    if tr.enabled:
        tr.emit("equilibrium", round_index=t, service_price=float(p_j),
                collection_price=float(p), tau_total=total,
                explore=bool(explore_round), duration_s=solve_duration)
    if ctx.monitor is not None:
        # The game the solver actually solved uses the floored
        # estimates, so the invariants are checked against those.
        ctx.monitor.check_equilibrium(
            t, game_means, cost_a, cost_b, theta, lam, omega,
            svc_bounds, col_bounds, ctx.tau_max,
            float(p_j), float(p), taus, bool(explore_round),
        )

    # add.reduce == the pairwise kernel behind sum()/mean(), minus the
    # per-call wrapper — same bits, and this block runs every round.
    mean_quality = float(np.add.reduce(means) / means.size)
    seller_profits = p * taus - (
        cost_a * taus * taus + cost_b * taus
    ) * means
    series["consumer"][t] = (
        omega * np.log1p(mean_quality * total) - p_j * total
    )
    series["platform"][t] = (p_j - p) * total - aggregation
    series["sellers_mean"][t] = float(
        np.add.reduce(seller_profits) / seller_profits.size
    )
    series["service"][t] = p_j
    series["collection"][t] = p
    series["totals"][t] = total
    return RoundSettlement(participants, p_j, p, taus, seller_profits,
                           game_means)


def _emit_profits(ctx: RoundContext, t: int) -> None:
    series = ctx.series
    ctx.tracer.emit("profits", round_index=t,
                    consumer=float(series["consumer"][t]),
                    platform=float(series["platform"][t]),
                    sellers_mean=float(series["sellers_mean"][t]),
                    realized=float(series["realized"][t]))


def play_clean_round(ctx: RoundContext, t: int, selected: np.ndarray,
                     explore_round: bool) -> RoundSettlement:
    """One happy-path round (the original engine, bit for bit)."""
    state, sampler, series = ctx.state, ctx.sampler, ctx.series
    num_pois = ctx.num_pois
    if explore_round:
        # Profits of the exploration round are evaluated at the
        # *post-collection* estimates (the qualities are learned
        # before settlement).
        observations = sampler.sample_round(selected, round_index=t)
        state.update(selected, observations.sums, num_pois)
        ctx.policy.observe(t, selected, observations.sums, num_pois)
    settlement = _solve_and_settle(ctx, t, selected, explore_round)
    if not explore_round:
        observations = sampler.sample_round(selected, round_index=t)
        state.update(selected, observations.sums, num_pois)
        ctx.policy.observe(t, selected, observations.sums, num_pois)
    ctx.tracker.record(selected)
    series["realized"][t] = observations.total
    series["expected"][t] = float(
        np.add.reduce(ctx.qualities_truth[selected])
    ) * num_pois
    series["estimation_error"][t] = _estimation_error_of(ctx, state)
    ctx.selection_counts[selected] += 1
    if ctx.tracer.enabled:
        _emit_profits(ctx, t)
    return settlement


def play_faulty_round(ctx: RoundContext, t: int, selected: np.ndarray,
                      explore_round: bool, fault_model: FaultModel,
                      log: FaultLog | None) -> RoundSettlement:
    """One fault-injected round: draw the plan, log it, degrade.

    With an all-zero fault plan this produces bit-identical metrics to
    :func:`play_clean_round` (asserted by the test suite): the fault
    draws come from their own RNG stream, and every masked operation
    degenerates to the unmasked original.
    """
    plan = fault_model.plan_round(t, selected, ctx.num_pois)
    fault_model.log_plan(plan, log, tracer=ctx.tracer)
    ctx.metrics.counter("fault_events").inc(
        plan.dropped.size + plan.corrupted.size + plan.stalled.size
    )
    return play_degraded_round(ctx, t, selected, explore_round, plan, log)


def play_degraded_round(ctx: RoundContext, t: int, selected: np.ndarray,
                        explore_round: bool, plan: RoundFaultPlan,
                        log: FaultLog | None) -> RoundSettlement:
    """One round degraded by an already-drawn :class:`RoundFaultPlan`.

    The plan's ``dropped`` sellers are removed from settlement (the
    game is re-solved on the survivors; an empty survivor set settles
    as a documented no-trade round), ``corrupted`` reports are
    quarantined by feasibility validation, and ``stalled`` reports miss
    revenue accounting but still reach the learner.  The event runtime
    calls this directly with synthesised churn plans (``dropped`` =
    sellers that departed between selection and settlement).
    """
    state, sampler, series = ctx.state, ctx.sampler, ctx.series
    num_pois = ctx.num_pois
    tr, reg = ctx.tracer, ctx.metrics
    participants = selected[~np.isin(selected, plan.dropped)]

    ctx.tracker.record(selected)
    ctx.selection_counts[selected] += 1
    series["expected"][t] = float(
        ctx.qualities_truth[selected].sum()
    ) * num_pois

    if participants.size == 0:
        # Documented fallback: every selected seller dropped out, so
        # the round settles with no trade at all — zero profits,
        # prices pinned to their lower bounds, nothing learned.
        if log is not None:
            log.record(t, FaultKind.NO_TRADE)
        reg.counter("no_trade_rounds").inc()
        if tr.enabled:
            tr.emit("fault", round_index=t,
                    fault=FaultKind.NO_TRADE.value)
        series["realized"][t] = 0.0
        series["consumer"][t] = 0.0
        series["platform"][t] = 0.0
        series["sellers_mean"][t] = 0.0
        series["service"][t] = ctx.svc_bounds[0]
        series["collection"][t] = ctx.col_bounds[0]
        series["totals"][t] = 0.0
        series["estimation_error"][t] = _estimation_error_of(ctx, state)
        empty = np.empty(0)
        return RoundSettlement(participants, ctx.svc_bounds[0],
                               ctx.col_bounds[0], empty, empty, empty)

    if participants.size < selected.size:
        if log is not None:
            log.record(t, FaultKind.DEGRADED,
                       value=float(participants.size))
        reg.counter("degraded_resolves").inc()
        if tr.enabled:
            tr.emit("fault", round_index=t,
                    fault=FaultKind.DEGRADED.value,
                    survivors=int(participants.size))

    def collect() -> float:
        """Sample, inject corruption, quarantine, learn; the settled revenue."""
        observations = sampler.sample_round(participants, round_index=t)
        delivered = observations.sums.copy()
        if plan.corrupted.size:
            position = {int(s): i for i, s in enumerate(participants)}
            for seller, garbage in zip(plan.corrupted,
                                       plan.corrupted_sums):
                delivered[position[int(seller)]] = garbage
        valid = observation_mask(delivered, num_pois)
        invalid_positions = np.flatnonzero(~valid)
        if invalid_positions.size:
            reg.counter("quarantined_reports").inc(
                int(invalid_positions.size)
            )
        for pos in invalid_positions:
            if log is not None:
                log.record(t, FaultKind.QUARANTINE,
                           int(participants[pos]),
                           float(delivered[pos]))
            if tr.enabled:
                tr.emit("fault", round_index=t,
                        fault=FaultKind.QUARANTINE.value,
                        seller=int(participants[pos]),
                        value=float(delivered[pos]))
        # Stalled reports arrive after settlement but still reach
        # the learner; quarantined ones reach neither.
        state.update(participants[valid], delivered[valid], num_pois)
        ctx.policy.observe(t, participants[valid], delivered[valid],
                           num_pois)
        settle_mask = valid & ~np.isin(participants, plan.stalled)
        return float(delivered[settle_mask].sum())

    # The game is (re-)solved on the survivors only — a degraded set
    # never raises, it just trades less.
    if explore_round:
        realized = collect()
    settlement = _solve_and_settle(ctx, t, participants, explore_round)
    if not explore_round:
        realized = collect()
    series["realized"][t] = realized
    series["estimation_error"][t] = _estimation_error_of(ctx, state)
    if tr.enabled:
        _emit_profits(ctx, t)
    return settlement
