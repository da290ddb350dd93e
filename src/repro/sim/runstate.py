"""Checkpoint and shutdown of a learning run, shared by its hosts.

:class:`~repro.sim.engine.TradingSimulator` and
:class:`~repro.runtime.MarketRuntime` play the same learning run over a
:class:`~repro.sim.rounds.RoundContext`, so they persist the same state:
the learning state, the regret tracker, the per-round series, the
selection counts, both RNG streams, the policy's private state and (for
instrumented runs) a metrics snapshot.  This module is the one codec
for that state, :func:`save_run_state` / :func:`load_run_state`, with
the run identity they check (:func:`run_fingerprint`), plus the two
checkpoint moments both hosts share: the periodic write
(:func:`periodic_checkpoint`) and the graceful stop
(:func:`graceful_shutdown`).

A host adds only its own extras: fingerprint fields, meta entries
written after ``next_round``, arrays written after the series, and a
callback that reads them back.  The checkpoint is one NPZ written by
:func:`~repro.sim.persistence.save_checkpoint`; its ``checkpoint_meta``
holds, in order, the host's fingerprint, ``next_round``, the host's
extra meta, the tracker scalars, the two RNG states, the fingerprint
keys the host asked to write last (``late_keys``) and the optional
metrics snapshot.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import NoReturn

import numpy as np

from repro.exceptions import GracefulShutdownInterrupt, PersistenceError
from repro.obs.timing import perf_counter
from repro.resilience.policy import (
    NOOP_POLICY,
    ResiliencePolicy,
    execute_with_policy,
)
from repro.sim.persistence import (
    load_checkpoint,
    recover_checkpoint,
    save_checkpoint,
)
from repro.sim.rounds import SERIES_NAMES, RoundContext

__all__ = [
    "run_fingerprint",
    "save_run_state",
    "load_run_state",
    "periodic_checkpoint",
    "graceful_shutdown",
]

_POLICY_PREFIX = "policy__"


def run_fingerprint(ctx: RoundContext, kind: str,
                    **extra: object) -> dict[str, object]:
    """What identifies a run of ``kind``: its policy, seed and sizes.

    ``extra`` are the host's own identifying fields, appended last.
    """
    return {
        "kind": kind, "policy_name": ctx.policy.name, "seed": ctx.seed,
        "num_sellers": ctx.num_sellers, "num_selected": ctx.num_selected,
        "num_pois": ctx.num_pois, "num_rounds": ctx.num_rounds, **extra,
    }


def save_run_state(path: str | os.PathLike, ctx: RoundContext,
                   next_round: int, *, fingerprint: dict,
                   extra_meta: dict | None = None,
                   extra_arrays: dict[str, np.ndarray] | None = None,
                   late_keys: tuple[str, ...] = (),
                   resilience: ResiliencePolicy = NOOP_POLICY) -> None:
    """Atomically persist a run that has played ``next_round`` rounds.

    ``fingerprint`` identifies the run (:func:`load_run_state` refuses
    a checkpoint whose fingerprint differs); its ``late_keys`` are
    written after the RNG states instead of first.  The RNG states are
    the context's two streams.  A snapshot of ``ctx.metrics`` is
    embedded only when ``ctx.telemetry`` is set (the caller attached a
    registry), so the bytes of un-instrumented checkpoints stay
    deterministic (timer values are wall-clock).  The write is
    guarded by ``resilience``'s retry policy and keeps its checkpoint
    generations.
    """
    tracker_snapshot = ctx.tracker.snapshot()
    meta = {key: value for key, value in fingerprint.items()
            if key not in late_keys}
    meta["next_round"] = next_round
    meta.update(extra_meta or {})
    meta["tracker_cumulative"] = tracker_snapshot["cumulative"]
    meta["tracker_rounds"] = tracker_snapshot["rounds"]
    meta["tracker_expected_revenue"] = tracker_snapshot["expected_revenue"]
    meta["policy_rng_state"] = ctx.policy_rng.bit_generator.state
    meta["observation_rng_state"] = ctx.observation_rng.bit_generator.state
    for key in late_keys:
        meta[key] = fingerprint[key]
    if ctx.telemetry:
        meta["metrics_snapshot"] = ctx.metrics.snapshot()
    state_snapshot = ctx.state.snapshot()
    arrays = {
        "state_counts": state_snapshot["counts"],
        "state_sums": state_snapshot["sums"],
        "regret_history": tracker_snapshot["history"],
        "selection_counts": ctx.selection_counts,
    }
    for name in SERIES_NAMES:
        arrays[f"series_{name}"] = ctx.series[name][:next_round]
    arrays.update(extra_arrays or {})
    for key, value in ctx.policy.state_snapshot().items():
        arrays[_POLICY_PREFIX + key] = np.asarray(value)
    execute_with_policy(
        lambda: save_checkpoint(
            path, meta, arrays, metrics=ctx.metrics,
            keep_generations=resilience.checkpoint_generations,
        ),
        resilience.retry, label="engine.checkpoint_write",
        deadline=resilience.deadline, tracer=ctx.tracer,
        metrics=ctx.metrics,
    )


def load_run_state(path: str | os.PathLike, ctx: RoundContext, *,
                   fingerprint: dict,
                   restore_extras: Callable[[dict, dict], None] | None = None,
                   resilience: ResiliencePolicy = NOOP_POLICY) -> int:
    """Restore a run saved by :func:`save_run_state`; the next round.

    Returns ``0`` — start from scratch — when ``resilience``
    quarantines every generation of the file.  ``restore_extras(meta,
    arrays)`` reads the host's own extras back; a field missing there
    is reported like any other.

    Raises
    ------
    PersistenceError
        If the checkpoint belongs to a different run, lacks a field, or
        its ``next_round`` lies outside ``(0, num_rounds]``.
    """
    where = os.fspath(path)
    if resilience.quarantine:
        recovered = recover_checkpoint(path, tracer=ctx.tracer,
                                       metrics=ctx.metrics)
        if recovered is None:
            return 0
        meta, arrays, __ = recovered
    else:
        meta, arrays = load_checkpoint(path, metrics=ctx.metrics)
    for key, expected in fingerprint.items():
        if meta.get(key) != expected:
            raise PersistenceError(
                f"checkpoint {where} does not match this run: {key} is "
                f"{meta.get(key)!r}, expected {expected!r}"
            )
    try:
        next_round = int(meta["next_round"])
        ctx.state.restore({"counts": arrays["state_counts"],
                           "sums": arrays["state_sums"]})
        ctx.tracker.restore({
            "cumulative": meta["tracker_cumulative"],
            "rounds": meta["tracker_rounds"],
            "expected_revenue": meta["tracker_expected_revenue"],
            "history": arrays["regret_history"],
        })
        for name in SERIES_NAMES:
            partial = arrays[f"series_{name}"]
            ctx.series[name][:partial.size] = partial
        ctx.selection_counts[:] = arrays["selection_counts"]
        ctx.policy_rng.bit_generator.state = meta["policy_rng_state"]
        ctx.observation_rng.bit_generator.state = (
            meta["observation_rng_state"]
        )
        if restore_extras is not None:
            restore_extras(meta, arrays)
    except KeyError as error:
        raise PersistenceError(
            f"checkpoint {where} is missing field {error.args[0]!r}"
        ) from error
    if not (0 < next_round <= ctx.num_rounds):
        raise PersistenceError(
            f"checkpoint {where} has next_round {next_round}, outside "
            f"(0, {ctx.num_rounds}]"
        )
    ctx.policy.state_restore({
        key[len(_POLICY_PREFIX):]: value
        for key, value in arrays.items()
        if key.startswith(_POLICY_PREFIX)
    })
    # Resumed runs carry their telemetry forward: counters/timers
    # continue from the checkpointed snapshot instead of zero.
    if ctx.telemetry and meta.get("metrics_snapshot") is not None:
        ctx.metrics.restore(meta["metrics_snapshot"])
    return next_round


def periodic_checkpoint(ctx: RoundContext, t: int, every: int,
                        path: str | os.PathLike | None,
                        save: Callable[[], None]) -> None:
    """After round ``t``, write the checkpoint due every ``every`` rounds.

    Nothing is due when ``every`` is 0 or the run just ended (its
    final state is the result, not a resumable checkpoint).
    """
    if not every or (t + 1) % every or t + 1 >= ctx.num_rounds:
        return
    checkpoint_start = perf_counter()
    # Count the in-flight write first so the snapshot the checkpoint
    # embeds covers it (resume carries it over).
    ctx.metrics.counter("checkpoint_writes").inc()
    save()
    if ctx.tracer.enabled:
        ctx.tracer.emit("checkpoint", round_index=t, action="saved",
                        path=os.fspath(path), next_round=t + 1,
                        duration_s=perf_counter() - checkpoint_start)


def graceful_shutdown(ctx: RoundContext, t: int,
                      path: str | os.PathLike | None,
                      save: Callable[[], None], *, subject: str,
                      **event_fields: object) -> NoReturn:
    """Stop cleanly before round ``t``: final checkpoint, then raise.

    The checkpoint (written only when a ``path`` is configured and at
    least one round has completed — ``next_round = 0`` is not a
    resumable state) makes the interruption lossless: resuming
    continues from exactly round ``t``.  ``event_fields`` ride on the
    ``graceful_shutdown`` trace event; ``subject`` opens the
    :class:`~repro.exceptions.GracefulShutdownInterrupt` message.
    """
    final_path: str | None = None
    if path is not None and t > 0:
        ctx.metrics.counter("checkpoint_writes").inc()
        save()
        final_path = os.fspath(path)
    if ctx.tracer.enabled:
        ctx.tracer.emit("graceful_shutdown", round_index=t, **event_fields,
                        checkpoint_path=final_path)
        ctx.tracer.flush()
    raise GracefulShutdownInterrupt(
        f"{subject} stopped before round {t} "
        + (f"(resumable checkpoint: {final_path})" if final_path
           else "(no checkpoint written)"),
        checkpoint_path=final_path,
    )
