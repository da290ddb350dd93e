"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead, :func:`instrument` replaces
each listed layer function with a thin wrapper wherever a ``repro.*``
module binds it by name (functions), or on its class (methods and
properties).  Every wrapper call records one span: name, start, end and
the span that was open when it began (its parent).  Spans live in
in-memory arrays and are written out once, when the benchmark ends.

A layer's *self time* is its span's duration minus the duration of its
direct child spans.  Because spans nest strictly (one thread, calls
return in LIFO order), the children of a span are exactly the spans
whose parent link points at it.

The same wrapper can also plant a delay inside one layer's span; the
planted-slowdown self-test (``perfbench/selftest.py``) uses it to check
that the traced report names the layer that was slowed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One wrapped public function of a ``repro`` module.

    ``target`` is ``module:function``, ``module:Class.method`` or
    ``module:Class.property``.  ``subclasses`` wraps ``method`` on every
    class of ``module`` that defines it itself (the selection policies).
    """

    name: str
    target: str
    hot: bool = False
    bytes_from_arrays: bool = False
    subclasses: bool = False


#: Every wrapped layer function, grouped by the ``repro`` package it
#: belongs to.  ``hot`` layers also report a median call time;
#: ``bytes_from_arrays`` layers report bytes per call computed from the
#: sizes of their array arguments and result.
LAYERS: tuple[Layer, ...] = (
    Layer("bandits.select", "repro.bandits.policies:select",
          hot=True, subclasses=True),
    Layer("kernels.ucb_scores", "repro.kernels.selection:ucb_scores",
          hot=True, bytes_from_arrays=True),
    Layer("kernels.top_k_partition",
          "repro.kernels.selection:top_k_partition",
          hot=True, bytes_from_arrays=True),
    Layer("kernels.estimation_error",
          "repro.kernels.selection:estimation_error",
          hot=True, bytes_from_arrays=True),
    Layer("kernels.state_update",
          "repro.kernels.state:VectorLearningState.update",
          hot=True, bytes_from_arrays=True),
    Layer("core.top_k_indices", "repro.core.selection:top_k_indices",
          hot=True),
    Layer("core.state_update", "repro.core.state:LearningState.update",
          hot=True),
    Layer("core.solve_round_fast", "repro.core.incentive:solve_round_fast",
          hot=True),
    Layer("core.regret_record", "repro.core.regret:RegretTracker.record",
          hot=True),
    Layer("quality.sample_round",
          "repro.quality.sampler:QualitySampler.sample_round", hot=True),
    Layer("faults.plan_round", "repro.faults.model:FaultModel.plan_round",
          hot=True),
    Layer("sim.play_clean_round", "repro.sim.rounds:play_clean_round",
          hot=True),
    Layer("sim.play_degraded_round", "repro.sim.rounds:play_degraded_round",
          hot=True),
    Layer("sim.save_checkpoint", "repro.sim.persistence:save_checkpoint"),
    Layer("runtime.play_round", "repro.runtime.market:MarketRuntime.play_round",
          hot=True),
    Layer("runtime.kernel_run", "repro.runtime.kernel:EventKernel.run",
          hot=True),
    Layer("runtime.open_session",
          "repro.runtime.market:MarketRuntime.open_session", hot=True),
    Layer("runtime.close_session",
          "repro.runtime.market:MarketRuntime.close_session", hot=True),
    Layer("runtime.ledger_records", "repro.runtime.market:TradeLedger.records",
          hot=True),
    Layer("game.solve_stage1_numeric",
          "repro.game.stackelberg:solve_stage1_numeric"),
    Layer("game.solve_stage2_numeric",
          "repro.game.stackelberg:solve_stage2_numeric"),
    Layer("game.solve_stage3_batch",
          "repro.game.stackelberg:solve_stage3_batch", hot=True),
    Layer("verify.check_stage1_oracle",
          "repro.verify.oracles:check_stage1_oracle"),
    Layer("verify.check_stage2_oracle",
          "repro.verify.oracles:check_stage2_oracle"),
    Layer("verify.check_stage3_oracle",
          "repro.verify.oracles:check_stage3_oracle"),
)

#: Modules imported before wrapping, so every binding site exists (some
#: are otherwise imported lazily, inside a run).
_BINDING_MODULES = (
    "repro", "repro.kernels.state", "repro.sim.engine",
    "repro.sim.replication", "repro.runtime.service",
    "repro.runtime.loadgen", "repro.verify.oracles",
    "repro.experiments.sweeps",
)


def _array_bytes(args: tuple, result: object) -> int:
    """Bytes of every array argument plus the array result.

    A lower bound on the memory traffic of one call: each input array
    read once and the output written once.
    """
    total = sum(arg.nbytes for arg in args if isinstance(arg, np.ndarray))
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return total


def _spin(seconds: float) -> None:
    """Busy-wait ``seconds`` (sleep is far too coarse at microseconds)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpanLog:
    """In-memory span store with parent links, plus exact side counts.

    ``record=False`` keeps the wrappers but records nothing; with a
    planted delay this is how a slowdown is injected into an untraced
    run.
    """

    def __init__(self, *, record: bool = True,
                 delays: dict[str, float] | None = None) -> None:
        self.record = record
        self.delays = dict(delays or {})
        self.names: list[str] = []
        self.name_ix = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.array_bytes: dict[str, int] = {}
        self.file_bytes: list[int] = []
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        """A wrapper recording one span per call of ``fn``."""
        delay = self.delays.get(layer.name, 0.0)
        if not self.record:
            if not delay:
                return fn

            @functools.wraps(fn)
            def delayed(*args, **kwargs):
                _spin(delay)
                return fn(*args, **kwargs)

            return delayed

        ix = self._intern(layer.name)
        name_ix, parent, start, end = (self.name_ix, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter
        counts_bytes = layer.bytes_from_arrays
        is_checkpoint = layer.name == "sim.save_checkpoint"
        array_bytes, file_bytes = self.array_bytes, self.file_bytes
        array_bytes.setdefault(layer.name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                if delay:
                    _spin(delay)
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counts_bytes:
                array_bytes[layer.name] += _array_bytes(args, result)
            elif is_checkpoint:
                file_bytes.append(os.path.getsize(args[0]))
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, ``self_s``, ``total_s``, ``p50_us`` (call
        duration) and ``self_p50_us`` (per-call self time)."""
        count = len(self.start)
        out: dict[str, dict[str, float]] = {}
        if count == 0:
            return out
        names = np.frombuffer(self.name_ix, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(count)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        self_time = duration - child
        for ix, name in enumerate(self.names):
            mask = names == ix
            calls = int(mask.sum())
            if calls == 0:
                continue
            out[name] = {
                "calls": calls,
                "self_s": float(self_time[mask].sum()),
                "total_s": float(duration[mask].sum()),
                "p50_us": float(np.median(duration[mask]) * 1e6),
                "self_p50_us": float(np.median(self_time[mask]) * 1e6),
            }
        return out

    def calls_under(self, child: str, ancestor: str) -> int:
        """Spans of ``child`` that have an ``ancestor`` span above them."""
        if child not in self.names or ancestor not in self.names:
            return 0
        child_ix = self.names.index(child)
        ancestor_ix = self.names.index(ancestor)
        found = 0
        for sid, ix in enumerate(self.name_ix):
            if ix != child_ix:
                continue
            parent = self.parent[sid]
            while parent >= 0:
                if self.name_ix[parent] == ancestor_ix:
                    found += 1
                    break
                parent = self.parent[parent]
        return found

    def root_seconds(self) -> float:
        """Wall time covered by outermost spans."""
        if not len(self.start):
            return 0.0
        parents = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        return float(duration[parents < 0].sum())

    def save(self, path: str) -> None:
        """Write every span (names, parent links, times) to one NPZ."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _resolve(target: str) -> tuple[object, str, list[str]]:
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    parts = qualname.split(".")
    return module, module_name, parts


def instrument(log: SpanLog,
               only: tuple[str, ...] | None = None) -> Callable[[], None]:
    """Wrap every layer (or just ``only``); returns the undo function.

    Functions are replaced in every loaded ``repro.*`` module that binds
    the original object by any name; methods and properties are replaced
    on their class, so subclasses and ``super()`` calls see the wrapper.
    """
    for module_name in _BINDING_MODULES:
        importlib.import_module(module_name)
    undo: list[tuple[object, str, object]] = []
    for layer in LAYERS:
        if only is not None and layer.name not in only:
            continue
        module, module_name, parts = _resolve(layer.target)
        if layer.subclasses:
            method = parts[0]
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module_name
                        and method in vars(cls)):
                    original = vars(cls)[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, log.wrap(layer, original))
        elif len(parts) == 2:
            cls = getattr(module, parts[0])
            original = vars(cls)[parts[1]]
            undo.append((cls, parts[1], original))
            if isinstance(original, property):
                setattr(cls, parts[1],
                        property(log.wrap(layer, original.fget)))
            else:
                setattr(cls, parts[1], log.wrap(layer, original))
        else:
            original = getattr(module, parts[0])
            wrapped = log.wrap(layer, original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "repro"
                                          or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        undo.append((loaded, attr, original))
                        setattr(loaded, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
