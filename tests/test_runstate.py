"""The shared run-state checkpoint codec of the engine and the runtime.

The schema pins below were recorded from checkpoints written before the
engine and the runtime shared :mod:`repro.sim.runstate`: the ordered
``checkpoint_meta`` keys and the array names of each checkpoint kind.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bandits import UCBPolicy
from repro.exceptions import PersistenceError
from repro.faults import FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.runtime import MarketRuntime
from repro.runtime.arrivals import ChurnSpec
from repro.sim import SimulationConfig, TradingSimulator

CONFIG = SimulationConfig(num_sellers=20, num_selected=4, num_pois=5,
                          num_rounds=40, seed=3)

_IDENTITY = ["kind", "policy_name", "seed", "num_sellers", "num_selected",
             "num_pois", "num_rounds"]
_TRACKER_AND_RNGS = ["tracker_cumulative", "tracker_rounds",
                     "tracker_expected_revenue", "policy_rng_state",
                     "observation_rng_state"]
_LEARNING_ARRAYS = ["state_counts", "state_sums", "regret_history",
                    "selection_counts"]
_SERIES_ARRAYS = ["series_realized", "series_expected", "series_consumer",
                  "series_platform", "series_sellers_mean", "series_service",
                  "series_collection", "series_totals",
                  "series_estimation_error"]

ENGINE_CLEAN_META = (_IDENTITY + ["next_round"] + _TRACKER_AND_RNGS
                     + ["fault_spec", "schema_version"])
ENGINE_CLEAN_ARRAYS = (["checkpoint_meta"] + _LEARNING_ARRAYS
                       + _SERIES_ARRAYS)

ENGINE_FAULTY_META = (_IDENTITY + ["next_round"] + _TRACKER_AND_RNGS
                      + ["fault_spec", "metrics_snapshot",
                         "schema_version"])
ENGINE_FAULTY_ARRAYS = (ENGINE_CLEAN_ARRAYS
                        + ["faultlog_rounds", "faultlog_kinds",
                           "faultlog_sellers", "faultlog_values"])

RUNTIME_CHURN_META = (_IDENTITY
                      + ["churn_spec", "next_round", "next_session",
                         "sessions_opened", "sessions_closed",
                         "messages_delivered", "messages_dropped"]
                      + _TRACKER_AND_RNGS + ["schema_version"])
RUNTIME_CHURN_ARRAYS = (["checkpoint_meta"] + _LEARNING_ARRAYS
                        + ["online_mask", "slot_session",
                           "slot_opened_round", "slot_trades"]
                        + _SERIES_ARRAYS
                        + ["ledger_rounds", "ledger_offsets",
                           "ledger_participants", "ledger_settlements"])


def _schema(path) -> tuple[list[str], list[str]]:
    """Ordered meta keys and the array names of a checkpoint file."""
    with np.load(path) as data:
        meta = json.loads(str(data["checkpoint_meta"]))
        return list(meta), list(data.files)


def _engine_checkpoint(tmp_path, faulty: bool):
    simulator = TradingSimulator(CONFIG)
    path = tmp_path / "engine.npz"
    simulator.run(
        UCBPolicy(), checkpoint_path=path, checkpoint_every=10,
        fault_model=(simulator.fault_model(FaultSpec(0.2, 0.05, 0.05))
                     if faulty else None),
        metrics=MetricsRegistry() if faulty else None,
    )
    return path


def _runtime_checkpoint(tmp_path):
    runtime = MarketRuntime(
        CONFIG, churn=ChurnSpec(arrival_rate=0.2, departure_rate=0.1)
    )
    path = tmp_path / "runtime.npz"
    runtime.run(checkpoint_path=path, checkpoint_every=10)
    return path


class TestSchemaPin:
    @pytest.mark.parametrize("faulty,meta_keys,array_names", [
        (False, ENGINE_CLEAN_META, ENGINE_CLEAN_ARRAYS),
        (True, ENGINE_FAULTY_META, ENGINE_FAULTY_ARRAYS),
    ], ids=["clean", "faulty-metrics"])
    def test_engine_checkpoint(self, tmp_path, faulty, meta_keys,
                               array_names):
        meta, arrays = _schema(_engine_checkpoint(tmp_path, faulty))
        assert meta == meta_keys
        assert sorted(arrays) == sorted(array_names)

    def test_runtime_churn_checkpoint(self, tmp_path):
        meta, arrays = _schema(_runtime_checkpoint(tmp_path))
        assert meta == RUNTIME_CHURN_META
        assert sorted(arrays) == sorted(RUNTIME_CHURN_ARRAYS)


class TestSharedCodec:
    def test_runtime_reports_missing_extra_field(self, tmp_path):
        path = _runtime_checkpoint(tmp_path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        del arrays["ledger_offsets"]
        np.savez(path, **arrays)
        with pytest.raises(PersistenceError,
                           match="missing field 'ledger_offsets'"):
            MarketRuntime(
                CONFIG, churn=ChurnSpec(arrival_rate=0.2, departure_rate=0.1)
            ).restore(path)
