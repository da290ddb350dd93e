"""Unit and integration tests for the trading-simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits.policies import (
    EpsilonFirstPolicy,
    OptimalPolicy,
    RandomPolicy,
    UCBPolicy,
)
from repro.core.mechanism import CMABHSMechanism
from repro.entities.consumer import Consumer
from repro.entities.job import Job
from repro.entities.platform import Platform
from repro.entities.seller import SellerPopulation
from repro.exceptions import ConfigurationError
from repro.faults import FaultLog, FaultModel, FaultSpec
from repro.quality.distributions import TruncatedGaussianQuality
from repro.sim.config import SimulationConfig
from repro.sim.engine import TradingSimulator
from repro.sim.rng import RngFactory


@pytest.fixture
def simulator(tiny_config) -> TradingSimulator:
    return TradingSimulator(tiny_config)


class TestConstruction:
    def test_population_size_must_match(self, tiny_config, rng):
        population = SellerPopulation.random(3, rng)
        with pytest.raises(ConfigurationError, match="population has 3"):
            TradingSimulator(tiny_config, population=population)

    def test_quality_model_size_must_match(self, tiny_config, rng):
        model = TruncatedGaussianQuality(np.array([0.5, 0.5]))
        with pytest.raises(ConfigurationError, match="different number"):
            TradingSimulator(tiny_config, quality_model=model)

    def test_population_sampled_from_config_ranges(self, simulator):
        population = simulator.population
        cfg = simulator.config
        assert np.all(population.cost_a >= cfg.a_range[0])
        assert np.all(population.cost_a <= cfg.a_range[1])

    def test_same_seed_same_population(self, tiny_config):
        a = TradingSimulator(tiny_config)
        b = TradingSimulator(tiny_config)
        np.testing.assert_array_equal(a.population.expected_qualities,
                                      b.population.expected_qualities)


class TestRunMetrics:
    def test_series_lengths(self, simulator, tiny_config):
        run = simulator.run(RandomPolicy())
        assert run.num_rounds == tiny_config.num_rounds
        assert run.consumer_profit.shape == (tiny_config.num_rounds,)
        assert run.selection_counts.shape == (tiny_config.num_sellers,)

    def test_optimal_policy_zero_regret(self, simulator):
        run = simulator.run(
            OptimalPolicy(simulator.population.expected_qualities)
        )
        assert run.final_regret == 0.0

    def test_regret_history_monotone(self, simulator):
        run = simulator.run(RandomPolicy())
        assert np.all(np.diff(run.regret) >= -1e-9)

    def test_ucb_initial_round_selects_everyone(self, simulator):
        run = simulator.run(UCBPolicy())
        assert np.all(run.selection_counts >= 1)

    def test_ucb_initial_round_break_even_platform(self, simulator):
        run = simulator.run(UCBPolicy())
        assert run.platform_profit[0] == pytest.approx(0.0, abs=1e-9)

    def test_collection_price_max_in_explore_round(self, simulator,
                                                   tiny_config):
        run = simulator.run(UCBPolicy())
        assert run.collection_price[0] == pytest.approx(
            tiny_config.collection_price_bounds[1]
        )

    def test_prices_within_bounds(self, simulator, tiny_config):
        run = simulator.run(UCBPolicy())
        lo, hi = tiny_config.service_price_bounds
        assert np.all(run.service_price >= lo - 1e-9)
        assert np.all(run.service_price <= hi + 1e-9)
        lo, hi = tiny_config.collection_price_bounds
        assert np.all(run.collection_price >= lo - 1e-9)
        assert np.all(run.collection_price <= hi + 1e-9)

    def test_sensing_times_nonnegative(self, simulator):
        run = simulator.run(UCBPolicy())
        assert np.all(run.total_sensing_time >= 0.0)

    def test_k_equals_m_corner_uses_exploration_pricing(self):
        # With K == M every policy selects everyone in round 0; the
        # engine must apply Algorithm 1's break-even pricing there, not
        # play the game on unseen estimates.
        config = SimulationConfig(num_sellers=6, num_selected=6,
                                  num_pois=3, num_rounds=20, seed=5,
                                  collection_price_bounds=(0.0, 5.0))
        run = TradingSimulator(config).run(UCBPolicy())
        assert run.collection_price[0] == pytest.approx(5.0)
        assert run.platform_profit[0] == pytest.approx(0.0, abs=1e-9)

    def test_estimation_error_shrinks_for_ucb(self, tiny_config):
        config = tiny_config.derive(num_rounds=600)
        run = TradingSimulator(config).run(UCBPolicy())
        # Quality estimates converge: the tail error is well below the
        # error right after the first exploration round.
        assert run.estimation_error[-1] < 0.5 * run.estimation_error[0]
        assert run.final_estimation_error == run.estimation_error[-1]

    def test_estimation_error_nonnegative(self, simulator):
        run = simulator.run(RandomPolicy())
        assert np.all(run.estimation_error >= 0.0)

    def test_run_reproducible(self, tiny_config):
        a = TradingSimulator(tiny_config).run(UCBPolicy())
        b = TradingSimulator(tiny_config).run(UCBPolicy())
        np.testing.assert_array_equal(a.realized_revenue,
                                      b.realized_revenue)
        np.testing.assert_array_equal(a.consumer_profit, b.consumer_profit)

    def test_num_rounds_override(self, simulator):
        run = simulator.run(RandomPolicy(), num_rounds=17)
        assert run.num_rounds == 17

    def test_rejects_nonpositive_override(self, simulator):
        with pytest.raises(ConfigurationError, match="num_rounds"):
            simulator.run(RandomPolicy(), num_rounds=0)


class TestCompare:
    def test_expected_policy_ordering(self, tiny_config):
        config = tiny_config.derive(num_rounds=800)
        simulator = TradingSimulator(config)
        policies = [
            OptimalPolicy(simulator.population.expected_qualities),
            UCBPolicy(),
            EpsilonFirstPolicy(0.1),
            RandomPolicy(),
        ]
        comparison = simulator.compare(policies)
        optimal = comparison["optimal"].total_expected_revenue
        ucb = comparison["CMAB-HS"].total_expected_revenue
        random = comparison["random"].total_expected_revenue
        assert optimal >= ucb >= random

    def test_delta_profits_positive_for_random(self, tiny_config):
        config = tiny_config.derive(num_rounds=800)
        simulator = TradingSimulator(config)
        comparison = simulator.compare([
            OptimalPolicy(simulator.population.expected_qualities),
            RandomPolicy(),
        ])
        deltas = comparison.delta_profits("random")
        assert deltas["delta_poc"] > 0.0

    def test_duplicate_policy_rejected(self, simulator):
        with pytest.raises(ConfigurationError, match="duplicate"):
            simulator.compare([RandomPolicy(), RandomPolicy()])


class TestAgreementWithMechanism:
    @pytest.mark.parametrize("fault_spec", [
        None, FaultSpec(0.2, 0.05, 0.05),
    ], ids=["clean", "faulty"])
    def test_engine_matches_mechanism_round_for_round(self, fault_spec):
        """The engine driving a UCBPolicy replays Algorithm 1 exactly.

        Both play the same round bodies on the same seed, population,
        quality model (the default noisy one) and fault schedule, so
        every per-round series they share must coincide bit for bit.
        """
        seed = 21
        num_rounds = 60
        config = SimulationConfig(
            num_sellers=12, num_selected=3, num_pois=5,
            num_rounds=num_rounds, seed=seed,
            collection_price_bounds=(0.0, 5.0),
        )
        simulator = TradingSimulator(config)
        faults = (None if fault_spec is None
                  else simulator.fault_model(fault_spec))
        run = simulator.run(UCBPolicy(), fault_model=faults)

        job = Job.simple(num_pois=5, num_rounds=num_rounds)
        mechanism = CMABHSMechanism(
            simulator.population, job,
            Platform.default(theta=config.theta, lam=config.lam,
                             price_max=5.0),
            Consumer.default(omega=config.omega),
            k=3,
            quality_model=simulator.quality_model,
            seed=seed,
        )
        faults = (None if fault_spec is None
                  else FaultModel(fault_spec, RngFactory(seed), 12))
        log = FaultLog()
        result = mechanism.run(fault_model=faults, fault_log=log)
        assert (log.summary().get("dropout", 0) > 0) == (faults is not None)

        profits = result.profits()
        strategies = result.strategies()
        shared = {
            "service_price": (run.service_price,
                              strategies["service_price"]),
            "collection_price": (run.collection_price,
                                 strategies["collection_price"]),
            "total_sensing_time": (run.total_sensing_time,
                                   strategies["total_sensing_time"]),
            "consumer_profit": (run.consumer_profit, profits["consumer"]),
            "platform_profit": (run.platform_profit, profits["platform"]),
            "seller_profit_mean": (run.seller_profit_mean,
                                   profits["sellers_mean"]),
            "realized_revenue": (
                run.realized_revenue,
                np.array([r.observed_quality_total for r in result.rounds]),
            ),
            "regret": (run.regret, result.regret_history),
            "selection_counts": (run.selection_counts,
                                 result.selection_matrix.sum(axis=0)),
        }
        for name, (engine_series, mechanism_series) in shared.items():
            assert engine_series.tolist() == mechanism_series.tolist(), name