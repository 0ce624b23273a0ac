import random
from fractions import Fraction

import pytest

import oracle
from pottsverify import (
    Configuration,
    INFINITY,
    InfiniteCouplingError,
    ModelError,
    all_configurations,
    build_model,
    config_weight,
    generalized_delta,
    gibbs_probability,
    partition_function,
    thermal_average,
)
from pottsverify.generators import random_model
from pottsverify.gibbs import weighted_configurations
from pottsverify.symmetry import SpinPermutation, apply_permutation


class TestGeneralizedDelta:
    def test_equal_spins(self):
        config = Configuration.from_labels((1, 1, 3, 2), q=3)
        assert generalized_delta(config, {1, 2}) == 1

    def test_unequal_spins(self):
        config = Configuration.from_labels((1, 1, 3, 2), q=3)
        assert generalized_delta(config, {1, 4}) == 0

    def test_triple(self):
        config = Configuration.from_labels((2, 2, 2), q=3)
        assert generalized_delta(config, {1, 2, 3}) == 1

    def test_repeated_site_collapses_below_two(self):
        config = Configuration.from_labels((1, 2), q=2)
        with pytest.raises(ModelError):
            generalized_delta(config, [1, 1])

    def test_site_out_of_range(self):
        config = Configuration.from_labels((1, 2), q=2)
        with pytest.raises(ModelError):
            generalized_delta(config, {1, 3})


class TestConfigWeight:
    def test_all_aligned_worked_example(self, worked_example_model):
        config = Configuration.from_labels((2, 2, 2), q=3)
        assert config_weight(config, worked_example_model) == 30

    def test_uniform_model_weight_is_one(self):
        model = build_model(3, 3, [])
        for config in all_configurations(model):
            assert config_weight(config, model) == 1

    def test_only_weight_one_delta_satisfied(self, worked_example_model):
        config = Configuration.from_labels((1, 1, 3), q=3)  # centered (-1,-1,1)
        assert config_weight(config, worked_example_model) == 1

    def test_infinite_coupling_rejected(self):
        model = build_model(2, 2, [({1, 2}, INFINITY)])
        with pytest.raises(InfiniteCouplingError):
            config_weight(Configuration((-1, 1)), model)


class TestWeightedConfigurations:
    def test_weights_at_least_one_for_ferromagnetic_couplings(self):
        rng = random.Random(101)
        for _ in range(8):
            model = random_model(rng, n_max=4, q_set=(2, 3), state_limit=256)
            pairs = list(weighted_configurations(model))
            assert len(pairs) == model.configuration_count
            assert all(weight >= 1 for _config, weight in pairs)

    def test_matches_config_weight(self, worked_example_model):
        for config, weight in weighted_configurations(worked_example_model):
            assert weight == config_weight(config, worked_example_model)


class TestPartitionFunction:
    def test_pair_q2(self, pair_model_q2):
        assert partition_function(pair_model_q2) == 8

    def test_uniform(self):
        assert partition_function(build_model(3, 3, [])) == 27

    def test_pair_q3(self, pair_model_q3):
        assert partition_function(pair_model_q3) == 12

    def test_against_oracle_on_random_models(self):
        rng = random.Random(11)
        for _ in range(10):
            model = random_model(rng, n_max=4, q_set=(2, 3), state_limit=256)
            assert partition_function(model) == oracle.partition(
                model.n, model.q, dict(model.interactions.couplings)
            )

    def test_lower_bound_and_monotonicity(self):
        rng = random.Random(13)
        for _ in range(10):
            model = random_model(rng, n_max=4, q_set=(2, 3), state_limit=256)
            z = partition_function(model)
            assert z >= model.configuration_count
            if model.interactions.couplings:
                sites = next(iter(model.interactions.couplings))
                bumped = dict(model.interactions.couplings)
                bumped[sites] = bumped[sites] + 1
                larger = build_model(model.n, model.q, list(bumped.items()))
                assert partition_function(larger) > z


class TestGibbsProbability:
    def test_uniform_measure(self):
        model = build_model(2, 3, [])
        for config in all_configurations(model):
            assert gibbs_probability(config, model) == Fraction(1, 9)

    def test_aligned_pair(self, pair_model_q2):
        aligned = Configuration((-1, -1))
        anti = Configuration((-1, 1))
        assert gibbs_probability(aligned, pair_model_q2) == Fraction(3, 8)
        assert gibbs_probability(anti, pair_model_q2) == Fraction(1, 8)

    def test_normalization_exact(self):
        """The weights sum to Z, and a probability is its weight over Z, so
        the probabilities sum to 1; Z is computed once per model, as each
        ``gibbs_probability`` call computes it again."""
        rng = random.Random(17)
        for _ in range(8):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            z = partition_function(model)
            configs = list(all_configurations(model))
            assert sum((config_weight(c, model) for c in configs), Fraction(0)) == z
            for c in (configs[0], configs[-1]):
                assert gibbs_probability(c, model) == config_weight(c, model) / z


class TestThermalAverage:
    def test_uncentered_site_average(self, worked_example_model):
        q = worked_example_model.q
        for site in worked_example_model.sites:
            value = thermal_average(
                lambda c: Fraction(c.labels(q)[site - 1]), worked_example_model
            )
            assert value == Fraction(q + 1, 2)

    def test_centered_site_average_is_zero(self, worked_example_model):
        for site in worked_example_model.sites:
            value = thermal_average(
                lambda c: c.centered_values()[site - 1], worked_example_model
            )
            assert value == 0

    def test_constant_function(self, pair_model_q3):
        assert thermal_average(lambda c: Fraction(1), pair_model_q3) == 1


class TestWeightSymmetry:
    def test_permutation_invariance_of_weights(self):
        rng = random.Random(19)
        for _ in range(6):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            perms = [
                SpinPermutation.identity(model.q),
                SpinPermutation.reversal(model.q),
                SpinPermutation.shuffled(model.q, rng),
            ]
            for config in all_configurations(model):
                w = config_weight(config, model)
                for pi in perms:
                    assert config_weight(apply_permutation(config, pi), model) == w
