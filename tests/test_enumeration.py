import random
from fractions import Fraction

import pytest

import oracle
from pottsverify import (
    Configuration,
    EVERYWHERE,
    EventPredicate,
    IndexList,
    INFINITY,
    InfiniteCouplingError,
    ModelError,
    build_model,
    centered_power_sum,
    conjoin,
    correlation_sum,
    correlation_sum_naive,
    correlation_sums,
    delta_event,
    expectation,
    sign_class,
    sign_event,
    spin_product,
    uniform_correlation_sum,
)
from pottsverify.generators import (
    random_event,
    random_even_index_list,
    random_index_list,
    random_model,
)

EMPTY = IndexList(())


class TestSpinProduct:
    def test_two_site_product(self):
        config = Configuration((-2, -2, 2, 0))  # centered (-1,-1,1,0) at q=3
        assert spin_product(config, IndexList((1, 3))) == -1

    def test_empty_list_is_one(self):
        config = Configuration((-2, 0, 2))
        assert spin_product(config, EMPTY) == 1

    def test_repeated_site_squares(self):
        config = Configuration((1, 1))  # centered (1/2, 1/2) at q=2
        assert spin_product(config, IndexList((1, 1))) == Fraction(1, 4)

    def test_multiplicity_three(self):
        config = Configuration((-1, 3))  # q=4 centered (-1/2, 3/2)
        assert spin_product(config, IndexList((2, 2, 2))) == Fraction(27, 8)


class TestSignClass:
    def test_negative(self):
        config = Configuration((-2, -2, 2))
        assert sign_class(config, IndexList((1, 3))) == "negative"

    def test_zero_with_odd_q(self):
        config = Configuration((0, 2, 2))
        assert sign_class(config, IndexList((1, 2))) == "zero"

    def test_even_multiplicity_positive(self):
        config = Configuration((1, -1))
        assert sign_class(config, IndexList((1, 1))) == "positive"


class TestEventPredicate:
    def test_empty_predicate_selects_everything(self):
        assert EVERYWHERE.is_everywhere

    def test_sign_needs_indices(self):
        with pytest.raises(ModelError):
            EventPredicate(sign_constraint="positive")

    def test_delta_needs_two_sites(self):
        with pytest.raises(ModelError):
            delta_event({1}, 1)

    def test_bad_bit(self):
        with pytest.raises(ModelError):
            delta_event({1, 2}, 2)

    def test_conjoin_merges_constraints(self):
        ev = conjoin(delta_event({1, 2}, 1), sign_event(IndexList((1,)), "positive"))
        assert ev.sign_constraint == "positive"
        assert len(ev.delta_constraints) == 1

    def test_event_site_out_of_model_range(self):
        model = build_model(2, 2, [])
        with pytest.raises(ModelError):
            correlation_sum(model, EMPTY, delta_event({1, 3}, 1))


class TestCorrelationSum:
    def test_worked_example_restricted_sum(self, worked_example_model):
        result = correlation_sum(
            worked_example_model, IndexList((1, 3)), delta_event({1, 2}, 1)
        )
        assert result.value == 58
        assert result.configs_visited == 27
        assert result.configs_matching == 9

    def test_uniform_model_odd_group_vanishes(self):
        model = build_model(3, 3, [])
        assert correlation_sum(model, IndexList((1, 2, 2))).value == 0

    def test_uniform_square(self):
        model = build_model(2, 3, [])
        result = correlation_sum(model, IndexList((1, 1)))
        assert result.value == 6
        assert result.configs_matching == 9

    def test_infinite_coupling_rejected(self):
        model = build_model(2, 2, [({1, 2}, INFINITY)])
        with pytest.raises(InfiniteCouplingError):
            correlation_sum(model, EMPTY)

    def test_list_site_out_of_range(self):
        model = build_model(2, 2, [])
        with pytest.raises(ModelError):
            correlation_sum(model, IndexList((3,)))


class TestExpectation:
    def test_single_site_is_zero(self, worked_example_model, pair_model_q2):
        for model in (worked_example_model, pair_model_q2):
            for site in model.sites:
                assert expectation(model, IndexList((site,))) == 0

    def test_pair_q2(self, pair_model_q2):
        assert expectation(pair_model_q2, IndexList((1, 2))) == Fraction(1, 8)

    def test_uniform_square(self):
        model = build_model(2, 3, [])
        assert expectation(model, IndexList((1, 1))) == Fraction(2, 3)


class TestUniformClosedForm:
    def test_square_q3(self):
        model = build_model(2, 3, [])
        assert uniform_correlation_sum(model, IndexList((1, 1))) == 6

    def test_two_even_groups_q2(self):
        model = build_model(3, 2, [])
        assert uniform_correlation_sum(model, IndexList((1, 1, 2, 2))) == Fraction(1, 2)

    def test_odd_group_gives_zero(self):
        model = build_model(4, 3, [])
        assert uniform_correlation_sum(model, IndexList((1, 1, 2))) == 0

    def test_weight_one_interactions_still_uniform(self):
        model = build_model(2, 3, [({1, 2}, 1)])
        assert uniform_correlation_sum(model, IndexList((1, 1))) == 6

    def test_active_interaction_rejected(self, pair_model_q3):
        with pytest.raises(ModelError, match="s=0"):
            uniform_correlation_sum(pair_model_q3, IndexList((1, 1)))

    def test_matches_enumeration_on_random_even_lists(self):
        rng = random.Random(31)
        for _ in range(40):
            q = rng.choice((2, 3, 4, 5))
            n = rng.randint(1, 5)
            model = build_model(n, q, [])
            indices = random_even_index_list(rng, n)
            assert uniform_correlation_sum(model, indices) == correlation_sum(
                model, indices
            ).value


class TestCenteredPowerSum:
    @pytest.mark.parametrize(
        "q,m,expected",
        [
            (3, 2, 2),
            (2, 2, Fraction(1, 2)),
            (4, 2, 5),
            (2, 0, 2),
            (7, 0, 7),
            (3, 3, 0),
            (5, 1, 0),
        ],
    )
    def test_examples(self, q, m, expected):
        assert centered_power_sum(q, m) == expected

    @pytest.mark.parametrize("q", range(2, 13))
    @pytest.mark.parametrize("m", range(0, 9))
    def test_against_direct_fraction_sum(self, q, m):
        assert centered_power_sum(q, m) == oracle.power_sum(q, m)

    def test_negative_power_rejected(self):
        with pytest.raises(ModelError):
            centered_power_sum(3, -2)


class TestOracleEquivalence:
    def test_optimized_matches_naive_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(20):
            model = random_model(rng, n_max=6, q_set=(2, 3, 4), state_limit=1024)
            indices = random_index_list(rng, model.n)
            event = random_event(rng, model.n)
            fast = correlation_sum(model, indices, event)
            slow = correlation_sum_naive(model, indices, event)
            assert fast.value == slow.value
            assert fast.configs_visited == slow.configs_visited
            assert fast.configs_matching == slow.configs_matching

    def test_optimized_matches_independent_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            model = random_model(rng, n_max=5, q_set=(2, 3), state_limit=256)
            indices = random_index_list(rng, model.n)
            expected = oracle.zeta(
                model.n, model.q, dict(model.interactions.couplings), indices.entries
            )
            assert correlation_sum(model, indices).value == expected


class TestPartitionIdentities:
    def test_sign_classes_partition_the_sum(self):
        rng = random.Random(43)
        for _ in range(12):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            indices = random_index_list(rng, model.n)
            whole, positive, negative, zero = correlation_sums(
                model,
                [
                    (indices, EVERYWHERE),
                    (indices, sign_event(indices, "positive")),
                    (indices, sign_event(indices, "negative")),
                    (indices, sign_event(indices, "zero")),
                ],
            )
            assert whole.value == positive.value + negative.value
            assert zero.value == 0
            assert (
                positive.configs_matching
                + negative.configs_matching
                + zero.configs_matching
                == model.configuration_count
            )

    def test_delta_split_partitions_the_sum(self):
        rng = random.Random(47)
        for _ in range(12):
            model = random_model(rng, n_max=4, n_min=2, q_set=(2, 3, 4), state_limit=256)
            indices = random_index_list(rng, model.n)
            sites = frozenset(rng.sample(range(1, model.n + 1), 2))
            whole, inside, outside = correlation_sums(
                model,
                [
                    (indices, EVERYWHERE),
                    (indices, delta_event(sites, 1)),
                    (indices, delta_event(sites, 0)),
                ],
            )
            assert whole.value == inside.value + outside.value

    def test_sign_flip_pairing(self):
        # At s=0 an odd group makes the positive and negative parts cancel;
        # for odd-length lists the whole sum vanishes at every s.
        rng = random.Random(53)
        for _ in range(10):
            q = rng.choice((2, 3, 4))
            n = rng.randint(1, 4)
            uniform = build_model(n, q, [])
            indices = random_index_list(rng, n, min_len=1)
            if indices.odd_groups:
                pos = correlation_sum(uniform, indices, sign_event(indices, "positive"))
                neg = correlation_sum(uniform, indices, sign_event(indices, "negative"))
                assert pos.value == -neg.value
                assert correlation_sum(uniform, indices).value == 0
        for _ in range(10):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            odd_len = random_index_list(rng, model.n, min_len=1)
            if len(odd_len) % 2 == 0:
                odd_len = odd_len.concat(IndexList((rng.randint(1, model.n),)))
            assert correlation_sum(model, odd_len).value == 0


class TestParallelDeterminism:
    def test_arbitrary_chunk_partitions_merge_to_the_same_fraction(self):
        # Not just equal-size chunks: any contiguous partition of the rank
        # space must merge to the identical reduced fraction.
        from pottsverify.enumeration import _compile, _scan_chunk

        rng = random.Random(151)
        for _ in range(8):
            model = random_model(rng, n_max=4, q_set=(2, 3), state_limit=256)
            indices = random_index_list(rng, model.n)
            event = random_event(rng, model.n)
            total = model.configuration_count
            cuts = sorted(rng.sample(range(1, total), min(5, total - 1)))
            bounds = list(zip([0] + cuts, cuts + [total]))
            compiled = _compile(model, [(indices, event)])
            acc = sum(_scan_chunk(compiled, lo, hi)[0][0] for lo, hi in bounds)
            scale = compiled[-1]
            merged = Fraction(acc, scale << len(indices))
            assert merged == correlation_sum(model, indices, event).value

    def test_more_workers_than_configurations(self):
        model = build_model(1, 2, [])
        result = correlation_sum(model, EMPTY, EVERYWHERE)
        assert result.value == 2
