import random
import re
from fractions import Fraction
from itertools import combinations

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
    POSITIVE,
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
from pottsverify import enumeration
from pottsverify.enumeration import _cluster, _eliminate, _scan_classes
from pottsverify.generators import (
    random_event,
    random_even_index_list,
    random_index_list,
    random_model,
)
from pottsverify.inequalities import check_quadratic, scaled_covariance

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

    @pytest.mark.parametrize("model, kernel", [
        (build_model(6, 2, [({i, i + 1}, 2) for i in range(1, 6)]), "elimination"),
        (build_model(4, 3, [(sites, 2) for k in (2, 3) for sites in combinations(range(1, 5), k)]),
         "odometer"),
        (build_model(4, 3, [(sites, 2) for sites in combinations(range(1, 5), 2)]), "cluster"),
    ], ids=["chain", "complete", "complete-pairs"])
    @pytest.mark.parametrize("bad_site", [lambda n: 0, lambda n: -1, lambda n: n + 1,
                                          lambda n: 2.0], ids=["0", "-1", "n+1", "2.0"])
    def test_bad_event_site_is_refused(self, model, kernel, bad_site):
        """A delta site outside 1..n, or not an int, never reaches any
        kernel or the oracle: each names it."""
        assert correlation_sum(model, EMPTY, delta_event({1, 2}, 1)).kernel == kernel
        site = bad_site(model.n)
        message = f"^{re.escape(f'event site {site} out of range 1..{model.n}')}$"
        for evaluate in (correlation_sum, correlation_sum_naive):
            with pytest.raises(ModelError, match=message):
                evaluate(model, EMPTY, delta_event({1, site}, 1))


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

    def test_single_site_q2_partition_function_is_two(self):
        model = build_model(1, 2, [])
        result = correlation_sum(model, EMPTY, EVERYWHERE)
        assert result.value == 2


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



class TestMatchingCounts:
    """A kernel returns one integer per distinct sum; ``correlation_sums``
    takes its matching counts from a second scan on the model without
    interactions, or as ``q**n`` when every event is the whole space."""

    MODEL = build_model(4, 3, [({1, 2}, 2), ({2, 3}, Fraction(3, 2)), ({1, 3, 4}, 3)])

    @staticmethod
    def record_scans(monkeypatch):
        scans = []
        scan = enumeration._scan

        def scan_and_keep(groups):
            scans.append(groups)
            return scan(groups)

        monkeypatch.setattr(enumeration, "_scan", scan_and_keep)
        return scans

    def test_whole_space_requests_make_one_scan(self, monkeypatch):
        scans = self.record_scans(monkeypatch)
        results = correlation_sums(self.MODEL, [(IndexList((1, 2)), EVERYWHERE),
                                                (EMPTY, EventPredicate())])
        assert len(scans) == 1
        assert [r.configs_matching for r in results] == [3**4, 3**4]

    def test_restricted_requests_make_a_second_scan_without_interactions(self, monkeypatch):
        scans = self.record_scans(monkeypatch)
        requests = [(IndexList((1, 2)), delta_event({1, 4}, 0)), (EMPTY, EVERYWHERE),
                    (IndexList((3,)), sign_event(IndexList((2, 4)), POSITIVE))]
        results = correlation_sums(self.MODEL, requests)
        assert len(scans) == 2
        [(model, counted)] = scans[1]
        assert (model.n, model.q, len(model.interactions)) == (4, 3, 0)
        assert counted == [(EMPTY, event) for _indices, event in requests]
        for (indices, event), result in zip(requests, results):
            naive = correlation_sum_naive(self.MODEL, indices, event)
            assert (result.value, result.configs_matching) == (naive.value,
                                                               naive.configs_matching)

    def test_no_compiled_sum_lacks_a_group(self, monkeypatch):
        """Every plan that ``check_quadratic``, ``scaled_covariance`` and
        ``correlation_sums`` compile has sums of groups only, requests of
        a combination and a divisor, and one kernel integer per sum."""
        plans = []
        compile_ = enumeration._compile

        def compile_and_keep(groups):
            plans.append(compile_(groups))
            return plans[-1]

        monkeypatch.setattr(enumeration, "_compile", compile_and_keep)
        r, s = IndexList((1, 4)), IndexList((2, 3))
        assert check_quadratic(self.MODEL, {2, 4}, 2, r, s, extra_x=(3,)).satisfied
        scaled_covariance(self.MODEL, r, s)
        correlation_sums(self.MODEL, [(r, delta_event({2, 4}, 1)), (s, EVERYWHERE)])
        assert len(plans) == 4
        for plan in plans:
            assert all(0 <= group < len(plan.scales) for _terms, _deltas, group in plan.sums)
            assert all(len(request) == 2 for request in plan.requests)
            for kernel in (_cluster, _eliminate, _scan_classes):
                assert len(kernel(plan)) == len(plan.sums)


def test_compile_refuses_an_infinite_coupling_with_the_scan_message():
    """``_compile`` checks that every group's model is finite before it
    reads a weight, so a plan built directly refuses an infinite coupling
    as a scan does, in any group."""
    finite = build_model(3, 3, [({1, 2}, 2)])
    infinite = build_model(3, 3, [({1, 2}, 2), ({2, 3}, INFINITY)])
    requests = [(IndexList((1, 3)), EVERYWHERE)]
    with pytest.raises(InfiniteCouplingError) as scanned:
        correlation_sums(infinite, requests)
    for groups in ([(infinite, requests)], [(finite, requests), (infinite, requests)]):
        with pytest.raises(InfiniteCouplingError) as compiled:
            enumeration._compile(groups)
        assert str(compiled.value) == str(scanned.value) == (
            "model contains an infinite coupling; resolve it with "
            "contraction.resolve_infinite_couplings before enumerating")


def test_an_unknown_sign_constraint_is_refused():
    with pytest.raises(ModelError, match=r"^unknown sign constraint 'up'$"):
        EventPredicate("up", IndexList((1,)))


def test_two_different_sign_constraints_do_not_conjoin():
    positive = sign_event(IndexList((1,)), POSITIVE)
    negative = sign_event(IndexList((2,)), enumeration.NEGATIVE)
    with pytest.raises(ModelError, match=r"^cannot conjoin two different sign constraints$"):
        conjoin(positive, negative)
