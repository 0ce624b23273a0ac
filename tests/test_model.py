import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pottsverify
from pottsverify import enumeration
from pottsverify import (
    Configuration,
    INFINITY,
    IndexList,
    InteractionTable,
    Model,
    ModelError,
    POSITIVE,
    SpinPermutation,
    build_model,
    centered_power_sum,
    check_power_sum_gap_recursion,
    config_weight,
    conjoin,
    correlation_sum,
    correlation_sum_naive,
    delta_event,
    generalized_delta,
    marginal_distribution,
    power_sum_gap,
    resolve_infinite_couplings,
    sign_class,
    sign_event,
    spin_domain,
    spin_product,
    spin_value,
)
from pottsverify.model import EMPTY_LIST, SpinDomain, _check_exponent, is_infinite


class TestBuildModel:
    def test_worked_example_counts_active_interactions(self):
        model = build_model(3, 3, [({1, 3}, 2), ({2, 3}, 3), ({1, 2, 3}, 5)])
        assert model.n == 3
        assert model.q == 3
        assert model.interactions.s == 3

    def test_weight_one_interactions_do_not_count_toward_s(self):
        model = build_model(2, 2, [({1, 2}, 1)])
        assert model.interactions.s == 0

    def test_empty_table(self):
        model = build_model(2, 2, [])
        assert model.interactions.s == 0
        assert model.configuration_count == 4

    def test_coupling_below_one_rejected(self):
        with pytest.raises(ModelError, match=">= 1"):
            build_model(2, 2, [({1, 2}, Fraction(1, 2))])

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ModelError, match="out of range"):
            build_model(2, 2, [({1, 3}, 2)])

    def test_singleton_interaction_rejected(self):
        with pytest.raises(ModelError, match="at least 2"):
            build_model(3, 2, [({2}, 2)])

    def test_duplicate_interaction_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            build_model(3, 2, [({1, 2}, 2), ({2, 1}, 3)])

    def test_float_coupling_rejected(self):
        with pytest.raises(ModelError, match="float"):
            build_model(2, 2, [({1, 2}, 1.5)])

    def test_infinite_coupling_accepted(self):
        model = build_model(2, 2, [({1, 2}, INFINITY)])
        assert model.interactions.has_infinite
        assert model.interactions.s == 1


class TestSpinValue:
    @pytest.mark.parametrize(
        "q,k,expected",
        [
            (3, 1, Fraction(-1)),
            (2, 2, Fraction(1, 2)),
            (5, 3, Fraction(0)),
            (2, 1, Fraction(-1, 2)),
            (4, 4, Fraction(3, 2)),
        ],
    )
    def test_examples(self, q, k, expected):
        assert spin_value(q, k) == expected

    def test_label_out_of_range(self):
        with pytest.raises(ModelError):
            spin_value(3, 0)
        with pytest.raises(ModelError):
            spin_value(3, 4)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_values_sum_to_zero(self, q):
        assert sum(spin_value(q, k) for k in range(1, q + 1)) == 0


class TestSpinDomain:
    @pytest.mark.parametrize("q", range(2, 13))
    def test_structure(self, q):
        dom = spin_domain(q)
        values = dom.doubled_values
        assert len(values) == q
        assert all(b - a == 2 for a, b in zip(values, values[1:]))
        assert set(values) == {-u for u in values}
        assert sum(values) == 0
        if q % 2:
            assert all(u % 2 == 0 for u in values)
            assert 0 in values
        else:
            assert all(u % 2 == 1 for u in values)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_doubled_round_trip(self, q):
        dom = spin_domain(q)
        for k in range(1, q + 1):
            u = dom.doubled_values[k - 1]
            assert spin_value(q, k) * 2 == u
            assert dom.label_of_doubled(u) == k

    def test_doubled_products_match_fraction_products(self):
        # Products over a multiset of sites equal the integer product of the
        # doubled values over 2**len, for both parities of q.
        rng = random.Random(7)
        for q in (2, 3, 4, 5):
            dom = spin_domain(q)
            for _ in range(25):
                length = rng.randint(0, 6)
                ks = [rng.randint(1, q) for _ in range(length)]
                direct = Fraction(1)
                doubled = 1
                for k in ks:
                    direct *= spin_value(q, k)
                    doubled *= dom.doubled_values[k - 1]
                assert direct == Fraction(doubled, 2**length)

    def test_q_below_two_rejected(self):
        with pytest.raises(ModelError):
            spin_domain(1)


class TestConfiguration:
    def test_label_round_trip(self):
        config = Configuration.from_labels((1, 1, 3, 2), q=3)
        assert config.doubled_spins == (-2, -2, 2, 0)
        assert config.labels(3) == (1, 1, 3, 2)
        assert config.centered_values() == (
            Fraction(-1), Fraction(-1), Fraction(1), Fraction(0),
        )

    def test_bad_label(self):
        with pytest.raises(ModelError):
            Configuration.from_labels((0, 1), q=3)

    def test_validation_against_model(self):
        model = build_model(2, 3, [])
        model.validate_configuration(Configuration((-2, 0)))
        with pytest.raises(ModelError):
            model.validate_configuration(Configuration((-2,)))
        with pytest.raises(ModelError):
            model.validate_configuration(Configuration((-2, 1)))


entries_strategy = st.lists(st.integers(min_value=1, max_value=9), max_size=12)


class TestIndexList:
    @given(entries_strategy)
    def test_support_partitions_by_parity(self, entries):
        lst = IndexList(tuple(entries))
        odd, even = lst.odd_groups, lst.even_groups
        assert odd | even == lst.support
        assert not (odd & even)

    @given(entries_strategy)
    def test_length_parity_carried_by_odd_groups(self, entries):
        lst = IndexList(tuple(entries))
        odd_total = sum(lst.multiplicity[i] for i in lst.odd_groups)
        assert len(lst) == sum(lst.multiplicity.values())
        assert len(lst) % 2 == odd_total % 2

    @given(entries_strategy, entries_strategy)
    def test_concat_is_multiset_union(self, a, b):
        combined = IndexList(tuple(a)).concat(IndexList(tuple(b)))
        assert len(combined) == len(a) + len(b)
        for i in combined.support:
            assert combined.multiplicity[i] == a.count(i) + b.count(i)

    def test_example_decomposition(self):
        lst = IndexList((1, 2, 3, 3, 4, 4, 4))
        assert lst.odd_groups == {1, 2, 4}
        assert lst.even_groups == {3}

    def test_entries_sorted_and_validated(self):
        assert IndexList((3, 1, 2)).entries == (1, 2, 3)
        with pytest.raises(ModelError):
            IndexList((0, 1))


class TestExactArithmetic:
    @given(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=97),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_sum_invariant_under_reordering(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        total_a = sum(values, Fraction(0))
        total_b = sum(shuffled, Fraction(0))
        assert total_a == total_b
        assert (total_a.numerator, total_a.denominator) == (
            total_b.numerator, total_b.denominator,
        )
        assert math.gcd(total_a.numerator, total_a.denominator) == 1
        assert total_a.denominator > 0


class TestInteractionTable:
    def test_items_deterministic_order(self):
        table = InteractionTable(
            {frozenset({2, 3}): 2, frozenset({1, 2}): 3, frozenset({1, 2, 3}): 5}
        )
        keys = [sorted(sites) for sites, _ in table.items()]
        assert keys == [[1, 2], [2, 3], [1, 2, 3]]

    def test_duplicate_key_rejected(self):
        with pytest.raises(ModelError, match=r"duplicate interaction \[1, 2\]"):
            InteractionTable({(1, 2): 2, (2, 1): 3})

    @pytest.mark.parametrize("x, infinite", [
        (math.inf, True),
        (float("inf"), True),
        (Fraction(10**30), False),
        (Fraction(3, 2), False),
        (7, False),
    ])
    def test_is_infinite(self, x, infinite):
        assert is_infinite(x) is infinite

    @pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(10**30), 7, INFINITY])
    def test_weight_kept_equal(self, x):
        weight = InteractionTable({(1, 2): x}).couplings[frozenset({1, 2})]
        assert weight == x
        assert isinstance(weight, Fraction) != is_infinite(x)

    def test_float_weight_rejected_with_the_float_message(self):
        with pytest.raises(ModelError, match=r"^coupling 1\.5 is a float; supply an exact "
                                             r"Fraction, int, or INFINITY$"):
            InteractionTable({(1, 2): 1.5})

    def test_model_is_immutable(self):
        model = build_model(2, 2, [({1, 2}, 3)])
        with pytest.raises(TypeError):
            model.interactions.couplings[frozenset({1, 2})] = Fraction(5)
        with pytest.raises(Exception):
            model.n = 4


# The arguments after the model of each public function that takes an
# ``IndexList``, with the tuple ``t`` in one list's place.
_ONE = IndexList((1,))

# Models for inputs on which a check's deciding sum is zero by symmetry (an
# odd list), so the check stops at the rule.  The rule must still report
# each bad input as the whole check would, in the same order.
_PAIR = build_model(3, 3, [({1, 2}, 2)])
_INFINITE = build_model(3, 3, [({1, 2}, 2), ({2, 3}, INFINITY)])
_INFINITE_MESSAGE = ("model contains an infinite coupling; resolve it with "
                     "contraction.resolve_infinite_couplings before enumerating")
_TUPLE_ARGS = {
    "correlation_sum": lambda t: (t,),
    "correlation_sums": lambda t: ([(t, pottsverify.EVERYWHERE)],),
    "expectation": lambda t: (t,),
    "check_positive_expectation": lambda t: (t,),
    "scaled_covariance": lambda t: (t, _ONE),
    "covariance": lambda t: (_ONE, t),
    "check_positive_covariance": lambda t: (t, t),
    "check_quadratic": lambda t: ({2, 3}, 2, t, _ONE),
    "quadratic_decomposition": lambda t: ({2, 3}, 2, _ONE, t),
    "uniform_correlation_sum": lambda t: (t,),
    "uniform_scaled_covariance": lambda t: (IndexList((1, 1)), t),
    "contract": lambda t: (t, {1, 2}),
    "check_contraction_identity": lambda t: (t, {1, 2}),
    "resolve_infinite_couplings": lambda t: ([t],),
    "correlation_sum_naive": lambda t: (t,),
}


class TestInputRules:
    """The site, site-set, duplicate, spin-count and weight rules live in
    ``model``; every entry point reports a bad site the same way."""

    @pytest.mark.parametrize("call, bad", [
        (lambda m: correlation_sum(m, IndexList((2, 9))), "list entry 9"),
        (lambda m: build_model(3, 3, [({1, 2}, 2), ({3, 4}, 2)]), "interaction site 4"),
        (lambda m: generalized_delta(Configuration((0, 0, 0)), {1, 4}), "site 4"),
        (lambda m: marginal_distribution(m, 0), "site 0"),
        (lambda m: Configuration.from_labels((1, 4), m.q), "spin label 4"),
        (lambda m: spin_product(Configuration((0, 0, 0)), IndexList((2, 4))), "list entry 4"),
        (lambda m: sign_class(Configuration((0, 0, 0)), IndexList((4,))), "list entry 4"),
    ], ids=["kernel-list", "interaction-site", "generalized-delta", "marginal",
            "spin-label", "spin-product", "sign-class"])
    def test_bad_site_is_named_in_the_range_form(self, call, bad):
        model = build_model(3, 3, [({1, 2}, 2)])
        with pytest.raises(ModelError, match=f"^{re.escape(bad)} out of range 1\\.\\.3$"):
            call(model)

    @pytest.mark.parametrize("call, message", [
        (lambda: IndexList((True, 2)), "index list entries must be positive integers, got True"),
        (lambda: InteractionTable({(True, 3): 2}),
         "interaction site True is not a positive integer"),
        (lambda: build_model(2, 2, [({1, 2}, True)]),
         "coupling True is a bool; supply an exact Fraction, int, or INFINITY"),
        (lambda: spin_value(2, True), "spin label True out of range 1..2"),
        (lambda: correlation_sum(build_model(2, 2), IndexList(()), delta_event({True, 2}, 1)),
         "event site True out of range 1..2"),
        (lambda: build_model(True, 2), "site count n must be >= 1 and a plain int, got True"),
        (lambda: build_model(2, True), "spin count q must be >= 2 and a plain int, got True"),
        (lambda: delta_event({1, 2}, True), "delta constraint bit must be 0 or 1, got True"),
        (lambda: centered_power_sum(3, True), "power must be >= 0, got True"),
        (lambda: SpinPermutation((True, 2)), "spin label True out of range 1..2"),
    ], ids=["list-entry", "interaction-site", "weight", "spin-label", "event-site",
            "site-count", "spin-count", "delta-bit", "power", "permutation-label"])
    def test_bool_is_neither_a_site_nor_a_weight(self, call, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            call()

    def test_only_model_formats_the_range_message(self):
        package = Path(pottsverify.__file__).parent
        formatting = [path.name for path in sorted(package.glob("*.py"))
                      if "out of range 1.." in path.read_text()]
        assert formatting == ["model.py"]
        weight_rule = [path.name for path in sorted(package.glob("*.py"))
                       if ">= 1, got" in path.read_text()]
        assert weight_rule == ["model.py"]
        exponent_rule = [path.name for path in sorted(package.glob("*.py"))
                         if "decimal exponent outside" in path.read_text()]
        assert exponent_rule == ["model.py"]

    @pytest.mark.parametrize("call, message", [
        (lambda: build_model(2.0, 2), "site count n must be >= 1 and a plain int, got 2.0"),
        (lambda: build_model(0, 2), "site count n must be >= 1 and a plain int, got 0"),
        (lambda: build_model(2, 2.5), "spin count q must be >= 2 and a plain int, got 2.5"),
        (lambda: spin_value(2.0, 1), "spin count q must be >= 2 and a plain int, got 2.0"),
        (lambda: Model(2, 2, {(1, 2): 2}), "interactions {(1, 2): 2} are not an InteractionTable"),
        (lambda: build_model(2, 2, [({1, 2}, None)]),
         "coupling None is a NoneType; supply an exact Fraction, int, or INFINITY"),
        (lambda: build_model(2, 2, [({1, 2}, 1j)]),
         "coupling 1j is a complex; supply an exact Fraction, int, or INFINITY"),
        (lambda: build_model(2, 2, [({1, 2}, Decimal("1.5"))]),
         "coupling Decimal('1.5') is a Decimal; supply an exact Fraction, int, or INFINITY"),
        (lambda: build_model(2, 2, [({1, 2}, "abc")]), "coupling 'abc' is not a rational"),
        (lambda: build_model(2, 2, [({1, 2}, "inf")]), "coupling 'inf' is not a rational"),
        (lambda: build_model(2, 2, [({1, 2}, "1e1000000")]),
         "coupling '1e1000000' has a decimal exponent outside -4300..4300"),
        (lambda: build_model(2, 2, [({1, 2}, "5E-4301")]),
         "coupling '5E-4301' has a decimal exponent outside -4300..4300"),
        (lambda: build_model(2, 2, [(None, 2)]), "interaction None is not a set of sites"),
        (lambda: build_model(2, 2, [(5, 2)]), "interaction 5 is not a set of sites"),
        (lambda: build_model(2, 2, [([[1], [2]], 2)]),
         "interaction [[1], [2]] is not a set of sites"),
        (lambda: delta_event(None, 1), "delta constraint None is not a set of sites"),
        (lambda: Model(2, [2]), "spin count q must be >= 2 and a plain int, got [2]"),
        (lambda: spin_value([2], 1), "spin count q must be >= 2 and a plain int, got [2]"),
        (lambda: delta_event({1, 2}, 1.0), "delta constraint bit must be 0 or 1, got 1.0"),
        (lambda: delta_event({1, 2}, 0.0), "delta constraint bit must be 0 or 1, got 0.0"),
        (lambda: delta_event({1, 2}, Fraction(1)),
         "delta constraint bit must be 0 or 1, got Fraction(1, 1)"),
        (lambda: sign_event([1, 2], POSITIVE), "sign indices [1, 2] are not an IndexList"),
        (lambda: sign_event((1, 2), POSITIVE), "sign indices (1, 2) are not an IndexList"),
        (lambda: centered_power_sum(3, 2.0), "power must be >= 0, got 2.0"),
        (lambda: power_sum_gap(3, 2.0, 2), "exponent a must be a positive even integer, got 2.0"),
        (lambda: check_power_sum_gap_recursion(3, 2, 2.0),
         "exponent b must be a positive even integer, got 2.0"),
        (lambda: pottsverify.expectation(_PAIR, (1,)), "list entries (1,) are not an IndexList"),
        (lambda: pottsverify.check_positive_covariance(_PAIR, _ONE, (3,)),
         "list entries (3,) are not an IndexList"),
        (lambda: pottsverify.check_quadratic(_PAIR, {2, 3}, 2, (1,), IndexList((1, 2))),
         "list entries (1,) are not an IndexList"),
        (lambda: pottsverify.expectation(_PAIR, IndexList((9,))), "list entry 9 out of range 1..3"),
        (lambda: pottsverify.scaled_covariance(_PAIR, _ONE, IndexList((9,))),
         "list entry 9 out of range 1..3"),
        (lambda: pottsverify.check_quadratic(_PAIR, {2, 3}, 2, _ONE, IndexList((9,))),
         "list entry 9 out of range 1..3"),
        (lambda: correlation_sum(_PAIR, _ONE, delta_event({1, 9}, 1)),
         "event site 9 out of range 1..3"),
        (lambda: pottsverify.check_quadratic(_PAIR, {3, 9}, 2, _ONE, IndexList((1, 2))),
         "interaction site 9 out of range 1..3"),
        (lambda: pottsverify.check_positive_expectation(_INFINITE, _ONE), _INFINITE_MESSAGE),
        (lambda: pottsverify.covariance(_INFINITE, _ONE, IndexList((1, 2))), _INFINITE_MESSAGE),
        (lambda: pottsverify.check_quadratic(_INFINITE, {1, 3}, 2, _ONE, IndexList((2, 3))),
         _INFINITE_MESSAGE),
        (lambda: pottsverify.check_quadratic(_PAIR, {1, 2}, 2, _ONE, IndexList((1, 2))),
         "duplicate interaction [1, 2]"),
        (lambda: pottsverify.check_quadratic(_PAIR, {2, 3}, 2, _ONE, IndexList((1, 2)),
                                             extra_x=(Fraction(1, 2),)),
         "added coupling must be finite and >= 1, got 1/2"),
        (lambda: pottsverify.expectation(_INFINITE, (1,)), _INFINITE_MESSAGE),
        (lambda: pottsverify.covariance(_INFINITE, (1,), IndexList((1, 2))),
         "list entries (1,) are not an IndexList"),
        (lambda: pottsverify.check_quadratic(_INFINITE, {1, 3}, 2, _ONE, IndexList((9,))),
         "list entry 9 out of range 1..3"),
        (lambda: pottsverify.check_quadratic(_PAIR, {1, 2}, 2, _ONE, IndexList((1, 2)),
                                             extra_x=(Fraction(1, 2),)),
         "duplicate interaction [1, 2]"),
        (lambda: pottsverify.check_quadratic(_PAIR, {2, 3}, 2, (1,), IndexList((1, 2)),
                                             extra_x=(Fraction(1, 2),)),
         "added coupling must be finite and >= 1, got 1/2"),
        (lambda: centered_power_sum(1, 1), "spin count q must be >= 2 and a plain int, got 1"),
        (lambda: centered_power_sum(True, 3),
         "spin count q must be >= 2 and a plain int, got True"),
        (lambda: spin_product(Configuration((1, 1)), (1,)),
         "list entries (1,) are not an IndexList"),
        (lambda: sign_class(Configuration((1, 1)), (1,)), "list entries (1,) are not an IndexList"),
        (lambda: config_weight(Configuration((7, 7)), build_model(2, 2, [({1, 2}, 3)])),
         "7 is not a doubled spin value for q=2"),
        (lambda: config_weight(Configuration((1, 1, 1)), build_model(2, 2, [({1, 2}, 3)])),
         "configuration has 3 sites, model has 2"),
        (lambda: SpinPermutation((2.0, 1.0)), "spin label 2.0 out of range 1..2"),
        (lambda: enumeration._zero_by_symmetry(_PAIR, (1,)),
         "list entries (1,) are not an IndexList"),
        (lambda: enumeration._zero_by_symmetry(_PAIR, IndexList((9,))),
         "list entry 9 out of range 1..3"),
        (lambda: enumeration._zero_by_symmetry(_PAIR, _ONE, delta_event({1, 9}, 1)),
         "event site 9 out of range 1..3"),
        (lambda: enumeration._zero_by_symmetry(_INFINITE, _ONE), _INFINITE_MESSAGE),
        (lambda: config_weight(Configuration((True, 1)), build_model(2, 2, [({1, 2}, 3)])),
         "True is not a doubled spin value for q=2"),
        (lambda: config_weight(Configuration((1, 1.0)), build_model(2, 2, [({1, 2}, 3)])),
         "1.0 is not a doubled spin value for q=2"),
        (lambda: Configuration((True, 1)).labels(2), "True is not a doubled spin value for q=2"),
        (lambda: Configuration((1, 1.0)).labels(2), "1.0 is not a doubled spin value for q=2"),
    ], ids=["float-n", "zero-n", "float-q", "float-q-domain", "dict-table", "none-weight",
            "complex-weight", "decimal-weight", "text-weight", "inf-text-weight",
            "huge-exponent-weight", "tiny-exponent-weight",
            "none-sites", "int-sites", "unhashable-sites", "none-delta-sites", "list-q",
            "list-q-domain", "float-delta-bit", "float-zero-delta-bit", "fraction-delta-bit",
            "list-sign-indices", "tuple-sign-indices", "float-power", "float-gap-exponent",
            "float-recursion-exponent",
            "odd-tuple-expectation", "odd-tuple-covariance", "odd-tuple-quadratic",
            "odd-range-expectation", "odd-range-covariance", "odd-range-quadratic",
            "odd-delta-site", "odd-added-site", "odd-infinite-expectation",
            "odd-infinite-covariance", "odd-infinite-quadratic", "odd-coupled-added-set",
            "odd-extra-below-one", "odd-infinite-before-tuple", "odd-tuple-before-infinite",
            "odd-range-before-infinite", "odd-coupled-before-extra",
            "odd-extra-before-tuple", "odd-power-low-q", "odd-power-bool-q",
            "tuple-spin-product", "tuple-sign-class", "weight-spin-outside-domain",
            "weight-site-count", "float-permutation-label", "rule-tuple-list",
            "rule-list-range", "rule-event-site", "rule-infinite", "weight-bool-spin",
            "weight-float-spin", "labels-bool-spin", "labels-float-spin"])
    def test_bad_counts_tables_and_weights_are_model_errors(self, call, message):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("name", list(_TUPLE_ARGS))
    def test_a_tuple_for_an_index_list_is_a_model_error(self, name):
        """Every function that takes an ``IndexList`` refuses a tuple of its
        entries with one message, the naive oracle included."""
        model = build_model(3, 3, [({1, 2}, 1)])  # s = 0, for the uniform forms
        with pytest.raises(ModelError, match=r"^list entries \(1, 2\) are not an IndexList$"):
            getattr(pottsverify, name)(model, *_TUPLE_ARGS[name]((1, 2)))


# Each value is a small int or of a wrong type.  The ints keep n and q at most
# 4, so every model that builds is cheap to scan; floats equal to such ints are
# drawn on purpose, since ``2.0`` passes every range test.
WRONG_TYPES = st.one_of(st.booleans(), st.integers(-1, 4).map(float), st.floats(),
                        st.text(max_size=5), st.none(), st.complex_numbers(max_magnitude=4),
                        st.lists(st.integers(1, 4), max_size=2))


def valid_or(valid, other):
    """``valid`` about half the time, else ``other``, so that a real share of
    the drawn models builds: ``st.one_of`` would flatten ``other``'s branches
    and give ``valid`` one share among a dozen."""
    return st.booleans().flatmap(lambda ok: valid if ok else other)


COUNTS = valid_or(st.integers(2, 4), st.one_of(st.integers(-1, 4), WRONG_TYPES))
SITE_SETS = valid_or(st.sampled_from([{1, 2}, {2, 3}, {1, 2, 3}]),
                     st.one_of(st.sets(st.integers(1, 4), min_size=2, max_size=3),
                               st.lists(COUNTS, max_size=4), COUNTS))
WEIGHTS = valid_or(st.fractions(min_value=1, max_value=4, max_denominator=4),
                   st.one_of(COUNTS, st.sampled_from(["3/2", "1/2", "inf", "1/0"]),
                             st.fractions(max_value=Fraction(99, 100)), st.just(math.inf)))
BITS = st.one_of(st.integers(-1, 2), WRONG_TYPES)
SIGN_LISTS = st.one_of(st.lists(st.integers(1, 4), max_size=3).map(tuple).map(IndexList),
                       WRONG_TYPES)


@settings(max_examples=300, deadline=None)
@given(n=COUNTS, q=COUNTS, sites=SITE_SETS, x=WEIGHTS, bit=BITS, sign_list=SIGN_LISTS)
def test_library_input_raises_model_error_or_builds_a_scannable_model(n, q, sites, x, bit,
                                                                      sign_list):
    """The library's counterpart of the argv fuzz: whatever the counts, site
    set and weight, ``build_model`` raises ``ModelError`` or returns a model
    the kernel can scan.  Whatever the delta bit and sign list, an event
    raises ``ModelError`` or gives the naive oracle's sum, on a fixed model
    and on the drawn one when it builds."""
    models = [build_model(3, 3, [({1, 2}, 2)])]
    try:
        model = build_model(n, q, [(sites, x)])
    except ModelError:
        pass
    else:
        if model.interactions.has_infinite:
            model = resolve_infinite_couplings(model).model
        assert correlation_sum(model, EMPTY_LIST).value >= model.configuration_count
        models.append(model)
    try:
        event = conjoin(delta_event({1, 2}, bit), sign_event(sign_list, POSITIVE))
    except ModelError:
        return
    for model in models:
        try:
            result = correlation_sum(model, EMPTY_LIST, event)
        except ModelError:
            continue
        naive = correlation_sum_naive(model, EMPTY_LIST, event)
        assert (result.value, result.configs_matching) == (naive.value, naive.configs_matching)


def test_a_malformed_exponent_is_left_to_fraction():
    """``_check_exponent`` passes over an exponent that ``int`` cannot read,
    and ``Fraction`` then refuses the text as not a rational."""
    assert _check_exponent("1e5x", "coupling") is None
    with pytest.raises(ModelError, match=r"^coupling '1e5x' is not a rational$"):
        build_model(2, 2, [({1, 2}, "1e5x")])


def test_centered_values_of_three_spin_states():
    assert SpinDomain(3).centered_values == (-1, 0, 1)


def test_an_index_list_prints_its_sorted_entries():
    assert str(IndexList((3, 1, 1))) == "[1,1,3]"
