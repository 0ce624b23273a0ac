"""The equality-class walk against the naive oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pottsverify import (
    EVERYWHERE,
    IndexList,
    NEGATIVE,
    POSITIVE,
    ZERO,
    build_model,
    conjoin,
    correlation_sum_naive,
    correlation_sums,
    delta_event,
    sign_event,
)
from pottsverify.enumeration import _compile, _scan_classes

EMPTY = IndexList(())
SIGNS = (POSITIVE, NEGATIVE, ZERO)


def assert_walks_agree(model, requests):
    """Each request's value and matching count from the class walk equal
    the naive oracle's."""
    plan = _compile([(model, requests)])
    classes = _scan_classes(plan)
    for (indices, event), (acc, matching) in zip(requests, classes):
        naive = correlation_sum_naive(model, indices, event)
        assert str(Fraction(acc, plan.scales[0] << len(indices))) == str(naive.value)
        assert matching == naive.configs_matching


@st.composite
def scans(draw):
    """A model with n <= 6 and q <= 7 (at most 729 configurations) and one
    to five requests; lists repeat sites and events conjoin a sign
    constraint of any kind with up to two delta constraints."""
    q = draw(st.integers(2, 7))
    n = draw(st.integers(1, {2: 6, 3: 6, 4: 4, 5: 4, 6: 3, 7: 3}[q]))
    site_lists = st.lists(st.integers(1, n), max_size=5).map(lambda s: IndexList(tuple(s)))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(4, n))
    couplings = {}
    if n >= 2:
        for sites in draw(st.lists(subsets, max_size=6)):
            d = draw(st.integers(1, 6))
            couplings[sites] = Fraction(draw(st.integers(d, 5 * d)), d)
    model = build_model(n, q, couplings.items())
    requests = []
    for _ in range(draw(st.integers(1, 5))):
        events = []
        if draw(st.booleans()):
            events.append(sign_event(draw(site_lists), draw(st.sampled_from(SIGNS))))
        if n >= 2:
            for sites, bit in draw(st.lists(st.tuples(subsets, st.integers(0, 1)), max_size=2)):
                events.append(delta_event(sites, bit))
        requests.append((draw(site_lists), conjoin(*events)))
    return model, requests


@settings(max_examples=200, deadline=None)
@given(scans())
def test_class_walk_matches_oracle(scan):
    assert_walks_agree(*scan)


def triangle(q):
    return build_model(3, q, [({1, 2}, 2), ({2, 3}, Fraction(5, 3)), ({1, 2, 3}, Fraction(7, 2))])


class TestEdges:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_single_site(self, q):
        model = build_model(1, q, [])
        one = IndexList((1,))
        assert_walks_agree(model, [(EMPTY, EVERYWHERE), (one, EVERYWHERE),
                                   (IndexList((1, 1)), sign_event(one, NEGATIVE))])

    def test_more_spin_values_than_sites(self):
        model = triangle(7)
        assert_walks_agree(model, [(IndexList((1, 3)), EVERYWHERE), (EMPTY, EVERYWHERE),
                                   (IndexList((2, 2)), delta_event({1, 3}, 0))])

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("sign", SIGNS)
    def test_every_sign_kind(self, q, sign):
        model = triangle(q)
        shared = IndexList((1, 2, 2))
        assert_walks_agree(model, [
            (shared, sign_event(IndexList((2, 3)), sign)),
            (IndexList((1,)), conjoin(sign_event(shared, sign), delta_event({1, 3}, 1))),
            (EMPTY, sign_event(IndexList((1, 1, 3)), sign)),
            (EMPTY, sign_event(EMPTY, sign)),
        ])

    @pytest.mark.parametrize("q", [3, 4])
    def test_requests_sharing_list_and_sign_sites(self, q):
        """A ladder of events on one list and one sign list: the requests
        share one cache whatever their sign kind and delta constraints."""
        model = build_model(5, q, [({1, 2}, 2), ({2, 3, 4}, Fraction(5, 3)),
                                   ({4, 5}, Fraction(7, 2)), ({1, 5}, 3)])
        lst, sign_list = IndexList((1, 3, 4)), IndexList((3, 5))
        signs = {kind: sign_event(sign_list, kind) for kind in SIGNS}
        d1, d0 = delta_event({1, 2, 4}, 1), delta_event({1, 2, 4}, 0)
        assert_walks_agree(model, [
            (lst, EVERYWHERE), (lst, d1), (lst, d0),
            *((lst, event) for event in signs.values()),
            (lst, conjoin(d1, signs[POSITIVE])), (lst, conjoin(d0, signs[NEGATIVE])),
            (sign_list, signs[ZERO]), (EMPTY, signs[POSITIVE]),
        ])

    def test_no_interactions_and_empty_list(self):
        model = build_model(4, 3, [])
        assert_walks_agree(model, [(EMPTY, EVERYWHERE), (EMPTY, delta_event({1, 2, 4}, 0)),
                                   (IndexList((3, 3, 4, 4)), EVERYWHERE)])

    def test_dispatch_keeps_the_odometer_name_and_counters(self):
        model = triangle(2)
        results = correlation_sums(model, [(IndexList((1, 2)), sign_event(IndexList((3,)), ZERO)),
                                           (EMPTY, EVERYWHERE)])
        assert [r.kernel for r in results] == ["odometer", "odometer"]
        assert [r.configs_visited for r in results] == [8, 8]
        # q = 2 is even, so no centred spin is zero.
        assert results[0].configs_matching == 0
