"""The equality-class walk against the naive oracle."""

from fractions import Fraction
from itertools import combinations, islice
from math import perm, prod

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
from pottsverify import enumeration
from pottsverify.enumeration import (_class_weights, _classes, _cluster, _eliminate,
                                     _family_values, _scan_classes)
from plans import counted, pairs

EMPTY = IndexList(())
SIGNS = (POSITIVE, NEGATIVE, ZERO)


def assert_groups_agree(groups):
    """Each group's requests from one class walk, a value and a matching
    count each, equal the naive oracle's on the group's own model; the
    counts are the scaled sums of a counting group in the same plan."""
    plan = counted(groups)
    classes = iter(pairs(plan, _scan_classes(plan)))
    for scale, (model, requests) in zip(plan.scales, groups):
        for indices, event in requests:
            acc, matching = next(classes)
            naive = correlation_sum_naive(model, indices, event)
            assert str(Fraction(acc, scale << len(indices))) == str(naive.value)
            assert matching == naive.configs_matching


def assert_walks_agree(model, requests):
    assert_groups_agree([(model, requests)])


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


class TestLastSite:
    """Subsets decided at the last level of the breadth-first walk, where
    each prefix is a class: a subset whose highest site is the last one
    agrees exactly where its other sites are all among the last site's
    mates.  The cases weight such subsets and put deltas of both bits on
    them, alone, in pairs, with sign constraints, as count sums and across
    groups, so the weights' last factor and the delta masks both read that
    agreement; where the lower sites differ, bit 1 holds at no class and
    bit 0 at every one.  The edges are n = 1, where the walk has no level,
    q > n, and the dense benchmark shape."""

    @staticmethod
    def model(q):
        return build_model(4, q, [({1, 2}, 2), ({2, 4}, Fraction(5, 3)),
                                  ({1, 3, 4}, Fraction(7, 2)), ({3, 4}, 3)])

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_one_delta_decided_at_the_last_site(self, q, bit):
        lst = IndexList((1, 4, 4))
        assert_walks_agree(self.model(q), [
            (lst, delta_event({1, 4}, bit)),
            (EMPTY, delta_event({1, 4}, bit)),
            (IndexList((4,)), delta_event({3, 4}, bit)),
            (lst, conjoin(delta_event({1, 2}, 1 - bit), delta_event({2, 4}, bit))),
        ])

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_lower_sites_that_differ(self, q, bit):
        """{1, 2, 4} is decided at site 4; wherever sites 1 and 2 differ no
        digit there satisfies bit 1, and every digit satisfies bit 0."""
        assert_walks_agree(self.model(q), [
            (IndexList((2, 4)), delta_event({1, 2, 4}, bit)),
            (EMPTY, delta_event({1, 2, 4}, bit)),
            (IndexList((1, 2)), conjoin(sign_event(IndexList((4,)), POSITIVE),
                                        delta_event({1, 2, 4}, bit))),
        ])

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_two_deltas_decided_at_the_last_site(self, q, bits):
        first, second = bits
        event = conjoin(delta_event({1, 4}, first), delta_event({2, 3, 4}, second))
        assert_walks_agree(self.model(q), [
            (IndexList((1, 2, 4)), event),
            (EMPTY, event),
            (IndexList((3,)), conjoin(event, delta_event({1, 2}, 1))),
            (IndexList((3,)), conjoin(event, delta_event({1, 2, 4}, 0))),
        ])

    @pytest.mark.parametrize("q", [3, 5])
    def test_counts(self, q):
        """Every sign kind makes count sums, with and without deltas at the
        last site; the list is empty, so all the sums share one family."""
        sign_list = IndexList((2, 4))
        assert_walks_agree(self.model(q), [
            (EMPTY, conjoin(sign_event(sign_list, kind), *events))
            for kind in SIGNS
            for events in ((), (delta_event({1, 4}, 1),), (delta_event({1, 4}, 0),),
                           (delta_event({1, 4}, 1), delta_event({3, 4}, 0)))
        ])

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_several_groups(self, q):
        """A base model whose requests name {2, 3, 4} in deltas of both
        bits, and two models that weight it, as a quadratic check scans
        them; the base model leaves {1, 2} at weight 1."""
        base = build_model(4, q, [({1, 2}, 1), ({2, 4}, Fraction(5, 3)), ({1, 3, 4}, 2)])
        added = {2, 3, 4}
        lists = (IndexList((1, 4)), IndexList((2,)), IndexList((1, 2, 4, 4)), EMPTY)
        assert_groups_agree([
            (base, [(lst, delta_event(added, bit)) for lst in lists for bit in (1, 0)]),
            *[(base.with_coupling(added, x), [(lst, EVERYWHERE) for lst in lists])
              for x in (Fraction(3, 2), 4)],
        ])

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_one_site(self, q):
        """n = 1: the only site is the last, and its one digit is summed
        from the empty prefix."""
        one = IndexList((1,))
        assert_walks_agree(build_model(1, q, []), [
            (one, EVERYWHERE), (IndexList((1, 1)), EVERYWHERE),
            (EMPTY, sign_event(one, POSITIVE)), (one, sign_event(one, ZERO)),
        ])

    def test_more_spin_values_than_sites(self):
        """q > n: no prefix has q blocks, so the last site can always open
        a new one."""
        model = build_model(3, 6, [({1, 3}, 2), ({2, 3}, Fraction(9, 4)), ({1, 2, 3}, 3)])
        assert_walks_agree(model, [
            (IndexList((1, 3)), delta_event({1, 3}, 1)),
            (IndexList((1, 3)), delta_event({1, 3}, 0)),
            (IndexList((2, 3, 3)), conjoin(delta_event({1, 3}, 0), delta_event({2, 3}, 0))),
            (EMPTY, conjoin(delta_event({1, 2, 3}, 1), sign_event(IndexList((3,)), NEGATIVE))),
        ])

    def test_dense_plan_matches_elimination(self):
        """On the dense benchmark shape, n = 8 and q = 4 with all 28 pairs
        and 20 triples, the walk and elimination give the same integers for
        sign and delta requests, deltas at the last site included."""
        subsets = [*combinations(range(1, 9), 2), *islice(combinations(range(1, 9), 3), 20)]
        model = build_model(8, 4, [(sites, Fraction(4 + i % 5, 1 + i % 3))
                                   for i, sites in enumerate(subsets)])
        lst, sign_list = IndexList((1, 5, 8)), IndexList((2, 8))
        requests = [
            (lst, EVERYWHERE), (EMPTY, EVERYWHERE),
            (lst, delta_event({2, 8}, 1)), (lst, delta_event({2, 8}, 0)),
            (lst, delta_event({1, 3, 8}, 0)), (lst, delta_event({1, 2, 3}, 1)),
            (lst, conjoin(sign_event(sign_list, POSITIVE), delta_event({4, 8}, 1))),
            (EMPTY, conjoin(sign_event(sign_list, ZERO), delta_event({4, 8}, 0),
                            delta_event({6, 7, 8}, 0))),
            (IndexList((3, 3)), sign_event(sign_list, NEGATIVE)),
        ]
        plan = counted([(model, requests)])
        assert _scan_classes(plan) == _eliminate(plan)


def assert_every_kernel_agrees(groups):
    """The odometer's integers for ``groups``, with the class weights and the
    family values built by this scan and read back by the next, equal
    ``_eliminate``'s and ``_cluster``'s, and every request equals the naive
    oracle."""
    plan = counted(groups)
    _class_weights.cache_clear()
    _family_values.cache_clear()
    cold = _scan_classes(plan)
    assert _scan_classes(plan) == cold == _eliminate(plan) == _cluster(plan)
    assert_groups_agree(groups)


class TestLevels:
    """The walk goes one level of prefixes at a time, and a level's weight
    factor is one product over the weighted subsets decided there per
    distinct mates."""

    @pytest.mark.parametrize("count", [3, 4, 5, 9])
    def test_one_site_deciding_packs_of_subsets(self, count):
        """Site 5 is the highest site of ``count`` weighted subsets, pairs
        first and then triples, so one level's factor multiplies them all."""
        below = [*combinations(range(1, 5), 1), *combinations(range(1, 5), 2)]
        subsets = [{*lower, 5} for lower in below[:count]]
        model = build_model(5, 3, [({1, 2}, Fraction(5, 4)), *[
            (sites, Fraction(3 + i, 1 + i % 3)) for i, sites in enumerate(subsets)]])
        assert_every_kernel_agrees([(model, [
            (IndexList((1, 5)), EVERYWHERE), (EMPTY, EVERYWHERE),
            (IndexList((2, 3)), delta_event(subsets[-1], 1)),
            (IndexList((4, 5, 5)), delta_event(subsets[0], 0)),
        ])])

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_a_single_site(self, q):
        one = IndexList((1,))
        assert_every_kernel_agrees([(build_model(1, q, []), [
            (one, EVERYWHERE), (IndexList((1, 1)), sign_event(one, NEGATIVE)),
            (EMPTY, EVERYWHERE)])])

    def test_more_spin_values_than_sites(self):
        model = build_model(4, 6, [({1, 2}, 2), ({2, 3, 4}, Fraction(9, 4)), ({1, 4}, 3)])
        assert_every_kernel_agrees([(model, [
            (IndexList((1, 4)), EVERYWHERE), (IndexList((2, 2, 3)), delta_event({1, 4}, 0)),
            (EMPTY, conjoin(delta_event({1, 2, 3, 4}, 1), sign_event(IndexList((3,)), ZERO)))])])

    @pytest.mark.parametrize("q", [2, 3])
    def test_groups_weighting_different_subsets(self, q):
        """Each group weights its own subsets, one of them none, so a
        group's packs at a level may all be left out."""
        subsets = [{1, 2}, {2, 3}, {1, 3, 4}, {2, 4}, {3, 4}, {1, 4}]
        requests = [(IndexList((1, 4)), EVERYWHERE), (IndexList((2, 3)), delta_event({2, 4}, 1))]
        assert_every_kernel_agrees([
            (build_model(4, q, [(sites, Fraction(2 + i, 1 + i % 2))
                                for i, sites in enumerate(subsets) if i % k == r]), requests)
            for k, r in ((2, 0), (2, 1), (3, 2), (7, 6))
        ])

    @pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_deltas_decided_at_the_first_and_the_last_level(self, bits):
        """{1, 2} is decided at level 1, the first that decides anything,
        and {2, 5} and {1, 3, 5} at level 4, the last."""
        first, last = bits
        model = build_model(5, 3, [({1, 2}, 3), ({2, 5}, Fraction(7, 2)), ({3, 4}, 2),
                                   ({1, 3, 5}, Fraction(4, 3))])
        assert_every_kernel_agrees([(model, [
            (IndexList((1, 3)), delta_event({1, 2}, first)),
            (IndexList((2, 5)), delta_event({2, 5}, last)),
            (EMPTY, conjoin(delta_event({1, 2}, first), delta_event({1, 3, 5}, last))),
            (IndexList((4,)), conjoin(delta_event({1, 2}, first), delta_event({2, 5}, last),
                                      sign_event(IndexList((4,)), POSITIVE))),
        ])])

    def test_a_family_with_empty_terms(self):
        """The empty list reads no site, so its family's value of a class
        with b blocks is ``q!/(q-b)!``, with and without deltas."""
        model = build_model(4, 3, [({1, 2}, 2), ({2, 3, 4}, Fraction(5, 3))])
        assert_every_kernel_agrees([(model, [
            (EMPTY, EVERYWHERE), (EMPTY, delta_event({1, 4}, 1)),
            (EMPTY, delta_event({2, 3, 4}, 0)), (IndexList((1, 1)), EVERYWHERE)])])


def family_classes(plan, k):
    """The classes that sum ``k`` of ``plan`` reads, as the class indices
    its ``_family_values`` entry picks, and its ``(value, count)`` groups."""
    terms, delta_reqs, _group = plan.sums[k]
    get, groups = _family_values(plan.n, plan.q, terms, delta_reqs)
    return get(_classes(plan.n, plan.q)[3]), groups


class TestGroupedFamilies:
    """A family's entry keeps the classes whose value is not 0 and where its
    deltas hold, grouped by value; these are its edge cases: no class, one
    class, zero-valued classes and the empty terms."""

    def test_deltas_that_hold_on_no_class(self):
        """{1, 2, 3} agreeing and not agreeing at once holds nowhere, so the
        entry picks no class and the sum is 0."""
        model = build_model(4, 3, [({1, 2}, 2), ({2, 3, 4}, Fraction(5, 3)), ({1, 4}, 3)])
        never = conjoin(delta_event({1, 2, 3}, 1), delta_event({1, 2, 3}, 0))
        requests = [(IndexList((1, 1)), never), (EMPTY, never), (IndexList((2, 4)), EVERYWHERE)]
        assert_every_kernel_agrees([(model, requests)])
        plan = counted([(model, requests)])
        assert family_classes(plan, 0) == family_classes(plan, 1) == ((), ())
        assert pairs(plan, _scan_classes(plan))[:2] == [(0, 0), (0, 0)]

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_one_surviving_class(self, q):
        """{1, 2} and {2, 3} agreeing leave one class, all three sites in
        one block, whose value is the tables' product summed over q
        labels."""
        model = build_model(3, q, [({1, 2}, Fraction(3, 2)), ({1, 3}, 2)])
        one = conjoin(delta_event({1, 2}, 1), delta_event({2, 3}, 1))
        assert_every_kernel_agrees([(model, [(IndexList((1, 2)), one), (EMPTY, one)])])
        plan = counted([(model, [(IndexList((1, 2)), one), (EMPTY, one)])])
        lone = sum([u * u for u in range(1 - q, q, 2)])
        assert family_classes(plan, 0) == ((0,), ((lone, 1),))
        assert family_classes(plan, 1) == ((0,), ((q, 1),))

    def test_zero_valued_classes_at_q_2(self, monkeypatch):
        """At q = 2 every table is u, so a family that the symmetry rule
        keeps, with an even number of u on each component, has no class of
        value 0, and one with an odd number has nothing but: with the rule
        told to drop nothing, such families reach the odometer, which reads
        no class of them, and every kernel and the oracle give 0."""
        monkeypatch.setattr(enumeration, "_odd_on_a_component", lambda odd, blocks: False)
        model = build_model(4, 2, [({1, 2}, 2), ({2, 3, 4}, Fraction(5, 3)), ({1, 4}, 3)])
        odd = IndexList((1, 2, 3))
        requests = [(odd, EVERYWHERE), (odd, delta_event({1, 2}, 0)),
                    (IndexList((4,)), delta_event({2, 3}, 1)), (IndexList((1, 3)), EVERYWHERE)]
        assert_every_kernel_agrees([(model, requests)])
        plan = counted([(model, requests)])
        assert [family_classes(plan, k) for k in range(3)] == [((), ())] * 3
        picked, groups = family_classes(plan, 3)
        assert len(picked) == len(_classes(4, 2)[3]) == sum([c for _v, c in groups])
        assert [acc for acc, _matching in pairs(plan, _scan_classes(plan))[:3]] == [0, 0, 0]

    def test_the_empty_terms_family(self):
        """Z's family reads no site: a class with b blocks has the value
        q!/(q-b)!, which at q = 3 is 3 for one block and 6 for two or
        three, so those share a group; {1, 2} and {3, 4, 5} agreeing leave
        one class of one block and one of two."""
        model = build_model(5, 3, [({1, 2}, 2), ({2, 3, 4}, Fraction(5, 3)), ({4, 5}, 4)])
        requests = [(EMPTY, EVERYWHERE), (EMPTY, delta_event({1, 5}, 0)),
                    (EMPTY, conjoin(delta_event({1, 2}, 1), delta_event({3, 4, 5}, 1)))]
        assert_every_kernel_agrees([(model, requests)])
        plan = counted([(model, requests)])
        blocks = _classes(5, 3)[2]
        assert family_classes(plan, 0)[1] == ((perm(3, 1), blocks.count(1)),
                                              (perm(3, 2), blocks.count(2) + blocks.count(3)))
        assert family_classes(plan, 2)[1] == ((3, 1), (6, 1))


def per_class_weights(n, q, weighted):
    """The oracle of ``_class_weights``: for each class of ``_classes(n,
    q)``, the product over the weighted subsets of the numerator where the
    class's digits at the subset's sites are all equal, else the
    denominator."""
    digits = _classes(n, q)[1]
    return tuple([prod([num if len({digits[s][c] for s in sites}) == 1 else den
                        for sites, num, den in weighted])
                  for c in range(len(digits[0]))])


def assert_class_weights_match(n, q, weighted):
    _class_weights.cache_clear()
    assert _class_weights(n, q, weighted) == per_class_weights(n, q, weighted)


@st.composite
def weightings(draw):
    """A ``_class_weights`` key at n <= 6 and q <= 5: up to eight subsets of
    2 to n sites, in ``_compile``'s order, each ``(sites, numerator,
    denominator)`` with a numerator and a denominator of 1 to 9."""
    n = draw(st.integers(1, 6))
    q = draw(st.integers(2, 5))
    subsets = [] if n == 1 else draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=2), max_size=8, unique=True))
    sites = sorted([tuple(sorted(subset)) for subset in subsets], key=lambda t: (len(t), t))
    pair = st.tuples(st.integers(1, 9), st.integers(1, 9))
    return n, q, tuple([(t, *draw(pair)) for t in sites])


@settings(max_examples=200, deadline=None)
@given(weightings())
def test_class_weights_match_a_per_class_product(drawn):
    assert_class_weights_match(*drawn)


NINE_AT_SITE_4 = [(*lower, 4) for lower in [*combinations(range(4), 1),
                                           *combinations(range(4), 2)]][:9]


@pytest.mark.parametrize("n, q, weighted", [
    (1, 3, ()),
    (3, 6, (((0, 2), 2, 1), ((1, 2), 9, 4), ((0, 1, 2), 3, 1))),
    (5, 3, (((0, 1), 5, 4), *[(sites, 3 + i, 1 + i % 3)
                              for i, sites in enumerate(NINE_AT_SITE_4)])),
    (4, 3, ()),
], ids=["one-site", "more-spin-values-than-sites", "nine-subsets-at-one-level", "unweighted"])
def test_class_weights_fixed_cases(n, q, weighted):
    """n = 1, where the walk has no level; q > n; one level deciding nine
    subsets; and the empty weighting, whose every class weight is 1."""
    assert_class_weights_match(n, q, weighted)
    if not weighted:
        assert set(_class_weights(n, q, weighted)) == {1}
