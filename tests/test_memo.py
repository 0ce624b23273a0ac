"""The kernels' weight-free memos: scans on one hypergraph share them, and a
scan's integers do not depend on what earlier scans left in them."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pottsverify import (
    IndexList,
    NEGATIVE,
    POSITIVE,
    ZERO,
    build_model,
    conjoin,
    correlation_sum_naive,
    delta_event,
    sign_event,
)
from pottsverify.enumeration import (
    _compile,
    _eliminate,
    _elimination_order,
    _family_cache,
    _labelled_sums,
    _request_terms,
    _scan_classes,
    _structure,
)
from pottsverify.inequalities import check_quadratic

MEMOS = (_structure, _family_cache, _request_terms, _labelled_sums)


def both_kernels(model, requests):
    plan = _compile(model, requests)
    return plan, _eliminate(plan, _elimination_order(plan)[0]), _scan_classes(plan)


@st.composite
def scans_on_one_hypergraph(draw):
    """Two to five scans at one n <= 5 and q <= 4, in a drawn order.  They
    share a few interactions and a subset D, which some scans weight as an
    interaction and the others name only in delta events; each scan draws
    its own weights, lists and sign events."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(2, {2: 5, 3: 5, 4: 4}[q]))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(3, n))
    d = draw(subsets)
    shared = [sites for sites in draw(st.lists(subsets, max_size=4, unique=True)) if sites != d]
    weights = st.integers(1, 6).flatmap(
        lambda den: st.integers(den, 4 * den).map(lambda num: Fraction(num, den)))
    lists = st.lists(st.integers(1, n), max_size=4).map(lambda s: IndexList(tuple(s)))
    scans = []
    for _ in range(draw(st.integers(2, 5))):
        couplings = [(sites, draw(weights)) for sites in shared]
        d_weighted = draw(st.booleans())
        if d_weighted:
            couplings.append((d, draw(weights)))
        requests = []
        for i in range(draw(st.integers(1, 4))):
            events = []
            if draw(st.booleans()):
                events.append(sign_event(draw(lists), draw(st.sampled_from((POSITIVE, NEGATIVE,
                                                                             ZERO)))))
            # Without its weight, D stays watched through the first request.
            if (i == 0 and not d_weighted) or draw(st.booleans()):
                events.append(delta_event(d, draw(st.integers(0, 1))))
            requests.append((draw(lists), conjoin(*events)))
        scans.append((build_model(n, q, couplings), requests))
    return draw(st.permutations(scans))


@settings(max_examples=100, deadline=None)
@given(scans_on_one_hypergraph())
def test_scans_sharing_memos_match_the_oracle_and_a_cold_run(scans):
    warm = [both_kernels(model, requests) for model, requests in scans]
    for (model, requests), (plan, eliminated, classes) in zip(scans, warm):
        assert eliminated == classes
        for (indices, event), (acc, matching) in zip(requests, eliminated):
            naive = correlation_sum_naive(model, indices, event)
            assert Fraction(acc, plan.scale << len(indices)) == naive.value
            assert matching == naive.configs_matching
        for memo in MEMOS:
            memo.cache_clear()
        _plan, cold_eliminated, cold_classes = both_kernels(model, requests)
        assert (cold_eliminated, cold_classes) == (eliminated, classes)


def test_quadratic_check_builds_one_structure():
    """The decomposition scan, where the added set is a delta subset, builds
    the structure; the three scans of the augmented models, where it is an
    interaction, find it."""
    model = build_model(4, 3, [({1, 2}, 2), ({2, 3}, Fraction(3, 2)), ({3, 4}, 3)])
    _structure.cache_clear()
    report = check_quadratic(model, {1, 4}, 2, IndexList((1, 4)), IndexList((2, 3)),
                             extra_x=(3, Fraction(5, 2)))
    assert report.satisfied
    info = _structure.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.hits >= 3
