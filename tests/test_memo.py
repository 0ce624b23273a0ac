"""Scans on one hypergraph: later scans share the kernels' weight-free memos,
and one scan binds several weightings as groups.  A scan's integers depend
neither on what earlier scans left in the memos nor on the other groups."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pottsverify import (
    EVERYWHERE,
    IndexList,
    NEGATIVE,
    POSITIVE,
    ZERO,
    build_model,
    conjoin,
    correlation_sum,
    correlation_sum_naive,
    delta_event,
    sign_event,
)
from pottsverify import enumeration
from pottsverify.enumeration import (
    _cluster,
    _eliminate,
    _family_cache,
    _labelled_sums,
    _request_terms,
    _scan_classes,
    _site_table,
    _structure,
)
from pottsverify.inequalities import check_quadratic
from plans import counted, pairs

MEMOS = (_structure, _family_cache, _request_terms, _site_table, _labelled_sums)


def both_kernels(model, requests):
    """The counted plan of one scan and each request's (scaled sum, matching
    count) on elimination and on the odometer."""
    plan = counted([(model, requests)])
    return plan, pairs(plan, _eliminate(plan)), pairs(plan, _scan_classes(plan))


@st.composite
def scans_on_one_hypergraph(draw, min_scans=2, max_scans=5):
    """``min_scans`` to ``max_scans`` scans at one n <= 5 and q <= 4, in a
    drawn order.  They share a few interactions and a subset D, which some
    scans weight as an interaction and the others name only in delta
    events; each scan draws its own weights, lists and sign events."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(2, {2: 5, 3: 5, 4: 4}[q]))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(3, n))
    d = draw(subsets)
    shared = [sites for sites in draw(st.lists(subsets, max_size=4, unique=True)) if sites != d]
    weights = st.integers(1, 6).flatmap(
        lambda den: st.integers(den, 4 * den).map(lambda num: Fraction(num, den)))
    lists = st.lists(st.integers(1, n), max_size=4).map(lambda s: IndexList(tuple(s)))
    scans = []
    for _ in range(draw(st.integers(min_scans, max_scans))):
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
            assert Fraction(acc, plan.scales[0] << len(indices)) == naive.value
            assert matching == naive.configs_matching
        for memo in MEMOS:
            memo.cache_clear()
        _plan, cold_eliminated, cold_classes = both_kernels(model, requests)
        assert (cold_eliminated, cold_classes) == (eliminated, classes)


def test_family_vectors_are_shared_across_n_and_site_placements():
    """A family's vector key is its digits, -1 at the last site, then the
    prefix's b; it names neither n nor the sites the tables sit on.  Sums
    with the same per-site tables on models of different n, with the
    tables at the last site or away from it, read one set of family caches
    in either order, and each equals ``correlation_sum_naive``, warm and
    after ``_family_cache.cache_clear()``."""
    scans = []
    for n, (a, b) in ((3, (1, 3)), (5, (1, 5)), (5, (2, 3)), (4, (3, 4)), (4, (1, 2))):
        model = build_model(n, 3, [({i, j}, Fraction(i + j, j))
                                   for i, j in itertools.combinations(range(1, n + 1), 2)])
        # The lower site carries multiplicity 2, so the tables are the same
        # in the same order at every placement.
        requests = [(IndexList((a, a, b)), EVERYWHERE),
                    (IndexList((a, a, b)), delta_event({a, b}, 1)),
                    (IndexList((a, b)), sign_event(IndexList((a, a, b)), POSITIVE))]
        scans.append((model, requests))

    def assert_walk_matches_the_oracle(model, requests):
        plan = counted([(model, requests)])
        for (indices, event), (acc, matching) in zip(requests, pairs(plan, _scan_classes(plan))):
            naive = correlation_sum_naive(model, indices, event)
            assert Fraction(acc, plan.scales[0] << len(indices)) == naive.value
            assert matching == naive.configs_matching

    for order in (scans, scans[::-1]):
        _family_cache.cache_clear()
        for k, (model, requests) in enumerate(order):
            assert_walk_matches_the_oracle(model, requests)
            if k == 0:
                families = _family_cache.cache_info().currsize
        assert _family_cache.cache_info().currsize == families
        for model, requests in order:
            _family_cache.cache_clear()
            assert_walk_matches_the_oracle(model, requests)


@settings(max_examples=100, deadline=None)
@given(scans_on_one_hypergraph(1, 4))
def test_one_pass_over_groups_matches_separate_scans_and_the_oracle(groups):
    """One plan binds every group's weights; on every kernel each group's
    integers equal its own one-group scan and ``correlation_sum_naive``."""
    plan = counted(groups)
    for batched in (_eliminate(plan), _scan_classes(plan), _cluster(plan)):
        rows = iter(pairs(plan, batched))
        for scale, (model, requests) in zip(plan.scales, groups):
            sums = list(itertools.islice(rows, len(requests)))
            alone, eliminated, classes = both_kernels(model, requests)
            assert sums == eliminated == classes
            assert scale == alone.scales[0]
            for (indices, event), (acc, matching) in zip(requests, sums):
                naive = correlation_sum_naive(model, indices, event)
                assert Fraction(acc, scale << len(indices)) == naive.value
                assert matching == naive.configs_matching
        assert next(rows, None) is None


def test_quadratic_check_makes_one_kernel_pass(monkeypatch):
    """Each ``check_quadratic`` scans its decomposition and every augmented
    model in one kernel pass, on one structure: on a short chain, where the
    random-cluster kernel runs, on a ring of eight, where elimination does,
    and on a complete graph, where the odometer does."""
    passes = []
    for name in ("_cluster", "_eliminate", "_scan_classes"):
        kernel = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda *args, name=name, kernel=kernel:
                            passes.append(name) or kernel(*args))
    chain = build_model(4, 3, [({1, 2}, 2), ({2, 3}, Fraction(3, 2)), ({3, 4}, 3)])
    wide = build_model(8, 3, [({i, i + 1}, Fraction(i + 2, i)) for i in range(1, 8)])
    complete = build_model(4, 3, [(pair, 2) for pair in itertools.combinations(range(1, 5), 2)])
    for model, added, kernel in ((chain, {1, 4}, "_cluster"),
                                 (wide, {1, 8}, "_eliminate"),
                                 (complete, {1, 2, 3}, "_scan_classes")):
        passes.clear()
        _structure.cache_clear()
        report = check_quadratic(model, added, 2, IndexList((1, 4)), IndexList((2, 3)),
                                 extra_x=(3, Fraction(5, 2)))
        assert report.satisfied
        assert passes == [kernel]
        info = _structure.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


@st.composite
def repeated_sign_requests(draw):
    """A model with n <= 3 at q = 2..7 and one request whose sign list
    repeats each of its sites 1 to 3 times, so the sign's power at a site is
    odd or even, next to any multiplicity in the index list, under a sign
    constraint of any kind or none, and possibly a delta event."""
    q = draw(st.integers(2, 7))
    n = draw(st.integers(1, 3))
    sites = st.integers(1, n)
    couplings = []
    if n >= 2:
        for subset in draw(st.lists(st.frozensets(sites, min_size=2), max_size=3, unique=True)):
            den = draw(st.integers(1, 4))
            couplings.append((subset, Fraction(draw(st.integers(den, 4 * den)), den)))
    signed = draw(st.lists(sites, min_size=1, max_size=n, unique=True))
    repeats = [draw(st.integers(1, 3)) for _ in signed]
    sign_list = IndexList(tuple(s for s, k in zip(signed, repeats) for _ in range(k)))
    events = []
    kind = draw(st.sampled_from((None, POSITIVE, NEGATIVE, ZERO)))
    if kind is not None:
        events.append(sign_event(sign_list, kind))
    if n >= 2 and draw(st.booleans()):
        events.append(delta_event(draw(st.frozensets(sites, min_size=2)), draw(st.integers(0, 1))))
    indices = IndexList(tuple(draw(st.lists(sites, max_size=5))))
    return build_model(n, q, couplings), indices, conjoin(*events)


@settings(max_examples=200, deadline=None)
@given(repeated_sign_requests())
def test_shared_site_tables_match_the_oracle_for_every_sign_power(drawn):
    """Each request's tables come from the shared ``_site_table`` memo, which
    reduces the sign's power at a site to 0, 1 or 2; the sums equal
    ``correlation_sum_naive``, whose zero spin at odd q tells an even power
    of the sign from none."""
    model, indices, event = drawn
    result = correlation_sum(model, indices, event)
    naive = correlation_sum_naive(model, indices, event)
    assert (result.value, result.configs_matching) == (naive.value, naive.configs_matching)
