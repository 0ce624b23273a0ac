"""Scans on one hypergraph: later scans share the kernels' memos, those of
the hypergraph and those of a weighting or a family, and one scan binds
several weightings as groups.  A scan's integers depend neither on what
earlier scans left in the memos nor on the other groups."""

import itertools
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
    correlation_sum,
    correlation_sum_naive,
    delta_event,
    sign_event,
)
from pottsverify import enumeration
from pottsverify.enumeration import (
    _class_weights,
    _classes,
    _cluster,
    _eliminate,
    _family_values,
    _labelled_sums,
    _request_terms,
    _scan_classes,
    _site_table,
    _structure,
)
from pottsverify.inequalities import check_quadratic
from plans import counted, pairs, weighting

MEMOS = (_structure, _classes, _class_weights, _family_values, _request_terms, _site_table,
         _labelled_sums)


def test_memos_names_every_memo_of_the_module():
    """Clearing ``MEMOS`` clears every ``lru_cache`` of ``enumeration``, so
    a cold run in these tests is really cold."""
    memos = {obj for obj in vars(enumeration).values() if hasattr(obj, "cache_clear")}
    assert memos == set(MEMOS)


def both_kernels(model, requests):
    """The counted plan of one scan and each request's (scaled sum, matching
    count) on elimination and on the odometer."""
    plan = counted([(model, requests)])
    return plan, pairs(plan, _eliminate(plan)), pairs(plan, _scan_classes(plan))


@st.composite
def scans_on_one_hypergraph(draw, min_scans=2, max_scans=5, max_n=(5, 5, 4), same_subsets=False):
    """``min_scans`` to ``max_scans`` scans at one n and q <= 4, with n at
    most ``max_n[q - 2]``, in a drawn order.  They share a few interactions
    and a subset D, which some scans weight as an interaction and the
    others name only in delta events; each scan draws its own weights,
    lists and sign events.  With ``same_subsets`` no weight is 1, and D
    is weighted in the first scan drawn and only named in the second, so
    that every scan watches the same subsets and weights the shared ones,
    with D or without it."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(2, max_n[q - 2]))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(3, n))
    d = draw(subsets)
    shared = [sites for sites in draw(st.lists(subsets, max_size=4, unique=True)) if sites != d]
    weights = st.integers(1, 6).flatmap(
        lambda den: st.integers(den + same_subsets, 4 * den).map(lambda num: Fraction(num, den)))
    lists = st.lists(st.integers(1, n), max_size=4).map(lambda s: IndexList(tuple(s)))
    scans = []
    for k in range(draw(st.integers(min_scans, max_scans))):
        couplings = [(sites, draw(weights)) for sites in shared]
        d_weighted = k == 0 if same_subsets and k < 2 else draw(st.booleans())
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


@settings(max_examples=50, deadline=None)
@given(scans_on_one_hypergraph(2, 4, max_n=(6, 6, 6), same_subsets=True))
def test_warm_odometer_scans_of_groups_on_one_hypergraph_match_a_cold_run(scans):
    """Odometer scans in turn, with the class weights cleared only before
    the first, so that each later scan reads what the earlier ones left: a
    scan of every drawn model as one group each, whose groups weight the
    shared subsets with D or without it and whose counting group weights
    none, then each model's own scan, with its own weights, weighted
    subsets, sign events and delta patterns, and then the several-group
    scan again.  Every integer equals a cold run's, ``_eliminate``'s and
    ``correlation_sum_naive``'s."""
    plans = [counted(scans), *[counted([scan]) for scan in scans]]
    cold = []
    for plan in plans:
        for memo in MEMOS:
            memo.cache_clear()
        cold.append(_scan_classes(plan))
    _class_weights.cache_clear()
    first = plans[0]
    assert _scan_classes(first) == cold[0]
    for plan, expected in zip([*plans[1:], first], [*cold[1:], cold[0]]):
        assert plan.subset_sites == first.subset_sites
        assert _scan_classes(plan) == expected == _eliminate(plan)
    for (model, requests), plan, sums in zip(scans, plans[1:], cold[1:]):
        for (indices, event), (acc, matching) in zip(requests, pairs(plan, sums)):
            naive = correlation_sum_naive(model, indices, event)
            assert Fraction(acc, plan.scales[0] << len(indices)) == naive.value
            assert matching == naive.configs_matching


def dense_plan():
    """The counted plan of a few requests on a complete 5-site model at q =
    3 with a triple, sign and delta events."""
    model = build_model(5, 3, [*[(set(pair), Fraction(sum(pair) + 1, 2))
                                 for pair in itertools.combinations(range(1, 6), 2)],
                               ({1, 2, 5}, Fraction(7, 3))])
    requests = [(IndexList((1, 5)), EVERYWHERE),
                (IndexList((2, 3, 4, 5)), delta_event({3, 4, 5}, 1)),
                (IndexList((1, 2)), conjoin(delta_event({2, 4}, 0),
                                            sign_event(IndexList((3, 5)), NEGATIVE)))]
    return model, requests, counted([(model, requests)])


def assert_matches_the_oracle(model, requests, plan, sums):
    for (indices, event), (acc, matching) in zip(requests, pairs(plan, sums)):
        naive = correlation_sum_naive(model, indices, event)
        assert Fraction(acc, plan.scales[0] << len(indices)) == naive.value
        assert matching == naive.configs_matching


def test_a_warm_scan_builds_no_class_weights():
    """Once a weighting's class weights are built, an odometer scan of it
    reads them: the plan builds two, the model's weighting, which leaves
    out the event-only {3, 4, 5}, and the counting group's, and a second
    scan builds none.  The model with other weights builds its own and
    reads the counting group's, and matches the oracle.  Once the class
    weights are gone, the plan builds its two again."""
    model, requests, plan = dense_plan()
    assert len(weighting(plan, 0)) < len(plan.subset_sites)
    _class_weights.cache_clear()
    built = _scan_classes(plan)
    assert _class_weights.cache_info().misses == 2
    assert _scan_classes(plan) == built
    assert _class_weights.cache_info().misses == 2
    reweighted = build_model(5, 3, [(sites, x + 1) for sites, x in
                                    model.interactions.couplings.items()])
    other = counted([(reweighted, requests)])
    assert other.subset_sites == plan.subset_sites
    assert_matches_the_oracle(reweighted, requests, other, _scan_classes(other))
    assert _class_weights.cache_info().misses == 3
    _class_weights.cache_clear()
    assert _scan_classes(plan) == built
    assert _class_weights.cache_info().misses == 2


def test_an_interrupted_scan_stores_no_partial_entry(monkeypatch):
    """A scan cut short by an exception, first while it builds the class
    weights and then while it works out the family values, leaves no class
    weights and no wrong value behind; the next scan matches the oracle."""

    class Interrupted(Exception):
        pass

    class Unreadable(tuple):
        def __iter__(self):
            raise Interrupted

    model, requests, plan = dense_plan()
    for memo in MEMOS:
        memo.cache_clear()
    levels, digits, blocks = _classes(plan.n, plan.q)
    *early, (tops, places, mates) = levels
    cut = (*early, (tops, places, Unreadable(mates)))  # the last level cannot be read
    monkeypatch.setattr(enumeration, "_classes", lambda n, q: (cut, digits, blocks))
    with pytest.raises(Interrupted):
        _scan_classes(plan)
    assert _class_weights.cache_info().currsize == 0
    monkeypatch.undo()

    profiles = iter(range(3))  # the fourth value worked out raises
    block_profile = enumeration._block_profile

    def interrupting(digits, tabs):
        if next(profiles, None) is None:
            raise Interrupted
        return block_profile(digits, tabs)

    monkeypatch.setattr(enumeration, "_block_profile", interrupting)
    with pytest.raises(Interrupted):
        _scan_classes(plan)
    monkeypatch.undo()
    assert _family_values.cache_info().currsize == 0  # the first family raised
    assert_matches_the_oracle(model, requests, plan, _scan_classes(plan))
    assert _class_weights.cache_info().currsize == 2  # the model's and the counting group's
    kept = {terms: _family_values(plan.n, plan.q, terms)
            for terms in {terms for terms, _deltas, _group in plan.sums}}
    _family_values.cache_clear()
    _scan_classes(plan)
    assert kept == {terms: _family_values(plan.n, plan.q, terms) for terms in kept}


def test_a_scan_at_a_q_above_any_byte_gives_the_cluster_sums():
    """At q = 300 a digit or a block count still fits a byte, as both are
    at most n: the cold and the warm scans equal the random-cluster
    kernel's integers."""
    model = build_model(3, 300, [({1, 2}, Fraction(3, 2)), ({1, 2, 3}, 2), ({2, 3}, 5)])
    requests = [(IndexList((1, 1)), EVERYWHERE), (IndexList((2, 3)), delta_event({1, 3}, 0))]
    plan = counted([(model, requests)])
    for memo in MEMOS:
        memo.cache_clear()
    cold = _scan_classes(plan)
    assert _class_weights.cache_info().currsize == 2  # the model's and the counting group's
    assert _scan_classes(plan) == cold == _cluster(plan)


def test_family_vectors_are_shared_across_n_and_site_placements():
    """A family's values are made of labelled sums keyed by the rows of the
    blocks its sites fall in (``_labelled_sums``), which name neither n nor
    the sites the tables sit on.  Sums with the same per-site tables on
    models of different n, with the tables at the last site or away from
    it, read one set of labelled sums in either order, and each equals
    ``correlation_sum_naive``, warm and after ``_labelled_sums`` and
    ``_family_values`` are cleared."""
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
        _labelled_sums.cache_clear()
        _family_values.cache_clear()
        for k, (model, requests) in enumerate(order):
            assert_walk_matches_the_oracle(model, requests)
            if k == 0:
                profiles = _labelled_sums.cache_info().currsize
        assert _labelled_sums.cache_info().currsize == profiles
        for model, requests in order:
            _labelled_sums.cache_clear()
            _family_values.cache_clear()
            assert_walk_matches_the_oracle(model, requests)


def test_scans_that_differ_only_in_event_subsets_share_the_class_weights():
    """A delta subset that the model does not weight has the factor 1, so
    scans of one model that watch different such subsets, or none, read
    one ``_class_weights`` entry for the model and one for the counting
    group, which weights nothing.  Each scan's integers equal a cold
    run's, ``_eliminate``'s and ``correlation_sum_naive``'s."""
    model, _requests, _plan = dense_plan()
    lists = (IndexList((1, 5)), IndexList((2, 3)))
    events = (EVERYWHERE, delta_event({3, 4, 5}, 1), delta_event({1, 3, 4}, 0),
              conjoin(delta_event({3, 4, 5}, 0), delta_event({1, 2, 3, 4}, 1)),
              conjoin(delta_event({2, 4}, 1), sign_event(IndexList((1, 2)), POSITIVE)))
    scans = [[(lst, event) for lst in lists] for event in events]
    plans = [counted([(model, requests)]) for requests in scans]
    assert len({plan.subset_sites for plan in plans}) == 4
    assert len({weighting(plan, 0) for plan in plans}) == 1
    cold = []
    for plan in plans:
        for memo in MEMOS:
            memo.cache_clear()
        cold.append(_scan_classes(plan))
    _class_weights.cache_clear()
    warm = [_scan_classes(plan) for plan in plans]
    info = _class_weights.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2 * len(plans) - 2, 2)
    assert warm == cold == [_eliminate(plan) for plan in plans]
    for requests, plan, sums in zip(scans, plans, warm):
        assert_matches_the_oracle(model, requests, plan, sums)


def test_a_weight_changed_by_a_seventh_is_a_new_weighting():
    """The same model with one weight raised by 1/7 misses the model's
    class weights, reads the counting group's, and matches the oracle and
    ``_eliminate``."""
    model, requests, plan = dense_plan()
    for memo in MEMOS:
        memo.cache_clear()
    _scan_classes(plan)
    couplings = list(model.interactions.couplings.items())
    (sites, x), *rest = couplings
    changed = build_model(5, 3, [(sites, x + Fraction(1, 7)), *rest])
    other = counted([(changed, requests)])
    assert other.subset_sites == plan.subset_sites
    sums = _scan_classes(other)
    info = _class_weights.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    assert sums == _eliminate(other)
    assert_matches_the_oracle(changed, requests, other, sums)


def test_class_weights_and_family_values_are_kept_as_tuples():
    """No caller can change a shared entry: both memos hold tuples, one
    integer per class."""
    _model, _requests, plan = dense_plan()
    for memo in MEMOS:
        memo.cache_clear()
    _scan_classes(plan)
    classes = len(_classes(plan.n, plan.q)[2])
    weights = [_class_weights(plan.n, plan.q, weighting(plan, group))
               for group in range(len(plan.weight_rows))]
    assert _class_weights.cache_info().hits == len(weights)
    values = [_family_values(plan.n, plan.q, terms)
              for terms in {terms for terms, _deltas, _group in plan.sums}]
    for entry in [*weights, *values]:
        assert type(entry) is tuple and len(entry) == classes


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
