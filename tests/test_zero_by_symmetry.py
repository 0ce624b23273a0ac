"""Sums that a spin flip makes zero: the rule, and the scans it saves.

Flipping every spin of one connected component of a sum's watched
hypergraph, u -> -u, keeps the weight and every delta constraint and
multiplies the sum by -1 when its tables are odd at an odd number of that
component's sites.  ``_compile`` drops such sums, and a check whose deciding
sum is such a sum stops at the rule, with no scan.
"""

import contextlib
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
    check_contraction_identity,
    check_positive_covariance,
    check_positive_expectation,
    check_quadratic,
    conjoin,
    contract,
    correlation_sum,
    correlation_sum_naive,
    correlation_sums,
    delta_event,
    sign_event,
)
from pottsverify import contraction, enumeration, inequalities
from pottsverify.enumeration import _compile, _components, _zero_by_symmetry


@st.composite
def models_and_requests(draw):
    """A model with n <= 5 sites at q <= 5 (at most 625 configurations, for
    the oracle), up to three couplings of which some weigh exactly 1, and
    one to three requests.  Each request has a list and an event that may
    carry a sign constraint of any kind, on a list drawn from the same
    sites, and delta constraints with either bit."""
    n = draw(st.integers(1, 5))
    q = draw(st.integers(2, 5 if n <= 4 else 3))
    sites = st.integers(1, n)
    couplings = []
    if n >= 2:
        subsets = draw(st.lists(st.frozensets(sites, min_size=2, max_size=3), max_size=3,
                                unique=True))
        for subset in subsets:
            x = draw(st.one_of(st.just(Fraction(1)),
                               st.fractions(min_value=1, max_value=4, max_denominator=3)))
            couplings.append((subset, x))
    lists = st.lists(sites, max_size=4).map(lambda entries: IndexList(tuple(entries)))
    requests = []
    for _ in range(draw(st.integers(1, 3))):
        events = []
        kind = draw(st.sampled_from((None, POSITIVE, NEGATIVE, ZERO)))
        if kind is not None:
            events.append(sign_event(draw(lists.filter(len)), kind))
        if n >= 2:
            for subset in draw(st.lists(st.frozensets(sites, min_size=2), max_size=2)):
                events.append(delta_event(subset, draw(st.integers(0, 1))))
        requests.append((draw(lists), conjoin(*events)))
    return build_model(n, q, couplings), requests


@settings(max_examples=300, deadline=None)
@given(models_and_requests())
def test_the_rule_calls_zero_only_what_the_oracle_finds_zero(drawn):
    """Every request the rule calls zero is 0 under ``correlation_sum_naive``,
    and every sum of ``correlation_sums``, whose plan drops the sign-free
    sums the rule calls zero, equals the oracle's, matching counts
    included.  The rule calls a request zero exactly when ``_compile``
    leaves it no sum: both forms apply the same step."""
    model, requests = drawn
    results = correlation_sums(model, requests)
    for (indices, event), result in zip(requests, results):
        naive = correlation_sum_naive(model, indices, event)
        zero = _zero_by_symmetry(model, indices, event)
        assert zero == (not _compile([(model, [(indices, event)])]).requests[0][0])
        if zero:
            assert naive.value == 0
        assert (result.value, result.configs_matching) == (naive.value, naive.configs_matching)


@st.composite
def hypergraphs(draw):
    """Up to 8 weighted subsets of 2 to 4 sites among n <= 10, and an event
    with up to 2 delta constraints of either bit on subsets of 2 to 4
    sites."""
    sites = st.integers(1, draw(st.integers(2, 10)))
    weighted = draw(st.lists(st.frozensets(sites, min_size=2, max_size=4), max_size=8))
    deltas = [delta_event(subset, draw(st.integers(0, 1)))
              for subset in draw(st.lists(st.frozensets(sites, min_size=2, max_size=4),
                                          max_size=2))]
    return weighted, conjoin(*deltas)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_components_are_the_breadth_first_search_components(drawn):
    """``_components`` gives, as site bitmasks, the connected components
    that a breadth-first search over the weighted and delta subsets finds,
    one block per component, and its blocks cover exactly the sites some
    subset touches."""
    weighted, event = drawn
    subsets = [*weighted, *[sites for sites, _bit in event.delta_constraints]]
    touched = set().union(*subsets)
    expected = set()
    unseen = set(touched)
    while unseen:
        frontier = [unseen.pop()]
        component = set(frontier)
        while frontier:
            site = frontier.pop(0)
            for subset in subsets:
                if site in subset:
                    frontier.extend(subset - component)
                    component |= subset
        unseen -= component
        expected.add(frozenset(component))
    blocks = [frozenset(s for s in range(11) if block >> s & 1)
              for block in _components(weighted, event)]
    assert len(blocks) == len(set(blocks))
    assert set(blocks) == expected
    assert set().union(*blocks) == touched


@contextlib.contextmanager
def counted_scans():
    """Counts every ``_scan`` call, in every module that calls it, and
    every kernel entered, inside the block."""
    calls = {"scans": 0, "kernels": []}
    scan = enumeration._scan

    def counted(groups):
        calls["scans"] += 1
        return scan(groups)

    with pytest.MonkeyPatch.context() as monkeypatch:
        for module in (enumeration, inequalities, contraction):
            monkeypatch.setattr(module, "_scan", counted)
        for name in ("_cluster", "_eliminate", "_scan_classes"):
            kernel = getattr(enumeration, name)
            monkeypatch.setattr(enumeration, name, lambda *args, name=name, kernel=kernel:
                                calls["kernels"].append(name) or kernel(*args))
        yield calls


@pytest.fixture
def scans():
    with counted_scans() as calls:
        yield calls


# A pair coupling on {1, 2} leaves site 3 (and 4) a component of its own.
PAIR = build_model(3, 3, [({1, 2}, 2)])
PAIR4 = build_model(4, 3, [({1, 2}, 2)])


@pytest.mark.parametrize("check, args, scans_made, value", [
    (check_positive_expectation, (PAIR, IndexList((1, 3))), 0, (0,)),
    (check_positive_covariance, (PAIR, IndexList((1, 2)), IndexList((1, 3))), 0, (0,)),
    (check_quadratic, (PAIR4, {3, 4}, 2, IndexList((1, 3)), IndexList((3, 3)), (3,)), 0,
     (0, 0, 0)),
    (check_quadratic, (PAIR, {2, 3}, 2, IndexList((1,)), IndexList((1, 2))), 0, (0, 0, 0)),
    (check_contraction_identity, (PAIR, IndexList((1, 3)), {1, 2}), 0, None),
], ids=["theorem1", "theorem2", "quadratic", "quadratic-global-flip", "contraction"])
def test_checks_decided_by_symmetry_enter_no_kernel(scans, check, args, scans_made, value):
    """A check whose deciding sum is zero by the rule stops at the rule and
    makes no scan.  The contraction identity is decided by both its sides:
    here each is odd on a component, at site 3, so neither is scanned.  Its
    values are 0 and it is satisfied."""
    report = check(*args)
    assert scans["scans"] == scans_made
    assert scans["kernels"] == []
    if value is None:
        assert report.equal and report.lhs == 0
    else:
        assert report.values == value and report.satisfied


@st.composite
def contractions(draw):
    """A model with n <= 5 sites at q <= 4, a merged set B of two or more
    sites, couplings inside, across and outside B, some of which weigh
    exactly 1, and a list that may repeat sites."""
    n = draw(st.integers(2, 5))
    q = draw(st.integers(2, 4))
    sites = range(1, n + 1)
    merged = draw(st.frozensets(st.sampled_from(sites), min_size=2))
    rest = [s for s in sites if s not in merged]
    subsets = [draw(st.frozensets(st.sampled_from(sorted(merged)), min_size=2))]
    if rest:
        subsets.append(frozenset({draw(st.sampled_from(sorted(merged))),
                                  draw(st.sampled_from(rest))}))
    if len(rest) >= 2:
        subsets.append(draw(st.frozensets(st.sampled_from(rest), min_size=2, max_size=3)))
    subsets += draw(st.lists(st.frozensets(st.sampled_from(sites), min_size=2, max_size=3),
                             max_size=2))
    couplings = {subset: draw(st.one_of(st.just(Fraction(1)),
                                        st.fractions(min_value=1, max_value=4,
                                                     max_denominator=3)))
                 for subset in subsets}
    indices = IndexList(tuple(draw(st.lists(st.sampled_from(sites), max_size=5))))
    return build_model(n, q, couplings.items()), indices, merged


@settings(max_examples=300, deadline=None)
@given(contractions())
def test_the_contraction_identity_stops_where_both_sides_are_zero(drawn):
    """The rule calls the restricted side zero exactly when it calls the
    contracted model's sum zero, so contraction keeps what the rule
    decides.  The identity then holds at 0 with no scan; otherwise both
    sides are scanned, two scans, and are equal."""
    model, indices, merged = drawn
    result = contract(model, indices, merged)
    zero = _zero_by_symmetry(model, indices, delta_event(merged, 1))
    assert zero == _zero_by_symmetry(result.contracted_model, result.contracted_list)
    with counted_scans() as calls:
        check = check_contraction_identity(model, indices, merged)
    assert calls["scans"] == (0 if zero else 2)
    assert check.equal
    if zero:
        assert check.lhs == 0


@pytest.mark.parametrize("indices, event", [
    (IndexList((1, 3)), EVERYWHERE),
    (IndexList((1,)), EVERYWHERE),
    (IndexList((1, 3)), delta_event({1, 2}, 0)),
    (IndexList((1,)), sign_event(IndexList((3,)), POSITIVE)),
    (IndexList((1, 3)), conjoin(delta_event({1, 2}, 1), sign_event(IndexList((2, 3)), ZERO))),
], ids=["component", "global", "delta", "sign", "sign-and-delta"])
def test_a_zero_request_reports_the_symmetry_kernel(indices, event):
    """A request whose every sum is zero by the rule runs no kernel: its
    ``kernel`` is ``"symmetry"``, it visits ``q**n`` configurations, and its
    matching count is the oracle's."""
    result = correlation_sum(PAIR, indices, event)
    naive = correlation_sum_naive(PAIR, indices, event)
    assert _zero_by_symmetry(PAIR, indices, event)
    assert (result.value, result.kernel, result.configs_visited) == (0, "symmetry", 27)
    assert result.configs_matching == naive.configs_matching
