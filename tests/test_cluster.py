"""The random-cluster kernel against the other two kernels, the naive
reference and the oracle's own cluster expansion."""

from fractions import Fraction
from itertools import combinations, islice

from hypothesis import given, settings, strategies as st

import oracle
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
from pottsverify.cli import main
from pottsverify.enumeration import (
    _choose_kernel,
    _cluster,
    _compile,
    _cost_floor,
    _eliminate,
    _scan_classes,
    _structure,
)
from plans import counted, pairs


@st.composite
def quadratic_style_scans(draw):
    """Groups shaped like ``check_quadratic``'s: a base model whose requests
    name an added subset D in delta events of both bits, then one to three
    models that weight D on top of the base, all passing one request list.
    Any request may carry a sign event and more delta events.  q runs up to
    8, with n and the interactions kept small there, because the naive
    reference walks all q**n configurations."""
    q = draw(st.integers(2, 8))
    n = draw(st.integers(2, 5 if q <= 3 else 4 if q == 4 else 3))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(3, n))
    d = draw(subsets)
    shared = [sites for sites in draw(st.lists(subsets, max_size=5 if q <= 4 else 2, unique=True))
              if sites != d]
    weights = st.integers(1, 5).flatmap(
        lambda den: st.integers(den, 4 * den).map(lambda num: Fraction(num, den)))
    lists = st.lists(st.integers(1, n), max_size=4).map(lambda s: IndexList(tuple(s)))
    signs = st.sampled_from((POSITIVE, NEGATIVE, ZERO))

    def requests(base):
        drawn = []
        for _ in range(draw(st.integers(1, 3))):
            events = []
            if draw(st.booleans()):
                events.append(sign_event(draw(lists), draw(signs)))
            for sites in draw(st.lists(subsets, max_size=2)):
                events.append(delta_event(sites, draw(st.integers(0, 1))))
            if base:
                events.append(delta_event(d, draw(st.integers(0, 1))))
            drawn.append((draw(lists), conjoin(*events)))
        return drawn

    base = build_model(n, q, [(sites, draw(weights)) for sites in shared])
    direct = requests(False)
    groups = [(base, requests(True))]
    groups += [(base.with_coupling(d, draw(weights)), direct)
               for _ in range(draw(st.integers(1, 3)))]
    return groups


@settings(max_examples=150, deadline=None)
@given(quadratic_style_scans())
def test_three_kernels_the_naive_reference_and_the_cluster_oracle_agree(groups):
    plan = counted(groups)
    clustered = _cluster(plan)
    assert clustered == _eliminate(plan) == _scan_classes(plan)
    rows = iter(pairs(plan, clustered))
    for scale, (model, requests) in zip(plan.scales, groups):
        couplings = dict(model.interactions.couplings)
        for indices, event in requests:
            acc, matching = next(rows)
            naive = correlation_sum_naive(model, indices, event)
            sign = (None if event.sign_constraint is None
                    else (event.sign_constraint, event.sign_indices.entries))
            deltas = event.delta_constraints
            value = oracle.cluster_zeta(model.n, model.q, couplings, indices.entries, deltas, sign)
            count = oracle.cluster_zeta(model.n, model.q, {}, (), deltas, sign)
            assert Fraction(acc, scale << len(indices)) == naive.value == value
            assert matching == naive.configs_matching == count
    assert next(rows, None) is None


def test_the_cluster_oracle_matches_the_brute_force_oracle():
    couplings = {frozenset({1, 2}): Fraction(3, 2), frozenset({2, 3, 4}): Fraction(5)}
    deltas = ((frozenset({1, 3}), 0), (frozenset({2, 4}), 1))
    for q in (2, 3, 4):
        for entries in ((), (1,), (1, 2, 2, 4), (3, 3)):
            expected = oracle.zeta(4, q, couplings, entries, lambda c: (
                not oracle.delta(c, {1, 3}) and oracle.delta(c, {2, 4})
                and oracle.spin_prod(c, (1, 4)) < 0))
            assert oracle.cluster_zeta(4, q, couplings, entries, deltas,
                                       ("negative", (1, 4))) == expected


def test_small_scans_run_on_the_cluster_kernel():
    """``2**s_w`` times the distinct delta patterns, 8 here, is below the
    elimination estimate of a short chain, so the scan is clustered."""
    model = build_model(4, 3, [({1, 2}, 2), ({2, 3}, Fraction(3, 2)), ({3, 4}, 3)])
    lists = IndexList((1, 4))
    result = correlation_sum(model, lists, delta_event({1, 3}, 0))
    naive = correlation_sum_naive(model, lists, delta_event({1, 3}, 0))
    assert result.kernel == "cluster"
    assert (result.value, result.configs_matching) == (naive.value, naive.configs_matching)


def test_dispatch_compares_the_cluster_estimate_with_cost_and_q_to_the_n():
    """K5's pairs at q = 5 give ``2**10`` clusters, below both q**n = 3125
    and elimination's cost, so the scan is clustered.  The dense benchmark
    shape, 48 weights on 8 sites at q = 4, stays on the odometer, and a
    12-site ring at q = 3, whose cost is far below q**n, on elimination."""
    def kernel(n, q, subsets):
        model = build_model(n, q, [(sites, 2) for sites in subsets])
        return _choose_kernel(_compile([(model, [(IndexList((1, 2)), EVERYWHERE)])]))

    assert kernel(5, 5, combinations(range(1, 6), 2)) == "cluster"
    dense = [*combinations(range(1, 9), 2), *islice(combinations(range(1, 9), 3), 20)]
    assert kernel(8, 4, dense) == "odometer"
    assert kernel(12, 3, [(i, i % 12 + 1) for i in range(1, 13)]) == "elimination"


def test_a_dense_model_with_a_pair_of_weight_one_stays_on_the_odometer():
    """A weight of 1 leaves its pair out of the plan, so the dense
    benchmark shape with pair {7, 8} at weight 1 is no longer a complete
    graph: elimination's cost, 38,228, is below q**n = 65,536 but not
    below half of it, and the scan stays on the odometer, which is faster
    there."""
    dense = [*combinations(range(1, 9), 2), *islice(combinations(range(1, 9), 3), 20)]
    model = build_model(8, 4, [(sites, 1 if sites == (7, 8) else 2) for sites in dense])
    plan = _compile([(model, [(IndexList((1, 2)), EVERYWHERE)])])
    assert _structure(8, 4, plan.subset_sites).cost == 38_228
    assert _choose_kernel(plan) == "odometer"


def test_the_cluster_estimate_counts_the_subsets_that_any_group_weights():
    """In a plan shaped like ``check_quadratic``'s, only the augmented
    models weight the added triple {1, 2, 3}, which the base model watches
    through delta events of both bits.  A star of four pairs at site 1 and
    the triple give ``s_w = 5`` and three delta patterns, so 96 clusters,
    above elimination's cost of 57, which is below half of ``3**5``: the
    scan runs on elimination.  The base model's weights alone would give
    48 clusters, below that cost, and cluster it."""
    star = build_model(5, 3, [({1, s}, 2) for s in range(2, 6)])
    lists = IndexList((1, 2))
    plan = _compile([
        (star, [(lists, delta_event({1, 2, 3}, 1)), (lists, delta_event({1, 2, 3}, 0))]),
        *[(star.with_coupling({1, 2, 3}, x), [(lists, EVERYWHERE)]) for x in (3, Fraction(5, 2))]])
    assert [len(factors) for factors in plan.weights] == [4, 5, 5]
    assert len({delta_reqs for _terms, delta_reqs, _group in plan.sums}) == 3
    assert _structure(5, 3, plan.subset_sites).cost == 57
    assert _choose_kernel(plan) == two_estimate_rule(plan) == "elimination"


def two_estimate_rule(plan):
    """``_choose_kernel``'s rule with the structure always built."""
    clusters = len({delta_reqs for _terms, delta_reqs, _group in plan.sums}) << len(
        {sites for factors in plan.weights for sites, _num, _den in factors})
    cost = _structure(plan.n, plan.q, plan.subset_sites).cost
    configs = plan.q**plan.n
    if clusters < min(cost, configs):
        return "cluster"
    return "elimination" if 2 * cost < configs else "odometer"


@st.composite
def hypergraph_plans(draw):
    """A plan on a random hypergraph: n <= 8, q <= 5, weights of 1 and
    above on up to 8 subsets, and requests with up to two delta events."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(2, 8))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(n, 5))
    weights = st.sampled_from((1, 2, Fraction(3, 2), Fraction(7, 3)))
    model = build_model(n, q, [(sites, draw(weights))
                               for sites in draw(st.lists(subsets, max_size=8, unique=True))])
    events = st.lists(st.builds(delta_event, subsets, st.integers(0, 1)), max_size=2)
    requests = [(IndexList((1,)), conjoin(*draw(events)))
                for _ in range(draw(st.integers(1, 4)))]
    return _compile([(model, requests)])


@settings(max_examples=200, deadline=None)
@given(hypergraph_plans())
def test_the_cost_floor_bounds_the_cost_and_keeps_every_pick(plan):
    """``_cost_floor`` is never above elimination's cost, so clustering a
    scan below it without the structure picks what the rule would."""
    assert _cost_floor(plan.n, plan.q, plan.subset_sites) <= _structure(
        plan.n, plan.q, plan.subset_sites).cost
    assert _choose_kernel(plan) == two_estimate_rule(plan)


def test_a_plan_below_the_cost_floor_builds_no_structure():
    """Four weights and one delta pattern give 16 clusters, above the plain
    floor ``n * q = 12`` but below ``3**3 + 3 * 3 = 36`` for a triple on 4
    sites at q = 3, so the scan is clustered without a structure, as the
    two-estimate rule clusters it."""
    model = build_model(4, 3, [({1, 2, 3}, 2), ({1, 2}, Fraction(3, 2)), ({2, 3}, 3),
                               ({3, 4}, Fraction(5, 4))])
    requests = [(IndexList((1, 4)), EVERYWHERE), (IndexList(()), EVERYWHERE)]
    plan = _compile([(model, requests)])
    _structure.cache_clear()
    assert _choose_kernel(plan) == "cluster"
    assert [result.kernel for result in enumeration.correlation_sums(model, requests)] == [
        "cluster", "cluster"]
    assert _structure.cache_info().misses == 0
    assert two_estimate_rule(plan) == "cluster"
    assert _structure.cache_info().misses == 1


def test_compile_leaves_out_weights_of_one():
    """A weight of 1 is the factor 1: no kernel sees it, and a subset that
    only such weights name is not watched unless an event names it."""
    shared = [({1, 2}, Fraction(3, 2)), ({3, 4}, 2)]
    ones = [({2, 3}, 1), ({1, 2, 3}, Fraction(5, 5)), ({1, 4}, 1)]
    lists = IndexList((1, 4))
    requests = [(lists, delta_event({2, 3}, 0)),
                (lists, conjoin(delta_event({1, 3}, 1), sign_event(lists, NEGATIVE)))]
    direct = [(lists, delta_event({1, 3}, 0))]
    with_ones = build_model(4, 3, shared + ones)
    without = build_model(4, 3, shared)
    plan = _compile([(with_ones, requests), (with_ones.with_coupling({2, 4}, 1), direct),
                     (without.with_coupling({2, 4}, 3), direct)])
    assert plan == _compile([(without, requests), (without, direct),
                             (without.with_coupling({2, 4}, 3), direct)])
    assert (0, 3) not in plan.subset_sites and (1, 2) in plan.subset_sites
    assert all(num != den for factors in plan.weights for _sites, num, den in factors)


def test_the_kernels_agree_on_every_plan_that_a_sweep_compiles(monkeypatch, capsys):
    """The sweep's own scans, on whichever kernel the dispatch picks for
    each, give the same integers on all three kernels, one per distinct sum
    of the plan.  Every sum belongs to a group and every request is a
    combination and a divisor.  Theorem 2, the quadratic check and
    contraction's restricted sums scan through ``_scan`` and take no
    counts."""
    plans = []

    def compile_and_keep(groups):
        plans.append(_compile(groups))
        return plans[-1]

    monkeypatch.setattr(enumeration, "_compile", compile_and_keep)
    assert main(["sweep", "--suite", "all", "--seed", "42", "--trials", "20",
                 "--format", "csv"]) == 0
    capsys.readouterr()
    assert len(plans) == 47
    for plan in plans:
        sums = _cluster(plan)
        assert sums == _eliminate(plan) == _scan_classes(plan)
        assert len(sums) == len(plan.sums)
        assert all(0 <= group < len(plan.scales) for _terms, _deltas, group in plan.sums)
        assert all(len(request) == 2 for request in plan.requests)
