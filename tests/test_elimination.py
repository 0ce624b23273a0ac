"""The bucket-elimination kernel against the odometer and the naive oracle,
and the dispatch that chooses between them."""

import json
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
    correlation_sums,
    delta_event,
    sign_event,
)
from pottsverify.cli import main
from pottsverify.enumeration import (
    _eliminate,
    _scan_classes,
)
from plans import counted, pairs

EMPTY = IndexList(())


@st.composite
def instances(draw):
    """A model with n <= 6, q <= 4 (at most 729 configurations), a list with
    repeated sites allowed, and an event of up to two delta constraints and
    an optional sign constraint of any kind, whose list may repeat sites or
    be empty."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 6, 3: 6, 4: 4}[q]))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(4, n))
    couplings = {}
    if n >= 2:
        for sites in draw(st.lists(subsets, max_size=6)):
            d = draw(st.integers(1, 6))
            couplings[sites] = Fraction(draw(st.integers(d, 5 * d)), d)
    model = build_model(n, q, couplings.items())
    indices = IndexList(tuple(draw(st.lists(st.integers(1, n), max_size=6))))
    deltas = []
    if n >= 2:
        deltas = draw(st.lists(st.tuples(subsets, st.integers(0, 1)), max_size=2))
    events = [delta_event(sites, bit) for sites, bit in deltas]
    if draw(st.booleans()):
        sign_list = IndexList(tuple(draw(st.lists(st.integers(1, n), max_size=4))))
        events.append(sign_event(sign_list, draw(st.sampled_from((POSITIVE, NEGATIVE, ZERO)))))
    return model, indices, conjoin(*events)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_elimination_matches_odometer_and_oracle(instance):
    model, indices, event = instance
    # Extra requests share the plan and the order with the first one.
    requests = [(indices, event), (EMPTY, event), (indices, EVERYWHERE)]
    plan = counted([(model, requests)])
    eliminated = _eliminate(plan)
    assert eliminated == _scan_classes(plan)
    acc, matching = pairs(plan, eliminated)[0]
    naive = correlation_sum_naive(model, indices, event)
    assert str(Fraction(acc, plan.scales[0] << len(indices))) == str(naive.value)
    assert matching == naive.configs_matching


def ring_model(n: int, q: int):
    """Nearest-neighbour pairs round a ring plus a triple on every third
    consecutive triple of sites."""
    pairs = [({i, i % n + 1}, Fraction(2 + i % 3, 1 + i % 2)) for i in range(1, n + 1)]
    triples = [({i, i + 1, i + 2}, Fraction(3, 2)) for i in range(1, n - 1, 3)]
    return build_model(n, q, pairs + triples)


class TestKernelField:
    def test_ring_is_eliminated(self):
        model = ring_model(12, 3)
        result = correlation_sum(model, IndexList((1, 5, 5, 9)), delta_event({2, 7}, 1))
        assert result.kernel == "elimination"
        assert result.configs_visited == 3**12

    def test_dense_model_stays_on_odometer(self):
        model = build_model(8, 2, [({i, j}, 2) for i in range(1, 9) for j in range(i + 1, 9)])
        assert correlation_sum(model, IndexList((1, 2))).kernel == "odometer"

    def test_sign_event_scan_is_eliminated(self):
        model = ring_model(8, 3)
        requests = [(EMPTY, EVERYWHERE), (EMPTY, sign_event(IndexList((1, 4)), "zero"))]
        results = correlation_sums(model, requests)
        assert [r.kernel for r in results] == ["elimination", "elimination"]
        for (indices, event), fast in zip(requests, results):
            slow = correlation_sum_naive(model, indices, event)
            assert (fast.value, fast.configs_matching) == (slow.value, slow.configs_matching)

    def test_oracle_is_named(self):
        model = ring_model(4, 2)
        assert correlation_sum_naive(model, IndexList((1,))).kernel == "naive"

    def test_kernels_agree_on_a_ring(self):
        model = ring_model(7, 3)
        lists = IndexList((1, 3, 3, 6))
        event = conjoin(delta_event({2, 5}, 0), delta_event({1, 4, 7}, 1))
        fast = correlation_sum(model, lists, event)
        slow = correlation_sum_naive(model, lists, event)
        assert fast.kernel == "elimination"
        assert (fast.value, fast.configs_matching) == (slow.value, slow.configs_matching)


def test_verify_on_a_forty_site_ring(tmp_path, capsys):
    model = ring_model(40, 3)
    doc = {
        "n": 40, "q": 3,
        "interactions": [
            {"sites": sorted(sites), "x": str(x)} for sites, x in model.interactions.items()
        ],
        "lists": {"R": [1, 2, 20, 21], "S": [2, 21, 30, 39]},
    }
    path = tmp_path / "ring40.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--model", str(path), "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    rows = first.strip().splitlines()[1:]
    assert [row.split(",")[6] for row in rows] == ["theorem1", "theorem2"]
    assert all(row.endswith(",true") for row in rows)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@st.composite
def quadratic_scans(draw):
    """A quadratic-decomposition-shaped scan on a model with 2 <= n <= 6:
    the lists R, S, R+S and the empty list, each over a delta agree and a
    delta disagree event on one subset, then a duplicate of one request and
    a copy of one request with one site's multiplicity raised by one."""
    model, _indices, _event = draw(instances().filter(lambda inst: inst[0].n >= 2))
    n = model.n
    lists = st.lists(st.integers(1, n), max_size=4).map(lambda xs: IndexList(tuple(xs)))
    r, s = draw(lists), draw(lists)
    sites = draw(st.frozensets(st.integers(1, n), min_size=2, max_size=min(4, n)))
    requests = [
        (indices, delta_event(sites, bit))
        for indices in (r, s, r.concat(s), EMPTY)
        for bit in (1, 0)
    ]
    requests.append(draw(st.sampled_from(requests)))
    indices, event = draw(st.sampled_from(requests))
    requests.append((indices.concat(IndexList((draw(st.integers(1, n)),))), event))
    return model, requests


@settings(max_examples=100, deadline=None)
@given(quadratic_scans())
def test_shared_buckets_match_odometer_and_lone_requests(scan):
    model, requests = scan
    plan = counted([(model, requests)])
    eliminated = _eliminate(plan)
    assert eliminated == _scan_classes(plan)
    for request, pair in zip(requests, pairs(plan, eliminated)):
        alone = counted([(model, [request])])
        assert pairs(alone, _eliminate(alone)) == [pair]


class TestSharedScan:
    def test_requests_without_deltas_match_everything(self):
        model = ring_model(9, 3)
        lists = [EMPTY, IndexList((1,)), IndexList((2, 2, 5)), IndexList((1, 2, 5, 9))]
        results = correlation_sums(model, [(indices, EVERYWHERE) for indices in lists])
        assert [r.kernel for r in results] == ["elimination"] * 4
        assert [r.configs_matching for r in results] == [3**9] * 4

    def test_identical_requests_give_identical_pairs(self):
        model = ring_model(8, 4)
        request = (IndexList((1, 3, 3)), conjoin(delta_event({2, 6}, 0), delta_event({4, 5}, 1)))
        plan = counted([(model, [request] * 3)])
        eliminated = _eliminate(plan)
        rows = pairs(plan, eliminated)
        assert rows[0] == rows[1] == rows[2]
        assert eliminated == _scan_classes(plan)
