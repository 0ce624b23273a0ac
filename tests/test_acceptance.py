"""Acceptance suite: every criterion checked exactly, one pass/fail line each.

All comparisons are exact rational equalities or inequalities; there are no
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pottsverify import (
    INFINITY,
    IndexList,
    all_configurations,
    build_model,
    check_contraction_identity,
    check_positive_covariance,
    check_positive_expectation,
    check_power_sum_gap_recursion,
    check_quadratic,
    config_weight,
    correlation_sum,
    correlation_sum_naive,
    covariance,
    delta_event,
    expectation,
    marginal_distribution,
    power_sum_gap,
    resolve_infinite_couplings,
    uniform_correlation_sum,
)
from pottsverify.generators import (
    random_coupling,
    random_even_index_list,
    random_event,
    random_index_list,
    random_model,
    random_site_subset,
)
from pottsverify.symmetry import SpinPermutation, apply_permutation


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example restricted sum and its contraction"):
        rng = random.Random(101)
        r = IndexList((1, 3))
        start = time.perf_counter()
        for _ in range(10):
            x13, x23, x123 = (random_coupling(rng) for _ in range(3))
            model = build_model(
                3, 3,
                [({1, 2}, 1), ({1, 3}, x13), ({2, 3}, x23), ({1, 2, 3}, x123)],
            )
            restricted = correlation_sum(model, r, delta_event({1, 2}, 1)).value
            assert restricted == 2 * (x13 * x23 * x123 - 1)
            check = check_contraction_identity(model, r, {1, 2})
            assert check.equal and check.lhs == restricted
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"


def test_criterion_2_power_sum_gap_family():
    with criterion(2, "power-sum gap base values, nonnegativity, recursion"):
        start = time.perf_counter()
        for a in (2, 4, 6):
            for b in (2, 4, 6):
                assert power_sum_gap(2, a, b) == 0
                assert power_sum_gap(3, a, b) == 2
                for q in range(2, 13):
                    assert power_sum_gap(q, a, b) >= 0
                    assert check_power_sum_gap_recursion(q, a, b).satisfied
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"


def test_criterion_3_first_inequality_fuzz():
    with criterion(3, "first inequality on 1000 seeded instances"):
        rng = random.Random(103)
        start = time.perf_counter()
        for _ in range(1000):
            model = random_model(
                rng, n_max=6, q_set=(2, 3, 4, 5), x_max=10,
                max_interactions=6, state_limit=4096,
            )
            indices = random_index_list(rng, model.n, max_len=6)
            report = check_positive_expectation(model, indices)
            assert report.satisfied, report.witness
            assert report.value >= 0
            if len(indices) % 2:
                assert report.value == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.2f}s, bound is 5min"


def test_criterion_4_second_inequality_fuzz():
    with criterion(4, "second inequality on 1000 seeded instances"):
        rng = random.Random(104)
        for _ in range(1000):
            model = random_model(
                rng, n_max=6, q_set=(2, 3, 4, 5), x_max=10,
                max_interactions=6, state_limit=4096,
            )
            r = random_index_list(rng, model.n, max_len=6)
            s = random_index_list(rng, model.n, max_len=6)
            report = check_positive_covariance(model, r, s)
            assert report.satisfied, report.witness
            assert report.value >= 0
            if (len(r) % 2) != (len(s) % 2):
                assert report.value == 0


def test_criterion_5_contraction_identity_and_infinite_limit():
    with criterion(5, "contraction identity (300 instances) and infinite limit"):
        rng = random.Random(105)
        for _ in range(300):
            model = random_model(
                rng, n_max=6, n_min=2, q_set=(2, 3, 4), state_limit=2048,
            )
            merged = frozenset(
                rng.sample(range(1, model.n + 1), rng.randint(2, model.n))
            )
            indices = random_index_list(rng, model.n, max_len=6)
            assert check_contraction_identity(model, indices, merged).equal

        # One coupling pinned to infinity: the resolved model's expectation is
        # the large-weight limit, approached through a shrinking gap.
        for _ in range(10):
            model = random_model(
                rng, n_max=5, n_min=2, q_set=(2, 3), max_interactions=3,
                state_limit=1024,
            )
            pinned = random_site_subset(rng, model.n)
            finite = {
                sites: x
                for sites, x in model.interactions.couplings.items()
                if sites != pinned
            }
            infinite_model = build_model(
                model.n, model.q, [*finite.items(), (pinned, INFINITY)]
            )
            indices = random_index_list(rng, model.n, max_len=4)
            resolved = resolve_infinite_couplings(infinite_model, [indices])
            limit = expectation(resolved.model, resolved.lists[0])
            gaps = []
            for m in (10, 100, 10000):
                finite_model = build_model(
                    model.n, model.q, [*finite.items(), (pinned, Fraction(m))]
                )
                gaps.append(abs(expectation(finite_model, indices) - limit))
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[0] == 0 or gaps[2] < gaps[0]


def test_criterion_6_uniform_closed_forms():
    with criterion(6, "uniform-model closed forms and disjoint covariance"):
        rng = random.Random(106)
        for _ in range(200):
            q = rng.choice((2, 3, 4, 5))
            n = rng.randint(1, 5)
            model = build_model(n, q, [])
            indices = random_even_index_list(rng, n)
            brute = correlation_sum_naive(model, indices).value
            assert uniform_correlation_sum(model, indices) == brute
        for _ in range(100):
            q = rng.choice((2, 3, 4, 5))
            n = rng.randint(2, 5)
            model = build_model(n, q, [])
            split = rng.randint(1, n - 1)
            r = random_even_index_list(rng, split)
            s_raw = random_even_index_list(rng, n - split)
            s = IndexList(tuple(i + split for i in s_raw))
            assert covariance(model, r, s) == 0


def test_criterion_7_quadratic_decomposition():
    with criterion(7, "quadratic decomposition on 300 seeded instances"):
        rng = random.Random(107)
        done = 0
        while done < 300:
            model = random_model(
                rng, n_max=5, n_min=2, q_set=(2, 3, 4), max_interactions=4,
                state_limit=2048,
            )
            merged = random_site_subset(rng, model.n)
            if merged in model.interactions.couplings:
                continue
            x = random_coupling(rng)
            extra = (random_coupling(rng), random_coupling(rng))
            r = random_index_list(rng, model.n, max_len=5)
            s = random_index_list(rng, model.n, max_len=5)
            report = check_quadratic(model, merged, x, r, s, extra_x=extra)
            assert report.satisfied, report.witness
            u, v, w = report.values
            assert u >= 0 and 2 * u + v >= 0 and u + v + w >= 0
            done += 1


def test_criterion_8_oracle_equivalence_and_worker_independence():
    with criterion(8, "incremental vs naive oracle; identical repeats"):
        rng = random.Random(108)
        for _ in range(100):
            model = random_model(rng, n_max=6, q_set=(2, 3, 4), state_limit=1024)
            indices = random_index_list(rng, model.n, max_len=6)
            event = random_event(rng, model.n)
            naive = correlation_sum_naive(model, indices, event)
            result = correlation_sum(model, indices, event)
            again = correlation_sum(model, indices, event)
            assert result.value == naive.value
            assert result.configs_matching == naive.configs_matching
            assert result == again
            assert str(result.value) == str(again.value)


def test_criterion_9_symmetry_suite():
    with criterion(9, "relabeling invariance and uniform marginals"):
        rng = random.Random(109)
        for _ in range(20):
            model = random_model(rng, n_max=6, q_set=(2, 3, 4, 5), state_limit=1024)
            weights = {
                config: config_weight(config, model)
                for config in all_configurations(model)
            }
            z = sum(weights.values(), Fraction(0))
            perms = [
                SpinPermutation.identity(model.q),
                SpinPermutation.reversal(model.q),
                SpinPermutation.shuffled(model.q, rng),
                SpinPermutation.shuffled(model.q, rng),
                SpinPermutation.shuffled(model.q, rng),
            ]
            for config, w in weights.items():
                p = w / z
                for pi in perms:
                    assert weights[apply_permutation(config, pi)] / z == p
            uniform = (Fraction(1, model.q),) * model.q
            for site in model.sites:
                assert marginal_distribution(model, site) == uniform
