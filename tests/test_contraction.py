import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from pottsverify import (
    Configuration,
    INFINITY,
    IndexList,
    InfiniteCouplingError,
    InteractionTable,
    Model,
    ModelError,
    all_configurations,
    build_model,
    check_contraction_identity,
    contract,
    expectation,
    generalized_delta,
    resolve_infinite_couplings,
    spin_product,
)
from pottsverify.generators import random_index_list, random_model
from pottsverify.model import is_infinite

EMPTY = IndexList(())


class TestContract:
    def test_worked_example(self, worked_example_model):
        result = contract(worked_example_model, IndexList((1, 3)), {1, 2})
        contracted = result.contracted_model
        assert contracted.n == 2
        assert contracted.q == 3
        assert dict(contracted.interactions.couplings) == {frozenset({1, 2}): 30}
        assert result.front_factor == 1
        assert result.contracted_list == IndexList((1, 2))
        assert result.site_map == {1: 1, 2: 1, 3: 2}

    def test_disjoint_merge_leaves_couplings(self):
        model = build_model(4, 2, [({1, 2}, 3)])
        result = contract(model, IndexList((1, 2)), {3, 4})
        assert dict(result.contracted_model.interactions.couplings) == {
            frozenset({1, 2}): 3
        }
        assert result.front_factor == 1
        assert result.contracted_list == IndexList((1, 2))

    def test_list_relabeling(self):
        model = build_model(4, 2, [])
        result = contract(model, IndexList((1, 2, 3, 4)), {2, 3})
        assert result.contracted_model.n == 3
        assert result.contracted_list == IndexList((1, 2, 2, 3))
        assert result.site_map == {1: 1, 2: 2, 3: 2, 4: 3}

    def test_interior_couplings_move_to_front_factor(self):
        model = build_model(4, 3, [({3, 4}, 7), ({1, 2}, 2)])
        result = contract(model, EMPTY, {3, 4})
        assert result.front_factor == 7
        assert dict(result.contracted_model.interactions.couplings) == {
            frozenset({1, 2}): 2
        }

    def test_merged_keys_multiply_on_collision(self):
        model = build_model(4, 3, [({1, 2, 4}, 2), ({1, 2, 3}, 5)])
        result = contract(model, EMPTY, {3, 4})
        assert dict(result.contracted_model.interactions.couplings) == {
            frozenset({1, 2, 3}): 10
        }

    def test_merging_everything_leaves_one_site(self):
        model = build_model(3, 2, [({1, 2}, 2), ({1, 2, 3}, 3)])
        result = contract(model, IndexList((1, 2, 3)), {1, 2, 3})
        assert result.contracted_model.n == 1
        assert len(result.contracted_model.interactions) == 0
        assert result.front_factor == 6
        assert result.contracted_list == IndexList((1, 1, 1))

    def test_size_preserved(self):
        model = build_model(5, 2, [])
        result = contract(model, IndexList((1, 3, 3, 5)), {2, 4})
        assert result.contracted_model.n == 4
        assert len(result.contracted_list) == 4

    def test_merged_set_too_small(self, pair_model_q2):
        with pytest.raises(ModelError):
            contract(pair_model_q2, EMPTY, {1})

    def test_merged_set_not_within_sites(self, pair_model_q2):
        with pytest.raises(ModelError):
            contract(pair_model_q2, EMPTY, {1, 5})

    def test_infinite_couplings_rejected(self):
        model = build_model(3, 2, [({1, 2}, INFINITY)])
        with pytest.raises(InfiniteCouplingError):
            contract(model, EMPTY, {1, 3})


class TestContractionIdentity:
    def test_worked_example_value(self, worked_example_model):
        check = check_contraction_identity(
            worked_example_model, IndexList((1, 3)), {1, 2}
        )
        assert check.lhs == 58
        assert check.rhs == 58
        assert check.equal

    def test_uniform_model_odd_group_both_sides_zero(self):
        model = build_model(4, 3, [])
        check = check_contraction_identity(model, IndexList((1, 2, 2)), {3, 4})
        assert check.lhs == 0
        assert check.rhs == 0
        assert check.equal

    def test_random_instances(self):
        rng = random.Random(61)
        for _ in range(25):
            model = random_model(rng, n_max=5, n_min=2, q_set=(2, 3, 4), state_limit=512)
            merged = frozenset(rng.sample(range(1, model.n + 1), rng.randint(2, model.n)))
            indices = random_index_list(rng, model.n)
            assert check_contraction_identity(model, indices, merged).equal

    def test_spin_product_preserved_on_restricted_event(self):
        rng = random.Random(67)
        for _ in range(8):
            model = random_model(rng, n_max=4, n_min=2, q_set=(2, 3), state_limit=256)
            merged = frozenset(rng.sample(range(1, model.n + 1), 2))
            indices = random_index_list(rng, model.n)
            result = contract(model, indices, merged)
            kept = sorted(set(model.sites) - merged | {min(merged)})
            for config in all_configurations(model):
                if generalized_delta(config, merged) == 0:
                    continue
                mapped = Configuration(
                    tuple(config.doubled_spins[i - 1] for i in kept)
                )
                assert spin_product(config, indices) == spin_product(
                    mapped, result.contracted_list
                )

    def test_disjoint_merges_commute(self):
        model = build_model(
            6, 2, [({1, 2}, 2), ({3, 4}, 3), ({2, 5}, 5), ({1, 3, 5}, 7)]
        )
        indices = IndexList((1, 2, 3, 6))

        def merge_twice(first, second):
            step1 = contract(model, indices, first)
            mapped_second = frozenset(step1.site_map[i] for i in second)
            step2 = contract(step1.contracted_model, step1.contracted_list, mapped_second)
            return (
                step2.contracted_model,
                step2.contracted_list,
                step1.front_factor * step2.front_factor,
            )

        a = merge_twice({1, 2}, {3, 4})
        b = merge_twice({3, 4}, {1, 2})
        assert a == b


class TestResolveInfiniteCouplings:
    def test_single_infinite_pair(self):
        model = build_model(
            3, 3, [({1, 2}, INFINITY), ({1, 3}, 5)]
        )
        resolved = resolve_infinite_couplings(model, [IndexList((2, 3))])
        assert resolved.model.n == 2
        assert dict(resolved.model.interactions.couplings) == {frozenset({1, 2}): 5}
        assert resolved.lists == (IndexList((1, 2)),)
        assert resolved.front_factor_discarded

    def test_no_infinite_couplings_is_identity(self, pair_model_q2):
        resolved = resolve_infinite_couplings(pair_model_q2, [IndexList((1,))])
        assert resolved.model == pair_model_q2
        assert resolved.lists == (IndexList((1,)),)
        assert not resolved.front_factor_discarded
        assert resolved.site_map == {1: 1, 2: 2}

    def test_transitive_cluster_collapses_to_one_site(self):
        model = build_model(
            3, 2, [({1, 2}, INFINITY), ({2, 3}, INFINITY)]
        )
        resolved = resolve_infinite_couplings(model, [IndexList((1, 2, 3))])
        assert resolved.model.n == 1
        assert len(resolved.model.interactions) == 0
        assert resolved.lists == (IndexList((1, 1, 1)),)

    def test_two_separate_clusters(self):
        model = build_model(
            5,
            2,
            [({1, 2}, INFINITY), ({4, 5}, INFINITY), ({2, 3}, 3), ({3, 4}, 5)],
        )
        resolved = resolve_infinite_couplings(model, [IndexList((1, 5))])
        assert resolved.model.n == 3
        assert dict(resolved.model.interactions.couplings) == {
            frozenset({1, 2}): 3,
            frozenset({2, 3}): 5,
        }
        assert resolved.lists == (IndexList((1, 3)),)

    def test_infinite_set_coupling_joins_all_its_sites(self):
        model = build_model(4, 2, [({1, 2, 3}, INFINITY), ({3, 4}, 2)])
        resolved = resolve_infinite_couplings(model)
        assert resolved.model.n == 2
        assert dict(resolved.model.interactions.couplings) == {frozenset({1, 2}): 2}

    def test_finite_model_limit(self):
        # Expectations on the contracted model are the growing-coupling limit
        # of the original; the gap shrinks monotonically.
        model = build_model(3, 3, [({1, 2}, INFINITY), ({1, 3}, 5)])
        indices = IndexList((2, 3))
        resolved = resolve_infinite_couplings(model, [indices])
        target = expectation(resolved.model, resolved.lists[0])
        assert target == Fraction(8, 21)
        gaps = []
        for m in (10, 100, 10000):
            finite = build_model(3, 3, [({1, 2}, m), ({1, 3}, 5)])
            gaps.append(abs(expectation(finite, indices) - target))
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_conditioned_expectations_match_resolved_model(self):
        # The resolved model reproduces the original expectation conditioned
        # on the infinite couplings' event, computed independently.
        model = build_model(4, 2, [({1, 2}, INFINITY), ({2, 3}, 3), ({3, 4}, 2)])
        indices = IndexList((1, 4))
        resolved = resolve_infinite_couplings(model, [indices])
        finite = {frozenset({2, 3}): Fraction(3), frozenset({3, 4}): Fraction(2)}
        event = lambda cfg: cfg[0] == cfg[1]
        num = oracle.zeta(4, 2, finite, indices.entries, event)
        den = oracle.zeta(4, 2, finite, [], event)
        assert expectation(resolved.model, resolved.lists[0]) == num / den

    @pytest.mark.parametrize("infinite", [False, True], ids=["finite", "infinite"])
    def test_out_of_range_list_entry_rejected(self, infinite):
        model = build_model(3, 2, [({1, 2}, INFINITY if infinite else 3)])
        with pytest.raises(ModelError, match="list entry 9 out of range 1..3"):
            resolve_infinite_couplings(model, [IndexList((1,)), IndexList((2, 9))])
        with pytest.raises(ModelError, match=r"^merged site 7 out of range 1\.\.3$"):
            contract(model, IndexList(()), {1, 7})


def resolve_by_folding(model, lists):
    """The reference: contract the infinite clusters one at a time, in order
    of their smallest sites, composing the site maps."""
    clusters = []
    for sites, x in model.interactions.items():
        if is_infinite(x):
            joined = set(sites)
            for cluster in [c for c in clusters if c & joined]:
                joined |= cluster
                clusters.remove(cluster)
            clusters.append(joined)
    site_map = {i: i for i in model.sites}
    if not clusters:
        return model, tuple(lists), False, site_map
    current = Model(model.n, model.q, InteractionTable(
        {sites: x for sites, x in model.interactions.items() if not is_infinite(x)}))
    for cluster in sorted(clusters, key=min):
        step = contract(current, IndexList(()), {site_map[i] for i in cluster})
        current = step.contracted_model
        site_map = {old: step.site_map[new] for old, new in site_map.items()}
    return current, tuple(lst.relabel(site_map) for lst in lists), True, site_map


@st.composite
def models_with_infinite_clusters(draw):
    """A model on n <= 6 sites with finite couplings and 0-4 infinite ones,
    which may overlap, and 1-3 even-length index lists.  Many finite
    couplings make keys collide once the clusters merge."""
    q = draw(st.integers(2, 3))
    n = draw(st.integers(2, 6))
    subsets = st.frozensets(st.integers(1, n), min_size=2, max_size=min(3, n))
    infinite = draw(st.lists(subsets, max_size=4, unique=True))
    finite = [sites for sites in draw(st.lists(subsets, max_size=10, unique=True))
              if sites not in infinite]
    weights = st.integers(1, 4).flatmap(
        lambda den: st.integers(den, 5 * den).map(lambda num: Fraction(num, den)))
    couplings = [(sites, INFINITY) for sites in infinite] + [
        (sites, draw(weights)) for sites in finite]
    pairs = st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), min_size=1, max_size=2)
    lists = draw(st.lists(pairs, min_size=1, max_size=3))
    return build_model(n, q, couplings), [IndexList(sum(lst, ())) for lst in lists]


@settings(max_examples=150, deadline=None)
@given(models_with_infinite_clusters())
def test_one_pass_resolution_matches_folding_contract_over_clusters(instance):
    """One contraction of every infinite cluster gives the model, lists,
    site map and flag of contracting the clusters one at a time, and its
    expectations are those of the finite couplings conditioned on every
    infinite coupling's spins agreeing."""
    model, lists = instance
    resolved = resolve_infinite_couplings(model, lists)
    ref_model, ref_lists, ref_flag, ref_map = resolve_by_folding(model, lists)
    assert resolved.model == ref_model
    assert resolved.lists == ref_lists
    assert resolved.site_map == ref_map
    assert resolved.front_factor_discarded == ref_flag
    hard = [sites for sites, x in model.interactions.items() if is_infinite(x)]
    finite = {sites: x for sites, x in model.interactions.items() if not is_infinite(x)}

    def agrees(config):
        return all(oracle.delta(config, sites) for sites in hard)

    z = oracle.zeta(model.n, model.q, finite, (), agrees)
    for lst, resolved_lst, ref_lst in zip(lists, resolved.lists, ref_lists):
        value = expectation(resolved.model, resolved_lst)
        assert value == expectation(ref_model, ref_lst)
        assert value == oracle.zeta(model.n, model.q, finite, lst.entries, agrees) / z
