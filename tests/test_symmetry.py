import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pottsverify import (
    Configuration,
    IndexList,
    ModelError,
    SpinPermutation,
    all_configurations,
    apply_permutation,
    build_model,
    gibbs_probability,
    marginal_distribution,
    sign_class,
)
from pottsverify.generators import random_model


class TestSpinPermutation:
    def test_transposition_example(self):
        config = Configuration.from_labels((1, 1, 3, 2), q=3)
        pi = SpinPermutation((2, 1, 3))
        assert apply_permutation(config, pi).labels(3) == (2, 2, 3, 1)

    def test_identity(self):
        config = Configuration.from_labels((1, 3, 2), q=3)
        assert apply_permutation(config, SpinPermutation.identity(3)) == config

    def test_reversal_negates_doubled_spins(self):
        config = Configuration.from_labels((1, 3, 2), q=3)
        flipped = apply_permutation(config, SpinPermutation.reversal(3))
        assert flipped.labels(3) == (3, 1, 2)
        assert flipped.doubled_spins == tuple(-u for u in config.doubled_spins)

    @given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
    def test_reversal_negates_for_every_q(self, q, rng):
        labels = tuple(rng.randint(1, q) for _ in range(5))
        config = Configuration.from_labels(labels, q)
        flipped = apply_permutation(config, SpinPermutation.reversal(q))
        assert flipped.doubled_spins == tuple(-u for u in config.doubled_spins)

    def test_not_a_bijection_rejected(self):
        with pytest.raises(ModelError):
            SpinPermutation((1, 1, 3))

    def test_compose(self):
        pi = SpinPermutation((2, 3, 1))
        sigma = SpinPermutation((1, 3, 2))
        composed = pi.compose(sigma)
        assert composed.mapping == tuple(pi(sigma(k)) for k in (1, 2, 3))

    def test_permutation_is_bijective_on_configurations(self):
        model = build_model(2, 3, [({1, 2}, 2)])
        pi = SpinPermutation((3, 1, 2))
        images = {apply_permutation(c, pi) for c in all_configurations(model)}
        assert len(images) == model.configuration_count


class TestMeasurePreservation:
    def test_gibbs_probability_invariant(self):
        rng = random.Random(23)
        for _ in range(5):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            perms = [
                SpinPermutation.identity(model.q),
                SpinPermutation.reversal(model.q),
                SpinPermutation.shuffled(model.q, rng),
                SpinPermutation.shuffled(model.q, rng),
            ]
            for config in all_configurations(model):
                p = gibbs_probability(config, model)
                for pi in perms:
                    assert gibbs_probability(apply_permutation(config, pi), model) == p

    def test_reversal_swaps_sign_classes(self):
        # With an odd group present, the global flip maps the positive class
        # onto the negative class bijectively.
        model = build_model(3, 3, [({1, 2}, 2)])
        indices = IndexList((1, 2, 2))
        flip = SpinPermutation.reversal(model.q)
        positives = [
            c for c in all_configurations(model) if sign_class(c, indices) == "positive"
        ]
        negatives = {
            c for c in all_configurations(model) if sign_class(c, indices) == "negative"
        }
        assert {apply_permutation(c, flip) for c in positives} == negatives


class TestMarginals:
    def test_uniform_model(self):
        model = build_model(3, 4, [])
        for site in model.sites:
            assert marginal_distribution(model, site) == (Fraction(1, 4),) * 4

    def test_pair_q2(self, pair_model_q2):
        assert marginal_distribution(pair_model_q2, 1) == (Fraction(1, 2), Fraction(1, 2))

    def test_worked_example_site_three(self, worked_example_model):
        assert marginal_distribution(worked_example_model, 3) == (Fraction(1, 3),) * 3

    def test_uniformity_on_random_models(self):
        rng = random.Random(29)
        for _ in range(6):
            model = random_model(rng, n_max=4, q_set=(2, 3, 4), state_limit=256)
            for site in model.sites:
                assert marginal_distribution(model, site) == (
                    Fraction(1, model.q),
                ) * model.q

    def test_site_out_of_range(self, pair_model_q2):
        with pytest.raises(ModelError):
            marginal_distribution(pair_model_q2, 3)


class TestParityGroups:
    def test_mixed_example(self):
        lst = IndexList((1, 2, 3, 3, 4, 4, 4))
        odd, even = lst.odd_groups, lst.even_groups
        assert odd == {1, 2, 4}
        assert even == {3}

    def test_empty_list(self):
        lst = IndexList(())
        assert (lst.odd_groups, lst.even_groups) == (frozenset(), frozenset())

    def test_multiplicity_four_is_even(self):
        lst = IndexList((5, 5, 5, 5))
        odd, even = lst.odd_groups, lst.even_groups
        assert odd == frozenset()
        assert even == {5}


def test_permutations_of_different_q_do_not_compose():
    with pytest.raises(ModelError, match=r"^cannot compose permutations of different q$"):
        SpinPermutation.identity(3).compose(SpinPermutation.identity(4))
