import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from pottsverify import (
    IndexList,
    ModelError,
    build_model,
    check_contraction_identity,
    check_positive_covariance,
    check_positive_expectation,
    check_power_sum_gap_recursion,
    check_quadratic,
    covariance,
    power_sum_gap,
    quadratic_decomposition,
    scaled_covariance,
    uniform_scaled_covariance,
)
from pottsverify.serialize import witness_json
from pottsverify import contraction, enumeration, inequalities
from pottsverify.cli import main
from pottsverify.generators import (
    random_coupling,
    random_even_index_list,
    random_index_list,
    random_model,
    random_site_subset,
)


class TestFirstInequality:
    def test_pair_value(self, pair_model_q2):
        report = check_positive_expectation(pair_model_q2, IndexList((1, 2)))
        assert report.value == Fraction(1, 8)
        assert report.satisfied
        assert report.kind == "theorem1"
        assert report.witness is None

    def test_single_site_zero(self, worked_example_model):
        report = check_positive_expectation(worked_example_model, IndexList((1,)))
        assert report.value == 0
        assert report.satisfied

    def test_uniform_even_groups(self):
        model = build_model(3, 2, [])
        report = check_positive_expectation(model, IndexList((1, 1, 2, 2)))
        assert report.value == Fraction(1, 16)
        assert report.satisfied

    def test_fuzz_nonnegative_and_odd_zero(self):
        rng = random.Random(71)
        for _ in range(60):
            model = random_model(rng, n_max=5, q_set=(2, 3, 4, 5), state_limit=1024)
            indices = random_index_list(rng, model.n)
            report = check_positive_expectation(model, indices)
            assert report.satisfied
            assert report.value >= 0
            if len(indices) % 2:
                assert report.value == 0


class TestCovariance:
    def test_pair_of_singletons(self, pair_model_q2):
        assert covariance(pair_model_q2, IndexList((1,)), IndexList((2,))) == Fraction(1, 8)

    def test_uniform_disjoint_even_lists(self):
        model = build_model(3, 3, [])
        assert covariance(model, IndexList((1, 1)), IndexList((2, 2))) == 0

    def test_pair_q3_squares(self, pair_model_q3):
        r, s = IndexList((1, 1)), IndexList((2, 2))
        assert scaled_covariance(pair_model_q3, r, s) == 8
        assert covariance(pair_model_q3, r, s) == Fraction(1, 18)

    def test_against_independent_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            model = random_model(rng, n_max=4, q_set=(2, 3), state_limit=256)
            r = random_index_list(rng, model.n, max_len=4)
            s = random_index_list(rng, model.n, max_len=4)
            expected = oracle.scaled_covariance(
                model.n, model.q, dict(model.interactions.couplings),
                r.entries, s.entries,
            )
            assert scaled_covariance(model, r, s) == expected


class TestSecondInequality:
    def test_parity_shortcut_is_zero(self, worked_example_model):
        report = check_positive_covariance(
            worked_example_model, IndexList((1,)), IndexList((2, 3))
        )
        assert report.value == 0
        assert report.satisfied
        assert report.kind == "theorem2"

    def test_pair_of_singletons(self, pair_model_q2):
        report = check_positive_covariance(
            pair_model_q2, IndexList((1,)), IndexList((2,))
        )
        assert report.value == Fraction(1, 8)
        assert report.satisfied

    def test_fuzz_nonnegative(self):
        rng = random.Random(79)
        for _ in range(40):
            model = random_model(rng, n_max=5, q_set=(2, 3, 4, 5), state_limit=1024)
            r = random_index_list(rng, model.n)
            s = random_index_list(rng, model.n)
            report = check_positive_covariance(model, r, s)
            assert report.satisfied
            assert report.value >= 0
            if (len(r) % 2) != (len(s) % 2):
                assert report.value == 0


class TestPowerSumGap:
    @pytest.mark.parametrize("a", (2, 4, 6))
    @pytest.mark.parametrize("b", (2, 4, 6))
    def test_binary_case_vanishes(self, a, b):
        assert power_sum_gap(2, a, b) == 0

    @pytest.mark.parametrize("a", (2, 4, 6))
    @pytest.mark.parametrize("b", (2, 4, 6))
    def test_ternary_case_is_two(self, a, b):
        assert power_sum_gap(3, a, b) == 2

    def test_quaternary_value(self):
        assert power_sum_gap(4, 2, 2) == 16

    def test_quinary_value(self):
        assert power_sum_gap(5, 2, 2) == 70

    def test_odd_exponent_rejected(self):
        with pytest.raises(ModelError):
            power_sum_gap(3, 3, 2)
        with pytest.raises(ModelError):
            power_sum_gap(3, 2, 1)

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ModelError):
            power_sum_gap(3, 0, 2)

    @pytest.mark.parametrize("q", range(2, 13))
    @pytest.mark.parametrize("a", (2, 4, 6, 8))
    @pytest.mark.parametrize("b", (2, 4, 6, 8))
    def test_nonnegative_family(self, q, a, b):
        assert power_sum_gap(q, a, b) >= 0


class TestPowerSumGapRecursion:
    def test_base_step_q2(self):
        report = check_power_sum_gap_recursion(2, 2, 2)
        gap, gap_next, increment = report.values
        assert (gap, gap_next, increment) == (0, 16, 16)
        assert report.satisfied

    def test_step_q3(self):
        report = check_power_sum_gap_recursion(3, 2, 2)
        gap, gap_next, increment = report.values
        assert (gap, gap_next, increment) == (2, 70, 68)
        assert report.satisfied

    @pytest.mark.parametrize("q", range(2, 11))
    @pytest.mark.parametrize("a", (2, 4, 6))
    @pytest.mark.parametrize("b", (2, 4, 6))
    def test_sweep(self, q, a, b):
        assert check_power_sum_gap_recursion(q, a, b).satisfied

    @pytest.mark.parametrize("q", (1, 0, -1))
    def test_q_below_two_rejected(self, q):
        with pytest.raises(ModelError, match="q must be >= 2"):
            check_power_sum_gap_recursion(q, 2, 2)

    def test_recursion_is_an_oracle_for_higher_q(self):
        # Climb from the two base cases using only the increment formula
        # and compare against the direct definition.
        for a in (2, 4):
            for b in (2, 4):
                climbed = {2: power_sum_gap(2, a, b), 3: power_sum_gap(3, a, b)}
                for q in range(2, 11):
                    report = check_power_sum_gap_recursion(q, a, b)
                    climbed[q + 2] = climbed[q] + report.values[2]
                for q in range(2, 13):
                    assert climbed[q] == power_sum_gap(q, a, b)


def test_xi_integers_match_the_fraction_reference():
    """The integer power-sum gap and recursion give the Fractions and the
    verdicts of ``oracle``'s Fraction formulas."""
    for q in range(2, 41):
        for a in range(2, 13, 2):
            for b in range(2, 13, 2):
                gap, gap_next, increment, satisfied = oracle.power_sum_gap_recursion(q, a, b)
                assert power_sum_gap(q, a, b) == gap
                report = check_power_sum_gap_recursion(q, a, b)
                assert report.values == (gap, gap_next, increment)
                assert all(type(v) is Fraction for v in report.values)
                assert report.satisfied is satisfied


@pytest.mark.parametrize("a, b", [(3, 2), (2, 5), (0, 2), (2, 0), (-2, 2), (2, -4)])
def test_xi_rejects_odd_or_nonpositive_exponents(a, b):
    with pytest.raises(ModelError, match="positive even integer"):
        power_sum_gap(3, a, b)
    with pytest.raises(ModelError, match="positive even integer"):
        check_power_sum_gap_recursion(3, a, b)


class TestUniformFactorization:
    def test_requires_uniform_model(self, pair_model_q2):
        with pytest.raises(ModelError, match="s=0"):
            uniform_scaled_covariance(pair_model_q2, IndexList((1, 1)), IndexList((2, 2)))

    def test_requires_even_lists(self):
        model = build_model(2, 3, [])
        with pytest.raises(ModelError, match="even-only"):
            uniform_scaled_covariance(model, IndexList((1,)), IndexList((2, 2)))

    def test_disjoint_supports_vanish(self):
        model = build_model(3, 4, [])
        assert uniform_scaled_covariance(model, IndexList((1, 1)), IndexList((2, 2))) == 0

    def test_shared_support_value(self):
        model = build_model(1, 3, [])
        r = s = IndexList((1, 1))
        assert uniform_scaled_covariance(model, r, s) == 2

    def test_matches_enumeration(self):
        rng = random.Random(83)
        for _ in range(30):
            q = rng.choice((2, 3, 4, 5))
            n = rng.randint(1, 4)
            model = build_model(n, q, [])
            r = random_even_index_list(rng, n)
            s = random_even_index_list(rng, n)
            assert uniform_scaled_covariance(model, r, s) == scaled_covariance(model, r, s)


class TestQuadraticDecomposition:
    def test_reference_instance(self):
        base = build_model(2, 3, [])
        r, s = IndexList((1, 1)), IndexList((2, 2))
        qd = quadratic_decomposition(base, {1, 2}, 2, r, s)
        assert (qd.u, qd.v, qd.w) == (2, 2, -4)
        assert qd.z_agree == 3
        assert qd.z_disagree == 6
        assert qd.value_at(2) == 8
        augmented = base.with_coupling({1, 2}, 2)
        assert scaled_covariance(augmented, r, s) == 8

    def test_weight_one_addition_reduces_to_base(self):
        base = build_model(2, 3, [])
        r, s = IndexList((1, 1)), IndexList((2, 2))
        qd = quadratic_decomposition(base, {1, 2}, 1, r, s)
        assert qd.u + qd.v + qd.w == 0

    def test_duplicate_interaction_rejected(self, pair_model_q2):
        with pytest.raises(ModelError, match="duplicate"):
            quadratic_decomposition(
                pair_model_q2, {1, 2}, 2, IndexList((1,)), IndexList((2,))
            )

    @pytest.mark.parametrize("added, message", [
        ({0, 1}, r"^interaction site 0 is not a positive integer$"),
        ({1, 4}, r"^interaction site 4 out of range 1\.\.3$"),
    ], ids=["0", "n+1"])
    @pytest.mark.parametrize("check", [quadratic_decomposition, check_quadratic])
    def test_added_set_outside_the_sites_rejected(self, check, added, message):
        base = build_model(3, 2, [({1, 2}, 2)])
        r = IndexList((1, 2))
        with pytest.raises(ModelError, match=message):
            check(base, added, 2, r, r)

    def test_weight_below_one_rejected(self):
        base = build_model(2, 3, [])
        with pytest.raises(ModelError):
            quadratic_decomposition(
                base, {1, 2}, Fraction(1, 2), IndexList((1,)), IndexList((2,))
            )

    @pytest.mark.parametrize("x, extra, message", [
        (1.1, (), "is a float"),
        (math.inf, (), "must be finite and >= 1, got inf"),
        (2, (3, 1.1), "is a float"),
        (2, (math.inf,), "must be finite and >= 1, got inf"),
        (2, (Fraction(1, 2),), "must be finite and >= 1, got 1/2"),
        ("1e1000000", (), "^coupling '1e1000000' has a decimal exponent outside -4300..4300$"),
    ])
    def test_added_weights_follow_the_coupling_rule(self, x, extra, message):
        base = build_model(3, 2, [({1, 2}, 2)])
        r = IndexList((1, 2))
        with pytest.raises(ModelError, match=message):
            check_quadratic(base, {2, 3}, x, r, r, extra_x=extra)
        if not extra:
            with pytest.raises(ModelError, match=message):
                quadratic_decomposition(base, {2, 3}, x, r, r)

    @pytest.mark.parametrize("x, message", [
        (1.1, "is a float"),
        (math.inf, "must be finite and >= 1, got inf"),
        (Fraction(1, 2), "must be finite and >= 1, got 1/2"),
        ("1e-1000000", "^coupling '1e-1000000' has a decimal exponent outside -4300..4300$"),
    ])
    def test_value_at_follows_the_coupling_rule(self, x, message):
        base = build_model(2, 3, [])
        r, s = IndexList((1, 1)), IndexList((2, 2))
        qd = quadratic_decomposition(base, {1, 2}, 2, r, s)
        with pytest.raises(ModelError, match=message):
            qd.value_at(x)
        assert qd.value_at("3/2") == qd.u * Fraction(9, 4) + qd.v * Fraction(3, 2) + qd.w

    def test_fuzz_identity_and_coefficient_inequalities(self):
        rng = random.Random(89)
        done = 0
        while done < 25:
            model = random_model(
                rng, n_max=4, n_min=2, q_set=(2, 3, 4), max_interactions=3,
                state_limit=256,
            )
            merged = random_site_subset(rng, model.n)
            if merged in model.interactions.couplings:
                continue
            x = random_coupling(rng)
            extra = (random_coupling(rng), random_coupling(rng))
            r = random_index_list(rng, model.n, max_len=4)
            s = random_index_list(rng, model.n, max_len=4)
            report = check_quadratic(model, merged, x, r, s, extra_x=extra)
            assert report.satisfied
            u, v, w = report.values
            assert u >= 0
            assert 2 * u + v >= 0
            assert u + v + w >= 0
            done += 1

    def test_scaled_covariance_monotone_in_added_weight(self):
        rng = random.Random(97)
        done = 0
        while done < 15:
            model = random_model(
                rng, n_max=4, n_min=2, q_set=(2, 3), max_interactions=2,
                state_limit=256,
            )
            merged = random_site_subset(rng, model.n)
            if merged in model.interactions.couplings:
                continue
            r = random_index_list(rng, model.n, max_len=4)
            s = random_index_list(rng, model.n, max_len=4)
            x1 = random_coupling(rng)
            x2 = x1 + random_coupling(rng)  # strictly larger, both >= 1
            low = scaled_covariance(model.with_coupling(merged, x1), r, s)
            high = scaled_covariance(model.with_coupling(merged, x2), r, s)
            assert high >= low
            done += 1


@pytest.mark.parametrize("check, args, scans", [
    (check_positive_expectation, (IndexList((1, 2)),), 1),
    (check_positive_covariance, (IndexList((1, 2)), IndexList((1, 3))), 0),
    (check_positive_covariance, (IndexList((1, 2)), IndexList((1, 2))), 1),
    (check_quadratic, ({2, 3}, 2, IndexList((1, 2)), IndexList((1, 3))), 1),
    (check_contraction_identity, (IndexList((1, 2)), {2, 3}), 2),
], ids=["theorem1", "theorem2", "theorem2-nonzero", "quadratic", "contraction"])
def test_each_model_check_makes_only_the_scans_it_reads(monkeypatch, check, args, scans):
    """Each check's kernel passes, counted at ``enumeration._scan`` in every
    module that calls it: one per check, none where the symmetry rule
    decides it (theorem2's ``zeta(RS)`` is odd at site 3, a component of its
    own), and two for the contraction identity, one per side.  A check that
    scanned for a result it drops, such as the matching count of a
    restricted sum, would count more."""
    calls = []

    def counted(groups):
        calls.append(groups)
        return scan(groups)

    scan = enumeration._scan
    for module in (enumeration, inequalities, contraction):
        monkeypatch.setattr(module, "_scan", counted)
    check(build_model(3, 3, [({1, 2}, 2)]), *args)
    assert len(calls) == scans


def test_only_report_builds_a_witness():
    """Every model check's witness comes from ``inequalities._report``:
    ``witness_json`` is called there once, and elsewhere only in
    ``serialize``, which defines it."""
    package = Path(inequalities.__file__).parent
    calls = {path.name: path.read_text().count("witness_json(")
             for path in sorted(package.glob("*.py"))}
    assert [name for name, count in calls.items() if count] == ["inequalities.py",
                                                                "serialize.py"]
    assert calls["inequalities.py"] == 1


class TestDecisionClauses:
    """Each check's clauses decide on their own: the deciding value is
    patched into the one region where a single clause fails, and the
    report is unsatisfied, with the witness that ``_report`` builds."""

    @staticmethod
    def reports(monkeypatch):
        """Every report ``inequalities._report`` returns from now on."""
        built = []
        report = inequalities._report
        monkeypatch.setattr(inequalities, "_report",
                            lambda *args: built.append(report(*args)) or built[-1])
        return built

    @staticmethod
    def assert_verify_fails_and_the_witness_replays(tmp_path, monkeypatch, capsys, doc,
                                                    witness):
        """``verify --model`` on ``doc`` exits 1 with ``witness`` as its one
        witness line, and, with the patches undone, the witness replays with
        exit 0."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--model", str(path)]) == 1
        lines = [line.removeprefix("witness: ") for line in capsys.readouterr().err.splitlines()
                 if line.startswith("witness: ")]
        assert lines == [witness]
        monkeypatch.undo()
        replay = tmp_path / "witness.json"
        replay.write_text(witness)
        assert main(["verify", "--model", str(replay)]) == 0

    def test_theorem1_odd_list_must_be_exactly_zero(self, tmp_path, monkeypatch, capsys):
        """+1/7 is nonnegative, so only the odd-length clause fails."""
        doc = {"n": 3, "q": 3, "interactions": [{"sites": [1, 2], "x": "3"},
                                                {"sites": [2, 3], "x": "2"}],
               "lists": {"R": [1, 2, 3]}}
        model = build_model(3, 3, [({1, 2}, 3), ({2, 3}, 2)])
        r = IndexList((1, 2, 3))
        monkeypatch.setattr(inequalities, "expectation", lambda model, indices: Fraction(1, 7))
        built = self.reports(monkeypatch)
        report = check_positive_expectation(model, r)
        assert report is built[-1]
        assert (report.kind, report.values, report.satisfied) == ("theorem1", (Fraction(1, 7),),
                                                                  False)
        assert report.witness == witness_json(model, {"R": r})
        self.assert_verify_fails_and_the_witness_replays(tmp_path, monkeypatch, capsys, doc,
                                                         report.witness)

    def test_theorem2_mixed_parity_must_be_exactly_zero(self, tmp_path, monkeypatch, capsys):
        """+1/7 is nonnegative, so only the mixed-parity clause fails; the
        odd R alone passes Theorem 1 by the symmetry rule."""
        doc = {"n": 3, "q": 3, "interactions": [{"sites": [1, 2], "x": "3"},
                                                {"sites": [2, 3], "x": "2"}],
               "lists": {"R": [1, 2, 3], "S": [2, 3]}}
        model = build_model(3, 3, [({1, 2}, 3), ({2, 3}, 2)])
        r, s = IndexList((1, 2, 3)), IndexList((2, 3))
        monkeypatch.setattr(inequalities, "covariance", lambda model, r, s: Fraction(1, 7))
        built = self.reports(monkeypatch)
        report = check_positive_covariance(model, r, s)
        assert report is built[-1]
        assert (report.kind, report.values, report.satisfied) == ("theorem2", (Fraction(1, 7),),
                                                                  False)
        assert report.witness == witness_json(model, {"R": r, "S": s})
        self.assert_verify_fails_and_the_witness_replays(tmp_path, monkeypatch, capsys, doc,
                                                         report.witness)

    def test_quadratic_sum_of_coefficients_must_be_nonnegative(self, monkeypatch):
        """U = 1, V = -1 and W = -1 keep U >= 0 and 2U + V >= 0, and at x =
        2 the augmented numerator is patched to U*4 + V*2 + W = 1, so the
        identity holds and only U + V + W >= 0 fails."""
        base = build_model(3, 3, [({1, 2}, 2)])
        r, s = IndexList((1, 2)), IndexList((1, 3))
        assert not enumeration._zero_by_symmetry(base, r.concat(s),
                                                 enumeration.delta_event({2, 3}, 1))
        monkeypatch.setattr(inequalities, "_coefficients", lambda sums: (1, -1, -1))
        monkeypatch.setattr(inequalities, "_covariance_numerator", lambda sums: 1)
        built = self.reports(monkeypatch)
        report = check_quadratic(base, {2, 3}, 2, r, s)
        assert report is built[-1]
        assert report.kind == "quadratic" and not report.satisfied
        u, v, w = report.values
        assert u > 0 and (v, w) == (-u, -u)
        assert report.witness == witness_json(base.with_coupling({2, 3}, 2),
                                              {"R": r, "S": s, "B": IndexList((2, 3))})
