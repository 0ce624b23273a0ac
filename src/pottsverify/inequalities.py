"""Verification layer for the two generalized Griffiths inequalities.

Theorem 1: the thermal average of any spin product is nonnegative (and is
exactly zero for odd-length lists).  Theorem 2: the covariance of two spin
products is nonnegative.  Both are checked in exact arithmetic with no
tolerances; a violation would indicate an engine bug, so failing reports
carry the fully serialized instance as a witness.

The primary computed quantity for Theorem 2 is the scaled covariance
``Z * zeta(RS) - zeta(R) * zeta(S)`` (one division avoided); dividing by
``Z**2`` happens only at the reporting boundary.  The module also carries
the supporting machinery the induction arguments rest on: the power-sum gap
family (with its two-step recursion), the uniform-measure factorization of
the scaled covariance, and the quadratic decomposition of the scaled
covariance in one added coupling weight.

Values stay integers until the report.  The covariance and quadratic checks
read the kernel's integer sums and their scale (``enumeration._scan``), so
a scaled covariance is an integer over ``scale**2 * 2**(|R|+|S|)``; the
power-sum gaps are integers over ``2**(a+b)``, on the doubled spin values.
Comparisons and identities are decided on those integers, and a
``Fraction`` is built only for a value a report or a caller receives.

Every model check first asks the symmetry rule
(``enumeration._zero_by_symmetry``, which checks its inputs as a scan
would) whether its deciding sums are zero, and if so stops there and makes
no scan.  ``contraction.check_contraction_identity`` asks it of both sides;
the three here ask it of one sum:

* ``check_positive_expectation``: ``zeta(R) = 0``, so the value is 0 and Z
  is not needed (``enumeration.expectation``);
* ``check_positive_covariance``, with ``covariance`` and
  ``scaled_covariance``: ``zeta(RS) = 0`` means R or S is odd on that
  component, so ``zeta(R) * zeta(S) = 0`` and the numerator is 0;
* ``check_quadratic``: ``zeta(RS | delta_B = 1) = 0`` on the base model and
  the added set B forces U, V, W and every augmented model's numerator to
  0, so the row holds with values (0, 0, 0).

``quadratic_decomposition`` returns the pieces of Z as well, so it always
scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .enumeration import (
    EVERYWHERE,
    _scan,
    _zero_by_symmetry,
    centered_power_sum,
    delta_event,
    expectation,
)
from .model import (EMPTY_LIST, IndexList, Model, ModelError, _as_coupling, _check_list,
                    spin_domain)
from .serialize import witness_json

__all__ = [
    "InequalityReport",
    "QuadraticDecomposition",
    "check_positive_covariance",
    "check_positive_expectation",
    "check_power_sum_gap_recursion",
    "check_quadratic",
    "covariance",
    "power_sum_gap",
    "quadratic_decomposition",
    "scaled_covariance",
    "uniform_scaled_covariance",
]


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one exact inequality check.

    ``kind`` is one of ``theorem1``, ``theorem2``, ``xi``, ``quadratic``,
    ``contraction``; ``satisfied`` means every required comparison held
    exactly; ``witness`` serializes the failing instance otherwise.  Every
    model check builds its report, and so its witness, with ``_report``; an
    ``xi`` report has no model and no witness.
    """

    kind: str
    values: tuple[Fraction, ...]
    satisfied: bool
    witness: str | None = None

    @property
    def value(self) -> Fraction:
        return self.values[0]


def _report(kind: str, values: tuple[Fraction, ...], satisfied: bool, model: Model,
            lists: dict[str, IndexList]) -> InequalityReport:
    """A model check's report.  Its witness is None when the check is
    satisfied, and otherwise ``model`` serialized with ``lists``, the check's
    inputs, for ``--model`` to replay."""
    return InequalityReport(kind, values, satisfied,
                            None if satisfied else witness_json(model, lists))


def check_positive_expectation(model: Model, indices: IndexList) -> InequalityReport:
    """First inequality: the thermal average of a spin product is >= 0.

    For odd-length lists the value must additionally be exactly zero.
    """
    value = expectation(model, indices)
    satisfied = value >= 0 and (len(indices) % 2 == 0 or value == 0)
    return _report("theorem1", (value,), satisfied, model, {"R": indices})


def _covariance_requests(n: int, r: IndexList, s: IndexList, event=EVERYWHERE) -> list:
    """The four correlation sums of a scaled covariance, restricted to ``event``,
    of two lists on a model with ``n`` sites."""
    _check_list(n, r)
    _check_list(n, s)
    return [(r.concat(s), event), (r, event), (s, event), (EMPTY_LIST, event)]


def _covariance_numerator(sums) -> int:
    """``Z * zeta(RS) - zeta(R) * zeta(S)`` from the kernel integers of
    ``_covariance_requests``, over ``scale**2 * 2**(|R|+|S|)``."""
    rs, r, s, z = sums
    return z * rs - r * s


def _scaled_covariance_and_z(model: Model, r: IndexList, s: IndexList):
    """The numerator's kernel integer, Z's and the scale.  A zero
    ``zeta(RS)`` by symmetry forces ``zeta(R) * zeta(S)`` to 0, so the
    numerator is 0 with no scan, and Z and the scale are left at 1."""
    requests = _covariance_requests(model.n, r, s)
    if _zero_by_symmetry(model, *requests[0]):
        return 0, 1, 1
    _kernel, [(scale, sums)] = _scan([(model, requests)])
    return _covariance_numerator(sums), sums[3], scale


def scaled_covariance(model: Model, r: IndexList, s: IndexList) -> Fraction:
    """``Z * zeta(RS) - zeta(R) * zeta(S)``, all from one scan."""
    numerator, _z, scale = _scaled_covariance_and_z(model, r, s)
    return Fraction(numerator, scale * scale << (len(r) + len(s)))


def covariance(model: Model, r: IndexList, s: IndexList) -> Fraction:
    """``<RS> - <R><S>`` for the spin products of the two lists."""
    numerator, z, _scale = _scaled_covariance_and_z(model, r, s)
    return Fraction(numerator, z * z << (len(r) + len(s)))


def check_positive_covariance(model: Model, r: IndexList, s: IndexList) -> InequalityReport:
    """Second inequality: the covariance of two spin products is >= 0.

    Parity shortcut: when exactly one of the lists has odd length the
    covariance must be exactly zero.
    """
    value = covariance(model, r, s)
    satisfied = value == 0 if len(r) % 2 != len(s) % 2 else value >= 0
    return _report("theorem2", (value,), satisfied, model, {"R": r, "S": s})


# --- power-sum gap family ----------------------------------------------------


def _require_even_positive(m: int, name: str) -> None:
    if m.__class__ is not int or m <= 0 or m % 2:
        raise ModelError(f"exponent {name} must be a positive even integer, got {m}")


def _scaled_power_sum_gap(q: int, a: int, b: int) -> int:
    """``power_sum_gap(q, a, b) * 2**(a+b)``, on the doubled spin values."""
    _require_even_positive(a, "a")
    _require_even_positive(b, "b")
    dom = spin_domain(q).doubled_values

    def psum(m: int) -> int:
        return sum([u**m for u in dom])

    return q * psum(a + b) - psum(a) * psum(b)


def power_sum_gap(q: int, a: int, b: int) -> Fraction:
    """``q * psum(a+b) - psum(a) * psum(b)`` over the centered q-state values.

    The per-site quantity that controls the covariance sign on shared
    supports under the uniform measure; nonnegative for every ``q >= 2``.
    """
    return Fraction(_scaled_power_sum_gap(q, a, b), 1 << (a + b))


def check_power_sum_gap_recursion(q: int, a: int, b: int) -> InequalityReport:
    """Verify the two-step recursion for the power-sum gap at ``(q, a, b)``.

    Stepping ``q -> q+2`` adds the pair ``±(q+1)/2`` to the centered domain;
    the gap grows by twice the sum over the old domain of
    ``(h**a - j**a) * (h**b - j**b)`` with ``h = (q+1)/2``.  Every summand is
    strictly positive since ``|j| <= (q-1)/2 < h``, so the family is
    nondecreasing from its base values.  All of it is decided on integers
    scaled by ``2**(a+b)``, the doubled values' scale.
    """
    gap = _scaled_power_sum_gap(q, a, b)
    gap_next = _scaled_power_sum_gap(q + 2, a, b)
    h = q + 1
    summands = [(h**a - u**a) * (h**b - u**b) for u in spin_domain(q).doubled_values]
    increment = 2 * sum(summands)
    satisfied = (
        gap_next == gap + increment
        and all(t > 0 for t in summands)
        and gap >= 0
        and gap_next >= 0
    )
    scale = 1 << (a + b)
    return InequalityReport(
        kind="xi",
        values=(Fraction(gap, scale), Fraction(gap_next, scale), Fraction(increment, scale)),
        satisfied=satisfied,
    )


def uniform_scaled_covariance(model: Model, r: IndexList, s: IndexList) -> Fraction:
    """Factorized scaled covariance for an s=0 model and even-only lists.

    Splits into a power of ``q`` for the free sites, per-site power sums off
    the shared support, and on the shared support a difference of products
    whose per-site ingredients are the power-sum gaps.  Disjoint supports
    give exactly zero.
    """
    if model.interactions.s != 0:
        raise ModelError(
            f"factorization requires s=0, model has s={model.interactions.s}"
        )
    _check_list(model.n, r)
    _check_list(model.n, s)
    if r.odd_groups or s.odd_groups:
        raise ModelError("factorization requires even-only lists")
    q = model.q
    shared = r.support & s.support
    combined = r.concat(s)
    value = Fraction(q) ** (2 * model.n - len(r.support) - len(s.support))
    for site in sorted(combined.support - shared):
        value *= centered_power_sum(q, combined.multiplicity[site])
    on_shared = Fraction(1)
    base = Fraction(1)
    for site in sorted(shared):
        a = r.multiplicity[site]
        b = s.multiplicity[site]
        pair = centered_power_sum(q, a) * centered_power_sum(q, b)
        on_shared *= power_sum_gap(q, a, b) + pair
        base *= pair
    return value * (on_shared - base)


# --- quadratic decomposition -------------------------------------------------


@dataclass(frozen=True)
class QuadraticDecomposition:
    """Coefficients of the scaled covariance as a quadratic in one new weight.

    Adding an interaction of weight ``x`` on sites ``added`` to the base
    model makes ``Z * zeta(RS) - zeta(R) * zeta(S)`` the polynomial
    ``U*x**2 + V*x + W``, with all coefficients computed on the base model
    from sums restricted by the equality delta of ``added``.  ``z_agree`` /
    ``z_disagree`` are the base partition-function pieces on the two sides
    of that delta.
    """

    u: Fraction
    v: Fraction
    w: Fraction
    x: Fraction
    z_agree: Fraction
    z_disagree: Fraction

    def value_at(self, x) -> Fraction:
        """The polynomial at an added weight, which must be exact, finite and >= 1."""
        x = _as_coupling(x)
        return self.u * x * x + self.v * x + self.w


def _added_coupling(base_model: Model, added_sites: Iterable[int],
                    x) -> tuple[frozenset, Fraction, Model]:
    """The added site set and weight, and the base model with them added,
    which checks the site set as a new interaction of the base model."""
    key = frozenset(added_sites)
    x = _as_coupling(x)
    return key, x, base_model.with_coupling(key, x)


def _decomposition_requests(n: int, key: frozenset, r: IndexList, s: IndexList) -> list:
    """The covariance sums of the base model on each side of the added set's delta."""
    return [*_covariance_requests(n, r, s, delta_event(key, 1)),
            *_covariance_requests(n, r, s, delta_event(key, 0))]


def _coefficients(sums) -> tuple[int, int, int]:
    """``U``, ``V`` and ``W`` from the kernel integers of
    ``_decomposition_requests``, over ``scale**2 * 2**(|R|+|S|)``."""
    rs1, r1, s1, z1, rs0, r0, s0, z0 = sums
    return (z1 * rs1 - r1 * s1,
            z1 * rs0 + z0 * rs1 - r0 * s1 - r1 * s0,
            z0 * rs0 - r0 * s0)


def quadratic_decomposition(
    base_model: Model,
    added_sites: Iterable[int],
    x,
    r: IndexList,
    s: IndexList,
) -> QuadraticDecomposition:
    """Decompose the scaled covariance of ``base + (added_sites, x)``.

    ``added_sites`` must not already carry a coupling in the base model and
    ``x`` must be at least 1.
    """
    key, x, _augmented = _added_coupling(base_model, added_sites, x)
    requests = _decomposition_requests(base_model.n, key, r, s)
    _kernel, [(scale, sums)] = _scan([(base_model, requests)])
    den = scale * scale << (len(r) + len(s))
    u, v, w = (Fraction(c, den) for c in _coefficients(sums))
    return QuadraticDecomposition(u, v, w, x, Fraction(sums[3], scale), Fraction(sums[7], scale))


def check_quadratic(
    base_model: Model,
    added_sites: Iterable[int],
    x,
    r: IndexList,
    s: IndexList,
    extra_x: Iterable = (),
) -> InequalityReport:
    """Check the quadratic decomposition against direct enumeration.

    Verifies the polynomial identity at ``x`` (and any ``extra_x`` values)
    against the augmented model, plus the three coefficient inequalities
    ``U >= 0``, ``2U + V >= 0`` and ``U + V + W >= 0``.  Together these make
    the scaled covariance nondecreasing and nonnegative for every weight at
    least 1.  A failure's witness is the augmented model at ``x``, with the
    added site set as list ``B`` next to ``R`` and ``S``.

    One kernel pass computes the decomposition's sums on the base model and
    each augmented model's covariance sums from its own weights.  With
    ``D = scale**2 * 2**(|R|+|S|)``, ``U``, ``V`` and ``W`` are integers over
    ``D``, and at ``x = p/d`` the augmented model's scaled covariance is an
    integer over ``D * d**2``: ``A_z A_rs - A_r A_s`` with ``A`` its scaled
    sums.  So the identity is the integer equation
    ``U p**2 + V p d + W d**2 == A_z A_rs - A_r A_s``.
    """
    key, x, augmented_model = _added_coupling(base_model, added_sites, x)
    xs = [x, *map(_as_coupling, extra_x)]
    lists = {"R": r, "S": s, "B": IndexList(tuple(key))}
    decomposition = _decomposition_requests(base_model.n, key, r, s)
    if _zero_by_symmetry(base_model, *decomposition[0]):
        # zeta(RS | delta_B = 1) is zero by symmetry on base and B, so R or
        # S is odd on that component: U, V, W and every augmented numerator
        # are 0.
        return _report("quadratic", (Fraction(0),) * 3, True, augmented_model, lists)
    direct = _covariance_requests(base_model.n, r, s)
    _kernel, [(scale, sums), *augmented] = _scan([
        (base_model, decomposition),
        (augmented_model, direct),
        *[(base_model.with_coupling(key, x_val), direct) for x_val in xs[1:]],
    ])
    u, v, w = _coefficients(sums)
    identity_ok = all(
        u * p * p + v * p * d + w * d * d == _covariance_numerator(direct_sums)
        for (p, d), (_scale, direct_sums) in zip(map(Fraction.as_integer_ratio, xs), augmented)
    )
    satisfied = identity_ok and u >= 0 and 2 * u + v >= 0 and u + v + w >= 0
    den = scale * scale << (len(r) + len(s))
    return _report("quadratic", (Fraction(u, den), Fraction(v, den), Fraction(w, den)),
                   satisfied, augmented_model, lists)
