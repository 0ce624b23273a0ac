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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .enumeration import (
    EVERYWHERE,
    centered_power_sum,
    correlation_sums,
    delta_event,
    expectation,
)
from .model import EMPTY_LIST, IndexList, Model, ModelError, spin_domain
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
    exactly; ``witness`` serializes the failing instance otherwise.
    """

    kind: str
    inputs: Mapping[str, str]
    values: tuple[Fraction, ...]
    satisfied: bool
    witness: str | None = None

    @property
    def value(self) -> Fraction:
        return self.values[0]


def check_positive_expectation(model: Model, indices: IndexList) -> InequalityReport:
    """First inequality: the thermal average of a spin product is >= 0.

    For odd-length lists the value must additionally be exactly zero.
    """
    value = expectation(model, indices)
    satisfied = value >= 0 and (len(indices) % 2 == 0 or value == 0)
    return InequalityReport(
        kind="theorem1",
        inputs={"n": str(model.n), "q": str(model.q), "s": str(model.interactions.s),
                "R": str(indices)},
        values=(value,),
        satisfied=satisfied,
        witness=None if satisfied else witness_json(model, {"R": indices}),
    )


def _scaled_covariance_and_z(model: Model, r: IndexList, s: IndexList):
    z_rs, z_r, z_s, z = (
        res.value
        for res in correlation_sums(
            model,
            [(r.concat(s), EVERYWHERE), (r, EVERYWHERE), (s, EVERYWHERE),
             (EMPTY_LIST, EVERYWHERE)],
        )
    )
    return z * z_rs - z_r * z_s, z


def scaled_covariance(model: Model, r: IndexList, s: IndexList) -> Fraction:
    """``Z * zeta(RS) - zeta(R) * zeta(S)``, all from one scan."""
    return _scaled_covariance_and_z(model, r, s)[0]


def covariance(model: Model, r: IndexList, s: IndexList) -> Fraction:
    """``<RS> - <R><S>`` for the spin products of the two lists."""
    scaled, z = _scaled_covariance_and_z(model, r, s)
    return scaled / (z * z)


def check_positive_covariance(model: Model, r: IndexList, s: IndexList) -> InequalityReport:
    """Second inequality: the covariance of two spin products is >= 0.

    Parity shortcut: when exactly one of the lists has odd length the
    covariance must be exactly zero.
    """
    value = covariance(model, r, s)
    satisfied = value >= 0
    if (len(r) % 2) != (len(s) % 2):
        satisfied = value == 0
    return InequalityReport(
        kind="theorem2",
        inputs={"n": str(model.n), "q": str(model.q), "s": str(model.interactions.s),
                "R": str(r), "S": str(s)},
        values=(value,),
        satisfied=satisfied,
        witness=None if satisfied else witness_json(model, {"R": r, "S": s}),
    )


# --- power-sum gap family ----------------------------------------------------


def _require_even_positive(m: int, name: str) -> None:
    if m <= 0 or m % 2:
        raise ModelError(f"exponent {name} must be a positive even integer, got {m}")


def power_sum_gap(q: int, a: int, b: int) -> Fraction:
    """``q * psum(a+b) - psum(a) * psum(b)`` over the centered q-state values.

    The per-site quantity that controls the covariance sign on shared
    supports under the uniform measure; nonnegative for every ``q >= 2``.
    """
    _require_even_positive(a, "a")
    _require_even_positive(b, "b")
    return q * centered_power_sum(q, a + b) - centered_power_sum(q, a) * centered_power_sum(q, b)


def check_power_sum_gap_recursion(q: int, a: int, b: int) -> InequalityReport:
    """Verify the two-step recursion for the power-sum gap at ``(q, a, b)``.

    Stepping ``q -> q+2`` adds the pair ``±(q+1)/2`` to the centered domain;
    the gap grows by twice the sum over the old domain of
    ``(h**a - j**a) * (h**b - j**b)`` with ``h = (q+1)/2``.  Every summand is
    strictly positive since ``|j| <= (q-1)/2 < h``, so the family is
    nondecreasing from its base values.
    """
    if q < 2:
        raise ModelError(f"q must be >= 2, got {q}")
    gap = power_sum_gap(q, a, b)
    gap_next = power_sum_gap(q + 2, a, b)
    h = Fraction(q + 1, 2)
    summands = [
        (h**a - j**a) * (h**b - j**b) for j in spin_domain(q).centered_values
    ]
    increment = 2 * sum(summands, Fraction(0))
    satisfied = (
        gap_next == gap + increment
        and all(t > 0 for t in summands)
        and gap >= 0
        and gap_next >= 0
    )
    return InequalityReport(
        kind="xi",
        inputs={"q": str(q), "a": str(a), "b": str(b)},
        values=(gap, gap_next, increment),
        satisfied=satisfied,
        witness=None,
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
        x = Fraction(x)
        return self.u * x * x + self.v * x + self.w


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
    key = frozenset(added_sites)
    x = Fraction(x)
    if key in base_model.interactions.couplings:
        raise ModelError(f"duplicate interaction {sorted(key)}")
    if x < 1:
        raise ModelError(f"added coupling must be >= 1, got {x}")
    base_model.require_finite()

    agree = delta_event(key, 1)
    disagree = delta_event(key, 0)
    rs = r.concat(s)
    requests = [
        (EMPTY_LIST, agree), (EMPTY_LIST, disagree),
        (rs, agree), (rs, disagree),
        (r, agree), (r, disagree),
        (s, agree), (s, disagree),
    ]
    res = correlation_sums(base_model, requests)
    z1, z0, rs1, rs0, r1, r0, s1, s0 = (item.value for item in res)
    u = z1 * rs1 - r1 * s1
    v = z1 * rs0 + z0 * rs1 - r0 * s1 - r1 * s0
    w = z0 * rs0 - r0 * s0
    return QuadraticDecomposition(u, v, w, x, z1, z0)


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
    least 1.
    """
    key = frozenset(added_sites)
    qd = quadratic_decomposition(base_model, key, x, r, s)
    identity_ok = True
    for x_val in [Fraction(x), *map(Fraction, extra_x)]:
        augmented = base_model.with_coupling(key, x_val)
        direct = scaled_covariance(augmented, r, s)
        if qd.value_at(x_val) != direct:
            identity_ok = False
            break
    satisfied = (
        identity_ok and qd.u >= 0 and 2 * qd.u + qd.v >= 0 and qd.u + qd.v + qd.w >= 0
    )
    return InequalityReport(
        kind="quadratic",
        inputs={
            "n": str(base_model.n), "q": str(base_model.q),
            "s": str(base_model.interactions.s),
            "B": ",".join(str(i) for i in sorted(key)), "x": str(qd.x),
            "R": str(r), "S": str(s),
        },
        values=(qd.u, qd.v, qd.w),
        satisfied=satisfied,
        witness=None if satisfied else witness_json(
            base_model.with_coupling(key, x), {"R": r, "S": s}
        ),
    )
