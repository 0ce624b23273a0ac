"""The package's one brute-force reference: weights, averages, correlation sums.

The Hamiltonian is never materialized: a configuration's weight is the
product of the coupling weights of its satisfied interactions (the empty
product is 1), and the Gibbs probability is that weight over the partition
function.  Everything here recomputes every delta, weight and spin product
from scratch per configuration, entirely in Fractions, and is deliberately
simple.  It reads the ``Model`` directly, never the kernels' compiled plan,
so ``correlation_sum_naive`` stays an independent oracle for the kernels in
``enumeration``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .enumeration import (
    EVERYWHERE,
    EventPredicate,
    NEGATIVE,
    POSITIVE,
    SumResult,
    ZERO,
    _check_event,
)
from .model import Configuration, IndexList, Model, _check_list, _check_range, _site_set

__all__ = [
    "all_configurations",
    "config_weight",
    "correlation_sum_naive",
    "generalized_delta",
    "gibbs_probability",
    "partition_function",
    "sign_class",
    "spin_product",
    "thermal_average",
    "weighted_configurations",
]


def generalized_delta(config: Configuration, sites: Iterable[int]) -> int:
    """1 if all spins at ``sites`` are equal, else 0.

    ``sites`` must contain at least two distinct 1-indexed sites within the
    configuration.
    """
    key = _site_set(sites, "interaction")
    _check_range(len(config), key, "site")
    values = {config.doubled_spins[i - 1] for i in key}
    return 1 if len(values) == 1 else 0


def all_configurations(model: Model) -> Iterator[Configuration]:
    """All ``q**n`` configurations, mixed-radix order with site n fastest."""
    dom = model.domain.doubled_values
    for combo in itertools.product(dom, repeat=model.n):
        yield Configuration(combo)


def config_weight(config: Configuration, model: Model) -> Fraction:
    """Product of the weights of all interactions satisfied by ``config``."""
    model.require_finite()
    model.validate_configuration(config)
    w = Fraction(1)
    spins = config.doubled_spins
    for sites, x in model.interactions.couplings.items():
        it = iter(sites)
        v = spins[next(it) - 1]
        if all(spins[i - 1] == v for i in it):
            w *= x
    return w


def weighted_configurations(model: Model) -> Iterator[tuple[Configuration, Fraction]]:
    """Every ``(configuration, weight)`` pair, in enumeration order.  The
    weight is at least 1 whenever every coupling is."""
    model.require_finite()
    for config in all_configurations(model):
        yield config, config_weight(config, model)


def partition_function(model: Model) -> Fraction:
    """Sum of configuration weights over all of the configuration space."""
    return sum((weight for _config, weight in weighted_configurations(model)), Fraction(0))


def gibbs_probability(config: Configuration, model: Model) -> Fraction:
    return config_weight(config, model) / partition_function(model)


def thermal_average(
    f: Callable[[Configuration], Fraction], model: Model
) -> Fraction:
    """Expectation of ``f`` under the Gibbs probability, in one pass."""
    num = Fraction(0)
    den = Fraction(0)
    for config, weight in weighted_configurations(model):
        num += f(config) * weight
        den += weight
    return num / den


def spin_product(config: Configuration, indices: IndexList) -> Fraction:
    """Product of centered spins over ``indices`` with multiplicity (1 if empty)."""
    _check_list(len(config), indices)
    num = 1
    for i in indices:
        num *= config.doubled_spins[i - 1]
    return Fraction(num, 1 << len(indices))


def sign_class(config: Configuration, indices: IndexList) -> str:
    """Sign of the spin product; zero is only possible for odd ``q``."""
    value = spin_product(config, indices)
    if value > 0:
        return POSITIVE
    if value < 0:
        return NEGATIVE
    return ZERO


def _event_holds(config: Configuration, event: EventPredicate) -> bool:
    if event.sign_constraint is not None:
        if sign_class(config, event.sign_indices) != event.sign_constraint:
            return False
    for sites, bit in event.delta_constraints:
        if generalized_delta(config, sites) != bit:
            return False
    return True


def correlation_sum_naive(
    model: Model, indices: IndexList, event: EventPredicate = EVERYWHERE
) -> SumResult:
    """Reference evaluation: full per-configuration recomputation in Fractions."""
    model.require_finite()
    _check_list(model.n, indices)
    _check_event(model, event)
    total = Fraction(0)
    visited = 0
    matching = 0
    for config in all_configurations(model):
        visited += 1
        if _event_holds(config, event):
            matching += 1
            total += spin_product(config, indices) * config_weight(config, model)
    return SumResult(total, visited, matching, "naive")
