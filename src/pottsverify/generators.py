"""Seeded random instances for the verification sweeps.

Distributions: interaction subsets are drawn uniformly among subsets of
size 2..min(4, n); weights are ``1 + p/d`` with ``d`` uniform in 1..16 and
``p`` uniform in ``0..(x_max-1)*d``; lists draw sites with replacement.
The lattice size is capped so the configuration space stays within
``state_limit``; a q for which even ``n_min`` sites exceed it raises
``ModelError``.  Everything is driven by a caller-supplied
``random.Random``, so a seed fully determines a sweep.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .enumeration import (
    EVERYWHERE,
    EventPredicate,
    NEGATIVE,
    POSITIVE,
    ZERO,
    conjoin,
    delta_event,
    sign_event,
)
from .model import IndexList, InteractionTable, Model, ModelError

__all__ = [
    "random_coupling",
    "random_even_index_list",
    "random_event",
    "random_index_list",
    "random_model",
    "random_site_subset",
]


def random_coupling(rng: random.Random, x_max: int = 10) -> Fraction:
    d = rng.randint(1, 16)
    return Fraction(d + rng.randint(0, (x_max - 1) * d), d)


def random_site_subset(rng: random.Random, n: int, min_size: int = 2, max_size: int | None = None):
    if max_size is None:
        max_size = min(4, n)
    size = rng.randint(min_size, max_size)
    return frozenset(rng.sample(range(1, n + 1), size))


def random_model(
    rng: random.Random,
    n_max: int = 6,
    n_min: int = 1,
    q_set: tuple[int, ...] = (2, 3, 4, 5),
    x_max: int = 10,
    max_interactions: int = 6,
    state_limit: int = 4096,
) -> Model:
    q = rng.choice(q_set)
    n_cap = n_max
    while n_cap > n_min and q**n_cap > state_limit:
        n_cap -= 1
    if q**n_cap > state_limit:
        raise ModelError(
            f"q={q} on n_min={n_min} sites gives {q**n_cap} configurations, "
            f"above the state limit {state_limit}"
        )
    n = rng.randint(n_min, n_cap)
    table: dict[frozenset[int], Fraction] = {}
    if n >= 2:
        for _ in range(rng.randint(0, max_interactions)):
            sites = random_site_subset(rng, n)
            if sites in table:
                continue
            table[sites] = random_coupling(rng, x_max)
    return Model(n, q, InteractionTable(table))


def random_index_list(
    rng: random.Random, n: int, max_len: int = 6, min_len: int = 0
) -> IndexList:
    length = rng.randint(min_len, max_len)
    return IndexList(tuple(rng.randint(1, n) for _ in range(length)))


def random_even_index_list(rng: random.Random, n: int, max_pairs: int = 3) -> IndexList:
    """A list in which every site occurs an even number of times."""
    half = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_pairs)))
    return IndexList(half + half)


def random_event(rng: random.Random, n: int, max_len: int = 4) -> EventPredicate:
    """A random conjunction of sign and delta constraints (possibly empty)."""
    parts = []
    if n >= 2 and rng.random() < 0.6:
        parts.append(delta_event(random_site_subset(rng, n), rng.randint(0, 1)))
        if rng.random() < 0.3:
            parts.append(delta_event(random_site_subset(rng, n), rng.randint(0, 1)))
    if rng.random() < 0.5:
        sign = rng.choice((POSITIVE, NEGATIVE, ZERO))
        parts.append(sign_event(random_index_list(rng, n, max_len), sign))
    if not parts:
        return EVERYWHERE
    return conjoin(*parts)
