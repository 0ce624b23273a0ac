"""Vertex merging: conditioning on all spins of a subset being equal.

Restricting the configuration space to the event "all spins of B agree" is
equivalent to enumerating a smaller model in which B is a single vertex:
couplings meeting B are regrouped onto their residual sites plus the merged
vertex, couplings inside B become a constant front factor, and couplings
disjoint from B are untouched.  The correlation sum over the restricted
event equals the front factor times the full-space correlation sum of the
contracted model.

The same construction resolves infinite couplings: an infinitely strong
interaction is exactly a hard constraint that its spins agree, so clusters
of sites joined by infinite couplings are contracted away, leaving a finite
model whose expectations are the infinite-coupling limit of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .enumeration import _check_indices, correlation_sum, delta_event
from .model import (
    IndexList,
    InteractionTable,
    Model,
    ModelError,
    is_infinite,
)

__all__ = [
    "ContractionResult",
    "IdentityCheck",
    "ResolvedModel",
    "contract",
    "check_contraction_identity",
    "resolve_infinite_couplings",
]


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of merging a site subset into its smallest member."""

    contracted_model: Model
    contracted_list: IndexList
    front_factor: Fraction
    site_map: Mapping[int, int]


@dataclass(frozen=True)
class IdentityCheck:
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class ResolvedModel:
    """A model with all infinite couplings contracted away."""

    model: Model
    lists: tuple[IndexList, ...]
    front_factor_discarded: bool
    site_map: Mapping[int, int]


def _contract_model(model: Model, merged: frozenset[int]):
    """Merge ``merged`` into its smallest member and relabel sites densely.

    Returns (contracted model, finite front factor, old-site -> new-site map
    over all n sites).  Couplings inside ``merged`` multiply into the front
    factor; couplings meeting it regroup onto residual sites plus the merged
    vertex, multiplying together on key collisions.
    """
    anchor = min(merged)
    kept = sorted((set(model.sites) - merged) | {anchor})
    new_label = {old: new for new, old in enumerate(kept, start=1)}
    site_map = {old: new_label[anchor if old in merged else old] for old in model.sites}

    front = Fraction(1)
    table: dict[frozenset[int], Fraction] = {}
    for sites, x in model.interactions.items():
        if sites <= merged:
            front *= x
            continue
        key = frozenset(site_map[i] for i in sites)
        table[key] = table.get(key, Fraction(1)) * x
    contracted = Model(len(kept), model.q, InteractionTable(table))
    return contracted, front, site_map


def contract(model: Model, indices: IndexList, merged_sites: Iterable[int]) -> ContractionResult:
    """Contract ``merged_sites`` to a single vertex, carrying ``indices`` along.

    Entries of ``indices`` inside the merged set map to the merged vertex;
    the list length is preserved.
    """
    merged = frozenset(merged_sites)
    if len(merged) < 2:
        raise ModelError(f"merged site set must contain at least 2 sites, got {set(merged)}")
    if not merged <= set(model.sites):
        raise ModelError(f"merged sites {sorted(merged)} not within 1..{model.n}")
    model.require_finite()
    _check_indices(model, indices)
    contracted, front, site_map = _contract_model(model, merged)
    return ContractionResult(contracted, indices.relabel(site_map), front, site_map)


def check_contraction_identity(
    model: Model, indices: IndexList, merged_sites: Iterable[int]
) -> IdentityCheck:
    """Compare the restricted sum against front factor times contracted sum.

    The left side restricts the original model to the event that all spins
    of the merged set agree; the right side enumerates the contracted model
    over its whole space.  The two are equal exactly.
    """
    merged = frozenset(merged_sites)
    lhs = correlation_sum(model, indices, delta_event(merged, 1)).value
    result = contract(model, indices, merged)
    rhs = (
        result.front_factor
        * correlation_sum(result.contracted_model, result.contracted_list).value
    )
    return IdentityCheck(lhs, rhs)


def resolve_infinite_couplings(
    model: Model, lists: Sequence[IndexList] = ()
) -> ResolvedModel:
    """Contract every cluster of sites joined by infinite couplings.

    Union-find joins the sites of each infinite coupling; each resulting
    cluster is contracted in turn, with the supplied index lists relabeled
    consistently.  The discarded front factor is the infinite weight itself
    together with any finite couplings interior to a cluster; it is constant
    on the conditioned event, so expectations are unchanged.  Models without
    infinite couplings pass through untouched.
    """
    parent = {i: i for i in model.sites}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    infinite_keys = [
        sites for sites, x in model.interactions.items() if is_infinite(x)
    ]
    for sites in infinite_keys:
        ordered = sorted(sites)
        root = find(ordered[0])
        for i in ordered[1:]:
            parent[find(i)] = root

    clusters: dict[int, set[int]] = {}
    for i in model.sites:
        clusters.setdefault(find(i), set()).add(i)
    merged_clusters = sorted(
        (c for c in clusters.values() if len(c) > 1), key=min
    )

    identity = {i: i for i in model.sites}
    if not merged_clusters:
        return ResolvedModel(model, tuple(lists), False, identity)

    finite_table = {
        sites: x for sites, x in model.interactions.items() if not is_infinite(x)
    }
    current = Model(model.n, model.q, InteractionTable(finite_table))
    combined_map = identity
    for cluster in merged_clusters:
        merged_now = frozenset(combined_map[i] for i in cluster)
        current, _front, step_map = _contract_model(current, merged_now)
        combined_map = {old: step_map[new] for old, new in combined_map.items()}
    relabeled = tuple(lst.relabel(combined_map) for lst in lists)
    return ResolvedModel(current, relabeled, True, combined_map)
