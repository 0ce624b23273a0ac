"""Vertex merging: conditioning on all spins of a subset being equal.

Restricting the configuration space to the event "all spins of B agree" is
equivalent to enumerating a smaller model in which B is a single vertex:
couplings meeting B are regrouped onto their residual sites plus the merged
vertex, couplings inside B become a constant front factor, and couplings
disjoint from B are untouched.  The correlation sum over the restricted
event equals the front factor times the full-space correlation sum of the
contracted model.

One walk over the couplings merges every block of a partition of the sites
at once; B alone is the partition whose other blocks are single sites.  The
same construction resolves infinite couplings: an infinitely strong
interaction is exactly a hard constraint that its spins agree, so the
clusters of sites joined by infinite couplings are contracted together,
leaving a finite model whose expectations are the infinite-coupling limit
of the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .enumeration import (EVERYWHERE, _components, _scan, _zero_by_symmetry, correlation_sum,
                          delta_event)
from .model import (
    IndexList,
    InteractionTable,
    Model,
    _check_list,
    _check_range,
    _site_set,
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


def _contract_model(model: Model, block: Mapping[int, int]):
    """Merge every block of sites into one vertex and relabel sites densely.

    ``block`` maps each site to the smallest site of its block.  The new
    labels are dense in the order of those representatives.  Returns
    (contracted model, front factor, old-site -> new-site map over all n
    sites).  A coupling whose sites lie in one block multiplies into the
    front factor; every other coupling regroups onto its blocks' new labels,
    multiplying together on key collisions.
    """
    new_label = {rep: new for new, rep in enumerate(sorted(set(block.values())), start=1)}
    site_map = {old: new_label[block[old]] for old in model.sites}

    front = Fraction(1)
    table: dict[frozenset[int], Fraction] = {}
    for sites, x in model.interactions.items():
        key = frozenset(site_map[i] for i in sites)
        if len(key) == 1:
            front *= x
        elif key in table:
            table[key] *= x
        else:
            table[key] = x
    contracted = Model(len(new_label), model.q, InteractionTable(table))
    return contracted, front, site_map


def contract(model: Model, indices: IndexList, merged_sites: Iterable[int]) -> ContractionResult:
    """Contract ``merged_sites`` to a single vertex, carrying ``indices`` along.

    Entries of ``indices`` inside the merged set map to the merged vertex;
    the list length is preserved.
    """
    merged = _site_set(merged_sites, "merged site set")
    _check_range(model.n, merged, "merged site")
    model.require_finite()
    _check_list(model.n, indices)
    anchor = min(merged)
    block = {i: anchor if i in merged else i for i in model.sites}
    contracted, front, site_map = _contract_model(model, block)
    return ContractionResult(contracted, indices.relabel(site_map), front, site_map)


def check_contraction_identity(
    model: Model, indices: IndexList, merged_sites: Iterable[int]
) -> IdentityCheck:
    """Compare the restricted sum against front factor times contracted sum.

    The left side restricts the original model to the event that all spins
    of the merged set agree; the right side enumerates the contracted model
    over its whole space.  The two are equal exactly.

    Like every model check, it first asks the symmetry rule
    (``_zero_by_symmetry``): of the left side, and when that is zero, of
    the contracted model and list.  When both are zero the identity holds
    at 0 and no scan runs.  Otherwise both sides are scanned, so a
    contraction that broke the rule's agreement still shows as a mismatch.
    The left side is read from the kernel's scaled sum (``_scan``), since
    ``correlation_sum`` would make one more scan to count the event's
    configurations, which the identity does not use.  The right side's
    count is ``q**n`` and costs no scan, so it stays on ``correlation_sum``.
    """
    merged = frozenset(merged_sites)
    # ``contract`` validates the merged set before the rule and the scans do.
    result = contract(model, indices, merged)
    event = delta_event(merged, 1)
    contracted = result.contracted_model, result.contracted_list
    if _zero_by_symmetry(model, indices, event) and _zero_by_symmetry(*contracted):
        return IdentityCheck(Fraction(0), Fraction(0))
    _kernel, [(scale, [acc])] = _scan([(model, [(indices, event)])])
    rhs = result.front_factor * correlation_sum(*contracted).value
    return IdentityCheck(Fraction(acc, scale << len(indices)), rhs)


def resolve_infinite_couplings(
    model: Model, lists: Sequence[IndexList] = ()
) -> ResolvedModel:
    """Contract every cluster of sites joined by infinite couplings.

    The clusters are ``_components`` of the infinite couplings, whose blocks
    ``_merge`` joins, each represented by its smallest site, and one
    contraction merges every cluster at once, relabelling the supplied index
    lists consistently.  Every infinite coupling lies inside one cluster, so
    the discarded front factor is the infinite weights together with any
    finite couplings interior to a cluster; it is constant on the
    conditioned event, so expectations are unchanged.  A model without
    infinite couplings comes back equal, with the identity site map.
    """
    for lst in lists:
        _check_list(model.n, lst)
    block = {i: i for i in model.sites}
    for mask in _components([sites for sites, x in model.interactions.items() if is_infinite(x)],
                            EVERYWHERE):
        smallest = (mask & -mask).bit_length() - 1
        block.update({i: smallest for i in model.sites if mask >> i & 1})
    contracted, _front, site_map = _contract_model(model, block)
    relabeled = tuple(lst.relabel(site_map) for lst in lists)
    return ResolvedModel(contracted, relabeled, model.interactions.has_infinite, site_map)
