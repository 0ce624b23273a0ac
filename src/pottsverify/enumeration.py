"""The enumeration kernel: exact event-restricted correlation sums.

The central quantity is the *correlation sum* of an index list ``R`` over an
event ``E``: the sum, over configurations in ``E``, of the spin product of
``R`` times the configuration weight.  Over the whole space it equals the
partition function times the thermal average of the spin product.

``correlation_sum`` / ``correlation_sums`` evaluate a scan of requests on one
of three integer-exact kernels, chosen per scan from the plan's shape.  All
three work on the same compiled plan: weights are scaled by the product of
all coupling denominators, spin products by ``2**|R|``, and the two scales
are divided out exactly once at the end, so every kernel yields the same
reduced Fractions.  A kernel returns one integer per distinct sum of the
plan, and ``_scan`` alone combines them into requests.

All three read one factor form, which ``_compile`` writes once into the
plan: a factor ``(sites, agree, differ)`` is ``agree`` where the spins of
``sites`` all agree and ``differ`` elsewhere, that is ``differ + (agree -
differ) * delta``.  A scaled weight ``x_A = num/den`` is ``(A's sites,
num, den)``, a delta constraint with bit b is ``(A's sites, b, 1 - b)``,
and a weight of 1, the factor 1, is left out of the plan.  Every reader
takes the plan's tuples as they are: elimination keys its factor tables
by them, the random-cluster kernel multiplies them in, the dispatch
counts the weighted sites, and the odometer keys its class weights by a
group's weights and its family entries by a sum's deltas, of which it
reads only ``agree``, the bit, marking the classes where the subset's
spins agreeing equals it.

No kernel sees a sign: a request is an exact integer combination of
sign-free sums of per-site table products.  With P the product of the signs
of a sign list's spins and Q = P**2, the indicator of a positive product is
(Q + P)/2, of a negative one (Q - P)/2 and of a zero one 1 - Q.

Zero by symmetry: the centred spin values are symmetric about 0, so flipping
every spin of one connected component of a sum's watched hypergraph, u ->
-u, keeps the weight and every delta constraint, and multiplies a site table
``u**m * sign(u)**e`` by ``(-1)**(m + e)``.  So a sign-free sum whose odd
tables, those with ``m + e`` odd, sit at an odd number of one component's
sites is exactly 0.  The components are those of the group's weighted
subsets (a weight of 1 joins nothing) and the sum's delta subsets.  The
rule is one step: ``_compile`` drops a sum odd on a component, and builds
the components once per group and delta pattern, for the first sum with
an odd table.  The global flip needs no step of its own, since a sum with
an odd number of odd tables is odd on some component.  A request with no
sum left is 0, and a scan with no sum left runs no kernel.
``_zero_by_symmetry`` asks the same of one request, and checks its inputs
as ``_compile`` does: every model check asks it first, and a check whose
deciding sums it calls zero stops there and makes no scan (see
``inequalities`` and ``contraction``).  In the plans of ``sweep --suite
all --trials 100`` at seeds 42, 7 and 3 the rule drops 720 of the 739
distinct sign-free sums that are zero, and all 725 scans run a kernel;
the 775 requests that it calls zero in those sweeps' checks make no scan.

* The odometer walks one configuration per equality class: the weight and
  every delta depend only on which sites agree, not on the values they take
  (the Fortuin-Kasteleyn view).  Its digits are restricted-growth strings
  (site 0 is 0, each later digit at most one above the largest before it),
  so it visits ``sum(S(n, b) for b <= q)`` classes instead of ``q**n``
  configurations, with S the Stirling numbers of the second kind: 2,795
  instead of 65,536 at n=8, q=4.  The walk is breadth first: level s holds
  the strings' prefixes of sites 0..s in order, each prefix's children
  contiguous, and every loop over a level runs in C (``map`` over
  ``bytes`` and arrays).  A subset is decided at the level of its highest
  site s, where it agrees exactly when its other sites are among the
  prefix's *mates*, the earlier sites whose digit equals site s's.  A level has at
  most ``2**s`` distinct mates, and at q > 2 far fewer than prefixes (128
  among the 2,795 classes at n=8, q=4), so per group a level's factor, the
  product of the numerator of every weighted subset decided there that
  agrees and the denominator of every other one, is tabled once per
  distinct mates; a prefix's weight is its parent's times one entry of
  that table.  So the weights are built by products alone, once per
  weighting.  At the last level, where each prefix is a class, a family's
  table products summed over each class's ``q!/(q-b)!`` relabellings take
  few distinct values (3 to 9 over 2,795 classes in ``dense_events``), so
  a sum adds up its group's class weights over the classes of each value
  where its deltas hold and multiplies each total by its value: one
  addition per class and one product per distinct value (see
  ``_scan_classes``).
* Bucket elimination sums the sites out one at a time in a greedy
  min-degree order over the interaction and event subsets.  The factors are
  integer tables: one per subset factor (a scaled weight or a delta
  constraint) and one per site table of the sum.  Its cost is
  about ``sum(q**(bucket size))``, which on a low-width hypergraph such as
  a ring is far below ``q**n``.  A scan's sums share every bucket whose
  inputs are the same (the weight-only buckets, and each bucket before a
  sum's own table or delta factors join in), which is summed once for all
  of them.
* The random-cluster kernel evaluates the Fortuin-Kasteleyn expansion.
  Each factor is ``differ + (agree - differ) * delta_A``, so a product of
  factors is a sum over the subsets of its factors, and each term asks
  only that the spins be constant on the blocks of the partition that its
  subsets induce.  A dynamic program maps each reachable partition, a
  sorted tuple of site bitmasks, to an integer coefficient, one factor at
  a time: a group's weights (under ``x_A >= 1`` both parts are
  nonnegative), then a sum's delta constraints.  It holds at most
  ``min(2**s, reachable partitions)`` entries.  A partition then
  contributes the product over its blocks of the block's table product
  summed over the q values, so no configuration is visited at all.  This
  is an evaluation method for the same sums, not a new result.

Dispatch (``_choose_kernel``) weighs two estimates: for the random-cluster
kernel, ``2**s_w`` times the scan's number of distinct delta patterns, with
``s_w`` the number of subsets that some group weights, and for elimination,
its order's estimated cost.  A scan is clustered when its estimate is below
both that cost and ``q**n``, the configurations that the odometer's classes
stand for.  Else it runs on elimination when twice the cost is below
``q**n``, and on the odometer otherwise, as on a dense interaction graph.
So a scan that weights few subsets is clustered on any hypergraph, while a
large ``s_w`` (a ring's 15 weights, a dense model's 48) keeps a scan on its
other kernel without any cap.  Elimination's cost needs the hypergraph's
``_structure``, and most scans do without it: every site's bucket costs at
least q, and the bucket of the first site of the widest watched subset A to
be eliminated at least ``q**|A|``, so a scan whose cluster estimate is below
both ``q**|A| + (n - 1) * q`` and ``q**n`` is clustered at once, with the
same pick.  ``SumResult`` records which kernel ran.

One scan can bind several weightings of one hypergraph.  A *group* is a
model and its requests; the groups of a scan share ``n`` and ``q``, the scan
watches the union of their subsets, and each group has its own row of
weights and its own scale.  ``check_quadratic`` scans the base model, where
the added set is a delta subset, and every augmented model, where it is an
interaction, in one pass.  The weightings share what does not depend on
the weights:

* The odometer's levels do not depend on the weights.  Each weighting's
  class weights are built along them once, and each family's entry for a
  delta pattern once, for every sum of every group with that family and
  pattern.
* Elimination keys each weight table by its subset and weight, so groups
  with the same weight on a subset share the table.  Bucket messages are
  memoised by the identities of their input tables, so every bucket that
  the differing weights do not reach is summed once for all groups.
* The random-cluster kernel runs one dynamic program per group, and the
  groups' sums share the block values of their tables.

``correlation_sums`` is the one-group case.

A scan binds only its weights and its delta constraints.  What depends on
the hypergraph, ``q`` and the lists alone, and what depends on one
weighting or one family alone, is kept in seven memos
(``functools.lru_cache``, each bounded by a module constant, least recently
used entry evicted first), so later scans of the same hypergraph or model
reuse it; a build cut short by an exception stores nothing.

* ``_structure``, keyed by ``(n, q, subset_sites)``, at most
  ``_STRUCTURE_MEMO`` entries: the elimination order and its cost, and
  ``_eliminate``'s index-map getters by ``(scope, joint)``.  ``_compile``
  lists the watched subsets by size and then by sites, interactions and
  event subsets alike, so a subset takes the same place whether it is
  weighted or not.
* ``_classes``, keyed by ``(n, q)``, at most ``_CLASSES_MEMO`` entries:
  the odometer's levels, each prefix's child count and the place of its
  mates among the level's distinct mates, and at the last level every
  site's digit, every class's number of blocks and the class indices,
  which every family entry's getter shares.
* ``_class_weights``, keyed by ``(n, q, weighted)``, at most
  ``_WEIGHTS_MEMO`` entries: a weighting's scaled weight of every class.
  ``weighted`` is a group's weights in the plan, ``(sites, numerator,
  denominator)`` for each weighted subset, so scans of one model with
  other lists and events, and other event-only subsets, read one entry.
* ``_family_values``, keyed by ``(n, q, terms, deltas)``, at most
  ``_VALUES_MEMO`` entries: the classes where a family's per-site tables
  summed over the class's relabellings are not 0 and every delta factor
  ``(sites, bit, 1 - bit)`` of a sum's ``delta_reqs`` holds, sorted by
  that value, as one ``operator.itemgetter``, and each distinct value with
  its number of classes.  An entry with deltas is the family's delta-free
  entry filtered, and works out no value.
* ``_labelled_sums``, keyed by ``(q, block profile)``, at most
  ``_PROFILE_MEMO`` entries: the sum over the injective labellings of a
  profile's blocks, which a family's values are made of.  A profile names
  neither ``n`` nor the sites, so families on any model share it.
* ``_request_terms``, keyed by ``(q, indices, sign kind, sign indices)``,
  at most ``_REQUEST_MEMO`` entries: a request's sign-free sums, as
  per-site tables, before its delta constraints are bound, zero or not.
* ``_site_table``, keyed by ``(q, m, e)``, at most ``_TABLE_MEMO`` entries:
  the per-site table ``u**m * sign(u)**e`` that a site with multiplicity m
  in a list carries, with e, its sign's power, reduced to 0, to 1 if odd
  and to 2 if even and positive, or ``None`` where it is all ones.  Every
  table of every request comes from it, so a miss of ``_request_terms`` is
  a multiplicity count and one lookup per site and sum.

The bounds keep the memos small.  After odometer scans of 16 hypergraphs,
one scan of three requests each, the memos retain 0.50 MB on dense n=8,
q=4 ones and 15.9 MB on dense n=12, q=3 ones (all pairs and one triple
each, by ``tracemalloc``).  At n=12, q=3, 5.4 MB of that is the one
``_classes`` entry, 3.5 MB of it the class indices, about 4.3 MB each
``_class_weights`` entry, and at most 0.7 MB each ``_family_values``
entry, a reference per class it reads.  The reuse pays where one model
is checked repeatedly: on 80-90% of the scans of a model file run through
the CLI's commands in turn, and in a ``dense_events`` pass.  An odometer
scan looks up both memos once per sum, so a sum can hit what an earlier
sum of its scan built.  In a ``dense_events`` pass 13 of the 15
``_class_weights`` lookups and 11 of the 22 ``_family_values`` lookups
hit (7 of the 22 are a delta entry's read of its family's delta-free
one), and every one in later passes, which look up 15 of each.  A
sweep's hypergraphs are mostly new (134 distinct in 225 scans at seed
42): 2 of its 21 ``_structure`` lookups, 79 of its 126 ``_class_weights``
lookups and 103 of its 175 ``_family_values`` lookups hit, so it builds
47 class weights and 72 family entries.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice, permutations, repeat
from math import perm, prod
from operator import add, eq, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .model import (
    EMPTY_LIST,
    IndexList,
    Model,
    ModelError,
    _check_list,
    _check_range,
    _site_set,
    spin_domain,
)

__all__ = [
    "EVERYWHERE",
    "EventPredicate",
    "NEGATIVE",
    "POSITIVE",
    "SumResult",
    "ZERO",
    "centered_power_sum",
    "conjoin",
    "correlation_sum",
    "correlation_sums",
    "delta_event",
    "expectation",
    "sign_event",
    "uniform_correlation_sum",
]

# Entry bounds of the memos (see the module docstring).
_STRUCTURE_MEMO = 16
_CLASSES_MEMO = 8
# A weights entry holds one integer per class and a family entry one
# reference per class it reads, so n=12, q=3, with 88,574 classes, sets
# their bounds: a weights entry there takes about 4 MB and a family entry
# at most 0.7 MB (see the module docstring).  They still keep all that a
# pass of a dense check reads: two weightings, its model and its
# contraction, and in ``dense_events`` 11 family entries, the 9 (terms,
# deltas) keys its scans read and the delta-free entries of two families
# that only their delta entries read; at 4 entries every pass missed them
# all again.
_WEIGHTS_MEMO = 2
_VALUES_MEMO = 16
_REQUEST_MEMO = 64
_TABLE_MEMO = 128
_PROFILE_MEMO = 256

POSITIVE = "positive"
NEGATIVE = "negative"
ZERO = "zero"
_SIGNS = (POSITIVE, NEGATIVE, ZERO)


@dataclass(frozen=True)
class EventPredicate:
    """A conjunction of constraints selecting a set of configurations.

    ``sign_constraint`` restricts the sign of the spin product of
    ``sign_indices``, an ``IndexList``; each entry of ``delta_constraints``
    pins the equality delta of a site subset to the plain int 0 or 1.  The
    empty predicate selects the whole configuration space.  Unions are
    expressed by summing correlation sums over disjoint conjunctions.
    """

    sign_constraint: str | None = None
    sign_indices: IndexList | None = None
    delta_constraints: tuple[tuple[frozenset[int], int], ...] = ()

    def __post_init__(self) -> None:
        if (self.sign_constraint is None) != (self.sign_indices is None):
            raise ModelError("sign_constraint and sign_indices must be given together")
        if self.sign_constraint is not None and self.sign_constraint not in _SIGNS:
            raise ModelError(f"unknown sign constraint {self.sign_constraint!r}")
        if self.sign_indices is not None and not isinstance(self.sign_indices, IndexList):
            raise ModelError(f"sign indices {self.sign_indices!r} are not an IndexList")
        constraints = []
        for sites, bit in self.delta_constraints:
            key = _site_set(sites, "delta constraint")
            if bit.__class__ is not int or bit not in (0, 1):
                raise ModelError(f"delta constraint bit must be 0 or 1, got {bit!r}")
            constraints.append((key, bit))
        constraints.sort(key=lambda kb: (len(kb[0]), sorted(kb[0]), kb[1]))
        object.__setattr__(self, "delta_constraints", tuple(constraints))


EVERYWHERE = EventPredicate()


def sign_event(indices: IndexList, sign: str) -> EventPredicate:
    """Configurations where the spin product of ``indices`` has the given sign."""
    return EventPredicate(sign_constraint=sign, sign_indices=indices)


def delta_event(sites: Iterable[int], bit: int) -> EventPredicate:
    """Configurations where the spins on ``sites`` are all equal (1) or not (0)."""
    return EventPredicate(delta_constraints=((sites, bit),))


def conjoin(*events: EventPredicate) -> EventPredicate:
    """The conjunction of several predicates (at most one sign constraint)."""
    sign = None
    sign_indices = None
    deltas: list[tuple[frozenset[int], int]] = []
    for ev in events:
        if ev.sign_constraint is not None:
            if sign is not None and (sign, sign_indices) != (ev.sign_constraint, ev.sign_indices):
                raise ModelError("cannot conjoin two different sign constraints")
            sign, sign_indices = ev.sign_constraint, ev.sign_indices
        deltas.extend(ev.delta_constraints)
    return EventPredicate(sign, sign_indices, tuple(deltas))


@dataclass(frozen=True)
class SumResult:
    """An exact correlation sum plus enumeration counters.

    ``kernel`` names the path that computed it: ``"odometer"`` (the
    equality-class walk), ``"elimination"``, ``"cluster"`` (the
    random-cluster expansion), ``"symmetry"`` (no kernel ran: every sum of
    the scan is zero by symmetry, see the module docstring) or ``"naive"``
    (the reference ``gibbs.correlation_sum_naive``).
    ``configs_visited`` is the size of the configuration space, ``q**n``,
    whichever kernel ran and however many classes the odometer visited.
    """

    value: Fraction
    configs_visited: int
    configs_matching: int
    kernel: str


def centered_power_sum(q: int, m: int) -> Fraction:
    """Sum of the m-th powers of the centered spin values.  The values are
    symmetric about 0, so the sum is 0 for odd ``m``."""
    if m.__class__ is not int or m < 0:
        raise ModelError(f"power must be >= 0, got {m}")
    return Fraction(sum(u**m for u in spin_domain(q).doubled_values), 1 << m)


def uniform_correlation_sum(model: Model, indices: IndexList) -> Fraction:
    """Closed-form correlation sum for a model with no active interaction.

    Under the uniform measure the sum factorizes over sites:
    ``q**(free sites)`` times the product of the per-site power sums at each
    multiplicity, which is zero whenever an odd group is present.
    """
    if model.interactions.s != 0:
        raise ModelError(
            f"closed form requires s=0 (all weights 1), model has s={model.interactions.s}"
        )
    _check_list(model.n, indices)
    value = Fraction(model.q) ** (model.n - len(indices.support))
    for site, mult in indices.multiplicity.items():
        value *= centered_power_sum(model.q, mult)
    return value


def _check_event(model: Model, event: EventPredicate) -> None:
    if event.sign_indices is not None:
        _check_list(model.n, event.sign_indices)
    for sites, _bit in event.delta_constraints:
        _check_range(model.n, sites, "event site")


# --- compiled plan -----------------------------------------------------------


class ScanPlan(NamedTuple):
    """The per-scan tables every kernel reads; sites are 0-indexed.

    A plan binds one or more groups, each a model and its requests; the
    groups share ``n`` and ``q``, and the plan watches the union of their
    subsets.  ``subset_sites`` lists the watched subsets: the models'
    interactions and the extra subsets that event constraints name, in one
    canonical order, by size and then by sites.  So a subset takes the same
    place whether it carries a weight or only a delta, and scans on one
    hypergraph share one ``_structure``.  A factor ``(sites, agree,
    differ)`` is ``agree`` where the spins of ``sites`` all agree, else
    ``differ``.  ``weights`` holds one tuple of factors per group, ``(sites,
    numerator, denominator)`` for each subset the group weights, in the
    order of ``subset_sites``; a weight of 1 is the factor 1 and is left
    out, and a subset that only such weights name is not watched.
    ``scales`` holds the product of each group's coupling denominators.
    Each of the distinct ``sums`` is ``(terms, delta_reqs, group)``: the sum
    over all configurations of the product of the per-site tables
    ``terms``, the delta factors ``delta_reqs``, each ``(sites, b, 1 - b)``
    for bit b, and the group's scaled weight.  The kernels and the
    odometer's memos read these factors as they are.  The groups' requests
    follow one another, each ``(combination, divisor)``: an integer
    combination ``((coefficient, sum index), ...)`` of ``sums`` that,
    divided by ``divisor``, gives its scaled sum.
    """

    n: int
    q: int
    subset_sites: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]
    sums: tuple
    requests: tuple
    scales: tuple[int, ...]


@lru_cache(maxsize=_TABLE_MEMO)
def _site_table(q: int, m: int, e: int) -> tuple[int, ...] | None:
    """The per-site table ``u**m * sign(u)**e`` over the doubled spin values
    u, or ``None`` where it is all ones.  ``e`` is 0, 1 (for any odd power
    of the sign) or 2 (for any even positive one)."""
    table = tuple([u**m * ((u > 0) - (u < 0))**e for u in spin_domain(q).doubled_values])
    return None if table == (1,) * q else table


@lru_cache(maxsize=_REQUEST_MEMO)
def _request_terms(q: int, indices: IndexList, kind: str | None,
                   sign_indices: IndexList | None) -> tuple[tuple, int]:
    """A request's sign-free sums before its delta constraints are bound:
    ``((coefficient, terms, odd), ...)`` and the divisor.

    Each sign constraint is written as sign-free sums (see the module
    docstring): P, the product of the signs, is raised to the power 0, 1 or
    2 in each sum.  A site with multiplicity m in ``indices`` and k in
    ``sign_indices`` then carries ``u**m * sign(u)**e`` with ``e = k * power``.
    The terms are those tables, sorted by site, read from ``_site_table``,
    which drops a table of all ones, as Q's is at every even q.  ``odd`` is
    the bitmask, bit s for site s, of the sites whose table is odd, where
    ``m + e`` is odd, which the symmetry rule reads (see
    ``_zero_by_symmetry``); every sum is returned, zero or not.
    """
    spins = indices.multiplicity
    signs = {} if kind is None else sign_indices.multiplicity
    if kind is None:
        powers, divisor = ((1, 0),), 1  # (coefficient, power of P)
    elif kind == ZERO:
        powers, divisor = ((1, 0), (-1, 2)), 1
    else:
        powers, divisor = ((1, 2), (1 if kind == POSITIVE else -1, 1)), 2
    sites = sorted({*spins, *signs})

    def term(c: int, power: int) -> tuple:
        tables = []
        odd = 0
        for s in sites:
            m = spins.get(s, 0)
            e = signs.get(s, 0) * power
            if (m + e) % 2:
                odd |= 1 << s
            table = _site_table(q, m, e and 2 - e % 2)
            if table is not None:
                tables.append((s - 1, table))
        return c, tuple(tables), odd

    return tuple([term(c, p) for c, p in powers]), divisor


def _components(weighted: Iterable[frozenset], event: EventPredicate) -> list[int]:
    """The connected components of the ``weighted`` subsets and of the
    subsets that ``event``'s delta constraints name, as one bitmask (bit s
    for site s) per component that some subset touches, each subset's mask
    folded in by ``_merge``.  A site in none of them is a component of its
    own."""
    blocks: list[int] = []
    for sites in chain(weighted, [sites for sites, _bit in event.delta_constraints]):
        mask = 0
        for s in sites:
            mask |= 1 << s
        blocks = _merge(blocks, mask)
    return blocks


def _odd_on_a_component(odd: int, blocks: Iterable[int]) -> bool:
    """Whether some component holds an odd number of the odd tables' sites
    ``odd`` (see ``_zero_by_symmetry``): a block of ``blocks``, or a site
    in none of them."""
    for block in blocks:
        if (odd & block).bit_count() % 2:
            return True
        odd &= ~block
    return odd != 0


def _zero_by_symmetry(model: Model, indices: IndexList,
                      event: EventPredicate = EVERYWHERE) -> bool:
    """Whether the symmetry rule makes the correlation sum of ``indices``
    over ``event`` on ``model`` zero: every sign-free sum of the request is
    odd on some component of its watched hypergraph (see the module
    docstring).  ``_compile`` drops the sums the rule calls zero by the
    same step; this is the form a check asks instead of scanning.  It
    checks its inputs as ``_compile`` does, in the same order and with the
    same messages."""
    model.require_finite()
    _check_list(model.n, indices)
    _check_event(model, event)
    combination, _divisor = _request_terms(model.q, indices, event.sign_constraint,
                                           event.sign_indices)
    # A weight of 1 joins nothing, as ``_compile`` leaves it out.
    blocks = _components([key for key, x in model.interactions.couplings.items() if x != 1],
                         event)
    return all([_odd_on_a_component(odd, blocks) for _c, _terms, odd in combination])


def _compile(groups: Sequence[tuple[Model, Sequence[tuple[IndexList, EventPredicate]]]]
             ) -> ScanPlan:
    """Bind each group's weights and its requests' delta constraints to the
    memoised sign-free sums of each request (``_request_terms``), both as
    factors (see ``ScanPlan``); this is the one place that writes them.  A
    weight of 1 is the factor 1 and is left out.  The groups' models must
    share ``n`` and ``q``.  It checks every input it binds: each model is
    finite (``InfiniteCouplingError``) before any weight is read, and then
    each request's list and event."""
    for model, _requests in groups:
        model.require_finite()
    weighted = [{key: x.as_integer_ratio() for key, x in model.interactions.couplings.items()
                 if x != 1} for model, _requests in groups]
    watched = set().union(*weighted)
    for model, requests in groups:
        for indices, event in requests:
            _check_list(model.n, indices)
            _check_event(model, event)
            watched.update([sites for sites, _bit in event.delta_constraints])
    sites_of = {key: tuple(sorted([i - 1 for i in key])) for key in watched}
    keys = sorted(watched, key=lambda key: (len(key), sites_of[key]))
    q = groups[0][0].q

    weights = tuple([tuple([(sites_of[key], *ratios[key]) for key in keys if key in ratios])
                     for ratios in weighted])
    sums: dict[tuple, int] = {}
    compiled_requests = []
    components: dict = {}  # (group, delta pattern) -> blocks, built on first need
    for group, (_model, requests) in enumerate(groups):
        for indices, event in requests:
            delta_reqs = tuple([(sites_of[sites], bit, 1 - bit)
                                for sites, bit in event.delta_constraints])
            combination, divisor = _request_terms(q, indices, event.sign_constraint,
                                                  event.sign_indices)
            live = []
            for c, terms, odd in combination:
                if odd:
                    blocks = components.get((group, delta_reqs))
                    if blocks is None:
                        blocks = _components(weighted[group], event)
                        components[group, delta_reqs] = blocks
                    if _odd_on_a_component(odd, blocks):
                        continue
                live.append((c, sums.setdefault((terms, delta_reqs, group), len(sums))))
            compiled_requests.append((tuple(live), divisor))
    subset_sites = tuple([sites_of[key] for key in keys])
    scales = tuple([prod([den for _num, den in ratios.values()]) for ratios in weighted])
    return ScanPlan(groups[0][0].n, q, subset_sites, weights, tuple(sums),
                    tuple(compiled_requests), scales)


@dataclass(eq=False)
class _Structure:
    """What elimination and dispatch read of a hypergraph alone: the
    elimination order, its estimated cost, and ``_eliminate``'s index-map
    getters by ``(scope, joint)``."""

    order: tuple[int, ...]
    cost: int
    getters: dict


@lru_cache(maxsize=_STRUCTURE_MEMO)
def _structure(n: int, q: int, subset_sites: tuple[tuple[int, ...], ...]) -> _Structure:
    """The structure of the hypergraph ``subset_sites`` on ``n`` sites at ``q``.

    The elimination order is greedy min-degree: the graph joins two sites
    when a watched subset (an interaction or an event's delta subset) holds
    both, and ties go to the lower site index, so the order is
    deterministic.  The cost is the sum over buckets of
    ``q**(bucket scope size)``.  The odometer reads none of it.
    """
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for sites in subset_sites:
        for s in sites:
            neighbours[s].update(sites)
    for s in range(n):
        neighbours[s].discard(s)
    remaining = set(range(n))
    order = []
    cost = 0
    while remaining:
        v = min(remaining, key=lambda s: (len(neighbours[s]), s))
        clique = neighbours[v]
        cost += q ** (len(clique) + 1)
        for s in clique:
            neighbours[s] |= clique
            neighbours[s].discard(s)
            neighbours[s].discard(v)
        remaining.remove(v)
        order.append(v)
    return _Structure(tuple(order), cost, {})


def _combine(plan: ScanPlan, sums: Sequence[int]) -> list[int]:
    """Every request's scaled sum from the values of the plan's sums."""
    return [sum([c * sums[i] for c, i in combination]) // divisor
            for combination, divisor in plan.requests]


# --- odometer kernel ---------------------------------------------------------


def _expand(values: Iterable[int], tops: bytes):
    """Each entry of ``values``, one per prefix of a level, repeated once
    per child of that prefix, as an iterator over the next level."""
    return chain.from_iterable(map(repeat, values, tops))


@lru_cache(maxsize=_CLASSES_MEMO)
def _classes(n: int, q: int) -> tuple[tuple, tuple[bytes, ...], bytes, tuple[int, ...]]:
    """The equality classes of ``n`` sites at ``q``, level by level.

    Level s holds the prefixes of sites 0..s in order; the children of a
    prefix with b blocks are contiguous, one per digit 0..min(b, q-1).  A
    prefix's *mates* are the sites before s whose digit equals site s's, as
    a bitmask (bit t for site t).  For each level s >= 1 this holds the
    child count of every prefix of level s-1, the place of every prefix's
    mates among the level's distinct mates, and those distinct mates,
    sorted; then, at the last level, where each prefix is a class, each
    site's digit, each class's number of blocks and each class's index.
    Digits and block counts are at most n, so they are ``bytes``; a level
    has up to ``2**s`` distinct mates, so the places are an ``array`` of
    ``"I"``.  ``_class_weights`` tables each level's weight factor by its
    distinct mates and reads it through the places; ``_family_values``
    reads the digits, the block counts and the indices."""
    digits, blocks, levels = [b"\0"], b"\1", []
    for _s in range(1, n):
        tops = bytes(map(min, map((1).__add__, blocks), repeat(q)))
        new = bytes(chain.from_iterable(map(range, tops)))
        parents = bytes(_expand(blocks, tops))
        digits = [*[bytes(_expand(d, tops)) for d in digits], new]
        blocks = bytes(map(add, parents, map(eq, new, parents)))
        masks = list(map(sum, zip(*[map(mul, map(eq, d, new), repeat(1 << t))
                                    for t, d in enumerate(digits[:-1])])))
        mates = tuple(sorted(set(masks)))
        places = array("I", map({m: i for i, m in enumerate(mates)}.__getitem__, masks))
        levels.append((tops, places, mates))
    return tuple(levels), tuple(digits), blocks, tuple(range(len(blocks)))


def _agreement(digits: Sequence[bytes], sites: tuple[int, ...], bit: int) -> int:
    """The classes where the delta ``(sites, bit)`` holds, that is where the
    subset's digits all being equal is ``bit``: an int whose big-endian
    bytes, one per class, are 1 there and 0 elsewhere, so that the masks of
    several deltas meet by ``&``.  The sites agree where each one's digit
    XOR the first's is 0, and XOR and OR never carry from one byte into the
    next, so every class is compared at once."""
    size = len(digits[0])
    first = int.from_bytes(digits[sites[0]], "big")
    apart = 0
    for s in sites[1:]:
        apart |= first ^ int.from_bytes(digits[s], "big")
    table = bytes([bit]) + bytes([1 - bit]) * 255
    return int.from_bytes(apart.to_bytes(size, "big").translate(table), "big")


@lru_cache(maxsize=_WEIGHTS_MEMO)
def _class_weights(n: int, q: int, weighted: tuple) -> tuple[int, ...]:
    """A weighting's scaled weight of every class of ``_classes(n, q)``,
    level by level (see ``_scan_classes``).  ``weighted`` is a group's
    weights as the plan holds them, ``(sites, numerator, denominator)`` for
    each subset the group weights; a subset that only an event names has
    the factor 1 and is not in it.

    A subset agrees at a prefix of the level of its highest site exactly
    when the mask of its other sites lies within the prefix's mates.  So
    each level's factor is one product per distinct mates over the subsets
    decided there, all ones at a level that decides none.  It reads no
    memo but ``_classes``."""
    decided: list[list] = [[] for _ in range(n)]
    for sites, num, den in weighted:
        decided[sites[-1]].append((sum([1 << t for t in sites[:-1]]), num, den))
    weights = [1]
    for (tops, places, mates), subsets in zip(_classes(n, q)[0], decided[1:]):
        table = [prod([num if m & low == low else den for low, num, den in subsets])
                 for m in mates]
        weights = list(map(mul, map(table.__getitem__, places), _expand(weights, tops)))
    return tuple(weights)


def _block_profile(digits: tuple[int, ...], tabs: tuple) -> tuple:
    """The blocks that a family's sites fall in, as a sorted tuple of rows.

    ``digits`` holds a class's digits at the family's sites and ``tabs``
    their tables; sites with equal digits share a block, whose row is the
    product of its sites' tables.  The sums over injective labellings
    depend neither on the labels the blocks carry nor on their order, so
    classes whose blocks have the same rows share them.
    """
    rows: dict[int, tuple[int, ...]] = {}
    for d, tab in zip(digits, tabs):
        rows[d] = tuple(map(mul, rows[d], tab)) if d in rows else tab
    return tuple(sorted(rows.values()))


@lru_cache(maxsize=_PROFILE_MEMO)
def _labelled_sums(q: int, profile: tuple) -> int:
    """The sum of the rows' product over the injective labellings of the
    blocks of ``profile`` (see ``_block_profile``)."""
    return sum(prod(map(tuple.__getitem__, profile, labels))
               for labels in permutations(range(q), len(profile)))


@lru_cache(maxsize=_VALUES_MEMO)
def _family_values(n: int, q: int, terms: tuple, deltas: tuple) -> tuple:
    """The classes of ``_classes(n, q)`` that a sum with the per-site tables
    ``terms`` and the delta factors ``deltas``, the sum's ``delta_reqs``,
    each ``(sites, bit, 1 - bit)``, reads, grouped by value: ``(get,
    ((value, count), ...))``.  A class's value is the tables' product
    summed over its relabellings (see ``_scan_classes``).  ``get`` picks
    from any per-class tuple the classes whose value is not 0 and where
    every delta holds, in order of value; the groups give each distinct
    value and its number of classes in that order.

    Without deltas, a value's key is the class's digits at the family's
    sites, then its number of blocks b: they fix the blocks at the family's
    sites and their number, and so the value.  Each distinct key is worked
    out once: the value labels only the t blocks the family's sites touch,
    and each labelling extends to the untouched blocks in ``(q-t)!/(q-b)!``
    ways; a family that reads no site has the empty profile, whose labelled
    sum is 1.  The labelling sums are memoised by the blocks' rows
    (``_labelled_sums``, see ``_block_profile``), which keys with different
    digits, families, n and sites share, so the labelling work follows the
    few distinct block rows rather than the number of site patterns.  The
    classes are then sorted by value, those of value 0 left out, and each
    value's classes counted.

    With deltas, the entry is the family's delta-free entry filtered:
    ``_agreement`` marks the classes where every delta holds, the
    delta-free getter reads those marks in its order, and each group keeps
    the classes marked in it, so no value is worked out and nothing is
    sorted again.  The class indices are read from ``_classes``, so every
    entry's getter holds the same int objects.
    """
    _levels, digits, blocks, classes = _classes(n, q)
    if deltas:
        get, groups = _family_values(n, q, terms, ())
        held = -1
        for sites, bit, _differ in deltas:
            held &= _agreement(digits, sites, bit)
        held = get(held.to_bytes(len(blocks), "big"))
        order = list(compress(get(classes), held))
        counts = iter(held)
        groups = [(value, sum(islice(counts, count))) for value, count in groups]
    else:
        tabs = tuple([tab for _s, tab in terms])
        columns = [digits[s] for s, _tab in terms]
        values = dict.fromkeys(zip(*columns, blocks))
        for key in values:
            profile = _block_profile(key[:-1], tabs)
            t = len(profile)
            values[key] = _labelled_sums(q, profile) * perm(q - t, key[-1] - t)
        per_class = list(map(values.__getitem__, zip(*columns, blocks)))
        order = sorted(compress(classes, per_class), key=per_class.__getitem__)
        groups = sorted(Counter(per_class).items())
    # ``itemgetter`` returns a tuple from two indices or more; a lone class,
    # or none, is read as a slice, which is a tuple too.
    if len(order) > 1:
        get = itemgetter(*order)
    else:
        get = itemgetter(slice(order[0], order[0] + 1) if order else slice(0))
    return get, tuple([(value, count) for value, count in groups if value and count])


def _scan_classes(plan: ScanPlan) -> list[int]:
    """Each of the plan's sums over all ``q**n`` configurations, visiting
    one configuration per equality class.

    The digits are restricted-growth strings: site 0 is 0 and each later
    digit is at most one above the largest before it (and below ``q``), so
    every class of configurations that agree up to relabelling the spin
    values is visited once, at the representative whose b blocks take the
    labels 0..b-1 in order of first appearance.  The weight and the delta
    constraints are the same throughout a class.

    The walk is breadth first, one level of prefixes at a time, and every
    loop over a level's prefixes runs in C.  The levels depend on ``n``
    and ``q`` alone and live in ``_classes``: each prefix's child count,
    and the place of its mates, the sites before the level's site s whose
    digit equals site s's, among the level's distinct mates.  A watched
    subset is decided at the level of its highest site s, and its sites
    all agree exactly when its other sites are among the mates.  A
    prefix's weight, per group, is its parent's times the numerator of
    every weighted subset decided at its level that agrees and the
    denominator of every other one, a product that depends on the prefix's
    mates alone.  So ``_class_weights`` tables it once per distinct mates
    of each level, and a prefix's weight is one entry of that table, read
    through the prefix's place, times its parent's weight, repeated once
    per child.  The scaled weights are built by products alone, once per
    weighting: ``_class_weights`` keeps them by the group's weights in the
    plan, so a scan that differs only in its lists and events reads them
    back.

    At the last level each prefix is a class.  Sums with the same per-site
    tables form one family, whatever their delta constraints, group and
    weighting.  A family takes one value per class, its tables' product
    summed over the class's relabellings, but only a few distinct values.
    ``_family_values`` keeps, per family and delta pattern, the classes
    where the value is not 0 and every delta holds, grouped by value, so a
    sum picks its group's class weights there, adds up each group's and
    multiplies the total by the group's value: one addition per class and
    one product per distinct value.  The entries are keyed by ``(n, q,
    terms, delta_reqs)``, so a later scan with the same tables at the same
    sites and the same deltas reads them back.  Each sum looks up both
    memos once, with the plan's tuples as the keys.
    """
    n, q, _subset_sites, weights, plan_sums, _requests, _scales = plan
    accs = []
    for terms, delta_reqs, group in plan_sums:
        w = _class_weights(n, q, weights[group])
        get, groups = _family_values(n, q, terms, delta_reqs)
        picked = iter(get(w))
        accs.append(sum([value * sum(islice(picked, count)) for value, count in groups]))
    return accs


# --- bucket-elimination kernel ----------------------------------------------


def _agreement_table(q: int, k: int, agree: int, differ: int) -> list[int]:
    """A factor over ``k`` sites: ``agree`` where all spins agree, else ``differ``."""
    size = q**k
    table = [differ] * size
    step = (size - 1) // (q - 1)  # rank of the all-ones assignment
    for d in range(q):
        table[d * step] = agree
    return table


def _index_map(scope: tuple[int, ...], joint: tuple[int, ...], q: int) -> list[int]:
    """The entry of a table over ``scope`` read at every assignment of
    ``joint``, a superset of ``scope``; both are row-major with the last site
    fastest."""
    stride = {}
    step = 1
    for s in reversed(scope):
        stride[s] = step
        step *= q
    index = [0]
    for s in joint:
        offsets = [d * stride.get(s, 0) for d in range(q)]
        index = [i + o for i in index for o in offsets]
    return index


def _eliminate(plan: ScanPlan) -> list[int]:
    """Each of the plan's sums by bucket elimination.

    Sites are summed out in the order of the plan's ``_structure``; each
    ``(scope, table)`` factor waits in the bucket of its first site in that
    order, and a site no factor mentions contributes ``q``.  One context
    serves the whole scan.  Each table is built once: a subset's table per
    factor ``(sites, agree, differ)`` of the plan, whichever groups give the
    subset that weight and whichever sums carry that delta constraint, and a
    site's table per site and table.  A bucket's message is memoised by the
    bucket's position and the identities of its input tables, so sums that
    give a bucket the same inputs share one summation and one message
    object, and so keep sharing downstream, across groups as well.  The getters
    that read a table at a bucket's joint assignments depend only on the
    scopes and ``q``, and live in the plan's ``_structure`` for every later
    scan.  A sum with no factor at all is ``q**n``.

    The integers equal those of ``_scan_classes(plan)``, and so match
    ``correlation_sum_naive``, sign constraints included: the plan holds
    only sign-free sums.  The dispatch sends a scan here when the order's
    estimated cost is below half of ``q**n`` and at most ``2**s_w`` times the
    delta patterns, the cluster estimate (see ``_choose_kernel``).
    """
    q = plan.q
    structure = _structure(plan.n, q, plan.subset_sites)
    order, getters = structure.order, structure.getters
    rank = {s: i for i, s in enumerate(order)}.__getitem__

    # Every factor of the scan, with the bucket it waits in, built once and
    # keyed by its source: a subset's factor by the plan's ``(sites, agree,
    # differ)``, so groups with the same weight there share it, and a site
    # table by its ``(site, table)`` term.
    factors: dict = {}
    for key in chain(*plan.weights, *[delta_reqs for _terms, delta_reqs, _group in plan.sums]):
        if key not in factors:
            sites, agree, differ = key
            table = _agreement_table(q, len(sites), agree, differ)
            factors[key] = (min(map(rank, sites)), (sites, table))
    for terms, _delta_reqs, _group in plan.sums:
        for s, tab in terms:
            factors.setdefault((s, tab), (rank(s), ((s,), tab)))
    messages: dict = {}  # (bucket, input table ids) -> (scope, table)

    def sum_product(keys) -> int:
        """Sum over all configurations of the product of the factors ``keys``."""
        buckets: list[list] = [[] for _ in order]
        for key in keys:
            i, factor = factors[key]
            buckets[i].append(factor)
        total = 1
        for i, bucket in enumerate(buckets):
            if not bucket:
                total *= q
                continue
            inputs = (i, *sorted([id(table) for _scope, table in bucket]))
            message = messages.get(inputs)
            if message is None:
                v = order[i]
                rest = sorted({s for scope, _table in bucket for s in scope} - {v}, key=rank)
                joint = (*rest, v)
                product = None
                for scope, table in bucket:
                    if scope != joint:
                        get = getters.get((scope, joint))
                        if get is None:
                            get = getters[scope, joint] = itemgetter(*_index_map(scope, joint, q))
                        table = get(table)
                    product = table if product is None else list(map(mul, product, table))
                summed = list(map(sum, zip(*[iter(product)] * q)))
                message = messages[inputs] = (tuple(rest), summed)
            scope, table = message
            if scope:
                buckets[rank(scope[0])].append(message)
            else:
                total *= table[0]
        return total

    return [sum_product((*plan.weights[group], *terms, *delta_reqs))
            for terms, delta_reqs, group in plan.sums]


# --- random-cluster kernel ---------------------------------------------------


def _merge(blocks: Iterable[int], mask: int) -> list[int]:
    """``blocks``, disjoint site bitmasks, with every block that meets
    ``mask`` joined with it into one, as a sorted list: the one loop that
    joins blocks.  The cluster DP keys a partition by this list as a
    tuple, and ``_components`` folds subsets through it."""
    joined = mask
    rest = []
    for block in blocks:
        if block & mask:
            joined |= block
        else:
            rest.append(block)
    rest.append(joined)
    rest.sort()
    return rest


def _times_factor(dist: dict, mask: int, agree: int, differ: int) -> dict:
    """``dist`` times the factor ``differ + (agree - differ) * delta`` on the
    subset ``mask``: each partition keeps ``c * differ`` of its coefficient
    c and sends ``c * (agree - differ)`` to itself with the subset's blocks
    merged."""
    out: dict = {}
    for partition, c in dist.items():
        if differ:  # a bit-1 delta keeps nothing unmerged
            out[partition] = out.get(partition, 0) + c * differ
        merged = tuple(_merge(partition, mask))
        out[merged] = out.get(merged, 0) + c * (agree - differ)
    return out


def _cluster(plan: ScanPlan) -> list[int]:
    """Each of the plan's sums by the random-cluster expansion.

    Every factor ``(sites, agree, differ)`` on a subset A is ``differ +
    (agree - differ) * delta_A``, so a product of factors is a sum over the
    subsets T of its factors of ``prod(agree - differ over T) * prod(differ
    off T) * prod(delta over T)``, and ``prod(delta over T)`` is the
    indicator that every block of the partition T induces is constant.  A
    dynamic program maps each reachable partition to its integer
    coefficient, one factor at a time (``_times_factor``), each factor's
    sites read as one bitmask: a group's distribution starts from the
    all-singletons partition at 1 and takes the group's weights, in the
    plan's order, and a sum's distribution is its group's after the sum's
    delta factors.
    A partition's value for the sum's tables is the product over its blocks
    of ``sum(prod(tab[v] for the block's table sites) for v in range(q))``,
    ``q`` for a block without a table site.  Block values are memoised per
    terms and distributions per group and prefix of delta factors, so sums
    that share them compute them once.  No division is left over.
    """
    n, q, subset_sites, weights, plan_sums, _requests, _scales = plan
    masks = {sites: sum([1 << s for s in sites]) for sites in subset_sites}
    singletons = tuple([1 << s for s in range(n)])
    dists: dict = {}  # (group, delta factors) -> distribution
    for group, factors in enumerate(weights):
        dist = {singletons: 1}
        for sites, agree, differ in factors:
            dist = _times_factor(dist, masks[sites], agree, differ)
        dists[group, ()] = dist

    def distribution(group, deltas: tuple) -> dict:
        dist = dists.get((group, deltas))
        if dist is None:
            sites, agree, differ = deltas[-1]
            dist = dists[group, deltas] = _times_factor(
                distribution(group, deltas[:-1]), masks[sites], agree, differ)
        return dist

    blocks: dict = {}  # terms -> {block: value}
    accs = []
    for terms, delta_reqs, group in plan_sums:
        tabs = blocks.get(terms)
        if tabs is None:
            tabs = blocks[terms] = {}
        total = 0
        for partition, c in distribution(group, delta_reqs).items():
            for block in partition:
                v = tabs.get(block)
                if v is None:
                    rows = [tab for s, tab in terms if block >> s & 1]
                    v = tabs[block] = sum(map(prod, zip(*rows))) if rows else q
                c *= v
            total += c
        accs.append(total)
    return accs


# --- dispatch ----------------------------------------------------------------


def _cost_floor(n: int, q: int, subset_sites: tuple[tuple[int, ...], ...]) -> int:
    """A lower bound on ``_structure(n, q, subset_sites).cost`` that needs no
    elimination order.  Every site's bucket costs at least q, and the first
    site of a watched subset A to be eliminated holds A's other sites in its
    bucket, so the cost is at least ``q**max|A| + (n - 1) * q``, and
    ``n * q`` with no watched subset."""
    return q ** max(map(len, subset_sites), default=1) + (n - 1) * q


def _choose_kernel(plan: ScanPlan) -> str:
    """The kernel a scan runs on, from two estimates: for the random-cluster
    kernel, ``2**s_w`` times the distinct delta patterns, with ``s_w`` the
    subsets that some group weights, the union of the ``sites`` of every
    group's weights (``_compile`` leaves out weights of 1), and for
    elimination, its order's cost.  The scan is clustered when its
    estimate is below both that cost and ``q**n``, the configurations the
    odometer's classes stand for; else it runs on elimination when twice
    the cost is below ``q**n``, and on the odometer otherwise.

    The cost needs the hypergraph's ``_structure``.  A scan whose estimate
    is below both ``q**n`` and ``_cost_floor``, a bound on the cost from
    the widest watched subset alone, is clustered without it, as the rule
    would cluster it anyway.  That settles 652 of the 674 clustered scans
    of ``sweep --suite all --trials 100`` at seeds 42, 7 and 3."""
    n, q = plan.n, plan.q
    clusters = len({delta_reqs for _terms, delta_reqs, _group in plan.sums}) << len(
        {sites for factors in plan.weights for sites, _num, _den in factors})
    configs = q**n
    if clusters < min(_cost_floor(n, q, plan.subset_sites), configs):
        return "cluster"
    cost = _structure(n, q, plan.subset_sites).cost
    if clusters < min(cost, configs):
        return "cluster"
    # In the plans that ``tools/kernel_replay.py`` replays, the odometer's
    # picks have q**n / cost at most 1.23, and elimination is fastest on none
    # of them; elimination's picks, a ring's, have it above 130, and it is
    # fastest on each.  Any constant between the two in place of 2 picks the
    # same.
    return "elimination" if 2 * cost < configs else "odometer"


def _scan(groups: Sequence[tuple[Model, Sequence[tuple[IndexList, EventPredicate]]]]
          ) -> tuple[str, list[tuple[int, list[int]]]]:
    """One kernel pass over several weightings of one hypergraph.

    ``groups`` are ``(model, requests)`` pairs whose models share ``n`` and
    ``q``.  Returns the kernel that ran and, per group, its scale (the
    product of its coupling denominators) and each request's scaled sum:
    the request's correlation sum is the scaled sum over
    ``scale << len(indices)``.  The kernel is chosen from the plan's shape
    alone: its hypergraph, weighted subsets and delta patterns (see
    ``_choose_kernel``); a plan left with no sum, every one zero by
    symmetry, runs none, and the kernel is ``"symmetry"``.  ``_compile``
    checks the inputs.
    """
    plan = _compile(groups)
    if plan.sums:
        kernel = _choose_kernel(plan)
        run = {"cluster": _cluster, "elimination": _eliminate, "odometer": _scan_classes}[kernel]
        sums = run(plan)
    else:  # every sum is zero by symmetry
        kernel, sums = "symmetry", []
    values = iter(_combine(plan, sums))
    return kernel, [(scale, list(islice(values, len(requests))))
                    for scale, (_model, requests) in zip(plan.scales, groups)]


def correlation_sums(
    model: Model,
    requests: Sequence[tuple[IndexList, EventPredicate]],
) -> list[SumResult]:
    """Evaluate several (index list, event) correlation sums in one scan.

    The kernel is chosen from the model and the events alone (see the
    module docstring).  A request's matching count is the correlation sum
    of the empty list over its event on the model without interactions:
    ``q**n`` when every event is ``EVERYWHERE``, and else the result of one
    more scan, on ``Model(n, q)``, whose scale is 1.  Only a library caller
    that passes events pays for that scan: the package's checks and the
    CLI call this function on the whole space alone, and read a restricted
    sum from ``_scan``, which counts nothing.
    """
    kernel, [(scale, sums)] = _scan([(model, requests)])
    total = model.configuration_count
    if all([event == EVERYWHERE for _indices, event in requests]):
        counts = [total] * len(requests)
    else:
        empty = [(EMPTY_LIST, event) for _indices, event in requests]
        _kernel, [(_scale, counts)] = _scan([(Model(model.n, model.q), empty)])
    return [
        SumResult(Fraction(acc, scale << len(indices)), total, matching, kernel)
        for (indices, _event), acc, matching in zip(requests, sums, counts)
    ]


def correlation_sum(
    model: Model,
    indices: IndexList,
    event: EventPredicate = EVERYWHERE,
) -> SumResult:
    """Exact sum of spin product times weight over the configurations in ``event``."""
    return correlation_sums(model, [(indices, event)])[0]


def expectation(model: Model, indices: IndexList) -> Fraction:
    """Thermal average of the spin product of ``indices``: full-space
    correlation sum over the partition function, both from a single scan.
    When the symmetry rule makes the sum zero, the average is 0 and no
    scan runs."""
    if _zero_by_symmetry(model, indices):
        return Fraction(0)
    num, den = correlation_sums(model, [(indices, EVERYWHERE), (EMPTY_LIST, EVERYWHERE)])
    return num.value / den.value
