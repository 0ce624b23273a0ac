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

All three read one constraint form, written by ``_compile``: a factor
``(agree, differ)`` on a subset is ``agree`` where the subset's spins all
agree and ``differ`` elsewhere.  A scaled weight ``x_A = num/den`` is
``(num, den)``, a delta constraint with bit b is ``(b, 1 - b)``, and a
weight of 1, the factor 1, is left out of the plan.  Elimination and the
random-cluster kernel multiply a delta's factor in as they do a weight's;
the odometer reads only its ``agree``, the bit, and tests per prefix
whether the subset's spins agreeing equals it.

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
subsets (a weight of 1 joins nothing) and the sum's delta subsets.
``_request_terms`` leaves out a sum with an odd number of odd tables, the
global flip, once per distinct request; ``_compile`` drops a sum odd on a
component, and builds the components only for a sum that the global flip
leaves undecided, once per group and delta pattern.  A request with no sum
left is 0, and a scan with no sum left runs no kernel.
``_zero_by_symmetry`` asks the same of one request, and checks its inputs
as a scan does: a check whose deciding sum it calls zero stops there and
makes no scan (see ``inequalities``).  The rule drops 1,020 of the 1,039
distinct sign-free sums that are zero in the plans of ``sweep --suite all
--trials 100`` at seeds 42, 7 and 3, and 300 of those sweeps' 1,025 scans
run no kernel.

* The odometer walks one configuration per equality class: the weight and
  every delta depend only on which sites agree, not on the values they take
  (the Fortuin-Kasteleyn view).  Its digits are restricted-growth strings
  (site 0 is 0, each later digit at most one above the largest before it),
  so it visits ``sum(S(n, b) for b <= q)`` classes instead of ``q**n``
  configurations, with S the Stirling numbers of the second kind: 2,795
  instead of 65,536 at n=8, q=4.  The walk is depth first over the
  strings' prefixes.  Each subset is decided once per prefix that ends
  just before its highest site: its lower sites share a digit or not, and
  each digit at the highest site then agrees with it or not.  A prefix's
  weight is its parent's times one small factor per group and digit: the
  product of one entry of each decided subset's factor row, the row picked
  by the digit its lower sites share.  So the weights are built by products
  alone, the small factors multiplied in C and the parent's weight once per
  digit.  The last site is not stepped: after each prefix of the other n-1
  sites (715 at n=8, q=4), the sums with the same tables read one cached
  vector of their table products summed over each child class's
  ``q!/(q-b)!`` relabellings, one entry per digit of the last site, and
  each adds its dot product with its group's child weights over the digits
  where its deltas hold (see ``_scan_classes``).
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

* The odometer walks the classes once.  Each group has its own prefix
  weights along that walk, and each family's vector of relabelled sums is
  looked up once per prefix for every sum of every group in that family.
* Elimination keys each weight table by its subset and weight, so groups
  with the same weight on a subset share the table.  Bucket messages are
  memoised by the identities of their input tables, so every bucket that
  the differing weights do not reach is summed once for all groups.
* The random-cluster kernel runs one dynamic program per group, and the
  groups' sums share the block values of their tables.

``correlation_sums`` is the one-group case.

A scan binds only its weights and its delta constraints.  What depends on
the hypergraph, ``q`` and the lists alone is kept in five memos
(``functools.lru_cache``, each bounded by a module constant, least recently
used entry evicted first), so later scans of the same hypergraph reuse it.

* ``_structure``, keyed by ``(n, q, subset_sites)``, at most
  ``_STRUCTURE_MEMO`` entries: the watched subsets by their highest site,
  with getters of their lower sites, the elimination order and its cost,
  ``_eliminate``'s index-map getters by ``(scope, joint)``, and, once an
  odometer scan has completed it, the walk: the common digits of every
  decided subset's lower sites at every prefix, one byte each.
  ``_compile`` lists the watched subsets by size and then by sites,
  interactions and event subsets alike, so a subset takes the same place
  whether it is weighted or not.
* ``_family_cache``, keyed by ``(q, tables)``, at most ``_FAMILY_MEMO``
  entries: the odometer's vectors of relabelled sums of a family of sums
  with those per-site tables, by vector key, which depend on neither the
  weights nor ``n`` nor the sites the tables sit on.
* ``_labelled_sums``, keyed by ``(q, block profile)``, at most
  ``_PROFILE_MEMO`` entries: the sum over the injective labellings of a
  profile's blocks, which those relabelled sums are made of.
* ``_request_terms``, keyed by ``(q, indices, sign kind, sign indices)``,
  at most ``_REQUEST_MEMO`` entries: a request's sign-free sums, as
  per-site tables, before its delta constraints are bound, less those that
  the global flip makes zero.
* ``_site_table``, keyed by ``(q, m, e)``, at most ``_TABLE_MEMO`` entries:
  the per-site table ``u**m * sign(u)**e`` that a site with multiplicity m
  in a list carries, with e, its sign's power, reduced to 0, to 1 if odd
  and to 2 if even and positive, or ``None`` where it is all ones.  Every
  table of every request comes from it, so a miss of ``_request_terms`` is
  a multiplicity count and one lookup per site and sum.

The bounds keep the memos small.  With a walk in each of the 16 structures,
those structures and their scans' family vectors retain 0.2 MB on dense
n=8, q=4 hypergraphs and 7.7 MB on dense n=12, q=3 ones, 7.5 MB of it walks
(all pairs and one triple each, by ``tracemalloc``).  The reuse pays where
one model is checked repeatedly, on 80-90% of the scans of a model file run
through the CLI's commands in turn; a sweep's hypergraphs are mostly new
(183 distinct in 335 scans at seed 42), and 17 of its 36 ``_structure``
lookups hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, permutations
from math import perm, prod
from operator import itemgetter, mul
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

# Entry bounds of the weight-free memos (see the module docstring).
_STRUCTURE_MEMO = 16
_FAMILY_MEMO = 32
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
    hypergraph share one ``_structure``.  A factor ``(agree, differ)`` on a
    subset is ``agree`` where the subset's spins all agree, else
    ``differ``.  ``weight_rows`` holds one row per group: the factor
    ``(numerator, denominator)`` of the group's weight on each subset,
    ``None`` where it has none or weights it 1, which is the factor 1; a
    subset that only such weights name is not watched.  ``scales`` holds
    the product of each group's coupling denominators.  Each of the
    distinct ``sums`` is ``(terms, delta_reqs, group)``: the sum over all
    configurations of the product of the per-site tables ``terms``, the
    delta factors ``delta_reqs``, each ``(subset, b, 1 - b)`` for bit b,
    and the group's scaled weight.  The groups' requests follow one
    another, each ``(combination, divisor)``: an integer combination
    ``((coefficient, sum index), ...)`` of ``sums`` that, divided by
    ``divisor``, gives its scaled sum.
    """

    n: int
    q: int
    subset_sites: tuple[tuple[int, ...], ...]
    weight_rows: tuple[tuple[tuple[int, int] | None, ...], ...]
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
    ``m + e`` is odd.  A sum with an odd number of them is zero by the
    global flip (see ``_zero_by_symmetry``) and is left out here.
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

    terms = [term(c, p) for c, p in powers]
    return tuple([t for t in terms if not t[2].bit_count() % 2]), divisor


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
    same two steps; this is the form a check asks instead of scanning.  It
    checks its inputs as ``_scan`` does, in the same order and with the
    same messages."""
    model.require_finite()
    _check_list(model.n, indices)
    _check_event(model, event)
    combination, _divisor = _request_terms(model.q, indices, event.sign_constraint,
                                           event.sign_indices)
    if not combination:
        return True  # every sum is zero by the global flip
    if not all([odd for _c, _terms, odd in combination]):
        return False  # a sum odd at no site is decided by no flip
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
    share ``n`` and ``q``."""
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
    subset_index = {key: j for j, key in enumerate(keys)}
    q = groups[0][0].q

    weight_rows = tuple([tuple(map(ratios.get, keys)) for ratios in weighted])
    sums: dict[tuple, int] = {}
    compiled_requests = []
    components: dict = {}  # (group, delta pattern) -> blocks, built on first need
    for group, (_model, requests) in enumerate(groups):
        for indices, event in requests:
            delta_reqs = tuple([(subset_index[sites], bit, 1 - bit)
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
    return ScanPlan(groups[0][0].n, q, subset_sites, weight_rows, tuple(sums),
                    tuple(compiled_requests), scales)


@dataclass(eq=False)
class _Structure:
    """What a scan reads of its hypergraph alone.  ``highest`` holds, per
    site, the watched subsets whose highest site it is and, for each, an
    itemgetter of its lower sites and their number, which the odometer
    reads.  Then the elimination order, its estimated cost, and
    ``_eliminate``'s index-map getters by ``(scope, joint)``.  ``walk`` is
    ``None`` until an odometer scan completes: then it holds the common
    digit of every decided subset's lower sites, ``q`` where they differ,
    at every prefix in walk order, one byte each (a tuple where ``q`` does
    not fit a byte), and every later odometer scan reads them back."""

    highest: tuple[tuple[tuple[int, ...], tuple[tuple[itemgetter, int], ...]], ...]
    order: tuple[int, ...]
    cost: int
    getters: dict
    walk: bytes | tuple[int, ...] | None = None


@lru_cache(maxsize=_STRUCTURE_MEMO)
def _structure(n: int, q: int, subset_sites: tuple[tuple[int, ...], ...]) -> _Structure:
    """The structure of the hypergraph ``subset_sites`` on ``n`` sites at ``q``.

    The elimination order is greedy min-degree: the graph joins two sites
    when a watched subset (an interaction or an event's delta subset) holds
    both, and ties go to the lower site index, so the order is
    deterministic.  The cost is the sum over buckets of
    ``q**(bucket scope size)``.
    """
    highest: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for j, sites in enumerate(subset_sites):
        js, gets = highest[sites[-1]]
        js.append(j)
        gets.append((itemgetter(*sites[:-1]), len(sites) - 1))
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
    return _Structure(tuple((tuple(js), tuple(gets)) for js, gets in highest),
                      tuple(order), cost, {})


def _combine(plan: ScanPlan, sums: Sequence[int]) -> list[int]:
    """Every request's scaled sum from the values of the plan's sums."""
    return [sum([c * sums[i] for c, i in combination]) // divisor
            for combination, divisor in plan.requests]


# --- odometer kernel ---------------------------------------------------------


def _block_profile(digits: list[int], terms) -> tuple:
    """The blocks that a family's sites fall in, as a sorted tuple of rows.

    ``digits`` holds a class's digits and ``terms`` the family's
    ``(site, table)`` pairs; sites with equal digits share a block, whose
    row is the product of its sites' tables.  The sums over injective
    labellings depend neither on the labels the blocks carry nor on their
    order, so classes whose blocks have the same rows share them.
    """
    rows: dict[int, tuple[int, ...]] = {}
    for s, tab in terms:
        d = digits[s]
        rows[d] = tuple(map(mul, rows[d], tab)) if d in rows else tab
    return tuple(sorted(rows.values()))


@lru_cache(maxsize=_PROFILE_MEMO)
def _labelled_sums(q: int, profile: tuple) -> int:
    """The sum of the rows' product over the injective labellings of the
    blocks of ``profile`` (see ``_block_profile``)."""
    return sum(prod(map(tuple.__getitem__, profile, labels))
               for labels in permutations(range(q), len(profile)))


@lru_cache(maxsize=_FAMILY_MEMO)
def _family_cache(q: int, tabs: tuple) -> dict:
    """The vectors of relabelled sums of a family with tables ``tabs``, by
    vector key (see ``_scan_classes``), shared by every scan at ``q``."""
    return {}


def _factor_rows(q: int, weighting: tuple) -> tuple[tuple[int, ...], ...]:
    """The factor rows of a subset that the g groups weight ``weighting``,
    one ``(numerator, denominator)`` or ``None`` per group.  Entry
    ``d * g + k`` of row c is group k's factor when the subset's lower sites
    share digit c and its highest site takes digit d: the numerator if
    ``d == c``, else the denominator, and 1 where group k does not weight
    the subset.  The last row, row q, read where the lower sites differ,
    holds the denominators throughout.

    The rows are built per scan, not memoised: a build takes about 2 us on
    a 2-core Xeon VM, and a sweep's drawn weights repeat in only a fifth of
    its subsets."""
    nums = tuple([1 if pair is None else pair[0] for pair in weighting])
    dens = tuple([1 if pair is None else pair[1] for pair in weighting])
    return (*[dens * c + nums + dens * (q - 1 - c) for c in range(q)], dens * q)


def _scan_classes(plan: ScanPlan) -> list[int]:
    """Each of the plan's sums over all ``q**n`` configurations, visiting
    one configuration per equality class.

    The digits are restricted-growth strings: site 0 is 0 and each later
    digit is at most one above the largest before it (and below ``q``), so
    every class of configurations that agree up to relabelling the spin
    values is visited once, at the representative whose b blocks take the
    labels 0..b-1 in order of first appearance.  The weight and the delta
    constraints are the same throughout a class.

    The walk is depth first over the strings' prefixes, without recursion.
    A watched subset is decided at its highest site, whose digit comes
    last: once per prefix before that site the common digit of its lower
    sites is read (q if they differ), and each digit the site can take
    then costs one comparison.  Those digits depend on the hypergraph
    alone: the first scan records them all and stores them as the
    ``_structure``'s walk only when the walk ends, and a later scan of the
    hypergraph reads them back in walk order, calling no getter.  A
    prefix's weight, per group, is its parent's times a factor: the
    numerator of every weighted subset decided at the new site whose lower
    sites share the new digit, and the denominator of every other one.  So
    the scaled weight, the product over the subsets of one or the other,
    is built by products alone.  Each
    weighted subset carries its factor rows (``_factor_rows``), one per
    common digit, each holding every group's factor at every digit; the
    prefix's children come from one C-level product per digit and group
    over the rows its subsets' common digits pick, the parent's weight
    multiplied last.  Only the subsets that some sum's delta factors read
    keep a delta, and a sum counts a class where each of those deltas
    equals its factor's ``agree``, the constraint's bit.

    The last site is not stepped: after each prefix of length n-1, all its
    digits are summed at once.  Sums with the same per-site tables form one
    family, whatever their delta constraints, group and weighting.  Per
    prefix, a family looks up one vector: its product summed over each
    child class's relabellings, one entry per digit of the last site.  A
    sum whose deltas decided at earlier sites all hold adds the C-level dot
    product of its group's child weights with that vector.  A delta decided
    at the last site holds at one digit at most, the common digit c of its
    lower sites (none where c is q), so a sum with such deltas adds only
    the terms of the digits d where each one's ``c == d`` equals its bit.

    A family's vectors live in its ``_family_cache``, which later scans
    with the same tables reuse, on models of any n.  A vector's key is the
    family's digits, -1 at the last site, then the prefix's b: they fix
    every child class's blocks at the family's sites and its number of
    blocks, and so the vector.  On a miss, the entry for a child with b'
    blocks labels only the t blocks the family's sites touch, and each
    labelling extends to the untouched blocks in ``(q-t)!/(q-b')!`` ways; a
    family that reads no site has the empty profile, whose labelled sum is
    1.  The labelling sums are memoised by the blocks' rows
    (``_labelled_sums``, see ``_block_profile``), which vectors with
    different digits and different families share, so the labelling work
    follows the few distinct block rows rather than the number of site
    patterns.
    """
    n, q, subset_sites, weight_rows, plan_sums, _requests, _scales = plan
    structure = _structure(n, q, subset_sites)
    highest, walk = structure.highest, structure.walk
    last = n - 1
    at_last = {j: i for i, j in enumerate(highest[last][0])}  # subset -> its place there
    # Per delta pattern: (subset, bit) of each delta decided before the last
    # site, and (place at the last site, bit) of each other one.
    splits: dict = {}
    # Sums with the same per-site tables form one family: the getter of its
    # vector keys, its cache and terms, then (index, group, split) of its
    # sums, a sum without deltas split ([], []).
    by_terms: dict = {}
    for si, (terms, delta_reqs, group) in enumerate(plan_sums):
        family = by_terms.get(terms)
        if family is None:
            # digits[last] is -1 and digits[n] the prefix's b while vectors
            # are read, so one itemgetter call reads a vector key.
            tabs = tuple(tab for _s, tab in terms)
            family = by_terms[terms] = (
                itemgetter(*[s for s, _tab in terms], n), _family_cache(q, tabs), terms, [])
        split = splits.get(delta_reqs)
        if split is None:
            earlier, lasts = split = splits[delta_reqs] = [], []
            for j, agree, _differ in delta_reqs:
                if j in at_last:
                    lasts.append((at_last[j], agree))
                else:
                    earlier.append((j, agree))
        family[3].append((si, group, split))
    families = list(by_terms.values())
    accs = [0] * len(plan_sums)

    def vector(terms, b, top):
        """A family's relabelled sums over the children of a prefix with b
        blocks, by the last site's digit."""
        values = []
        for d in range(top):
            digits[last] = d
            profile = _block_profile(digits, terms)
            t = len(profile)
            values.append(_labelled_sums(q, profile) * perm(q - t, b + (d == b) - t))
        digits[last] = -1
        return tuple(values)

    # Each site's decided subsets: their lower-site getters and number,
    # (position, factor rows) of those some group weights, and (position,
    # subset) of those whose delta a sum reads.
    read = {j for _terms, delta_reqs, _group in plan_sums for j, _agree, _differ in delta_reqs}
    weightings = list(zip(*weight_rows))  # per subset, each group's pair or None
    levels = [(gets, len(gets),
               [(i, _factor_rows(q, weightings[j]))
                for i, j in enumerate(js) if any(weightings[j])],
               [(i, j) for i, j in enumerate(js) if j in read])
              for js, gets in highest]
    g = len(weight_rows)
    digits = [0] * last + [-1, 0]
    blocks = [0] * n  # blocks[s]: the number of blocks among digits[:s]
    deltas = [1] * len(subset_sites)
    weights = [1] * len(weight_rows)  # the groups' weights of the prefix digits[:s]
    decided: list = [None] * n  # per site: (commons, children, reads) after digits[:s]
    if walk is None:  # this scan records the walk, and publishes it whole
        entries = bytearray() if q < 256 else []
        record = entries.extend
    at = 0  # where the next prefix's common digits start in the walk

    s = 0
    while True:
        # Enter site s after the prefix digits[:s]: each subset decided here
        # gets the common digit of its lower sites, or q where they differ
        # (a getter of one site returns its digit, of several a tuple).
        gets, width, weighted, reads = levels[s]
        b = blocks[s]
        top = b + 1 if b < q else q  # the digits site s can take: 0..top-1
        if walk is None:
            commons = [v if k == 1 else v[0] if v.count(v[0]) == k else q
                       for get, k in gets for v in (get(digits),)]
            record(commons)
        else:
            commons = walk[at:at + width]
            at += width
        # Entry d * g + k of the products is group k's weight after digit d:
        # the factors of the subsets' rows, each picked by the subset's
        # common digit, multiplied in C, and then the parent's weight.
        products = map(prod, zip(*[rows[commons[i]] for i, rows in weighted], weights * top))
        if s < last:
            children = list(zip(*[iter(products)] * g))  # children[d]: the groups' weights
            decided[s] = commons, children, reads
            d = 0
        else:
            # Every digit of the last site at once: columns[k][d] is group
            # k's weight after digit d, and vec[d] the family's sum there.
            products = tuple(products)
            columns = [products[k::g] for k in range(g)]
            digits[n] = b
            for key_digits, cache, terms, members in families:
                key = key_digits(digits)
                vec = cache.get(key)
                if vec is None:
                    vec = cache[key] = vector(terms, b, top)
                for si, group, (earlier, lasts) in members:
                    for j, agree in earlier:
                        if deltas[j] != agree:
                            break
                    else:
                        column = columns[group]
                        if lasts:  # the digits where every one holds
                            accs[si] += sum([w * v for d, (w, v) in enumerate(zip(column, vec))
                                             if all([(commons[i] == d) == agree
                                                     for i, agree in lasts])])
                        else:
                            accs[si] += sum(map(mul, column, vec))
            # Back to the deepest earlier site with a digit left: a digit is
            # its site's last when it opened a block or is q - 1.
            s -= 1
            while s >= 0 and (digits[s] == blocks[s] or digits[s] == q - 1):
                s -= 1
            if s < 0:
                if walk is None:
                    structure.walk = bytes(entries) if q < 256 else tuple(entries)
                return accs
            commons, children, reads = decided[s]
            b = blocks[s]
            d = digits[s] + 1
        digits[s] = d
        for i, j in reads:
            deltas[j] = commons[i] == d
        weights = children[d]
        blocks[s + 1] = b + (d == b)
        s += 1


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
    factor ``(subset, agree, differ)``, whichever groups give the subset
    that weight and whichever sums carry that delta constraint, and a
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
    subset_sites = plan.subset_sites
    structure = _structure(plan.n, q, subset_sites)
    order, getters = structure.order, structure.getters
    rank = {s: i for i, s in enumerate(order)}.__getitem__

    # Every factor of the scan, with the bucket it waits in, built once and
    # keyed by its source: a subset's factor by ``(j, agree, differ)``, so
    # groups with the same weight there share it, and a site table by its
    # ``(site, table)`` term.
    weight_keys = [tuple([(j, *pair) for j, pair in enumerate(row) if pair is not None])
                   for row in plan.weight_rows]
    factors: dict = {}
    for key in chain(*weight_keys, *[delta_reqs for _terms, delta_reqs, _group in plan.sums]):
        if key not in factors:
            j, agree, differ = key
            sites = subset_sites[j]
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

    return [sum_product((*weight_keys[group], *terms, *delta_reqs))
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

    Every factor ``(agree, differ)`` on a subset A is ``differ + (agree -
    differ) * delta_A``, so a product of factors is a sum over the subsets
    T of its factors of ``prod(agree - differ over T) * prod(differ off T)
    * prod(delta over T)``, and ``prod(delta over T)`` is the indicator
    that every block of the partition T induces is constant.  A dynamic
    program maps each reachable partition to its integer coefficient, one
    factor at a time (``_times_factor``): a group's distribution starts
    from the all-singletons partition at 1 and takes the group's weights,
    and a sum's distribution is its group's after the sum's delta factors.
    A partition's value for the sum's tables is the product over its blocks
    of ``sum(prod(tab[v] for the block's table sites) for v in range(q))``,
    ``q`` for a block without a table site.  Block values are memoised per
    terms and distributions per group and prefix of delta factors, so sums
    that share them compute them once.  No division is left over.
    """
    n, q, subset_sites, weight_rows, plan_sums, _requests, _scales = plan
    masks = [sum([1 << s for s in sites]) for sites in subset_sites]
    singletons = tuple([1 << s for s in range(n)])
    dists: dict = {}  # (group, delta factors) -> distribution
    for group, row in enumerate(weight_rows):
        dist = {singletons: 1}
        for mask, pair in zip(masks, row):
            if pair is not None:
                dist = _times_factor(dist, mask, *pair)
        dists[group, ()] = dist

    def distribution(group, deltas: tuple) -> dict:
        dist = dists.get((group, deltas))
        if dist is None:
            j, agree, differ = deltas[-1]
            dist = dists[group, deltas] = _times_factor(
                distribution(group, deltas[:-1]), masks[j], agree, differ)
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
    subsets that some group weights (``_compile`` leaves out weights of 1),
    and for elimination, its order's cost.  The scan is clustered when its
    estimate is below both that cost and ``q**n``, the configurations the
    odometer's classes stand for; else it runs on elimination when twice
    the cost is below ``q**n``, and on the odometer otherwise.

    The cost needs the hypergraph's ``_structure``.  A scan whose estimate
    is below both ``q**n`` and ``_cost_floor``, a bound on the cost from
    the widest watched subset alone, is clustered without it, as the rule
    would cluster it anyway.  That settles 652 of the 674 clustered scans
    of ``sweep --suite all --trials 100`` at seeds 42, 7 and 3."""
    n, q = plan.n, plan.q
    clusters = len({delta_reqs for _terms, delta_reqs, _group in plan.sums}) << sum(
        [any(pairs) for pairs in zip(*plan.weight_rows)])
    configs = q**n
    if clusters < min(_cost_floor(n, q, plan.subset_sites), configs):
        return "cluster"
    cost = _structure(n, q, plan.subset_sites).cost
    if clusters < min(cost, configs):
        return "cluster"
    # The crossover C in ``C * cost < q**n`` is 2, fitted on replayed plans.
    # Up to a ratio q**n / cost of 1.72 (a sweep's small dense scans, or a
    # dense model that leaves out a pair of weight 1) the odometer is faster
    # in sum, up to 7x on the dense model.  No replayed scan lies between
    # 1.72 and 7.5, a ring's ratio is above 100, and a short chain's about 3,
    # which keeps C below 3.
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
    symmetry, runs none, and the kernel is ``"symmetry"``.
    """
    for model, _requests in groups:
        model.require_finite()
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
