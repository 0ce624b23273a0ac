"""The enumeration kernel: exact event-restricted correlation sums.

The central quantity is the *correlation sum* of an index list ``R`` over an
event ``E``: the sum, over configurations in ``E``, of the spin product of
``R`` times the configuration weight.  Over the whole space it equals the
partition function times the thermal average of the spin product.

``correlation_sum`` / ``correlation_sums`` evaluate a scan of requests on one
of two integer-exact kernels, chosen per scan from the model's structure.
Both work on the same compiled plan: weights are scaled by the product of
all coupling denominators, spin products by ``2**|R|``, and the two scales
are divided out exactly once at the end, so either kernel yields the same
reduced Fractions.

* The odometer walks one configuration per equality class: the weight and
  every delta depend only on which sites agree, not on the values they take
  (the Fortuin-Kasteleyn view).  Its digits are restricted-growth strings
  (site 0 is 0, each later digit at most one above the largest before it),
  so it visits ``sum(S(n, b) for b <= q)`` classes instead of ``q**n``
  configurations, with S the Stirling numbers of the second kind: 2,795
  instead of 65,536 at n=8, q=4.  On each single-site step only the
  subsets containing that site re-evaluate their delta, and the weight is
  maintained multiplicatively.  Each request's spin-power sum and matching
  count over a class's ``q!/(q-b)!`` relabellings come from a per-scan
  cache keyed by the number of blocks b and the digits at the request's
  list and sign sites, so sign events are filtered there too.  Requests
  with the same list and sign sites share that cache, and a miss labels
  only the blocks those sites touch, reusing the sums of any earlier miss
  whose blocks had the same spin-power rows.
  ``_scan_chunk``, the walk over all ``q**n`` configuration ranks, is kept
  as the reference the class walk is tested against.
* Bucket elimination sums the sites out one at a time in a greedy
  min-degree order over the interaction and event subsets.  The factors are
  integer tables: one per interaction (the scaled weight), one per site of
  the request's list (its spin power), and a 0/1 indicator per delta
  constraint.  Its cost is about ``sum(q**(bucket size))``, which on a
  low-width hypergraph such as a ring is far below ``q**n``.  A scan's
  requests share every bucket whose inputs are the same (the weight-only
  buckets, and each bucket before a request's own list or delta factors
  join in), which is summed once for all of them, and the matching counts
  are computed once per distinct set of delta constraints.

Dispatch: a scan is eliminated when none of its requests has a sign
constraint and the elimination order's estimated cost is below ``q**n``;
every other scan, including every sign-constrained one and every one on a
complete interaction graph, runs on the odometer.  ``SumResult``
records which kernel ran.

``correlation_sum_naive`` is the reference path, kept permanently as the
test oracle.  It recomputes every delta, the full weight product, and the
spin product from scratch for each configuration, entirely in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import perm, prod
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .gibbs import all_configurations, config_weight, generalized_delta
from .model import (
    Configuration,
    EMPTY_LIST,
    IndexList,
    Model,
    ModelError,
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
    "correlation_sum_naive",
    "correlation_sums",
    "delta_event",
    "expectation",
    "sign_class",
    "sign_event",
    "spin_product",
    "uniform_correlation_sum",
]

POSITIVE = "positive"
NEGATIVE = "negative"
ZERO = "zero"
_SIGNS = (POSITIVE, NEGATIVE, ZERO)


@dataclass(frozen=True)
class EventPredicate:
    """A conjunction of constraints selecting a set of configurations.

    ``sign_constraint`` restricts the sign of the spin product of
    ``sign_indices``; each entry of ``delta_constraints`` pins the equality
    delta of a site subset to 0 or 1.  The empty predicate selects the whole
    configuration space.  Unions are expressed by summing correlation sums
    over disjoint conjunctions.
    """

    sign_constraint: str | None = None
    sign_indices: IndexList | None = None
    delta_constraints: tuple[tuple[frozenset[int], int], ...] = ()

    def __post_init__(self) -> None:
        if (self.sign_constraint is None) != (self.sign_indices is None):
            raise ModelError("sign_constraint and sign_indices must be given together")
        if self.sign_constraint is not None and self.sign_constraint not in _SIGNS:
            raise ModelError(f"unknown sign constraint {self.sign_constraint!r}")
        constraints = []
        for sites, bit in self.delta_constraints:
            key = frozenset(sites)
            if len(key) < 2:
                raise ModelError(f"delta constraint {set(sites) or '{}'} needs >= 2 sites")
            if bit not in (0, 1):
                raise ModelError(f"delta constraint bit must be 0 or 1, got {bit!r}")
            constraints.append((key, bit))
        constraints.sort(key=lambda kb: (len(kb[0]), sorted(kb[0]), kb[1]))
        object.__setattr__(self, "delta_constraints", tuple(constraints))

    @property
    def is_everywhere(self) -> bool:
        return self.sign_constraint is None and not self.delta_constraints


EVERYWHERE = EventPredicate()


def sign_event(indices: IndexList, sign: str) -> EventPredicate:
    """Configurations where the spin product of ``indices`` has the given sign."""
    return EventPredicate(sign_constraint=sign, sign_indices=indices)


def delta_event(sites: Iterable[int], bit: int) -> EventPredicate:
    """Configurations where the spins on ``sites`` are all equal (1) or not (0)."""
    return EventPredicate(delta_constraints=((frozenset(sites), bit),))


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
    equality-class walk), ``"elimination"`` or ``"naive"``.
    ``configs_visited`` is the size of the configuration space, ``q**n``,
    whichever kernel ran and however many classes the odometer visited.
    """

    value: Fraction
    configs_visited: int
    configs_matching: int
    kernel: str


def spin_product(config: Configuration, indices: IndexList) -> Fraction:
    """Product of centered spins over ``indices`` with multiplicity (1 if empty)."""
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


def centered_power_sum(q: int, m: int) -> Fraction:
    """Sum of the m-th powers of the centered spin values (0 for odd ``m``)."""
    if m < 0:
        raise ModelError(f"power must be >= 0, got {m}")
    if m % 2:
        return Fraction(0)
    dom = spin_domain(q)
    return Fraction(sum(u**m for u in dom.doubled_values), 1 << m)


def uniform_correlation_sum(model: Model, indices: IndexList) -> Fraction:
    """Closed-form correlation sum for a model with no active interaction.

    Under the uniform measure the sum factorizes over sites: zero whenever
    an odd group is present, otherwise ``q**(free sites)`` times the product
    of the per-site power sums at each even multiplicity.
    """
    if model.interactions.s != 0:
        raise ModelError(
            f"closed form requires s=0 (all weights 1), model has s={model.interactions.s}"
        )
    _check_indices(model, indices)
    if indices.odd_groups:
        return Fraction(0)
    value = Fraction(model.q) ** (model.n - len(indices.support))
    for site, mult in indices.multiplicity.items():
        value *= centered_power_sum(model.q, mult)
    return value


def _check_indices(model: Model, indices: IndexList) -> None:
    for i in indices:
        if i > model.n:
            raise ModelError(f"list entry {i} out of range 1..{model.n}")


def _check_event(model: Model, event: EventPredicate) -> None:
    if event.sign_indices is not None:
        _check_indices(model, event.sign_indices)
    for sites, _bit in event.delta_constraints:
        for i in sites:
            if i > model.n:
                raise ModelError(f"event site {i} out of range 1..{model.n}")


# --- compiled plan -----------------------------------------------------------


class ScanPlan(NamedTuple):
    """The per-scan tables both kernels read; sites are 0-indexed.

    ``subset_sites`` lists the model's interactions first (``weight_pairs``
    holds their ``(numerator, denominator)``), then the extra subsets that
    event constraints name (``None`` in ``weight_pairs``).  Each request is
    ``(terms, delta_reqs, sign_kind, sign_terms)``: per-site spin-power
    tables of its list, ``(subset, bit)`` delta constraints, and the sign
    constraint with the spin-power tables of its list.  ``scale`` is the
    product of all coupling denominators.
    """

    n: int
    q: int
    subset_sites: tuple[tuple[int, ...], ...]
    weight_pairs: tuple[tuple[int, int] | None, ...]
    site_subsets: tuple[tuple[int, ...], ...]
    requests: tuple
    scale: int


def _compile(model: Model, requests: Sequence[tuple[IndexList, EventPredicate]]) -> ScanPlan:
    """Precompute the per-scan tables shared by all chunks."""
    n, q = model.n, model.q
    dom = spin_domain(q).doubled_values

    # Watched subsets: the model's interactions first (they carry weight
    # factors), then any extra subsets referenced by event constraints.
    subset_index: dict[frozenset[int], int] = {}
    subset_sites: list[tuple[int, ...]] = []
    weight_pairs: list[tuple[int, int] | None] = []

    def watch(key: frozenset[int]) -> int:
        idx = subset_index.get(key)
        if idx is None:
            idx = len(subset_sites)
            subset_index[key] = idx
            subset_sites.append(tuple(sorted(i - 1 for i in key)))
            weight_pairs.append(None)
        return idx

    denominator_scale = 1
    for sites, x in model.interactions.items():
        j = watch(sites)
        frac = Fraction(x)
        weight_pairs[j] = (frac.numerator, frac.denominator)
        denominator_scale *= frac.denominator

    def pow_tables(indices: IndexList) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return tuple(
            (site - 1, tuple(dom[d] ** mult for d in range(q)))
            for site, mult in sorted(indices.multiplicity.items())
        )

    compiled_requests = []
    for indices, event in requests:
        _check_indices(model, indices)
        _check_event(model, event)
        sign_terms = None
        if event.sign_indices is not None:
            sign_terms = pow_tables(event.sign_indices)
        delta_reqs = tuple(
            (watch(sites), bit) for sites, bit in event.delta_constraints
        )
        compiled_requests.append(
            (pow_tables(indices), delta_reqs, event.sign_constraint, sign_terms)
        )

    site_subsets: list[tuple[int, ...]] = [
        tuple(j for j, sites in enumerate(subset_sites) if s in sites) for s in range(n)
    ]
    return ScanPlan(
        n,
        q,
        tuple(subset_sites),
        tuple(weight_pairs),
        tuple(site_subsets),
        tuple(compiled_requests),
        denominator_scale,
    )


# --- odometer kernel ---------------------------------------------------------


def _scan_chunk(plan: ScanPlan, lo: int, hi: int) -> list[tuple[int, int]]:
    """Accumulate every request over configuration ranks [lo, hi)."""
    n, q, subset_sites, weight_pairs, site_subsets, requests, _scale = plan
    accs = [0] * len(requests)
    matches = [0] * len(requests)
    if hi <= lo:
        return list(zip(accs, matches))

    digits = [0] * n
    r = lo
    for s in range(n - 1, -1, -1):
        digits[s] = r % q
        r //= q

    deltas = []
    for sites in subset_sites:
        v = digits[sites[0]]
        deltas.append(1 if all(digits[t] == v for t in sites[1:]) else 0)
    weight = 1
    for j, pair in enumerate(weight_pairs):
        if pair is not None:
            weight *= pair[0] if deltas[j] else pair[1]

    for rank in range(lo, hi):
        for ri, (terms, delta_reqs, sign_kind, sign_terms) in enumerate(requests):
            ok = True
            for j, bit in delta_reqs:
                if deltas[j] != bit:
                    ok = False
                    break
            if ok and sign_kind is not None:
                sp = 1
                for s, tab in sign_terms:
                    sp *= tab[digits[s]]
                if sign_kind == POSITIVE:
                    ok = sp > 0
                elif sign_kind == NEGATIVE:
                    ok = sp < 0
                else:
                    ok = sp == 0
            if ok:
                matches[ri] += 1
                v = weight
                for s, tab in terms:
                    v *= tab[digits[s]]
                accs[ri] += v
        if rank + 1 == hi:
            break
        # Odometer step: site n-1 fastest; rolled-over sites reset to 0.
        s = n - 1
        while True:
            d = digits[s] + 1
            carry = d == q
            digits[s] = 0 if carry else d
            for j in site_subsets[s]:
                sites = subset_sites[j]
                v = digits[sites[0]]
                nd = 1 if all(digits[t] == v for t in sites[1:]) else 0
                if nd != deltas[j]:
                    deltas[j] = nd
                    pair = weight_pairs[j]
                    if pair is not None:
                        p, qd = pair
                        weight = weight * p // qd if nd else weight * qd // p
            if not carry:
                break
            s -= 1
    return list(zip(accs, matches))


# Where a sign kind's ``(sum, count)`` pair sits in a signed family's sums.
_SIGN_SLOT = {POSITIVE: 0, NEGATIVE: 2, ZERO: 4}


def _block_profile(q: int, values: tuple[int, ...], list_tabs, sign_tabs) -> tuple:
    """The blocks that a family's sites fall in, as a sorted tuple of rows.

    ``values`` holds the digits at the family's list sites, then at its sign
    sites, and sites with equal digits share a block.  ``list_tabs`` holds
    the list sites' spin-power tables and ``sign_tabs`` the signs of the
    sign sites' tables.  A block's row is the product of its list sites'
    tables, paired with the product of its sign rows when ``sign_tabs`` is
    given.  The sums over injective labellings depend neither on the labels
    the blocks carry nor on their order, so classes whose blocks have the
    same rows share them.
    """
    rows: dict[int, tuple[int, ...]] = {}
    for d, tab in zip(values, list_tabs):
        rows[d] = tuple(map(mul, rows[d], tab)) if d in rows else tab
    if sign_tabs is None:
        return tuple(sorted(rows.values()))
    signs: dict[int, tuple[int, ...]] = {}
    for d, tab in zip(values[len(list_tabs):], sign_tabs):
        signs[d] = tuple(map(mul, signs[d], tab)) if d in signs else tab
    ones = (1,) * q
    return tuple(sorted((rows.get(d, ones), signs.get(d, ones)) for d in {**rows, **signs}))


def _labelled_sums(q: int, signed: bool, profile: tuple) -> tuple[int, ...]:
    """``(spin-power sum, count)`` over the injective labellings of the
    blocks of ``profile`` (see ``_block_profile``), or when ``signed`` one
    such pair per sign of the sign rows' product: positive, negative, zero.
    """
    labellings = permutations(range(q), len(profile))
    if not signed:
        return (sum(prod(map(tuple.__getitem__, profile, labels)) for labels in labellings),
                perm(q, len(profile)))
    rows = [row for row, _sign in profile]
    signs = [sign for _row, sign in profile]
    sums = [0] * 6
    for labels in labellings:
        sp = prod(map(tuple.__getitem__, signs, labels))
        k = 0 if sp > 0 else 2 if sp < 0 else 4
        sums[k] += prod(map(tuple.__getitem__, rows, labels))
        sums[k + 1] += 1
    return tuple(sums)


def _scan_classes(plan: ScanPlan) -> list[tuple[int, int]]:
    """Every request's ``(scaled sum, matching count)`` over all ``q**n``
    configurations, visiting one configuration per equality class.

    The digits are restricted-growth strings: site 0 is 0 and each later
    digit is at most one above the largest before it (and below ``q``), so
    every class of configurations that agree up to relabelling the spin
    values is visited once, at the representative whose b blocks take the
    labels 0..b-1 in order of first appearance.  The weight and the delta
    constraints are the same throughout a class.

    Requests with the same list and sign sites form one family, whatever
    their sign kind and delta constraints; one computation gives the
    family's spin-power sum and count over a class's relabellings for all
    three signs.  They are cached per scan by b and the representative's
    digits at the family's sites.  On a miss only the t blocks those sites
    touch are labelled, and each labelling extends to the untouched blocks
    in ``(q-t)!/(q-b)!`` ways; the labelling sums are cached once more by
    the blocks' rows (see ``_block_profile``), which classes with different
    digits and families of one scan share.  So the labelling work follows
    the few distinct block rows rather than the number of site patterns.
    The integers equal those of ``_scan_chunk(plan, 0, q**n)``.
    """
    n, q, subset_sites, weight_pairs, site_subsets, requests, _scale = plan
    families: dict = {}
    tables = []
    for terms, delta_reqs, sign_kind, sign_terms in requests:
        if sign_kind is None:
            sign_terms = None
        family = families.get((terms, sign_terms))
        if family is None:
            sites = [s for s, _tab in (*terms, *(sign_terms or ()))]
            list_tabs = tuple(tab for _s, tab in terms)
            sign_tabs = None if sign_terms is None else tuple(
                tuple([(x > 0) - (x < 0) for x in tab]) for _s, tab in sign_terms)
            # digits[n] holds b, so one itemgetter call reads the cache key.
            # A family that reads no site is keyed by b alone: its sums are
            # the class size q!/(q-b)!, and an empty sign product is 1.
            cache = {}
            if not sites:
                base = (1, 1) if sign_tabs is None else (1, 1, 0, 0, 0, 0)
                cache = {b: tuple([x * perm(q, b) for x in base]) for b in range(1, min(n, q) + 1)}
            family = families[terms, sign_terms] = (
                itemgetter(*sites, n), cache, (list_tabs, sign_tabs))
        slot = 0 if sign_kind is None else _SIGN_SLOT[sign_kind]
        tables.append((delta_reqs, slot, *family))
    accs = [0] * len(requests)
    matches = [0] * len(requests)

    profiles: dict = {}

    def relabelled(key, list_tabs, sign_tabs) -> tuple[int, ...]:
        profile = (sign_tabs is not None, _block_profile(q, key[:-1], list_tabs, sign_tabs))
        base = profiles.get(profile)
        if base is None:
            base = profiles[profile] = _labelled_sums(q, *profile)
        t = len(profile[1])
        extensions = perm(q - t, key[-1] - t)
        return tuple([x * extensions for x in base])

    subset_spins = [itemgetter(*sites) for sites in subset_sites]
    digits = [0] * n + [1]
    top = [0] * n  # top[s] = max(digits[: s + 1])
    deltas = [1] * len(subset_sites)
    weight = 1
    for pair in weight_pairs:
        if pair is not None:
            weight *= pair[0]

    last = n - 1
    while True:
        for ri, (delta_reqs, k, key_digits, cache, tabs) in enumerate(tables):
            for j, bit in delta_reqs:
                if deltas[j] != bit:
                    break
            else:
                key = key_digits(digits)
                sums = cache.get(key)
                if sums is None:
                    sums = cache[key] = relabelled(key, *tabs)
                accs[ri] += weight * sums[k]
                matches[ri] += sums[k + 1]
        # Odometer step: site n-1 fastest; a digit past its bound resets to 0.
        s = last
        while s:
            d = digits[s] + 1
            carry = d == q or d > top[s - 1] + 1
            digits[s] = 0 if carry else d
            for j in site_subsets[s]:
                spins = subset_spins[j](digits)
                nd = 1 if spins.count(spins[0]) == len(spins) else 0
                if nd != deltas[j]:
                    deltas[j] = nd
                    pair = weight_pairs[j]
                    if pair is not None:
                        p, qd = pair
                        weight = weight * p // qd if nd else weight * qd // p
            if not carry:
                break
            s -= 1
        if not s:
            return list(zip(accs, matches))
        m = max(top[s - 1], digits[s])
        top[s:] = [m] * (n - s)
        digits[n] = m + 1


# --- bucket-elimination kernel ----------------------------------------------


def _elimination_order(plan: ScanPlan) -> tuple[tuple[int, ...], int]:
    """Greedy min-degree elimination order and its estimated cost.

    The graph joins two sites when a watched subset (an interaction or an
    event's delta subset) holds both; ties go to the lower site index, so
    the order is deterministic.  The cost is the sum over buckets of
    ``q**(bucket scope size)``.
    """
    n, q = plan.n, plan.q
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for sites in plan.subset_sites:
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
    return tuple(order), cost


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


def _eliminate(plan: ScanPlan, order: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every request's ``(scaled sum, matching count)`` by bucket elimination.

    Sites are summed out in ``order``; each ``(scope, table)`` factor waits
    in the bucket of its first site in that order, and a site no factor
    mentions contributes ``q``.  One context serves the whole scan.  Each
    table is built once: the weights per scan, a list site's spin powers
    per site and table, an indicator per subset and bit.  A bucket's
    message is memoised by the bucket's position and the identities of its
    input tables, so requests that give a bucket the same inputs share one
    summation and one message object, and so keep sharing downstream.
    Matching counts come from the indicators alone, once per distinct set
    of delta constraints; a request with none matches all ``q**n``.

    The integers equal those of ``_scan_chunk(plan, 0, q**n)`` for requests
    without a sign constraint; the dispatch sends no other request here.
    """
    q = plan.q
    rank = {s: i for i, s in enumerate(order)}.__getitem__
    subset_sites = plan.subset_sites

    # Every factor of the scan, with the bucket it waits in, built once and
    # keyed by its source: a weight by its subset ``j``, a spin-power table by
    # its ``(site, table)`` term, an indicator by its ``(subset, bit)``.
    factors: dict = {}
    for j, (sites, pair) in enumerate(zip(subset_sites, plan.weight_pairs)):
        if pair is not None:
            factors[j] = (min(map(rank, sites)), (sites, _agreement_table(q, len(sites), *pair)))
    weight_keys = tuple(factors)
    for terms, delta_reqs, _sign_kind, _sign_terms in plan.requests:
        for s, tab in terms:
            factors.setdefault((s, tab), (rank(s), ((s,), tab)))
        for j, bit in delta_reqs:
            if (j, bit) not in factors:
                sites = subset_sites[j]
                table = _agreement_table(q, len(sites), bit, 1 - bit)
                factors[j, bit] = (min(map(rank, sites)), (sites, table))
    messages: dict = {}  # (bucket, input table ids) -> (scope, table)
    getters: dict = {}  # (scope, joint) -> itemgetter of the index map

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

    counts = {(): q**plan.n}
    results = []
    for terms, delta_reqs, _sign_kind, _sign_terms in plan.requests:
        if delta_reqs not in counts:
            counts[delta_reqs] = sum_product(delta_reqs)
        results.append((sum_product((*weight_keys, *terms, *delta_reqs)), counts[delta_reqs]))
    return results


# --- dispatch ----------------------------------------------------------------


def correlation_sums(
    model: Model,
    requests: Sequence[tuple[IndexList, EventPredicate]],
) -> list[SumResult]:
    """Evaluate several (index list, event) correlation sums in one scan.

    The kernel is chosen from the model and the events alone (see the
    module docstring).
    """
    model.require_finite()
    plan = _compile(model, requests)
    total = model.configuration_count
    # The crossover C in ``C * cost < q**n`` is 1: a larger C leaves more
    # sweep-sized scans on the slower odometer, and a smaller one also sends
    # complete interaction graphs (cost > q**n) to elimination, whose
    # q**n-entry tables take far more memory than the odometer.
    sign_free = all(sign_kind is None for _terms, _deltas, sign_kind, _signs in plan.requests)
    order, cost = _elimination_order(plan) if sign_free else ((), total)
    if cost < total:
        kernel = "elimination"
        sums = _eliminate(plan, order)
    else:
        kernel = "odometer"
        sums = _scan_classes(plan)
    return [
        SumResult(Fraction(acc, plan.scale << len(indices)), total, matching, kernel)
        for (indices, _event), (acc, matching) in zip(requests, sums)
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
    correlation sum over the partition function, both from a single scan."""
    num, den = correlation_sums(model, [(indices, EVERYWHERE), (EMPTY_LIST, EVERYWHERE)])
    return num.value / den.value


# --- naive oracle path ------------------------------------------------------


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
    """Reference evaluation: full per-configuration recomputation in Fractions.

    This path stays independent of the incremental kernel and serves as its
    oracle in the test suite.
    """
    model.require_finite()
    _check_indices(model, indices)
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
