"""Independent brute-force reference implementations used as test oracles.

Deliberately kept free of any import from the package under test: spins are
plain Fractions, configurations are tuples, deltas are set-size checks, and
sums iterate the full configuration space.  Expected values frozen into the
tests were computed with these functions.  ``cluster_zeta`` is the one
exception to the walk: it expands the weights and delta constraints over
subsets of the interactions, with union-find for the blocks, so its cost
does not grow with q**n.
"""

from fractions import Fraction
import itertools


def centered_values(q):
    return [Fraction(2 * k - (q + 1), 2) for k in range(1, q + 1)]


def all_configs(n, q):
    """Tuples of centered Fraction spins, last site varying fastest."""
    return itertools.product(centered_values(q), repeat=n)


def delta(config, sites):
    return 1 if len({config[i - 1] for i in sites}) == 1 else 0


def weight(config, couplings):
    w = Fraction(1)
    for sites, x in couplings.items():
        if delta(config, sites):
            w *= x
    return w


def spin_prod(config, entries):
    p = Fraction(1)
    for i in entries:
        p *= config[i - 1]
    return p


def zeta(n, q, couplings, entries, event=None):
    """Sum of spin product times weight over configs satisfying ``event``."""
    total = Fraction(0)
    for config in all_configs(n, q):
        if event is not None and not event(config):
            continue
        total += spin_prod(config, entries) * weight(config, couplings)
    return total


def partition(n, q, couplings):
    return zeta(n, q, couplings, [])


def expectation(n, q, couplings, entries):
    return zeta(n, q, couplings, entries) / partition(n, q, couplings)


def scaled_covariance(n, q, couplings, r, s):
    z = partition(n, q, couplings)
    return z * zeta(n, q, couplings, list(r) + list(s)) - zeta(
        n, q, couplings, r
    ) * zeta(n, q, couplings, s)


def power_sum(q, m):
    return sum((j**m for j in centered_values(q)), Fraction(0))


def power_sum_gap(q, a, b):
    return q * power_sum(q, a + b) - power_sum(q, a) * power_sum(q, b)


def power_sum_gap_recursion(q, a, b):
    """``(gap, gap at q+2, increment, satisfied)`` of the two-step recursion:
    stepping q -> q+2 adds the spins ±h, h = (q+1)/2, and the gap grows by
    twice the sum over the old spins j of ``(h**a - j**a) * (h**b - j**b)``."""
    gap = power_sum_gap(q, a, b)
    gap_next = power_sum_gap(q + 2, a, b)
    h = Fraction(q + 1, 2)
    summands = [(h**a - j**a) * (h**b - j**b) for j in centered_values(q)]
    increment = 2 * sum(summands, Fraction(0))
    satisfied = (gap_next == gap + increment and all(t > 0 for t in summands)
                 and gap >= 0 and gap_next >= 0)
    return gap, gap_next, increment, satisfied


def cluster_zeta(n, q, couplings, entries, deltas=(), sign=None):
    """``zeta`` by the random-cluster expansion, without walking the
    configurations: a weight ``x_A`` is ``1 + (x_A - 1) * delta_A``, a delta
    constraint with bit 1 the factor ``delta_A`` and one with bit 0 the
    factor ``1 - delta_A``.  Expanding the product gives a sum over subsets
    T of these factors; the deltas of T ask that the spins be constant on
    each block of the partition that union-find builds from T's sets, and
    the sum over such configurations is a product over the blocks.  ``sign``
    is ``(kind, sign_entries)`` with kind ``"positive"``, ``"negative"`` or
    ``"zero"``: the blocks that hold a sign entry are summed per sign of
    their common spin, and only sign patterns of the right kind are kept.
    With no couplings and no entries the result counts the configurations
    the constraints select."""
    factors = [(sites, Fraction(1), Fraction(x) - 1) for sites, x in couplings.items()]
    factors += [(sites, Fraction(1 - bit), Fraction(2 * bit - 1)) for sites, bit in deltas]
    kind, sign_entries = sign if sign is not None else (None, ())
    values = centered_values(q)
    total = Fraction(0)
    for chosen in itertools.product((False, True), repeat=len(factors)):
        coefficient = Fraction(1)
        parent = list(range(n + 1))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for (sites, off, on), taken in zip(factors, chosen):
            coefficient *= on if taken else off
            if taken:
                first, *rest = sites
                for i in rest:
                    parent[find(i)] = find(first)
        if coefficient == 0:
            continue
        blocks = {find(site) for site in range(1, n + 1)}
        powers, sign_powers = dict.fromkeys(blocks, 0), dict.fromkeys(blocks, 0)
        for i in entries:
            powers[find(i)] += 1
        for i in sign_entries:
            sign_powers[find(i)] += 1
        # A block's sum over the values of each sign its spin can take.
        by_sign = {
            block: {e: sum((v**powers[block] for v in values if (v > 0) - (v < 0) == e),
                           Fraction(0)) for e in (-1, 0, 1)}
            for block in powers
        }
        signed = [block for block in powers if sign_powers[block]]
        value = Fraction(0)
        for pattern in itertools.product((-1, 0, 1), repeat=len(signed)):
            product_sign = 1
            for block, e in zip(signed, pattern):
                product_sign *= e ** sign_powers[block]
            if kind is None or product_sign == {"positive": 1, "negative": -1, "zero": 0}[kind]:
                term = Fraction(1)
                for block, e in zip(signed, pattern):
                    term *= by_sign[block][e]
                value += term
        for block in powers:
            if not sign_powers[block]:
                value *= sum(by_sign[block].values())
        total += coefficient * value
    return total
