"""Independent brute-force reference implementations used as test oracles.

Deliberately kept free of any import from the package under test: spins are
plain Fractions, configurations are tuples, deltas are set-size checks, and
sums iterate the full configuration space.  Expected values frozen into the
tests were computed with these functions.
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
