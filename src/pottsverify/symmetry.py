"""Spin-relabeling transforms and the uniform single-site marginal.

Relabeling every site's spin by the same permutation of ``1..q`` preserves
every equality delta, hence every configuration weight and the whole Gibbs
measure.  The *reversal* permutation ``k -> q+1-k`` is the distinguished
element that negates every centered spin, which is what pairs the
positive and negative sign classes of a spin product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gibbs import weighted_configurations
from .model import Configuration, Model, ModelError, _check_range, spin_domain

__all__ = [
    "SpinPermutation",
    "apply_permutation",
    "marginal_distribution",
]


@dataclass(frozen=True)
class SpinPermutation:
    """A bijection on the spin labels ``1..q``; ``mapping[k-1]`` is the image of ``k``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        q = len(self.mapping)
        _check_range(q, self.mapping, "spin label")
        if q < 2 or sorted(self.mapping) != list(range(1, q + 1)):
            raise ModelError(f"not a permutation of 1..{q}: {self.mapping}")

    @property
    def q(self) -> int:
        return len(self.mapping)

    def __call__(self, k: int) -> int:
        return self.mapping[k - 1]

    def compose(self, other: "SpinPermutation") -> "SpinPermutation":
        """The permutation applying ``other`` first, then this one."""
        if other.q != self.q:
            raise ModelError("cannot compose permutations of different q")
        return SpinPermutation(tuple(self(other(k)) for k in range(1, self.q + 1)))

    @classmethod
    def identity(cls, q: int) -> "SpinPermutation":
        return cls(tuple(range(1, q + 1)))

    @classmethod
    def reversal(cls, q: int) -> "SpinPermutation":
        """``k -> q+1-k``: the global spin flip, negating every centered value."""
        return cls(tuple(range(q, 0, -1)))

    @classmethod
    def shuffled(cls, q: int, rng: random.Random) -> "SpinPermutation":
        labels = list(range(1, q + 1))
        rng.shuffle(labels)
        return cls(tuple(labels))


def apply_permutation(config: Configuration, pi: SpinPermutation) -> Configuration:
    """Relabel every site's spin by ``pi``."""
    q = pi.q
    dom = spin_domain(q)
    return Configuration(
        tuple(dom.doubled_values[pi(dom.label_of_doubled(u)) - 1] for u in config.doubled_spins)
    )


def marginal_distribution(model: Model, site: int) -> tuple[Fraction, ...]:
    """P(spin at ``site`` has label j) for j = 1..q, each exactly 1/q.

    Computed by enumeration (not by symmetry) so the uniformity claim can be
    checked rather than assumed.
    """
    model.require_finite()
    _check_range(model.n, (site,), "site")
    dom = model.domain.doubled_values
    sums = {u: Fraction(0) for u in dom}
    z = Fraction(0)
    for config, weight in weighted_configurations(model):
        sums[config.doubled_spins[site - 1]] += weight
        z += weight
    return tuple(sums[u] / z for u in dom)

