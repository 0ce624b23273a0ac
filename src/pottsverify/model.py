"""Domain types for the generalized q-state Potts model with centered spins.

Everything in this package is exact: probabilities, weights and expectations
are ``fractions.Fraction`` values, spins are stored as doubled integers, and
no floating point enters any computation.

Conventions shared by every module:

* Sites are 1-indexed in all public inputs and outputs (the enumeration
  kernel converts to 0-indexed arrays internally).
* A spin at a site with ``q`` states takes the centered values
  ``(2k - (q+1))/2`` for label ``k`` in ``1..q``.  We store the *doubled*
  value ``u = 2k - (q+1)``, an integer for both parities of ``q``; a product
  of ``m`` centered spins is the integer product of the doubled values
  divided by ``2**m``, performed once per product.
* Coupling weights ``x_A`` are the multiplicative Boltzmann factors an
  interaction contributes when all its spins agree.  They are supplied
  directly as exact rationals ``>= 1`` (or ``math.inf``), never as float
  log-couplings.
* All types are immutable after construction.
* Only ``model`` states and raises the input rules: a site, list entry
  or spin label is a plain ``int`` (never a ``bool``) in ``1..bound``;
  an index list is an ``IndexList``; an interaction, delta constraint or
  merged set holds at least two sites; no interaction repeats; the counts
  ``n >= 1`` and ``q >= 2`` are plain ``int``s; interactions are an
  ``InteractionTable``; a weight is an exact rational ``>= 1`` (or
  INFINITY where allowed), and any other weight type is refused; a weight
  read from text carries a decimal exponent of at most ``_MAX_EXPONENT``.
  ``_as_coupling`` alone checks the ``>= 1`` hypothesis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from numbers import Rational
from types import MappingProxyType
from typing import Union

__all__ = [
    "Configuration",
    "Coupling",
    "INFINITY",
    "IndexList",
    "InfiniteCouplingError",
    "InteractionTable",
    "Model",
    "ModelError",
    "SpinDomain",
    "build_model",
    "is_infinite",
    "spin_domain",
    "spin_value",
]

#: Sentinel for an infinitely strong coupling (hard constraint that the
#: interaction's spins agree).  Compares greater than every Fraction.
INFINITY = math.inf

#: A coupling weight: an exact rational >= 1, or INFINITY.
Coupling = Union[Fraction, float]

#: The largest decimal exponent a rational's text may carry, CPython's
#: default bound on the digits of an int read from text: "1e999999999",
#: 11 characters, would otherwise ask for a billion-digit numerator.
_MAX_EXPONENT = 4300


class ModelError(ValueError):
    """A model, index list, or configuration violates a structural invariant."""


class InfiniteCouplingError(ModelError):
    """An enumeration was attempted on a model that still contains an
    infinite coupling; resolve it first (see ``contraction``)."""


def _check_range(bound: int, values: Iterable, what: str) -> None:
    """Raise for the first value that is not an ``int`` in ``1..bound``; a
    ``bool`` or other subclass of ``int`` is not one."""
    for i in values:
        if i.__class__ is not int or not 1 <= i <= bound:
            raise ModelError(f"{what} {i} out of range 1..{bound}")


def _check_list(bound: int, indices) -> None:
    """Raise unless ``indices`` is an ``IndexList`` whose entries are in
    ``1..bound`` (see ``_check_range``)."""
    if not isinstance(indices, IndexList):
        raise ModelError(f"list entries {indices!r} are not an IndexList")
    _check_range(bound, indices, "list entry")


def _site_set(sites: Iterable, what: str) -> frozenset:
    """``sites`` as a set, which must hold at least two sites."""
    try:
        key = frozenset(sites)
    except TypeError:
        raise ModelError(f"{what} {sites!r} is not a set of sites") from None
    if len(key) < 2:
        raise ModelError(f"{what} must contain at least 2 sites, got {set(key) or '{}'}")
    return key


def _check_exponent(text: str, what: str) -> None:
    """Raise a ModelError naming ``what`` when the rational ``text`` carries
    a decimal exponent above ``_MAX_EXPONENT`` in size, before ``Fraction``
    builds its power of ten.  Malformed text is left to ``Fraction``."""
    _mantissa, e, exponent = text.lower().partition("e")
    if e:
        try:
            power = int(exponent)
        except ValueError:
            pass  # malformed, or more digits than int reads: Fraction refuses it too
        else:
            if abs(power) > _MAX_EXPONENT:
                raise ModelError(f"{what} {text!r} has a decimal exponent outside "
                                 f"-{_MAX_EXPONENT}..{_MAX_EXPONENT}")


def is_infinite(x: Coupling) -> bool:
    # A Fraction never equals inf, and comparing it with a float is slow.
    return x.__class__ is not Fraction and x == INFINITY


@dataclass(frozen=True)
class SpinDomain:
    """The centered value set of a q-state spin, in doubled-integer form.

    ``doubled_values[k-1] == 2*k - (q+1)`` for label ``k`` in ``1..q``; the
    represented centered value is half of that.  The list is symmetric about
    zero with step 2: all entries even (0 included) for odd ``q``, all odd
    for even ``q``.
    """

    q: int

    def __post_init__(self) -> None:
        if self.q.__class__ is not int or self.q < 2:
            raise ModelError(f"spin count q must be >= 2 and a plain int, got {self.q!r}")

    @property
    def doubled_values(self) -> tuple[int, ...]:
        return tuple(2 * k - (self.q + 1) for k in range(1, self.q + 1))

    @property
    def centered_values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, 2) for u in self.doubled_values)

    def value(self, k: int) -> Fraction:
        """Centered value of the spin with label ``k`` (1-indexed)."""
        _check_range(self.q, (k,), "spin label")
        return Fraction(2 * k - (self.q + 1), 2)

    def label_of_doubled(self, u: int) -> int:
        """Inverse of ``doubled_values``: the 1-indexed label carrying ``u``.
        This is the one rule for a doubled spin value: a plain int, never a
        bool or a float."""
        if u.__class__ is int:
            k, rem = divmod(u + self.q + 1, 2)
            if not rem and 1 <= k <= self.q:
                return k
        raise ModelError(f"{u} is not a doubled spin value for q={self.q}")


@lru_cache(maxsize=None)
def _cached_domain(q: int) -> SpinDomain:
    return SpinDomain(q)


def spin_domain(q: int) -> SpinDomain:
    """The domain of ``q``, cached for a plain ``int``.  Any other ``q`` goes
    straight to ``SpinDomain``'s check, which refuses it: the cache would
    answer 2.0 or True with the domain of 2 or 1, and an unhashable ``q``
    with a ``TypeError``."""
    return _cached_domain(q) if q.__class__ is int else SpinDomain(q)


def spin_value(q: int, k: int) -> Fraction:
    """Centered value of spin label ``k`` in a q-state domain."""
    return spin_domain(q).value(k)


@dataclass(frozen=True)
class Configuration:
    """An assignment of one spin to every site, stored as doubled values."""

    doubled_spins: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "doubled_spins", tuple(self.doubled_spins))

    def __len__(self) -> int:
        return len(self.doubled_spins)

    @classmethod
    def from_labels(cls, labels: Iterable[int], q: int) -> "Configuration":
        """Build from uncentered labels in ``1..q``."""
        dom = spin_domain(q).doubled_values
        labels = tuple(labels)
        _check_range(q, labels, "spin label")
        return cls(tuple([dom[k - 1] for k in labels]))

    def labels(self, q: int) -> tuple[int, ...]:
        """Uncentered labels in ``1..q`` of every site."""
        dom = spin_domain(q)
        return tuple(dom.label_of_doubled(u) for u in self.doubled_spins)

    def centered_values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, 2) for u in self.doubled_spins)


@dataclass(frozen=True)
class IndexList:
    """A multiset of site indices; the exponent pattern of a spin product.

    ``entries`` is kept sorted.  The support is partitioned by multiplicity
    parity into odd and even groups; a list with no odd group yields a
    pointwise nonnegative spin product.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(sorted(self.entries))
        for i in entries:
            if i.__class__ is not int or i < 1:
                raise ModelError(f"index list entries must be positive integers, got {i!r}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.entries)

    @property
    def multiplicity(self) -> Mapping[int, int]:
        counts: dict[int, int] = {}
        for i in self.entries:
            counts[i] = counts.get(i, 0) + 1
        return MappingProxyType(counts)

    @property
    def odd_groups(self) -> frozenset[int]:
        return frozenset(i for i, m in self.multiplicity.items() if m % 2)

    @property
    def even_groups(self) -> frozenset[int]:
        return frozenset(i for i, m in self.multiplicity.items() if m % 2 == 0)

    def concat(self, other: "IndexList") -> "IndexList":
        """Multiset union: the list whose spin product is the product of both."""
        return IndexList(self.entries + other.entries)

    def relabel(self, site_map: Mapping[int, int]) -> "IndexList":
        return IndexList(tuple(site_map[i] for i in self.entries))

    def __str__(self) -> str:
        return "[" + ",".join(str(i) for i in self.entries) + "]"


EMPTY_LIST = IndexList(())


def _as_coupling(x, sites: frozenset | None = None) -> Coupling:
    """``x`` by the one weight rule: an exact rational ``>= 1`` (a ``Fraction``,
    a non-bool ``numbers.Rational``, or a string ``Fraction`` reads), or, on
    the interaction ``sites``, INFINITY; an added coupling (no ``sites``) is finite.
    A string's exponent is bounded by ``_check_exponent``."""
    if x.__class__ is Fraction:
        if x >= 1:
            return x
    elif x.__class__ is not bool and isinstance(x, (Rational, str)):
        if isinstance(x, str):
            _check_exponent(x, "coupling")
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"coupling {x!r} is not a rational") from None
        if x >= 1:
            return x
    elif not (isinstance(x, float) and x == INFINITY):
        raise ModelError(f"coupling {x!r} is a {type(x).__name__}; "
                         "supply an exact Fraction, int, or INFINITY")
    elif sites is not None:
        return INFINITY
    raise ModelError(f"added coupling must be finite and >= 1, got {x}" if sites is None
                     else f"coupling for {sorted(sites)} must be >= 1, got {x}")


@dataclass(frozen=True)
class InteractionTable:
    """Map from site subsets ``A`` (``|A| >= 2``) to coupling weights ``x_A``.

    Built from a mapping or from ``(sites, weight)`` pairs; a site set may
    appear only once.  Every weight is an exact rational ``>= 1``
    (ferromagnetic) or INFINITY; ``s`` counts those above 1.
    """

    couplings: Mapping[frozenset[int], Coupling]

    def __post_init__(self) -> None:
        table: dict[frozenset[int], Coupling] = {}
        pairs = self.couplings
        for sites, x in pairs.items() if isinstance(pairs, Mapping) else pairs:
            key = _site_set(sites, "interaction")
            for i in key:
                if i.__class__ is not int or i < 1:
                    raise ModelError(f"interaction site {i!r} is not a positive integer")
            if key in table:
                raise ModelError(f"duplicate interaction {sorted(key)}")
            table[key] = _as_coupling(x, key)
        object.__setattr__(self, "couplings", MappingProxyType(table))

    @property
    def s(self) -> int:
        """Number of interactions with weight strictly greater than 1."""
        return sum(1 for x in self.couplings.values() if x > 1)

    @property
    def has_infinite(self) -> bool:
        return any(is_infinite(x) for x in self.couplings.values())

    def __len__(self) -> int:
        return len(self.couplings)

    def items(self):
        """Deterministically ordered (sites, weight) pairs."""
        return sorted(self.couplings.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


EMPTY_TABLE = InteractionTable({})


@dataclass(frozen=True)
class Model:
    """A full problem instance: lattice size, spin count, and interactions."""

    n: int
    q: int
    interactions: InteractionTable = EMPTY_TABLE

    def __post_init__(self) -> None:
        if self.n.__class__ is not int or self.n < 1:
            raise ModelError(f"site count n must be >= 1 and a plain int, got {self.n!r}")
        spin_domain(self.q)
        if not isinstance(self.interactions, InteractionTable):
            raise ModelError(f"interactions {self.interactions!r} are not an InteractionTable")
        _check_range(self.n, chain.from_iterable(self.interactions.couplings), "interaction site")

    @property
    def domain(self) -> SpinDomain:
        return spin_domain(self.q)

    @property
    def configuration_count(self) -> int:
        return self.q**self.n

    @property
    def sites(self) -> range:
        return range(1, self.n + 1)

    def validate_configuration(self, config: Configuration) -> None:
        if len(config) != self.n:
            raise ModelError(
                f"configuration has {len(config)} sites, model has {self.n}"
            )
        label = self.domain.label_of_doubled  # refuses what is not a doubled spin
        for u in config.doubled_spins:
            label(u)

    def require_finite(self) -> None:
        if self.interactions.has_infinite:
            raise InfiniteCouplingError(
                "model contains an infinite coupling; resolve it with "
                "contraction.resolve_infinite_couplings before enumerating"
            )

    def with_coupling(self, sites: Iterable[int], x) -> "Model":
        """A copy of this model with one interaction added."""
        pairs = (*self.interactions.couplings.items(), (sites, x))
        return Model(self.n, self.q, InteractionTable(pairs))


def build_model(n: int, q: int, couplings: Iterable[tuple[Iterable[int], object]] = ()) -> Model:
    """Validate and build a model from ``(site-set, weight)`` pairs.

    Rejects bad counts, out-of-range sites, interactions with fewer than two
    sites, weights that are inexact or below 1, and duplicate site sets.
    """
    return Model(n, q, InteractionTable(tuple(couplings)))
