"""Plans whose requests carry their matching counts, for the kernel tests.

A kernel returns one integer per distinct sum of a plan, and ``_combine``
turns those into each request's scaled sum.  A request's matching count is
the scaled sum of the empty list over its event on the model without
interactions, whose scale is 1.  So ``counted`` appends one such group to the
groups a test scans, and ``pairs`` reads back every request's ``(scaled sum,
matching count)`` from a kernel's integers.
"""

from pottsverify import Model
from pottsverify.enumeration import _combine, _compile
from pottsverify.model import EMPTY_LIST


def counted(groups):
    """The plan of ``groups`` and one more group: the empty list over each
    of their requests' events, in order, on the model without
    interactions."""
    model = groups[0][0]
    events = [(EMPTY_LIST, event) for _model, requests in groups for _indices, event in requests]
    return _compile([*groups, (Model(model.n, model.q), events)])


def pairs(plan, sums):
    """Every request of a ``counted`` plan but the counting group's, as
    ``(scaled sum, matching count)``, from a kernel's integers ``sums``."""
    values = _combine(plan, sums)
    half = len(values) // 2
    return list(zip(values[:half], values[half:]))


def weighting(plan, group):
    """The ``_class_weights`` key of a group of ``plan``: ``(sites,
    (numerator, denominator))`` for each subset the group weights, in the
    plan's order."""
    return tuple([(sites, pair) for sites, pair in zip(plan.subset_sites, plan.weight_rows[group])
                  if pair is not None])
