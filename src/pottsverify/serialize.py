"""JSON-shaped model documents with exact rationals carried as strings.

A model document is a flat object::

    {"n": 3, "q": 3,
     "interactions": [{"sites": [1, 3], "x": "2"}, {"sites": [2, 3], "x": "3/2"}],
     "lists": {"R": [1, 3], "S": [2, 2]}}

Weights are strings ("p", "p/q", or "inf") or integers; floats are rejected
so exactness survives the round trip.  Sites are 1-indexed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .model import (
    Coupling,
    INFINITY,
    IndexList,
    Model,
    ModelError,
    _check_exponent,
    _check_range,
    build_model,
    is_infinite,
)

__all__ = [
    "ModelDocumentError",
    "format_rational",
    "model_from_dict",
    "model_to_dict",
    "parse_rational",
    "witness_json",
]

_TOP_KEYS = {"n", "q", "interactions", "lists"}
_INTERACTION_KEYS = {"sites", "x"}


class ModelDocumentError(ValueError):
    """A model document failed to parse; the message names the bad field."""


def parse_rational(value, where: str) -> Coupling:
    """Parse "p", "p/q", "inf", or an integer into an exact weight."""
    if isinstance(value, bool):
        raise ModelDocumentError(f"{where}: expected a rational string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ModelDocumentError(
            f"{where}: floats are not exact; write the value as a string like \"3/2\""
        )
    if isinstance(value, str):
        text = value.strip()
        if text.lower() in ("inf", "infinity"):
            return INFINITY
        try:
            _check_exponent(text, "rational")
            return Fraction(text)
        except ModelError as exc:
            raise ModelDocumentError(f"{where}: {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelDocumentError(f"{where}: malformed rational {value!r} ({exc})") from None
    raise ModelDocumentError(f"{where}: expected a rational string, got {type(value).__name__}")


def format_rational(x: Coupling) -> str:
    if is_infinite(x):
        return "inf"
    return str(Fraction(x))


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelDocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def model_from_dict(doc) -> tuple[Model, dict[str, IndexList]]:
    """Build a validated model and its named index lists from a document."""
    if not isinstance(doc, dict):
        raise ModelDocumentError(f"model document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ModelDocumentError(f"unknown keys {sorted(unknown)}; expected {sorted(_TOP_KEYS)}")
    for key in ("n", "q"):
        if key not in doc:
            raise ModelDocumentError(f"missing required key {key!r}")
    n = _require_int(doc["n"], "n")
    q = _require_int(doc["q"], "q")

    pairs = []
    interactions = doc.get("interactions", [])
    if not isinstance(interactions, list):
        raise ModelDocumentError("interactions: expected a list")
    for idx, entry in enumerate(interactions):
        where = f"interactions[{idx}]"
        if not isinstance(entry, dict):
            raise ModelDocumentError(f"{where}: expected an object with 'sites' and 'x'")
        unknown = set(entry) - _INTERACTION_KEYS
        if unknown:
            raise ModelDocumentError(f"{where}: unknown keys {sorted(unknown)}")
        if "sites" not in entry or "x" not in entry:
            raise ModelDocumentError(f"{where}: both 'sites' and 'x' are required")
        sites = entry["sites"]
        if not isinstance(sites, list):
            raise ModelDocumentError(f"{where}.sites: expected a list of sites")
        sites = [_require_int(i, f"{where}.sites") for i in sites]
        pairs.append((sites, parse_rational(entry["x"], f"{where}.x")))

    try:
        model = build_model(n, q, pairs)
    except ModelError as exc:
        raise ModelDocumentError(str(exc)) from None

    lists: dict[str, IndexList] = {}
    raw_lists = doc.get("lists", {})
    if not isinstance(raw_lists, dict):
        raise ModelDocumentError("lists: expected an object of named lists")
    for name, raw in raw_lists.items():
        where = f"lists.{name}"
        if not isinstance(raw, list):
            raise ModelDocumentError(f"{where}: expected a list of sites")
        entries = tuple([_require_int(i, where) for i in raw])
        try:
            _check_range(n, entries, f"{where}: site")
        except ModelError as exc:
            raise ModelDocumentError(str(exc)) from None
        lists[name] = IndexList(entries)
    return model, lists


def model_to_dict(model: Model, lists: Mapping[str, IndexList] | None = None) -> dict:
    doc = {
        "n": model.n,
        "q": model.q,
        "interactions": [
            {"sites": sorted(sites), "x": format_rational(x)}
            for sites, x in model.interactions.items()
        ],
    }
    if lists:
        doc["lists"] = {name: list(lst.entries) for name, lst in sorted(lists.items())}
    return doc


def witness_json(model: Model, lists: Mapping[str, IndexList] | None = None) -> str:
    """Compact single-line serialization of a failing instance."""
    return json.dumps(model_to_dict(model, lists), sort_keys=True, separators=(",", ":"))
