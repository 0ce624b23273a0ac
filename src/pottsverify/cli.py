"""Batch front end: model files in, machine-readable verification reports out.

Commands
--------
expect
    Exact thermal average of the spin product of a list.
verify
    First-inequality check for R, plus the second-inequality check when S
    is given.
sweep
    Seeded random-instance suites (theorem1, theorem2, contraction,
    quadratic, xi, or all); one report row per check.
xi
    The power-sum gap family over a range of q, with the two-step recursion
    verified at every point.
contract-check
    The vertex-merging identity on one (model, R, B) instance.

Every command emits rows with the same columns
(trial, n, q, s, |R|, |S|, quantity, value_num, value_den, satisfied) in
human, json, or csv format; values are exact integer ratios.  Output is a
pure function of the arguments, so identical invocations are byte-identical.
Diagnostics go to stderr.  Exit code 0 means every check passed, 1 means a
mathematical check failed (an engine bug), 2 means a usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence, TextIO

from .contraction import check_contraction_identity, resolve_infinite_couplings
from .enumeration import expectation
from .generators import (
    random_coupling,
    random_index_list,
    random_model,
)
from .inequalities import (
    check_positive_covariance,
    check_positive_expectation,
    check_power_sum_gap_recursion,
    check_quadratic,
    power_sum_gap,
)
from .model import IndexList, Model, ModelError
from .serialize import ModelDocumentError, model_from_dict

__all__ = ["main", "parse_model_file"]

ROW_FIELDS = (
    "trial", "n", "q", "s", "|R|", "|S|",
    "quantity", "value_num", "value_den", "satisfied",
)
SUITES = ("theorem1", "theorem2", "contraction", "xi", "quadratic")
FORMATS = ("human", "json", "csv")
DEFAULT_STATE_LIMIT = 4096


def parse_model_file(path: str) -> tuple[Model, dict[str, IndexList]]:
    """Load and validate a model document, with field-level diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ModelDocumentError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelDocumentError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ModelDocumentError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise ModelDocumentError(f"{path}: JSON nested too deeply") from None
    try:
        return model_from_dict(doc)
    except ModelDocumentError as exc:
        raise ModelDocumentError(f"{path}: {exc}") from None


# --- report rows -------------------------------------------------------------


def _row(trial: int, n: int, q: int, s: int, len_r: int, len_s: int,
         quantity: str, value: Fraction, satisfied: bool) -> dict:
    return {
        "trial": trial, "n": n, "q": q, "s": s, "|R|": len_r, "|S|": len_s,
        "quantity": quantity,
        "value_num": value.numerator, "value_den": value.denominator,
        "satisfied": bool(satisfied),
    }


def _emit(rows: list[dict], fmt: str, out: TextIO) -> None:
    if fmt == "csv":
        out.write(",".join(ROW_FIELDS) + "\n")
        for row in rows:
            cells = [str(row[f]).lower() if f == "satisfied" else str(row[f])
                     for f in ROW_FIELDS]
            out.write(",".join(cells) + "\n")
    elif fmt == "json":
        payload = {
            "rows": rows,
            "all_satisfied": all(row["satisfied"] for row in rows),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        for row in rows:
            tag = "PASS" if row["satisfied"] else "FAIL"
            out.write(
                f"{tag} trial={row['trial']} {row['quantity']}"
                f" n={row['n']} q={row['q']} s={row['s']}"
                f" |R|={row['|R|']} |S|={row['|S|']}"
                f" value={row['value_num']}/{row['value_den']}\n"
            )
        failures = sum(1 for row in rows if not row["satisfied"])
        if rows:
            out.write(
                f"{len(rows) - failures}/{len(rows)} checks passed\n"
                if failures else f"all {len(rows)} checks passed\n"
            )


# --- sweep suites ------------------------------------------------------------


def _suite_rng(args: argparse.Namespace, suite: str) -> random.Random:
    return random.Random(args.seed * len(SUITES) + 1 + SUITES.index(suite))


def _model_kwargs(args: argparse.Namespace, n_min: int = 1) -> dict:
    return dict(
        n_max=args.n_max, n_min=n_min, q_set=args.q_set, x_max=args.x_max,
        max_interactions=args.max_interactions, state_limit=DEFAULT_STATE_LIMIT,
    )


def _sweep_theorem1(args: argparse.Namespace, err: TextIO) -> list[dict]:
    rng = _suite_rng(args, "theorem1")
    rows = []
    for trial in range(args.trials):
        model = random_model(rng, **_model_kwargs(args))
        r = random_index_list(rng, model.n, args.max_list_len)
        report = check_positive_expectation(model, r)
        if not report.satisfied:
            print(f"witness: {report.witness}", file=err)
        rows.append(_row(trial, model.n, model.q, model.interactions.s,
                         len(r), 0, "theorem1", report.value, report.satisfied))
    return rows


def _sweep_theorem2(args: argparse.Namespace, err: TextIO) -> list[dict]:
    rng = _suite_rng(args, "theorem2")
    rows = []
    for trial in range(args.trials):
        model = random_model(rng, **_model_kwargs(args))
        r = random_index_list(rng, model.n, args.max_list_len)
        s = random_index_list(rng, model.n, args.max_list_len)
        report = check_positive_covariance(model, r, s)
        if not report.satisfied:
            print(f"witness: {report.witness}", file=err)
        rows.append(_row(trial, model.n, model.q, model.interactions.s,
                         len(r), len(s), "theorem2", report.value, report.satisfied))
    return rows


def _sweep_contraction(args: argparse.Namespace, err: TextIO) -> list[dict]:
    rng = _suite_rng(args, "contraction")
    rows = []
    for trial in range(args.trials):
        model = random_model(rng, **_model_kwargs(args, n_min=2))
        merged = frozenset(rng.sample(range(1, model.n + 1), rng.randint(2, model.n)))
        r = random_index_list(rng, model.n, args.max_list_len)
        check = check_contraction_identity(model, r, merged)
        if not check.equal:
            print(f"witness: contraction mismatch lhs={check.lhs} rhs={check.rhs}", file=err)
        # |S| column reports |B| for contraction rows; value is lhs - rhs.
        rows.append(_row(trial, model.n, model.q, model.interactions.s,
                         len(r), len(merged), "contraction",
                         check.lhs - check.rhs, check.equal))
    return rows


def _sweep_xi(args: argparse.Namespace, err: TextIO) -> list[dict]:
    q_values = args.q_set if args.command == "xi" else tuple(range(2, 13))
    rows = []
    trial = 0
    for q in q_values:
        for a, b in itertools.product(args.exponents, repeat=2):
            gap = power_sum_gap(q, a, b)
            report = check_power_sum_gap_recursion(q, a, b)
            rows.append(_row(trial, 0, q, 0, a, b, "xi", gap,
                             report.satisfied and gap >= 0))
            trial += 1
    return rows


def _sweep_quadratic(args: argparse.Namespace, err: TextIO) -> list[dict]:
    rng = _suite_rng(args, "quadratic")
    rows = []
    trial = 0
    while trial < args.trials:
        model = random_model(rng, **_model_kwargs(args, n_min=2))
        free = [
            frozenset(combo)
            for size in range(2, min(4, model.n) + 1)
            for combo in itertools.combinations(range(1, model.n + 1), size)
            if frozenset(combo) not in model.interactions.couplings
        ]
        if not free:
            continue
        merged = rng.choice(sorted(free, key=sorted))
        x = random_coupling(rng, args.x_max)
        extra = (random_coupling(rng, args.x_max), random_coupling(rng, args.x_max))
        r = random_index_list(rng, model.n, args.max_list_len)
        s = random_index_list(rng, model.n, args.max_list_len)
        report = check_quadratic(model, merged, x, r, s, extra_x=extra)
        if not report.satisfied:
            print(f"witness: {report.witness}", file=err)
        rows.append(_row(trial, model.n, model.q, model.interactions.s,
                         len(r), len(s), "quadratic", report.values[0],
                         report.satisfied))
        trial += 1
    return rows


_SUITE_RUNNERS = {
    "theorem1": _sweep_theorem1,
    "theorem2": _sweep_theorem2,
    "contraction": _sweep_contraction,
    "xi": _sweep_xi,
    "quadratic": _sweep_quadratic,
}


def _run_sweep(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    """Run the configured suites; exit 0 iff every row is satisfied."""
    suites = SUITES if args.suite == "all" else (args.suite,)
    rows: list[dict] = []
    for suite in suites:
        rows.extend(_SUITE_RUNNERS[suite](args, err))
    _emit(rows, args.output_format, out)
    return 0 if all(row["satisfied"] for row in rows) else 1


# --- single-model commands ----------------------------------------------------


def _load_instance(args: argparse.Namespace, err: TextIO):
    """Model plus R/S/B lists from file and flags, infinite couplings resolved."""
    if not args.model_path:
        raise ModelDocumentError("a --model file is required")
    model, named = parse_model_file(args.model_path)

    def pick(flag: tuple[int, ...] | None, name: str) -> IndexList | None:
        if flag is not None:
            for i in flag:
                if not 1 <= i <= model.n:
                    raise ModelDocumentError(f"--{name}: site {i} out of range 1..{model.n}")
            return IndexList(flag)
        return named.get(name)

    r = pick(args.r_entries, "R")
    s = pick(args.s_entries, "S")
    b = pick(args.b_sites, "B")
    if r is None:
        raise ModelDocumentError("no R list: pass --R or add lists.R to the model file")

    if model.interactions.has_infinite:
        wanted = [lst for lst in (r, s) if lst is not None]
        resolved = resolve_infinite_couplings(model, wanted)
        mapping = " ".join(f"{old}->{new}" for old, new in sorted(resolved.site_map.items()))
        print(f"note: infinite couplings contracted; site map {mapping}", file=err)
        model = resolved.model
        relabeled = list(resolved.lists)
        if r is not None:
            r = relabeled.pop(0)
        if s is not None:
            s = relabeled.pop(0)
        if b is not None:
            b = b.relabel(resolved.site_map)
    return model, r, s, b


def _run_expect(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model, r, _s, _b = _load_instance(args, err)
    value = expectation(model, r)
    rows = [_row(0, model.n, model.q, model.interactions.s, len(r), 0,
                 "expectation", value, True)]
    _emit(rows, args.output_format, out)
    return 0


def _run_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model, r, s, _b = _load_instance(args, err)
    rows = []
    report = check_positive_expectation(model, r)
    rows.append(_row(0, model.n, model.q, model.interactions.s, len(r), 0,
                     "theorem1", report.value, report.satisfied))
    if not report.satisfied:
        print(f"witness: {report.witness}", file=err)
    if s is not None:
        report = check_positive_covariance(model, r, s)
        rows.append(_row(1, model.n, model.q, model.interactions.s, len(r), len(s),
                         "theorem2", report.value, report.satisfied))
        if not report.satisfied:
            print(f"witness: {report.witness}", file=err)
    _emit(rows, args.output_format, out)
    return 0 if all(row["satisfied"] for row in rows) else 1


def _run_contract_check(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    model, r, _s, b = _load_instance(args, err)
    if b is None:
        raise ModelDocumentError("no B set: pass --B or add lists.B to the model file")
    check = check_contraction_identity(model, r, frozenset(b.entries))
    print(f"lhs={check.lhs} rhs={check.rhs}", file=err)
    rows = [_row(0, model.n, model.q, model.interactions.s, len(r),
                 len(frozenset(b.entries)), "contraction",
                 check.lhs - check.rhs, check.equal)]
    _emit(rows, args.output_format, out)
    return 0 if check.equal else 1


def _run_xi(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    rows = _sweep_xi(args, err)
    _emit(rows, args.output_format, out)
    return 0 if all(row["satisfied"] for row in rows) else 1


def _run_approx_x(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    """Convenience: float log-coupling J to an APPROXIMATE rational weight.

    The engine itself only accepts exact weights; this converts
    ``exp(J)`` to a nearby fraction for people starting from a float J.
    """
    j = args.log_coupling
    if not 0 <= j < math.inf:
        raise ModelDocumentError("--J must be a finite nonnegative float")
    try:
        weight = math.exp(j)
    except OverflowError:
        raise ModelDocumentError(f"--J {j!r} is too large: exp(J) overflows a float") from None
    x = Fraction(weight).limit_denominator(args.max_denominator)
    if x < 1:
        x = Fraction(1)
    out.write(
        f"approximate: x = {x} (~ exp({j!r}) = {weight!r}); "
        "not exact, rounded to a nearby rational\n"
    )
    return 0


# --- argument parsing ---------------------------------------------------------


def _sites_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_set_arg(text: str) -> tuple[int, ...]:
    values = _sites_arg(text)
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottsverify",
        description="Exact-enumeration checks of Griffiths-type correlation "
                    "inequalities for the generalized q-state Potts model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, model: bool = True) -> None:
        if model:
            p.add_argument("--model", dest="model_path", metavar="PATH",
                           help="JSON model file")
            p.add_argument("--R", dest="r_entries", type=_sites_arg, metavar="1,3",
                           help="index list R (overrides lists.R in the file)")
            p.add_argument("--S", dest="s_entries", type=_sites_arg, metavar="2,2",
                           help="index list S (overrides lists.S in the file)")
            # Only contract-check adds --B; the other model commands load no B.
            p.set_defaults(b_sites=None)
        p.add_argument("--format", dest="output_format", choices=FORMATS,
                       default="human", help="report format (default human)")

    add_common(sub.add_parser("expect", help="thermal average of a spin product"))
    add_common(sub.add_parser("verify", help="inequality checks on one model"))

    p = sub.add_parser("contract-check", help="vertex-merging identity on one instance")
    add_common(p)
    p.add_argument("--B", dest="b_sites", type=_sites_arg, metavar="1,2",
                   help="site set to merge (overrides lists.B in the file)")

    p = sub.add_parser("xi", help="power-sum gap family sweep")
    add_common(p, model=False)
    p.add_argument("--q-set", dest="q_set", type=_int_set_arg,
                   default=tuple(range(2, 13)), metavar="2,3,4",
                   help="q values to sweep (default 2..12)")
    p.add_argument("--exponents", dest="exponents", type=_int_set_arg,
                   default=(2, 4, 6), metavar="2,4,6",
                   help="even exponents for both arguments (default 2,4,6)")

    p = sub.add_parser(
        "approx-x",
        help="convert a float log-coupling J to an approximate rational weight",
    )
    p.add_argument("--J", dest="log_coupling", type=float, required=True,
                   help="nonnegative float log-coupling to approximate")
    p.add_argument("--max-denominator", dest="max_denominator", type=_int_at_least(1),
                   default=10**6)

    p = sub.add_parser("sweep", help="seeded random-instance verification suites")
    add_common(p, model=False)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(0), default=100)
    p.add_argument("--q-set", dest="q_set", type=_int_set_arg, default=(2, 3, 4, 5),
                   metavar="2,3,4",
                   help="q values for random models (default 2,3,4,5); "
                        "the xi suite always sweeps q = 2..12")
    p.add_argument("--n-max", dest="n_max", type=_int_at_least(1), default=6)
    p.add_argument("--x-max", dest="x_max", type=_int_at_least(1), default=10)
    p.add_argument("--max-interactions", dest="max_interactions",
                   type=_int_at_least(0), default=6)
    p.add_argument("--max-list-len", dest="max_list_len", type=_int_at_least(0), default=6)
    p.set_defaults(exponents=(2, 4, 6))
    return parser


_COMMANDS = {
    "expect": _run_expect,
    "verify": _run_verify,
    "contract-check": _run_contract_check,
    "xi": _run_xi,
    "approx-x": _run_approx_x,
    "sweep": _run_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if (args.command == "sweep" and args.n_max < 2
            and args.suite in ("all", "contraction", "quadratic")):
        print("error: --n-max must be >= 2 for the contraction and quadratic suites",
              file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, sys.stdout, sys.stderr)
    except (ModelDocumentError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
