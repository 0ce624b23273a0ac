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
approx-x
    A float log-coupling J to an approximate rational weight.

Each subcommand binds its runner; ``main`` parses, runs it, emits its rows
(one per check, columns trial, n, q, s, |R|, |S|, quantity, value_num,
value_den, satisfied) in human, json, or csv format, and sets the exit code
from them.  Values are exact integer ratios.  approx-x returns no rows; it
writes its one line itself.  Output is a pure function of the arguments, so
identical invocations are byte-identical.

Diagnostics go to stderr.  A failing model check (theorem1, theorem2,
quadratic, contraction) leaves a one-line ``witness:`` model document there,
whose lists hold the check's inputs, for ``--model`` to load; in json its
row also carries that document as ``witness``.  An xi row names its own
(q, a, b).  Exit code 0 means every check passed, 1 means a
mathematical check failed (an engine bug), 2 means a usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

from .contraction import (
    IdentityCheck,
    check_contraction_identity,
    resolve_infinite_couplings,
)
from .enumeration import expectation
from .generators import random_coupling, random_index_list, random_model
from .inequalities import (
    InequalityReport,
    _report,
    check_positive_covariance,
    check_positive_expectation,
    check_power_sum_gap_recursion,
    check_quadratic,
)
from .model import EMPTY_LIST, IndexList, Model, ModelError, _check_range
from .serialize import ModelDocumentError, model_from_dict

__all__ = ["main", "parse_model_file"]

ROW_FIELDS = (
    "trial", "n", "q", "s", "|R|", "|S|",
    "quantity", "value_num", "value_den", "satisfied",
)
SUITES = ("theorem1", "theorem2", "contraction", "xi", "quadratic")
FORMATS = ("human", "json", "csv")


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
    except ValueError:  # an integer past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ModelDocumentError(f"{path}: an integer has more than {limit} digits") from None
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


def _check_row(trial: int, model: Model, r: IndexList, s: IndexList,
               report: InequalityReport, err: TextIO) -> dict:
    """The row of a model check's report; a failing check's witness goes to
    stderr and into the row."""
    row = _row(trial, model.n, model.q, model.interactions.s, len(r), len(s),
               report.kind, report.value, report.satisfied)
    if not report.satisfied:
        print(f"witness: {report.witness}", file=err)
        row["witness"] = json.loads(report.witness)
    return row


def _contraction_report(model: Model, r: IndexList, b: IndexList,
                        check: IdentityCheck) -> InequalityReport:
    """An identity check as a report: the value is lhs - rhs, and a mismatch's
    witness, built by ``inequalities._report``, holds ``R`` and ``B`` for
    ``contract-check --model`` to replay."""
    return _report("contraction", (check.lhs - check.rhs,), check.equal, model, {"R": r, "B": b})


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
# Each suite draws one trial from the state ``_suite_draws`` hands it and
# returns that trial's row.


def _random_model(args: argparse.Namespace, rng: random.Random, n_min: int = 1) -> Model:
    return random_model(rng, n_max=args.n_max, n_min=n_min, q_set=args.q_set,
                        x_max=args.x_max, max_interactions=args.max_interactions)


def _theorem1_trial(args, rng: random.Random, trial: int, err: TextIO) -> dict:
    model = _random_model(args, rng)
    r = random_index_list(rng, model.n, args.max_list_len)
    return _check_row(trial, model, r, EMPTY_LIST, check_positive_expectation(model, r), err)


def _theorem2_trial(args, rng: random.Random, trial: int, err: TextIO) -> dict:
    model = _random_model(args, rng)
    r = random_index_list(rng, model.n, args.max_list_len)
    s = random_index_list(rng, model.n, args.max_list_len)
    return _check_row(trial, model, r, s, check_positive_covariance(model, r, s), err)


def _contraction_trial(args, rng: random.Random, trial: int, err: TextIO) -> dict:
    model = _random_model(args, rng, n_min=2)
    merged = frozenset(rng.sample(range(1, model.n + 1), rng.randint(2, model.n)))
    r = random_index_list(rng, model.n, args.max_list_len)
    b = IndexList(tuple(merged))  # |S| carries |B|, the number of sites merged
    check = check_contraction_identity(model, r, merged)
    return _check_row(trial, model, r, b, _contraction_report(model, r, b, check), err)


def _xi_trial(args, point: tuple[int, int, int], trial: int, err: TextIO) -> dict:
    # |R| and |S| carry the two exponents.
    q, a, b = point
    report = check_power_sum_gap_recursion(q, a, b)
    return _row(trial, 0, q, 0, a, b, "xi", report.value, report.satisfied)


def _quadratic_trial(args, rng: random.Random, trial: int, err: TextIO) -> dict:
    free: list[frozenset[int]] = []
    while not free:
        model = _random_model(args, rng, n_min=2)
        free = [
            frozenset(combo)
            for size in range(2, min(4, model.n) + 1)
            for combo in itertools.combinations(range(1, model.n + 1), size)
            if frozenset(combo) not in model.interactions.couplings
        ]
    merged = rng.choice(sorted(free, key=sorted))
    x = random_coupling(rng, args.x_max)
    extra = (random_coupling(rng, args.x_max), random_coupling(rng, args.x_max))
    r = random_index_list(rng, model.n, args.max_list_len)
    s = random_index_list(rng, model.n, args.max_list_len)
    return _check_row(trial, model, r, s,
                      check_quadratic(model, merged, x, r, s, extra_x=extra), err)


_SUITE_TRIALS = {
    "theorem1": _theorem1_trial,
    "theorem2": _theorem2_trial,
    "contraction": _contraction_trial,
    "xi": _xi_trial,
    "quadratic": _quadratic_trial,
}


def _suite_draws(args: argparse.Namespace, suite: str) -> Iterable:
    """One draw per trial: the suite's seeded RNG, or for xi a (q, a, b) point."""
    if suite == "xi":
        return itertools.product(args.xi_q_set, args.exponents, args.exponents)
    rng = random.Random(args.seed * len(SUITES) + 1 + SUITES.index(suite))
    return itertools.repeat(rng, args.trials)


def _run_sweep(args: argparse.Namespace, err: TextIO) -> list[dict]:
    suites = SUITES if args.suite == "all" else (args.suite,)
    # Suites first: the xi command has no --n-max.
    if {"contraction", "quadratic"} & set(suites) and args.n_max < 2:
        raise ModelDocumentError(
            "--n-max must be >= 2 for the contraction and quadratic suites")
    return [
        _SUITE_TRIALS[suite](args, draw, trial, err)
        for suite in suites
        for trial, draw in enumerate(_suite_draws(args, suite))
    ]


# --- single-model commands ----------------------------------------------------


def _load_instance(args: argparse.Namespace, err: TextIO):
    """Model plus R/S/B lists from file and flags, infinite couplings resolved."""
    if not args.model_path:
        raise ModelDocumentError("a --model file is required")
    model, named = parse_model_file(args.model_path)

    def pick(flag: tuple[int, ...] | None, name: str) -> IndexList | None:
        if flag is not None:
            _check_range(model.n, flag, f"--{name}: site")
            return IndexList(flag)
        return named.get(name)

    lists = [pick(args.r_entries, "R"), pick(args.s_entries, "S"), pick(args.b_sites, "B")]
    if lists[0] is None:
        raise ModelDocumentError("no R list: pass --R or add lists.R to the model file")

    if model.interactions.has_infinite:
        resolved = resolve_infinite_couplings(model)
        mapping = " ".join(f"{old}->{new}" for old, new in sorted(resolved.site_map.items()))
        print(f"note: infinite couplings contracted; site map {mapping}", file=err)
        model = resolved.model
        given_b = lists[2]
        lists = [lst if lst is None else lst.relabel(resolved.site_map) for lst in lists]
        if (args.command == "contract-check" and given_b is not None
                and len(lists[2].support) < 2 <= len(given_b.support)):
            sites = ",".join(map(str, sorted(given_b.support)))
            raise ModelDocumentError(
                f"merged site set {{{sites}}} became one site when infinite couplings "
                "were contracted; it must contain at least 2 sites")
    return (model, *lists)


def _run_expect(args: argparse.Namespace, err: TextIO) -> list[dict]:
    model, r, _s, _b = _load_instance(args, err)
    return [_row(0, model.n, model.q, model.interactions.s, len(r), 0,
                 "expectation", expectation(model, r), True)]


def _run_verify(args: argparse.Namespace, err: TextIO) -> list[dict]:
    model, r, s, _b = _load_instance(args, err)
    rows = [_check_row(0, model, r, EMPTY_LIST, check_positive_expectation(model, r), err)]
    if s is not None:
        rows.append(_check_row(1, model, r, s, check_positive_covariance(model, r, s), err))
    return rows


def _run_contract_check(args: argparse.Namespace, err: TextIO) -> list[dict]:
    model, r, _s, b = _load_instance(args, err)
    if b is None:
        raise ModelDocumentError("no B set: pass --B or add lists.B to the model file")
    merged = frozenset(b.entries)
    check = check_contraction_identity(model, r, merged)
    print(f"lhs={check.lhs} rhs={check.rhs}", file=err)
    b = IndexList(tuple(merged))  # each site once, in |S| and in the witness
    return [_check_row(0, model, r, b, _contraction_report(model, r, b, check), err)]


def _approx_x(args: argparse.Namespace, err: TextIO) -> list[dict]:
    """Convenience: float log-coupling J to an APPROXIMATE rational weight.

    The engine itself only accepts exact weights; this writes ``exp(J)`` as
    a nearby fraction, for people starting from a float J, and checks nothing.
    """
    j = args.log_coupling
    if not 0 <= j < math.inf:
        raise ModelDocumentError("--J must be a finite nonnegative float")
    try:
        weight = math.exp(j)
    except OverflowError:
        raise ModelDocumentError(f"--J {j!r} is too large: exp(J) overflows a float") from None
    x = Fraction(weight).limit_denominator(args.max_denominator)
    sys.stdout.write(
        f"approximate: x = {x} (~ exp({j!r}) = {weight!r}); "
        "not exact, rounded to a nearby rational\n"
    )
    return []


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottsverify",
        description="Exact-enumeration checks of Griffiths-type correlation "
                    "inequalities for the generalized q-state Potts model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, run, model: bool = True) -> None:
        p.set_defaults(run=run)
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

    add_common(sub.add_parser("expect", help="thermal average of a spin product"), _run_expect)
    add_common(sub.add_parser("verify", help="inequality checks on one model"), _run_verify)

    p = sub.add_parser("contract-check", help="vertex-merging identity on one instance")
    add_common(p, _run_contract_check)
    p.add_argument("--B", dest="b_sites", type=_sites_arg, metavar="1,2",
                   help="site set to merge (overrides lists.B in the file)")

    p = sub.add_parser("xi", help="power-sum gap family sweep")
    add_common(p, _run_sweep, model=False)
    p.add_argument("--q-set", dest="xi_q_set", type=_int_set_arg,
                   default=tuple(range(2, 13)), metavar="2,3,4",
                   help="q values to sweep (default 2..12)")
    p.add_argument("--exponents", dest="exponents", type=_int_set_arg,
                   default=(2, 4, 6), metavar="2,4,6",
                   help="even exponents for both arguments (default 2,4,6)")
    p.set_defaults(suite="xi")

    p = sub.add_parser(
        "approx-x",
        help="convert a float log-coupling J to an approximate rational weight",
    )
    p.add_argument("--J", dest="log_coupling", type=float, required=True,
                   help="nonnegative float log-coupling to approximate")
    p.add_argument("--max-denominator", dest="max_denominator", type=_int_at_least(1),
                   default=10**6)
    # Its one line is all its output; the human format emits no rows.
    p.set_defaults(run=_approx_x, output_format="human")

    p = sub.add_parser("sweep", help="seeded random-instance verification suites")
    add_common(p, _run_sweep, model=False)
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
    p.set_defaults(exponents=(2, 4, 6), xi_q_set=tuple(range(2, 13)))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rows = args.run(args, sys.stderr)
    except (ModelDocumentError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(rows, args.output_format, sys.stdout)
    return 0 if all(row["satisfied"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
