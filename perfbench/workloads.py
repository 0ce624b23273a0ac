"""The benchmark's three workloads: inputs from a seed, calls, and their gates.

A workload turns ``--seed`` into inputs once, during set-up, and then yields
the calls of pass ``k``.  A pass is the workload's fixed unit of work; the
harness repeats passes until the run's time is up.  Each call is a thunk the
harness times and a judge it runs afterwards, outside the timed region.  A
judge returns ``(checks, failed, digest)``: the checks the call made, how many
of them failed or mismatched the exact gate, and the call's output in a
canonical form, which must repeat byte for byte whenever the call repeats.

Why these workloads (the prediction each one carries is in ``NOTES.md``):

* ``sweep_mixed`` -- the documented bulk use, thousands of small scans, so
  per-call overhead and scan count dominate.
* ``ring_cli`` -- one large, low-width model through the CLI, so the kernel's
  per-configuration cost dominates.
* ``dense_events`` -- many event-restricted requests on one dense model
  through the library, so the cost of each extra request shows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

ROW_FIELDS = ["trial", "n", "q", "s", "|R|", "|S|",
              "quantity", "value_num", "value_den", "satisfied"]


@dataclass
class Call:
    key: str                      # calls with equal keys must give equal digests
    thunk: Callable[[], object]   # the timed part
    judge: Callable[[object], tuple[int, int, str]]
    cli: bool = False             # the thunk returns (exit code, stdout)


def _coupling(rng: random.Random, x_max: int = 10) -> Fraction:
    d = rng.randint(1, 9)
    return 1 + Fraction(rng.randint(0, (x_max - 1) * d), d)


# --- CLI helpers -------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def csv_rows(stdout: str) -> list[dict] | None:
    """Report rows of a ``--format csv`` run, or None if malformed."""
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader, None)
    if header != ROW_FIELDS:
        return None
    rows = [dict(zip(ROW_FIELDS, cells)) for cells in reader]
    if any(len(row) != len(ROW_FIELDS) for row in rows):
        return None
    return rows


def judge_cli(result, checks: int,
              extra: Callable[[list[dict]], int] | None = None) -> tuple[int, int, str]:
    """Exit code 0, ``checks`` well-formed rows, every row satisfied, plus
    the failures ``extra`` counts."""
    code, stdout = result
    rows = csv_rows(stdout)
    if code != 0 or rows is None or len(rows) != checks:
        return checks, checks, stdout
    failed = sum(1 for row in rows if row["satisfied"] != "true")
    if extra is not None:
        failed += extra(rows)
    return checks, min(failed, checks), stdout


# --- sweep_mixed ---------------------------------------------------------------


class SweepMixed:
    """``pottsverify sweep --suite all --seed <s_k> --trials 100 --format csv``
    on pass ``k`` (100 is the default trial count); the default generator
    settings apply.

    A sweep's cost depends on the instances its seed draws: over ten seeds,
    single-sweep times had an interquartile spread of 40% of their median.
    So pass ``k`` sweeps its own seed ``s_k``, drawn from ``--seed``, and the
    number of passes follows from ``--seconds`` and ``pass_s``, never from
    the build's speed, so that every build sweeps the same instances.
    """

    name = "sweep_mixed"
    # Seconds budgeted per pass: a pass takes ~1.8 s at the reference speed,
    # and the rest keeps a run near --seconds on a slower machine.
    pass_s = 2.25

    def __init__(self, seed: int, size: str = "full") -> None:
        self.trials = 100 if size == "full" else 2
        rng = random.Random(seed)
        self.sweep_seeds = [rng.getrandbits(31) for _ in range(256)]
        # theorem1, theorem2, contraction and quadratic rows, plus the fixed
        # xi grid (q = 2..12, exponents {2,4,6}^2).
        self.rows = 4 * self.trials + 11 * 9

    def prepare(self, pkg, cli, workdir) -> None:
        self.cli = cli
        self.argvs = [
            ["sweep", "--suite", "all", "--seed", str(s), "--trials", str(self.trials),
             "--format", "csv"]
            for s in self.sweep_seeds
        ]

    def inputs_digest(self) -> str:
        return json.dumps(self.sweep_seeds[:8])

    def calls(self, k: int) -> list[Call]:
        argv = self.argvs[k % len(self.argvs)]
        return [Call(f"sweep:{argv[4]}", lambda: run_cli(self.cli, argv),
                     lambda res: judge_cli(res, self.rows), cli=True)]


# --- ring_cli --------------------------------------------------------------------


def ring_document(seed: int, n: int, q: int) -> dict:
    """A ring of ``n`` sites: nearest-neighbour pairs, a triple on every third
    consecutive triple, and one infinite pair, which contraction removes."""
    rng = random.Random(seed)
    sites = range(1, n + 1)
    pairs = [sorted((i, i % n + 1)) for i in sites]
    triples = [[i, i + 1, i + 2] for i in range(1, n - 1, 3)]
    # The infinite pair stays clear of the last two sites, whose digits the
    # kernel steps most often, so the seed does not change the scan's cost.
    hard = rng.choice(pairs[:n - 3])
    interactions = [
        {"sites": p, "x": "inf" if p == hard else str(_coupling(rng))} for p in pairs
    ] + [{"sites": t, "x": str(_coupling(rng))} for t in triples]
    # B avoids one end of the infinite pair, so that it still names 3 sites
    # after the pair is contracted, and, like the pair, the last two sites.
    b = sorted(rng.sample([i for i in sites[:-2] if i != hard[1]], 3))
    # R and S have four distinct sites each and share two, so the number of
    # spin-product factors per configuration is the same for every seed.
    r = rng.sample(sites, 4)
    s = r[:2] + rng.sample([i for i in sites if i not in r], 2)
    return {
        "n": n, "q": q, "interactions": interactions,
        "lists": {"R": r, "S": s, "B": b},
    }


class RingCli:
    """``verify``, ``expect`` and ``contract-check`` on one model file."""

    name = "ring_cli"
    pass_s = None   # every pass is the same, so passes repeat while time allows

    def __init__(self, seed: int, size: str = "full") -> None:
        n, q = (12, 3) if size == "full" else (6, 3)
        self.document = ring_document(seed, n, q)

    def prepare(self, pkg, cli, workdir) -> None:
        self.cli = cli
        path = workdir / "ring_model.json"
        path.write_text(json.dumps(self.document, indent=1) + "\n", encoding="utf-8")
        model = ["--model", str(path), "--format", "csv"]
        self.argvs = {
            "verify": ["verify", *model],
            "expect": ["expect", *model],
            "contract-check": ["contract-check", *model],
        }

    def inputs_digest(self) -> str:
        return json.dumps(self.document, sort_keys=True)

    def calls(self, k: int) -> list[Call]:
        theorem1 = {}

        def judge_verify(res):
            def keep(rows):
                theorem1["value"] = (rows[0]["value_num"], rows[0]["value_den"])
                return 0
            return judge_cli(res, 2, keep)

        def judge_expect(res):
            # <sigma^R> from `expect` must equal the theorem1 value of `verify`.
            return judge_cli(res, 1, lambda rows: int(
                (rows[0]["value_num"], rows[0]["value_den"]) != theorem1.get("value")))

        def judge_contract(res):
            return judge_cli(res, 1, lambda rows: int(
                (rows[0]["value_num"], rows[0]["value_den"]) != ("0", "1")))

        judges = {"verify": judge_verify, "expect": judge_expect,
                  "contract-check": judge_contract}
        return [
            Call(command, lambda argv=argv: run_cli(self.cli, argv), judges[command], cli=True)
            for command, argv in self.argvs.items()
        ]


# --- dense_events -----------------------------------------------------------------


class DenseEvents:
    """A dense model through the library: the quadratic decomposition, the
    contraction identity, and a 1/2/4/8-request ladder of sign and delta
    events on one scan each."""

    name = "dense_events"
    pass_s = None

    def __init__(self, seed: int, size: str = "full") -> None:
        n, q, n_triples = (8, 4, 20) if size == "full" else (6, 2, 4)
        rng = random.Random(seed)
        sites = range(1, n + 1)
        low = sites[:-2]
        triples = list(itertools.combinations(sites, 3))
        # The kernel's cost per configuration follows the number of subsets
        # it watches on the sites it steps most often, the highest ones.
        # Each triple is drawn among those whose sites are in the fewest
        # triples so far, so every site ends in about as many; the busiest
        # sites then get the highest labels, and the added triple and the
        # event subsets avoid the last two sites.  That fixes the cost for
        # every seed, and the draw itself takes the same time for every seed.
        chosen: list[tuple[int, ...]] = []
        degree: Counter = Counter()
        for _ in range(n_triples):
            options = [t for t in triples if t not in chosen]
            least = min(sum(degree[i] for i in t) for t in options)
            pick = rng.choice([t for t in options if sum(degree[i] for i in t) == least])
            chosen.append(pick)
            degree.update(pick)
        label = dict(zip(sorted(sites, key=lambda i: (degree[i], i)), sites))
        chosen = [tuple(sorted(label[i] for i in t)) for t in chosen]
        self.n, self.q = n, q
        self.couplings = [(p, _coupling(rng)) for p in itertools.combinations(sites, 2)]
        self.couplings += [(t, _coupling(rng)) for t in chosen]
        self.added = rng.choice([t for t in itertools.combinations(low, 3) if t not in chosen])
        self.x = _coupling(rng)
        # Lists of distinct sites, so each seed has the same number of
        # spin-product factors.
        self.r, self.s = rng.sample(sites, 3), rng.sample(sites, 3)
        self.ladder_list = rng.sample(sites, 4)
        self.delta_sites = rng.sample(low, 3)
        self.sign_sites = rng.sample(sites, 3)
        self.merged = rng.sample(low, 3)

    def prepare(self, pkg, cli, workdir) -> None:
        self.pkg = pkg
        self.model = pkg.build_model(self.n, self.q, self.couplings)
        r, s = pkg.IndexList(tuple(self.r)), pkg.IndexList(tuple(self.s))
        self.lists = r, s
        lst = pkg.IndexList(tuple(self.ladder_list))
        self.ladder_index_list = lst
        d1 = pkg.delta_event(self.delta_sites, 1)
        d0 = pkg.delta_event(self.delta_sites, 0)
        sign = {kind: pkg.sign_event(pkg.IndexList(tuple(self.sign_sites)), kind)
                for kind in (pkg.POSITIVE, pkg.NEGATIVE, pkg.ZERO)}
        # Request i's meaning is fixed, so every rung (a prefix) can be checked
        # against the partition identities its requests complete.
        self.ladder = [
            (lst, pkg.EVERYWHERE), (lst, d1), (lst, d0),
            (lst, sign[pkg.POSITIVE]), (lst, sign[pkg.NEGATIVE]), (lst, sign[pkg.ZERO]),
            (lst, pkg.conjoin(d1, sign[pkg.POSITIVE])),
            (lst, pkg.conjoin(d0, sign[pkg.POSITIVE])),
        ]

    def inputs_digest(self) -> str:
        return repr((self.couplings, self.added, self.x, self.r, self.s,
                     self.ladder_list, self.delta_sites, self.sign_sites, self.merged))

    def calls(self, k: int) -> list[Call]:
        pkg, model = self.pkg, self.model
        r, s = self.lists
        total = self.q ** self.n
        everywhere = {}

        def judge_quadratic(qd):
            ok = qd.u >= 0 and 2 * qd.u + qd.v >= 0 and qd.u + qd.v + qd.w >= 0
            return 1, int(not ok), repr((qd.u, qd.v, qd.w, qd.z_agree, qd.z_disagree))

        def judge_contraction(check):
            return 1, int(not check.equal), repr((check.lhs, check.rhs))

        def judge_ladder(results):
            values = [item.value for item in results]
            matches = [item.configs_matching for item in results]
            ok = all(item.configs_visited == total for item in results)
            ok &= everywhere.setdefault("value", values[0]) == values[0]
            if len(values) >= 3:
                ok &= values[1] + values[2] == values[0] and matches[1] + matches[2] == total
            if len(values) >= 6:
                ok &= values[3] + values[4] + values[5] == values[0]
                ok &= sum(matches[3:6]) == total
            if len(values) >= 8:
                ok &= values[6] + values[7] == values[3]
            return 1, int(not ok), repr(list(zip(values, matches)))

        calls = [
            Call("quadratic",
                 lambda: pkg.quadratic_decomposition(model, self.added, self.x, r, s),
                 judge_quadratic),
            Call("contraction",
                 lambda: pkg.check_contraction_identity(
                     model, self.ladder_index_list, self.merged),
                 judge_contraction),
        ]
        for width in (1, 2, 4, 8):
            requests = self.ladder[:width]
            calls.append(Call(f"ladder{width}",
                              lambda requests=requests: pkg.correlation_sums(model, requests),
                              judge_ladder))
        return calls


WORKLOADS = {cls.name: cls for cls in (SweepMixed, RingCli, DenseEvents)}
