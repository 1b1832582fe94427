"""The benchmark's workloads: their inputs, untraced rounds and traced rounds.

Every workload is a closed loop with one caller: a round issues its
requests one after another, each only after the previous one returned.
Only the traced census round also runs census_run with a pool of two
workers, for the pool's per-layer cost.

A traced round re-composes the same work from orthoposet's public
functions and records a span around each call (see tracing.py); nothing
inside the program is instrumented.  For analyze the real build_report
runs, with the public names it calls swapped for traced wrappers for the
length of the round.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import gates
from tracing import Tracer

CENSUS_MAX_N = 5
SEARCH_MAX_N = 6
SEARCH_PREDICATE = "nfree_but_strict_not_dacey"
POSETS_TO_5 = sum(gates.LABELED_POSETS)      # 4473
POSETS_TO_6 = POSETS_TO_5 + 130023           # 134496, OEIS A001035 at n=6

# analyze inputs: fixed structures plus random posets from a recorded pool
ANTICHAINS = (6, 7, 8)
CHAIN = 16
RANDOM_SIZES = tuple(range(8, 17))
EDGE_PROBS = (0.3, 0.4, 0.5)
CORE_PER_CELL = 4       # pool draws 0..3 of every (n, edge_prob) cell, every seed
POOL_PER_CELL = 20      # draws 4..19 are the held-out pool the seed samples
HELD_OUT = 12


@dataclass
class Outcome:
    """One timed request: seconds in the timed region and gate problems."""

    seconds: float
    posets: int
    problems: list[str]


@dataclass
class Context:
    reference: dict
    validator: object


def import_program():
    """Import orthoposet afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules
                 if m == "orthoposet" or m.startswith("orthoposet.")]:
        del sys.modules[name]
    return importlib.import_module("orthoposet")


def timed(check: Callable[[object], list[str]], posets: int,
           fn: Callable, *args, **kwargs) -> Outcome:
    """Run fn, timing only the call; gate its output afterwards."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a raising request is a failed operation
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, posets, [f"raised {exc!r}"])
    seconds = time.perf_counter() - t0
    return Outcome(seconds, posets, check(out))


def _count_family(tr: Tracer, family, args) -> None:
    tr.add("orthoset.family_size.sum", len(family))


def _count_cells(tr: Tracer, logic, args) -> None:
    tr.add("logic.cells.count", logic.m ** 2)


def _count_triples(tr: Tracer, verdict, args) -> None:
    # is_boolean scans all m**3 triples exactly when the logic is Boolean
    if verdict[0]:
        tr.add("logic.boolean_triples.count", args[0].m ** 3)


@contextmanager
def _patched(tr: Tracer, targets) -> Iterator[None]:
    """Swap module attributes for traced wrappers; restore them after."""
    saved = []
    for module, attr, span, count in targets:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, tr.wrap(span, fn, count))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _family_target():
    # build_logic computes the orthoclosed family through this module global
    return [(sys.modules["orthoposet.logic"], "enumerate_orthoclosed",
             "orthoset.family", _count_family)]


def _traced_posets(op, tr: Tracer, n: int) -> Iterator:
    """enumerate_labeled_posets(n) with a span around each step."""
    it = op.enumerate_labeled_posets(n)
    count = 0
    while True:
        i = tr.begin("census.enumerate")
        p = next(it, None)
        tr.finish(i)
        if p is None:
            break
        count += 1
        yield p
    tr.add("census.enumerate.count", count)


def recompose_census(op, tr: Tracer, max_n: int) -> list:
    """census_run(max_n) rebuilt from public calls, one span per call."""
    is_dacey = tr.wrap("orthoset.dacey", op.is_dacey)
    build_logic = tr.wrap("logic.build", op.build_logic, _count_cells)
    is_boolean = tr.wrap("logic.boolean", op.is_boolean, _count_triples)
    out = []
    for n in range(1, max_n + 1):
        total = 0
        counts = [0] * 7
        violations = []
        for p in _traced_posets(op, tr, n):
            total += 1
            n_free = tr.call("npatterns.n", op.is_n_free, p)
            cov_free = tr.call("npatterns.covering_n", op.find_covering_n, p) is None
            weak_free = tr.call("npatterns.weak_n", op.find_weak_n, p) is None
            o = tr.call("bridges.orthoset", op.incomparability_orthoset, p)
            dacey = is_dacey(o)[0]
            compatible = tr.call("orthoset.compatible", op.is_compatible, o)[0]
            logic = build_logic(o)
            oml = tr.call("logic.oml", op.is_orthomodular, logic)[0]
            boolean = is_boolean(logic)[0]
            chain_antichain = tr.call("npatterns.chain_antichain",
                                      op.chain_antichain_property, p)
            flags = (n_free, weak_free, dacey, compatible, oml, boolean,
                     chain_antichain)
            for k, flag in enumerate(flags):
                counts[k] += flag
            for v in _violations(n_free, weak_free, cov_free, dacey,
                                 compatible, oml, boolean, chain_antichain):
                violations.append(f"n={n} up={list(p.up)}: {v}")
        out.append(op.CensusSummary(n, total, *counts, tuple(sorted(violations))))
    return out


def _violations(n_free, weak_free, cov_free, dacey, compatible, oml, boolean,
                chain_antichain) -> list[str]:
    """The equivalence checks census_run applies to every poset."""
    found = [name for name, lhs, rhs in (
        ("n_free vs dacey", n_free, dacey),
        ("n_free vs oml", n_free, oml),
        ("n_free vs chain_antichain", n_free, chain_antichain),
        ("n_free vs covering_n_free", n_free, cov_free),
        ("weak_n_free vs compatible", weak_free, compatible),
        ("weak_n_free vs boolean", weak_free, boolean),
    ) if lhs != rhs]
    if weak_free and not n_free:
        found.append("weak_n_free without n_free")
    if boolean and not oml:
        found.append("boolean without oml")
    return found


def recompose_search(op, tr: Tracer, max_n: int):
    """search_counterexample(SEARCH_PREDICATE, max_n) from public calls."""
    for n in range(1, max_n + 1):
        for p in _traced_posets(op, tr, n):
            if not tr.call("npatterns.n", op.is_n_free, p):
                continue
            s = tr.call("bridges.orthoset", op.strict_comparability_orthoset, p)
            if not tr.call("orthoset.strict_dacey", op.is_dacey, s)[0]:
                return p
    return None


class Workload:
    """A workload built from its seed.

    Subclasses define warm_up(), round() -> outcomes, and
    traced_round(tracer) -> (seconds of the traced pipeline, outcomes,
    extra per-layer metrics).
    """

    name = ""

    def __init__(self, op, seed: int, ctx: Context):
        self.op = op
        self.seed = seed
        self.ctx = ctx

    def trace_setup(self, tr: Tracer) -> None:
        """Record spans for the part of set-up a layer metric reports."""


class Census(Workload):
    """census_run(5, workers=1): about 4.5k tiny posets per request, so
    per-poset fixed costs dominate; the paper's core loop.  The input is
    exhaustive and does not depend on the seed."""

    name = "census"

    def warm_up(self) -> None:
        self.op.census_run(3)

    def _check(self, summaries) -> list[str]:
        return gates.census_problems(summaries, self.ctx.reference)

    def _run(self, workers: int) -> Outcome:
        return timed(self._check, POSETS_TO_5, self.op.census_run,
                     CENSUS_MAX_N, workers=workers)

    def round(self) -> list[Outcome]:
        return [self._run(1)]

    def traced_round(self, tr: Tracer) -> tuple[float, list[Outcome], dict]:
        with _patched(tr, _family_target()):
            o = timed(self._check, POSETS_TO_5, recompose_census,
                      self.op, tr, CENSUS_MAX_N)
        # the Pool and prefix-sharding path, timed whole: its workers are
        # other processes, which spans in this one cannot see
        pool, serial = self._run(2), self._run(1)
        return o.seconds, [o, pool, serial], {
            "census.pool_overhead_s": pool.seconds - serial.seconds}


class Search(Workload):
    """search_counterexample to n<=6: enumeration, the N detector and Dacey
    on the strict-comparability orthoset; never builds a logic.  The input
    is exhaustive and does not depend on the seed."""

    name = "search"

    def warm_up(self) -> None:
        self.op.search_counterexample(SEARCH_PREDICATE, 4)

    def round(self) -> list[Outcome]:
        return [timed(gates.search_problems, POSETS_TO_6,
                      self.op.search_counterexample, SEARCH_PREDICATE,
                      SEARCH_MAX_N)]

    def traced_round(self, tr: Tracer) -> tuple[float, list[Outcome], dict]:
        o = timed(gates.search_problems, POSETS_TO_6, recompose_search,
                  self.op, tr, SEARCH_MAX_N)
        return o.seconds, [o], {}


def _plain_call(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


def random_entry(op, n: int, edge_prob: float, i: int):
    """(name, poset) for draw i of the (n, edge_prob) cell."""
    seed = n * 10_000 + round(edge_prob * 10) * 1_000 + i
    return f"random-n{n}-p{edge_prob}-i{i:02d}", op.random_poset(n, seed, edge_prob)


def fixed_posets(op) -> list:
    """(name, poset) for the structures every analyze seed includes."""
    out = [
        ("catalog-n", op.n_poset()),
        ("catalog-diamond22", op.diamond22()),
        ("catalog-weak-nfree-incompatible", op.weak_nfree_incompatible()),
        ("catalog-nfree-strict-non-dacey", op.nfree_strict_non_dacey()),
    ]
    out += [(f"antichain-{k}", op.antichain(k)) for k in ANTICHAINS]
    out.append((f"chain-{CHAIN}", op.chain(CHAIN)))
    out += [random_entry(op, n, p, i) for n in RANDOM_SIZES
            for p in EDGE_PROBS for i in range(CORE_PER_CELL)]
    return out


def held_out_keys() -> list[tuple[int, float, int]]:
    return [(n, p, i) for n in RANDOM_SIZES for p in EDGE_PROBS
            for i in range(CORE_PER_CELL, POOL_PER_CELL)]


def analyze_inputs(op, seed: int, call: Callable = _plain_call,
                   ) -> list[tuple[str, str]]:
    """(name, file text) for one analyze round; HELD_OUT pool draws depend
    on the seed, drawn uniformly over cells and draws."""
    rng = random.Random(seed)
    posets = fixed_posets(op)
    posets += [random_entry(op, *key)
               for key in rng.sample(held_out_keys(), HELD_OUT)]
    return [(name, call("ioformats.serialize", op.serialize_poset_file, p))
            for name, p in posets]


class Analyze(Workload):
    """About 120 poset files per round: file text -> parse_poset_file ->
    build_report -> emit_json_report.  A few large logics dominate."""

    name = "analyze"

    def __init__(self, op, seed: int, ctx: Context):
        super().__init__(op, seed, ctx)
        self.inputs = analyze_inputs(op, seed)

    def warm_up(self) -> None:
        self._request(*self.inputs[0])

    def trace_setup(self, tr: Tracer) -> None:
        analyze_inputs(self.op, self.seed, tr.call)

    def _request(self, name: str, text: str) -> str:
        p = self.op.parse_poset_file(text)
        return self.op.emit_json_report(self.op.build_report(p, source=name))

    def _traced_request(self, tr: Tracer, name: str, text: str) -> str:
        op = self.op
        p = tr.call("ioformats.parse", op.parse_poset_file, text)
        report = tr.call("report.build", op.build_report, p, source=name)
        return tr.call("report.emit", op.emit_json_report, report)

    def _checker(self, name: str) -> Callable[[str], list[str]]:
        return lambda text: gates.report_problems(
            name, text, self.ctx.reference, self.ctx.validator)

    def round(self) -> list[Outcome]:
        return [timed(self._checker(name), 1, self._request, name, text)
                for name, text in self.inputs]

    def traced_round(self, tr: Tracer) -> tuple[float, list[Outcome], dict]:
        report = sys.modules["orthoposet.report"]
        targets = _family_target() + [
            (report, "verify_theorems", "report.verify", None),
            (report, "incomparability_orthoset", "bridges.orthoset", None),
            (report, "find_n", "npatterns.witness", None),
            (report, "find_covering_n", "npatterns.witness", None),
            (report, "find_weak_n", "npatterns.witness", None),
            (report, "is_dacey", "orthoset.dacey", None),
            (report, "is_compatible", "orthoset.compatible", None),
            (report, "build_logic", "logic.build", _count_cells),
            (report, "is_orthomodular", "logic.oml", None),
            (report, "is_boolean", "logic.boolean", _count_triples),
        ]
        outcomes = []
        with _patched(tr, targets):
            for k, (name, text) in enumerate(self.inputs):
                tr.request = k
                outcomes.append(timed(self._checker(name), 1,
                                       self._traced_request, tr, name, text))
        return sum(o.seconds for o in outcomes), outcomes, {}


WORKLOADS = {w.name: w for w in (Census, Search, Analyze)}
