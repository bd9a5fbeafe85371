"""The benchmark's four closed-loop workloads.

Every workload has a seeded operation sequence, a set-up (server,
caches, store, statistics and warm-up operations) and a timed loop.
Runs are bounded by operation count, not by time: the sequence is fixed
before the timed phase starts, so two runs with one seed perform the
same operations and every cache, memo, batcher and store counter
repeats exactly.  No request carries a deadline and admission depth
stays above the client count, so no operation is shed or degraded on
healthy code.

The datasets are the registry's eight paper datasets at the default
scale (3.1k-112k rectangles each, all on the unit extent); the seed
drives only the request order and the update stream.
"""

from __future__ import annotations

import asyncio
import shutil
from array import array
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Sequence

import numpy as np

from repro.core import (
    GHEstimator,
    PHEstimator,
    optimize_join_order,
    pairwise_selectivities,
    plan_cardinality,
)
from repro.datasets import SpatialDataset, make_paper_dataset
from repro.errors import ServiceOverloadError
from repro.geometry import RectArray
from repro.histograms import GHHistogram, apply_updates
from repro.join import join_count
from repro.perf import CachedEstimator, HistogramCache
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from repro.store import ArtifactCatalog

DATASETS = ("TS", "TCB", "CAS", "CAR", "SP", "SPG", "SCRC", "SURA")
PAIRS = tuple(combinations(DATASETS, 2))
LEVELS = (5, 6, 7)
CLIENTS = 2

#: (ds1, ds2, scheme, level): one selectivity question.
Key = tuple[str, str, str, int]


def load_datasets() -> dict[str, SpatialDataset]:
    """The eight paper datasets at the registry's default scale."""
    return {name: make_paper_dataset(name) for name in DATASETS}


def fresh_catalog(base: dict[str, SpatialDataset], *, copy: bool) -> dict[str, SpatialDataset]:
    """New dataset objects over the base geometry.

    Each has a fresh mutation token, so every set-up folds its
    fingerprints from scratch; ``copy`` gives it its own coordinate
    arrays, for workloads that edit them.
    """
    catalog = {}
    for name, ds in base.items():
        rects = ds.rects
        if copy:
            rects = RectArray(rects.xmin, rects.ymin, rects.xmax, rects.ymax)
        catalog[name] = SpatialDataset(name, rects, ds.extent)
    return catalog


def exact_selectivities(catalog: dict[str, SpatialDataset]) -> dict[tuple[str, str], float]:
    """The exact oracle for all 28 pairs, keyed by the sorted pair."""
    exact = {}
    for a, b in PAIRS:
        ds1, ds2 = catalog[a], catalog[b]
        exact[_sorted_pair(a, b)] = join_count(ds1.rects, ds2.rects) / (len(ds1) * len(ds2))
    return exact


def _sorted_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class Tally:
    """What the timed loop saw."""

    read_ns: array = field(default_factory=lambda: array("q"))
    write_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    ok: int = 0
    full: int = 0  #: answered at rung "full" and not degraded
    shed: int = 0
    degraded: int = 0
    errors: list[str] = field(default_factory=list)
    answers: dict[Key, set[float]] = field(default_factory=dict)
    plans: dict[tuple[str, ...], tuple[str, ...]] = field(default_factory=dict)
    plan_ops: dict[tuple[str, ...], int] = field(default_factory=dict)
    wall_s: float = 0.0

    def answer(self, key: Key, value: float) -> None:
        found = self.answers.get(key)
        if found is None:
            self.answers[key] = {value}
        else:
            found.add(value)

    def fail(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")


@dataclass
class State:
    """One set-up's live objects."""

    catalog: dict[str, SpatialDataset]
    cache: HistogramCache
    server: "EstimationServer | None" = None
    store: "ArtifactCatalog | None" = None
    estimator: "CachedEstimator | None" = None
    hists: dict[str, Any] = field(default_factory=dict)  #: maintained GH per dataset
    moved: dict[str, RectArray] = field(default_factory=dict)  #: rectangles before a move
    #: What the store held for each dataset's current data after the
    #: timed phase (``None`` when nothing).
    stored: dict[str, Any] = field(default_factory=dict)

    async def close(self) -> None:
        if self.server is not None:
            await self.server.aclose()
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)


async def serve_client(
    server: EstimationServer, keys: Sequence[Key], tally: Tally
) -> None:
    """One closed-loop client: submit, wait for the answer, repeat."""
    requests: dict[Key, ServeRequest] = {}
    for key in keys:
        request = requests.get(key)
        if request is None:
            request = requests[key] = ServeRequest(*key)
        tally.attempted += 1
        started = perf_counter_ns()
        try:
            response = await server.submit(request)
        except ServiceOverloadError:
            tally.shed += 1
            continue
        except Exception as exc:  # a failed request is counted, not fatal
            tally.fail(exc)
            continue
        tally.read_ns.append(perf_counter_ns() - started)
        tally.ok += 1
        if response.provenance.rung == "full" and not response.degraded:
            tally.full += 1
        else:
            tally.degraded += 1
        tally.answer(key, response.selectivity)


async def warm_up(server: EstimationServer, keys: Sequence[Key]) -> None:
    """Answer ``keys`` once with one client; any failure aborts the set-up."""
    tally = Tally()
    await serve_client(server, keys, tally)
    if tally.full != len(keys):
        raise RuntimeError(f"warm-up failed: {tally.errors or 'degraded or shed answers'}")


class Workload:
    """One workload: its operations, set-up, timed loop and checks."""

    name = ""
    why = ""
    #: Operations per second of ``--seconds``: the run performs
    #: ``round(seconds * rate)`` operations whatever the machine's speed.
    rate = 1.0
    mutates = False  #: whether the timed loop edits the datasets
    #: Whether the workload is in ``BENCHMARK.json`` (the regression gate).
    gated = True

    def __init__(self, base: dict[str, SpatialDataset]) -> None:
        self.base = base

    def op_count(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))

    def operations(self, seed: int, count: int) -> list[Any]:
        raise NotImplementedError

    async def setup(self, catalog: dict[str, SpatialDataset], workdir: Path) -> State:
        raise NotImplementedError

    async def timed(self, state: State, ops: list[Any]) -> Tally:
        raise NotImplementedError

    async def check(self, state: State, tally: Tally, answers: dict[Key, float]) -> list[str]:
        """Mismatches between the program's answers and a reference."""
        raise NotImplementedError

    async def final_answers(self, state: State, tally: Tally) -> dict[Key, float]:
        """One answer per distinct question, for the error metrics."""
        return {key: min(values) for key, values in tally.answers.items()}

    @staticmethod
    def counters(state: State) -> dict[str, float]:
        """The layers' own public counters."""
        out: dict[str, float] = {}
        for name, value in state.cache.stats.snapshot().items():
            if name != "hit_rate":
                out[f"cache.{name}"] = value
        if state.server is not None:
            stats = state.server.stats()
            for group in ("memo", "batcher", "admission"):
                for name, value in stats[group].items():
                    if name not in ("hit_rate", "entries", "high_water"):
                        out[f"{group}.{name}"] = value
            for rung, value in stats["rungs"].items():
                out[f"rungs.{rung}"] = value
        if state.store is not None:
            for name, value in state.store.stats.snapshot().items():
                if name != "hit_rate":
                    out[f"store.{name}"] = value
        return out

    @staticmethod
    def stats_bytes(state: State) -> int:
        """Bytes of statistics held: L1 cache plus the artifact store."""
        held = state.cache.current_bytes
        if state.store is not None:
            held += state.store.total_bytes()
        return held


def _cold_reference(catalog: dict[str, SpatialDataset], tally: Tally) -> dict[Key, float]:
    """Each answered question recomputed by a fresh estimator, no caches."""
    built: dict[tuple[str, str, int], Any] = {}
    estimators = {"gh": GHEstimator, "ph": PHEstimator}
    reference = {}
    for key in tally.answers:
        a, b, scheme, level = key
        estimator = estimators[scheme](level=level)
        for name in (a, b):
            if (name, scheme, level) not in built:
                ds = catalog[name]
                built[(name, scheme, level)] = estimator.prepare(ds, extent=ds.extent)
        reference[key] = estimator.combine(built[(a, scheme, level)], built[(b, scheme, level)])
    return reference


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a - b)


class ServeHot(Workload):
    name = "serve-hot"
    why = "memo-resident Zipf repeats: serve and perf.memo do all the work"
    rate = 50_000.0
    #: Its pure-Python fast path runs 1.7x faster or slower with the CPU
    #: speed of a shared machine, for seconds at a time, so over ten
    #: seeds its timings spread past any allowed bound (see README).
    gated = False
    zipf = 1.0
    gh_rtol = 0.0  #: warm-up builds every level directly, so no derived answers
    #: Ascending levels: no finer GH is cached when a coarser one is
    #: asked for, so every warm-up answer comes from a direct build.
    keys: tuple[Key, ...] = tuple(
        (a, b, "gh", level) for level in LEVELS for a, b in PAIRS
    )

    def operations(self, seed: int, count: int) -> list[Key]:
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, len(self.keys) + 1) ** self.zipf
        rank_to_key = rng.permutation(len(self.keys))
        draws = rng.choice(len(self.keys), size=count, p=weights / weights.sum())
        return [self.keys[i] for i in rank_to_key[draws]]

    def config(self) -> ServerConfig:
        return ServerConfig()

    def warm_keys(self) -> Sequence[Key]:
        return self.keys

    async def setup(self, catalog: dict[str, SpatialDataset], workdir: Path) -> State:
        server = EstimationServer(catalog, self.config())
        await warm_up(server, self.warm_keys())
        return State(catalog, server.cache, server=server)

    async def timed(self, state: State, ops: list[Any]) -> Tally:
        assert state.server is not None
        tally = Tally()
        started = perf_counter_ns()
        await asyncio.gather(
            *(serve_client(state.server, ops[i::CLIENTS], tally) for i in range(CLIENTS))
        )
        tally.wall_s = (perf_counter_ns() - started) / 1e9
        return tally

    async def check(self, state: State, tally: Tally, answers: dict[Key, float]) -> list[str]:
        """Every distinct answer is bit-identical to a cold recomputation
        (GH answers within ``gh_rtol`` of it)."""
        reference = _cold_reference(state.catalog, tally)
        problems = []
        for key, values in tally.answers.items():
            cold = reference[key]
            for value in values:
                if value != cold and not (key[2] == "gh" and _relative(value, cold) <= self.gh_rtol):
                    problems.append(f"{key}: served {value!r}, cold {cold!r}")
        return problems


class ServeMiss(ServeHot):
    name = "serve-miss"
    gated = True
    why = "working set above memo and L1 budgets: batcher, cache resolve and builds do the work"
    rate = 150.0
    #: No question repeats within this many requests, far more than the
    #: memo holds, so the memo never answers.
    gap = 32
    #: A GH level derived by 2x2 pooling sums cells in another order; the
    #: cache's documented derivation contract is 1e-9 relative.
    gh_rtol = 1e-9
    keys = tuple(
        (a, b, scheme, level) for scheme in ("gh", "ph") for level in LEVELS for a, b in PAIRS
    )
    #: One GH level-5 question per paper pair: touches all eight datasets.
    warm: tuple[Key, ...] = (
        ("TS", "TCB", "gh", 5), ("CAS", "CAR", "gh", 5),
        ("SP", "SPG", "gh", 5), ("SCRC", "SURA", "gh", 5),
    )

    def config(self) -> ServerConfig:
        return ServerConfig(memo_entries=8, cache_bytes=8 << 20)

    def warm_keys(self) -> Sequence[Key]:
        return self.warm

    def operations(self, seed: int, count: int) -> list[Key]:
        """Seeded rounds over every key, spaced so no key recurs within ``gap``."""
        rng = np.random.default_rng(seed)
        ops: list[Key] = []
        recent = list(self.warm)
        while len(ops) < count:
            tail = set((recent + ops)[-self.gap:])
            shuffled = [self.keys[i] for i in rng.permutation(len(self.keys))]
            ops.extend([k for k in shuffled if k not in tail] + [k for k in shuffled if k in tail])
        return ops[:count]


class Plan(Workload):
    name = "plan"
    why = "optimizer planning calls: core.matrix, fused GEMM and the join-order DP do the work"
    rate = 390.0
    relations = 5
    warm_ops = 4

    def operations(self, seed: int, count: int) -> list[tuple[str, ...]]:
        rng = np.random.default_rng(seed)
        return [
            tuple(DATASETS[i] for i in sorted(rng.choice(len(DATASETS), self.relations, replace=False)))
            for _ in range(count)
        ]

    async def setup(self, catalog: dict[str, SpatialDataset], workdir: Path) -> State:
        cache = HistogramCache()
        estimator = CachedEstimator(GHEstimator(level=7), cache)
        for ds in catalog.values():
            estimator.prepare(ds, extent=ds.extent)
        state = State(catalog, cache, estimator=estimator)
        self.plan_all(state, self.operations(0, self.warm_ops), Tally())
        return state

    def plan_all(self, state: State, ops: list[tuple[str, ...]], tally: Tally) -> None:
        assert state.estimator is not None
        catalog = state.catalog
        for subset in ops:
            tally.attempted += 1
            started = perf_counter_ns()
            try:
                selectivities = pairwise_selectivities(
                    [catalog[name] for name in subset], state.estimator
                )
                plan = optimize_join_order({name: len(catalog[name]) for name in subset}, selectivities)
            except Exception as exc:  # a failed plan is counted, not fatal
                tally.fail(exc)
                continue
            tally.read_ns.append(perf_counter_ns() - started)
            tally.ok += 1
            tally.full += 1
            tally.plans.setdefault(subset, plan.order)
            tally.plan_ops[subset] = tally.plan_ops.get(subset, 0) + 1
            for (a, b), value in selectivities.items():
                tally.answer((a, b, "gh", 7), value)

    async def timed(self, state: State, ops: list[Any]) -> Tally:
        tally = Tally()
        started = perf_counter_ns()
        self.plan_all(state, ops, tally)
        tally.wall_s = (perf_counter_ns() - started) / 1e9
        return tally

    async def check(self, state: State, tally: Tally, answers: dict[Key, float]) -> list[str]:
        """Fused matrix entries agree with cold pairwise combines to 1e-12."""
        datasets = list(state.catalog.values())
        reference = pairwise_selectivities(datasets, GHEstimator(level=7), engine="pairwise")
        problems = []
        for (a, b, _, _), values in tally.answers.items():
            for value in values:
                if _relative(value, reference[(a, b)]) > 1e-12:
                    problems.append(f"{a}/{b}: fused {value!r}, pairwise {reference[(a, b)]!r}")
        for subset, order in tally.plans.items():
            if sorted(order) != sorted(subset):
                problems.append(f"plan over {subset} joins {order}")
        return problems

    def regret_pct(self, state: State, tally: Tally, exact: dict[tuple[str, str], float]) -> float:
        """Mean over plans of the chosen order's cost under exact
        selectivities, relative to the order chosen from them."""
        total = 0.0
        for subset, order in tally.plans.items():
            sizes = {name: len(state.catalog[name]) for name in subset}
            truth = {pair: sel for pair, sel in exact.items() if set(pair) <= set(subset)}
            chosen = sum(plan_cardinality(order[:k], sizes, truth) for k in range(2, len(order) + 1))
            best = optimize_join_order(sizes, truth).cost
            total += tally.plan_ops[subset] * (chosen / best - 1.0) * 100.0
        return total / max(1, sum(tally.plan_ops.values()))


@dataclass(frozen=True)
class Write:
    """Move ``idx`` of dataset ``name`` by ``(dx, dy)``, clamped to the
    extent; with ``undo``, put the previous write's rectangles back."""

    name: str
    idx: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    undo: bool = False


class Ingest(Workload):
    name = "ingest"
    why = "writes beside reads: histogram maintenance, store publish/load and refolds do the work"
    rate = 1600.0
    mutates = True
    reads_per_write = 31
    batch = 64
    shift = 0.01
    level = 7

    def operations(self, seed: int, count: int) -> list[Any]:
        """Cycles of one write and ``reads_per_write`` reads.

        Writes come in pairs: a seeded move, then the same rectangles
        moved back.  Whole pairs only, so the final data is the
        registry's and the error metrics compare with the other
        workloads'.  The statistics are still the maintained ones: the
        store holds what the last write to each dataset republished.
        """
        rng = np.random.default_rng(seed)
        ops: list[Any] = []
        while len(ops) < count:
            name = DATASETS[int(rng.integers(len(DATASETS)))]
            n = len(self.base[name])
            k = min(self.batch, n)
            move = Write(
                name,
                np.sort(rng.choice(n, size=k, replace=False)),
                rng.uniform(-self.shift, self.shift, size=k),
                rng.uniform(-self.shift, self.shift, size=k),
            )
            for write in (move, Write(name, move.idx, move.dx, move.dy, undo=True)):
                ops.append(write)
                for _ in range(self.reads_per_write):
                    a, b = PAIRS[int(rng.integers(len(PAIRS)))]
                    ops.append((a, b, "gh", self.level))
        return ops

    async def setup(self, catalog: dict[str, SpatialDataset], workdir: Path) -> State:
        root = workdir / "store"
        shutil.rmtree(root, ignore_errors=True)
        store = ArtifactCatalog(root)
        server = EstimationServer(catalog, ServerConfig(), store=store)
        await warm_up(server, [(a, b, "gh", self.level) for a, b in PAIRS])
        hists = {
            name: server.cache.get_or_build(ds, "gh", self.level, extent=ds.extent)
            for name, ds in catalog.items()
        }
        return State(catalog, server.cache, server=server, store=store, hists=hists)

    def write(self, state: State, op: Write) -> None:
        """One update batch through the sanctioned write path."""
        ds = state.catalog[op.name]
        extent = ds.extent
        stale_key = HistogramCache.key_for(ds, "gh", self.level, extent)
        rects = ds.rects
        removed = rects[op.idx]
        if op.undo:
            added = state.moved.pop(op.name)
        else:
            dx = np.clip(op.dx, extent.xmin - removed.xmin, extent.xmax - removed.xmax)
            dy = np.clip(op.dy, extent.ymin - removed.ymin, extent.ymax - removed.ymax)
            added = RectArray(
                np.clip(removed.xmin + dx, extent.xmin, extent.xmax),
                np.clip(removed.ymin + dy, extent.ymin, extent.ymax),
                np.clip(removed.xmax + dx, extent.xmin, extent.xmax),
                np.clip(removed.ymax + dy, extent.ymin, extent.ymax),
            )
            state.moved[op.name] = removed
        rects.xmin[op.idx] = added.xmin
        rects.ymin[op.idx] = added.ymin
        rects.xmax[op.idx] = added.xmax
        rects.ymax[op.idx] = added.ymax
        # Bump before minting the new key: folding first would return
        # the memoized pre-edit digest.
        ds.mark_mutated()
        republish_key = HistogramCache.key_for(ds, "gh", self.level, extent)
        state.hists[op.name] = apply_updates(
            state.hists[op.name],
            added=added,
            removed=removed,
            store=state.store,
            stale_key=stale_key,
            republish_key=republish_key,
            dataset=ds,
        )

    async def timed(self, state: State, ops: list[Any]) -> Tally:
        assert state.server is not None
        tally = Tally()
        started = perf_counter_ns()
        reads: list[Key] = []
        for op in ops:
            if not isinstance(op, Write):
                reads.append(op)
                continue
            if reads:
                await serve_client(state.server, reads, tally)
                reads = []
            tally.attempted += 1
            began = perf_counter_ns()
            try:
                self.write(state, op)
            except Exception as exc:  # a failed write is counted, not fatal
                tally.fail(exc)
                continue
            tally.write_ns.append(perf_counter_ns() - began)
            tally.ok += 1
            tally.full += 1
        if reads:
            await serve_client(state.server, reads, tally)
        tally.wall_s = (perf_counter_ns() - started) / 1e9
        return tally

    async def final_answers(self, state: State, tally: Tally) -> dict[Key, float]:
        """Every pair answered again through the server, from the store.

        The stored artifacts are read first, before a miss below could
        build and publish a fresh one.  The memo and L1 are then
        emptied: both are keyed by content, so after the last undo they
        would replay the warm-up answers, which came from fresh builds.
        With them empty, every dataset's histogram is loaded from the
        artifact the maintenance path republished.
        """
        assert state.server is not None and state.server.memo is not None
        assert state.store is not None
        state.stored = {
            name: state.store.load_histogram(HistogramCache.key_for(ds, "gh", self.level, ds.extent))
            for name, ds in state.catalog.items()
        }
        state.server.memo.clear()
        state.cache.clear()
        final = Tally()
        keys = [(a, b, "gh", self.level) for a, b in PAIRS]
        await serve_client(state.server, keys, final)
        if final.full != len(keys):
            raise RuntimeError(f"final reads failed: {final.errors}")
        return {key: next(iter(values)) for key, values in final.answers.items()}

    async def check(self, state: State, tally: Tally, answers: dict[Key, float]) -> list[str]:
        """The stored, maintained statistics and the answers served from
        them agree with a fresh rebuild of the final data to 1e-12."""
        fresh = {
            name: GHHistogram.build(ds, self.level, extent=ds.extent)
            for name, ds in state.catalog.items()
        }
        problems = []
        for name, stored in state.stored.items():
            if stored is None:
                problems.append(f"{name}: no stored histogram for the current data")
                continue
            for stat in ("c", "o", "h", "v"):
                ours, theirs = getattr(stored, stat), getattr(fresh[name], stat)
                if np.abs(ours - theirs).max() > 1e-12 * np.abs(theirs).max():
                    problems.append(f"{name}: stored {stat} differs from a rebuild")
        for (a, b, _, _), value in answers.items():
            rebuilt = fresh[a].estimate_selectivity(fresh[b])
            if _relative(value, rebuilt) > 1e-12:
                problems.append(f"{a}/{b}: served {value!r}, rebuilt {rebuilt!r}")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeHot, ServeMiss, Plan, Ingest)
}
