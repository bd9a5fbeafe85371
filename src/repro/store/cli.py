"""``python -m repro.store`` — prewarm / list / verify / evict.

The operational face of the catalog.  ``prewarm`` builds registry
datasets' histograms (and optionally flat trees) offline and publishes
them with enough ``source`` provenance (dataset name + scale) that
``verify --rebuild`` can later re-derive every artifact from scratch
and compare it bit for bit.  ``verify`` alone re-reads payloads and
recomputes the manifest checksums.  ``evict`` trims to a byte budget,
least-recently-used first.  Exit codes: 0 clean, 1 problems found,
2 usage error (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from ..datasets.registry import PAPER_CARDINALITIES, make_paper_dataset
from ..geometry import Rect
from ..histograms.file import HISTOGRAM_SCHEMES, histogram_parts
from ..perf.cache import _TREE_LOADERS, CacheKey, FlatTreeCache, HistogramCache, TreeCacheKey
from .catalog import ArtifactCatalog, StoreEntry
from .codec import TREE_KIND

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Manage the persistent estimator-artifact catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prewarm = sub.add_parser(
        "prewarm", help="build registry artifacts and publish them"
    )
    prewarm.add_argument("--root", required=True, help="catalog root directory")
    prewarm.add_argument(
        "--datasets",
        default=",".join(sorted(PAPER_CARDINALITIES)),
        help="comma-separated registry names (default: all eight)",
    )
    prewarm.add_argument(
        "--cardinality",
        type=int,
        default=2000,
        help="rectangles per dataset (sets the registry scale; default 2000)",
    )
    prewarm.add_argument(
        "--schemes", default="gh", help="comma-separated histogram schemes"
    )
    prewarm.add_argument(
        "--levels", default="5,7", help="comma-separated gridding levels"
    )
    prewarm.add_argument(
        "--trees", action="store_true", help="also publish packed flat trees"
    )
    prewarm.add_argument(
        "--packing", default="str", choices=sorted(_TREE_LOADERS), help="tree packing"
    )
    prewarm.add_argument(
        "--max-entries", type=int, default=8, help="tree fan-out (default 8)"
    )

    lister = sub.add_parser("list", help="list published artifacts")
    lister.add_argument("--root", required=True)
    lister.add_argument("--json", action="store_true", help="machine-readable output")

    verify = sub.add_parser("verify", help="checksum (and optionally rebuild) audit")
    verify.add_argument("--root", required=True)
    verify.add_argument(
        "--rebuild",
        action="store_true",
        help="re-derive artifacts from their recorded source and compare exactly",
    )

    evict = sub.add_parser("evict", help="trim to a byte budget, LRU first")
    evict.add_argument("--root", required=True)
    evict.add_argument("--max-bytes", type=int, required=True)

    return parser


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_prewarm(args: argparse.Namespace, out: "TextOut") -> int:
    catalog = ArtifactCatalog(args.root)
    names = _csv(args.datasets)
    schemes = _csv(args.schemes)
    levels = [int(part) for part in _csv(args.levels)]
    if args.cardinality < 1:
        out.line(f"prewarm: --cardinality must be >= 1, got {args.cardinality}")
        return 2
    unknown = [n for n in names if n not in PAPER_CARDINALITIES]
    if unknown:
        out.line(f"prewarm: unknown datasets {unknown}; registry has "
                 f"{sorted(PAPER_CARDINALITIES)}")
        return 2
    bad = [s for s in schemes if s not in HISTOGRAM_SCHEMES]
    if bad:
        out.line(f"prewarm: unknown schemes {bad}; choose from {sorted(HISTOGRAM_SCHEMES)}")
        return 2
    for name in names:
        scale = PAPER_CARDINALITIES[name] / args.cardinality
        dataset = make_paper_dataset(name, scale=scale)
        source: dict[str, object] = {"dataset": name, "scale": scale}
        for scheme in schemes:
            for level in levels:
                key = HistogramCache.key_for(dataset, scheme, level)
                hist = HISTOGRAM_SCHEMES[scheme].build(dataset, level, extent=dataset.extent)
                # put_* is idempotent-True; the publish counter only
                # moves when the entry is genuinely new.
                before = catalog.stats.publishes
                catalog.put_histogram(key, hist, source=source)
                if catalog.stats.publishes > before:
                    out.line(f"prewarm: {name} {scheme} h={level} "
                             f"({len(dataset)} rects) published")
        if args.trees:
            tree_key = FlatTreeCache.key_for(
                dataset.rects, args.packing, args.max_entries
            )
            tree = _TREE_LOADERS[args.packing](
                dataset.rects, max_entries=args.max_entries
            )
            tree_source = dict(source)
            tree_source["packing"] = args.packing
            tree_source["max_entries"] = int(args.max_entries)
            before = catalog.stats.publishes
            catalog.put_tree(tree_key, tree, source=tree_source)
            if catalog.stats.publishes > before:
                out.line(f"prewarm: {name} tree {args.packing} "
                         f"m={args.max_entries} published")
    out.line(f"prewarm: {catalog.stats.publishes} artifacts published, "
             f"{catalog.total_bytes()} bytes on disk")
    return 0


def _cmd_list(args: argparse.Namespace, out: "TextOut") -> int:
    catalog = ArtifactCatalog(args.root, read_only=True)
    entries = catalog.entries()
    if args.json:
        payload = [
            {
                "name": e.name,
                "kind": e.kind,
                "nbytes": e.nbytes,
                "last_used": e.last_used,
                "key": e.key,
                "params": e.params,
                "source": e.source,
            }
            for e in entries
        ]
        out.line(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for e in entries:
        out.line(f"{e.name}  kind={e.kind}  {e.nbytes} bytes")
    out.line(f"list: {len(entries)} entries, {sum(e.nbytes for e in entries)} bytes")
    return 0


def _rebuild_problems(catalog: ArtifactCatalog, entry: StoreEntry) -> list[str]:
    """Re-derive one entry from its recorded source; exact-compare."""
    source = entry.source or {}
    name = source.get("dataset")
    scale = source.get("scale")
    if not isinstance(name, str) or not isinstance(scale, (int, float)):
        return [f"{entry.name}: no rebuildable source recorded"]
    if name not in PAPER_CARDINALITIES:
        return [f"{entry.name}: source dataset {name!r} not in the registry"]
    dataset = make_paper_dataset(name, scale=float(scale))
    if entry.kind in HISTOGRAM_SCHEMES:
        key = CacheKey(
            fingerprint=str(entry.key.get("fingerprint")),
            scheme=str(entry.key.get("scheme")),
            level=int(entry.key.get("level", -1)),  # type: ignore[call-overload]
            extent=tuple(float(x) for x in entry.key.get("extent", ())),  # type: ignore[arg-type,union-attr]
        )
        fresh_key = HistogramCache.key_for(dataset, key.scheme, key.level)
        if fresh_key != key:
            return [f"{entry.name}: rebuilt dataset fingerprint differs"]
        stored = catalog.load_histogram(key)
        if stored is None:
            return [f"{entry.name}: stored histogram failed to load"]
        fresh = HISTOGRAM_SCHEMES[key.scheme].build(
            dataset, key.level, extent=Rect(*key.extent)
        )
        stored_scalars, stored_stats = histogram_parts(stored)
        fresh_scalars, fresh_stats = histogram_parts(fresh)
        if stored_scalars != fresh_scalars:
            return [f"{entry.name}: rebuilt params differ"]
        if not np.array_equal(stored_stats, fresh_stats):
            return [f"{entry.name}: rebuilt stat planes differ"]
        return []
    if entry.kind == TREE_KIND:
        packing = source.get("packing")
        max_entries = source.get("max_entries")
        if not isinstance(packing, str) or not isinstance(max_entries, int):
            return [f"{entry.name}: tree source lacks packing/max_entries"]
        key2 = TreeCacheKey(
            fingerprint=str(entry.key.get("fingerprint")),
            packing=packing,
            max_entries=max_entries,
        )
        fresh_key2 = FlatTreeCache.key_for(dataset.rects, packing, max_entries)
        if fresh_key2 != key2:
            return [f"{entry.name}: rebuilt rects fingerprint differs"]
        stored_tree = catalog.load_tree(key2)
        if stored_tree is None:
            return [f"{entry.name}: stored tree failed to load"]
        fresh_tree = _TREE_LOADERS[packing](dataset.rects, max_entries=max_entries)
        stored_blocks = stored_tree.to_blocks()
        fresh_blocks = fresh_tree.to_blocks()
        if sorted(stored_blocks) != sorted(fresh_blocks):
            return [f"{entry.name}: rebuilt tree layout differs"]
        for block_name, block in fresh_blocks.items():
            if not np.array_equal(stored_blocks[block_name], block):
                return [f"{entry.name}: rebuilt block {block_name} differs"]
        return []
    return [f"{entry.name}: unknown kind {entry.kind!r}"]


def _cmd_verify(args: argparse.Namespace, out: "TextOut") -> int:
    catalog = ArtifactCatalog(args.root, read_only=True)
    entries = catalog.entries()
    problems: list[str] = []
    for entry in entries:
        for problem in catalog.verify_entry(entry.name):
            problems.append(f"{entry.name}: {problem}")
        if args.rebuild:
            problems.extend(_rebuild_problems(catalog, entry))
    for problem in problems:
        out.line(f"verify: PROBLEM {problem}")
    out.line(f"verify: {len(entries)} entries, {len(problems)} problems")
    return 1 if problems else 0


def _cmd_evict(args: argparse.Namespace, out: "TextOut") -> int:
    if args.max_bytes < 0:
        out.line(f"evict: --max-bytes must be >= 0, got {args.max_bytes}")
        return 2
    catalog = ArtifactCatalog(args.root)
    removed = catalog.evict(args.max_bytes)
    for name in removed:
        out.line(f"evict: removed {name}")
    out.line(f"evict: {len(removed)} removed, {catalog.total_bytes()} bytes remain")
    return 0


class TextOut:
    """Minimal output sink (tests capture lines without monkeypatching)."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)
        sys.stdout.write(text + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    out = TextOut()
    if args.command == "prewarm":
        return _cmd_prewarm(args, out)
    if args.command == "list":
        return _cmd_list(args, out)
    if args.command == "verify":
        return _cmd_verify(args, out)
    return _cmd_evict(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
