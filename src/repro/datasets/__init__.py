"""Datasets: wrapper type, synthetic generators, paper-pair registry, persistence."""

from .base import DatasetSummary, MutationToken, SpatialDataset
from .io import load_dataset, save_dataset
from .queries import query_grid
from .realistic import (
    make_blocks_like,
    make_points_like,
    make_polygons_like,
    make_roads_like,
    make_streams_like,
)
from .registry import (
    PAPER_CARDINALITIES,
    PAPER_PAIR_NAMES,
    make_paper_dataset,
    make_paper_pair,
    paper_pairs,
)
from .synthetic import (
    make_clustered,
    make_diagonal,
    make_gaussian_clusters,
    make_grid_aligned,
    make_uniform,
)

__all__ = [
    "MutationToken",
    "SpatialDataset",
    "DatasetSummary",
    "save_dataset",
    "load_dataset",
    "make_uniform",
    "make_clustered",
    "make_gaussian_clusters",
    "make_diagonal",
    "make_grid_aligned",
    "make_streams_like",
    "make_blocks_like",
    "make_roads_like",
    "make_points_like",
    "make_polygons_like",
    "PAPER_CARDINALITIES",
    "PAPER_PAIR_NAMES",
    "make_paper_dataset",
    "make_paper_pair",
    "paper_pairs",
    "query_grid",
]
