"""Baseline self-join algorithms the paper compares against.

* :mod:`repro.baselines.rtree` / :mod:`repro.baselines.rtree_selfjoin` — the
  sequential search-and-refine reference (CPU-RTREE) built on a from-scratch
  R-tree (Guttman insertion with quadratic split plus an STR bulk loader).
* :mod:`repro.baselines.ego` / :mod:`repro.baselines.superego` — the
  Epsilon-Grid-Order join and the Super-EGO driver (dimension reordering,
  ego-sort, multi-threaded recursion), the CPU state of the art.
* :mod:`repro.baselines.bruteforce` — O(|D|²) nested-loop joins (the
  ε-independent "GPU brute force" reference of the figures).
* :mod:`repro.baselines.kdtree_ref` — a scipy cKDTree reference used solely
  for correctness validation in the test suite.
* :mod:`repro.baselines.cellwise` — the per-cell transcription of the
  grid kernels (Algorithms 1 and 2) and of the probe, the oracle the tests
  compare the engine against; not imported here, and never by the engine.
"""

from repro.baselines.rtree import RTree, Rect
from repro.baselines.rtree_selfjoin import rtree_selfjoin
from repro.baselines.superego import SuperEGO, superego_selfjoin
from repro.baselines.bruteforce import bruteforce_selfjoin, bruteforce_count
from repro.baselines.kdtree_ref import kdtree_selfjoin

__all__ = [
    "RTree",
    "Rect",
    "rtree_selfjoin",
    "SuperEGO",
    "superego_selfjoin",
    "bruteforce_selfjoin",
    "bruteforce_count",
    "kdtree_selfjoin",
]
