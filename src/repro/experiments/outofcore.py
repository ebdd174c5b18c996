"""Out-of-core experiment: peak RSS vs dataset size, array vs store.

Not a figure of the paper — this experiment exists for the out-of-core
dataset layer (:mod:`repro.data.store`): for each dataset size it runs the
same self-join twice in *fresh subprocesses* (so ``ru_maxrss`` measures one
configuration each) —

* **ArraySource (vectorized)** — the in-memory pipeline: generate the
  dataset, build the global grid index, join.  Peak RSS grows O(n).
* **SpatialStore (sharded, streamed)** — the out-of-core pipeline: open the
  pre-written store and stream the join shard-by-shard (each shard reads
  its slice + ε-halo from disk and indexes it locally).  Peak RSS grows
  O(largest shard), dominated at small scales by the interpreter baseline.

Both subprocesses print an order-independent multiset digest of their
result pairs; the rendered table records it so equal digests certify the
streamed join produced the **bit-identical pair set** of the in-memory
path.  ``benchmarks/test_bench_outofcore.py`` persists the rendering to
``benchmarks/reports/outofcore.txt``.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.data.store import SpatialStore, default_cell_width
from repro.data.synthetic import uniform_dataset
from repro.experiments.report import format_table

#: Dataset sizes swept by default (kept modest: every size runs two
#: subprocesses; push higher through ``--points`` / the benchmark env).
DEFAULT_SIZES = (20_000, 60_000)

#: Shards of the streamed configuration (peak memory ~ dataset / shards).
DEFAULT_SHARDS = 16

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX_C = np.uint64(0xFF51AFD7ED558CCD)


class StreamingPairDigest:
    """Order-independent digest of a pair multiset, foldable fragment-wise.

    Each ``(key, value)`` pair is mixed into a 64-bit hash and the hashes
    are *summed* mod 2**64, so the digest is invariant under emission order
    (shards emit in a different order than the global kernel) while any
    changed, missing or duplicated pair changes it.  Because it folds one
    fragment at a time, a result can be digested *as it streams* — the
    memory-capped out-of-core test wires it into the backend's sink so not
    even the result pairs accumulate.
    """

    def __init__(self) -> None:
        self._acc = np.uint64(0)
        self._total = np.uint64(0)

    def update(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Fold one fragment of parallel key/value arrays into the digest."""
        with np.errstate(over="ignore"):  # mod-2**64 wrap-around is the point
            x = (np.asarray(keys).astype(np.uint64) * _MIX_A) \
                ^ (np.asarray(values).astype(np.uint64) * _MIX_B)
            x ^= x >> np.uint64(33)
            x *= _MIX_C
            x ^= x >> np.uint64(29)
            self._acc += x.sum(dtype=np.uint64)
            self._total += np.uint64(keys.shape[0])

    def hexdigest(self) -> str:
        """Digest of everything folded so far (pair count included)."""
        with np.errstate(over="ignore"):
            return f"{int(self._acc ^ (self._total * _MIX_A)):016x}"


def pair_multiset_digest(fragments) -> str:
    """Digest a sink's whole pair multiset (see :class:`StreamingPairDigest`).

    Walks the fragments in place — no concatenation — so it fits the same
    memory budget as the streamed join that produced them.
    """
    digest = StreamingPairDigest()
    for keys, values in fragments.parts():
        digest.update(keys, values)
    return digest.hexdigest()


@dataclass
class OutOfCoreRow:
    """One measured configuration of the out-of-core sweep."""

    n_points: int
    source: str            # "array" or "store"
    backend: str
    dataset_mb: float      # on-disk store size / in-memory array size
    peak_rss_mb: float     # subprocess ru_maxrss
    num_pairs: int
    digest: str


_CHILD_PRELUDE = """\
import resource, sys
import numpy as np
from repro.experiments.outofcore import pair_multiset_digest
"""

_ARRAY_CHILD = _CHILD_PRELUDE + """\
from repro.core.gridindex import GridIndex
from repro.data.synthetic import uniform_dataset
from repro.engine import Query, run_query

points = uniform_dataset({n}, {dims}, seed={seed})
result = run_query(Query.self_join(points, {eps}),
                   index=GridIndex.build(points, {eps}))
digest = pair_multiset_digest(result.fragments)
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("RESULT", result.num_pairs, digest, rss_kb)
"""

_STORE_CHILD = _CHILD_PRELUDE + """\
from repro.data.store import SpatialStore
from repro.engine import EngineSession

store = SpatialStore.open({path!r})
with EngineSession(store, backend="sharded({shards})") as session:
    result = session.self_join({eps})
    assert session._points is None, "streamed join materialized the dataset"
digest = pair_multiset_digest(result.fragments)
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print("RESULT", result.num_pairs, digest, rss_kb)
"""


def _run_child(script: str) -> tuple:
    """Run a measurement subprocess; returns ``(num_pairs, digest, rss_mb)``."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=600, env=_child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"out-of-core child failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            _, pairs, digest, rss_kb = line.split()
            return int(pairs), digest, float(rss_kb) / 1024.0
    raise RuntimeError(f"no RESULT line in child output:\n{proc.stdout}")


def _child_env() -> dict:
    import os

    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _dir_size_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in Path(path).rglob("*")
               if f.is_file()) / 1e6


def run_outofcore(n_points: Optional[int] = None,
                  sizes: Sequence[int] = DEFAULT_SIZES, n_dims: int = 2,
                  seed: int = 0, eps: Optional[float] = None,
                  n_shards: int = DEFAULT_SHARDS,
                  workdir: Optional[str] = None) -> List[OutOfCoreRow]:
    """Measure peak RSS of the in-memory vs streamed self-join per size.

    ``eps`` defaults to a value giving a few neighbors per point at the
    largest size (so the result set does not dominate either measurement);
    ``n_points`` (the CLI override) replaces the whole size sweep.
    """
    if n_points is not None:
        sizes = (int(n_points),)
    rows: List[OutOfCoreRow] = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        for n in sizes:
            points = uniform_dataset(int(n), n_dims, seed=seed)
            size_eps = float(eps) if eps is not None else \
                0.5 * default_cell_width(points, points_per_cell=8)
            store_path = Path(tmp) / f"store_{n}"
            store = SpatialStore.write(points, store_path)
            dataset_mb = points.nbytes / 1e6
            del points

            pairs_a, digest_a, rss_a = _run_child(_ARRAY_CHILD.format(
                n=int(n), dims=int(n_dims), seed=int(seed), eps=size_eps))
            rows.append(OutOfCoreRow(
                n_points=int(n), source="array", backend="vectorized",
                dataset_mb=dataset_mb, peak_rss_mb=rss_a,
                num_pairs=pairs_a, digest=digest_a))

            pairs_s, digest_s, rss_s = _run_child(_STORE_CHILD.format(
                path=str(store_path), shards=int(n_shards), eps=size_eps))
            rows.append(OutOfCoreRow(
                n_points=int(n), source="store", backend=f"sharded({n_shards})",
                dataset_mb=_dir_size_mb(store_path), peak_rss_mb=rss_s,
                num_pairs=pairs_s, digest=digest_s))
            del store
    return rows


def format_outofcore(rows: List[OutOfCoreRow]) -> str:
    """Render the sweep; flags any digest divergence between the sources."""
    digests = {}
    for r in rows:
        digests.setdefault(r.n_points, set()).add(r.digest)
    all_match = all(len(d) == 1 for d in digests.values())
    verdict = "bit-identical pair sets" if all_match else "DIGEST MISMATCH"
    return format_table(
        ("n_points", "source", "backend", "dataset_mb", "peak_rss_mb",
         "pairs", "digest"),
        [(r.n_points, r.source, r.backend, round(r.dataset_mb, 2),
          round(r.peak_rss_mb, 1), r.num_pairs, r.digest) for r in rows],
        title=f"Out-of-core self-join: peak RSS vs dataset size "
              f"(array = in-memory vectorized; store = disk-streamed "
              f"sharded; {verdict} per size)")
