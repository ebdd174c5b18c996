"""Dataset substrate: generators, the Table I registry, and dataset sources.

Besides the synthetic/real-world generators, this package owns the
:class:`~repro.data.store.DatasetSource` seam — in-memory
:class:`~repro.data.store.ArraySource` and the on-disk, grid-ordered
:class:`~repro.data.store.SpatialStore` the out-of-core execution streams
from.

The names below resolve lazily (:mod:`repro.utils.lazy`): importing
:mod:`repro.data.store` loads no generator module, and no name costs an
import before it is first used.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".store": ["ArraySource", "DatasetIdentity", "DatasetSource",
               "SpatialStore", "as_dataset_source", "dataset_identity"],
    ".synthetic": ["uniform_dataset", "gaussian_clusters",
                   "exponential_dataset", "thomas_process"],
    ".realworld": ["sw_dataset", "sdss_dataset"],
    ".datasets": ["DatasetSpec", "DATASETS", "load_dataset", "list_datasets"],
    ".normalize": ["normalize_minmax", "denormalize_minmax"],
})
