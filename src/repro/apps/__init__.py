"""Applications built on the self-join, motivating its use as a building block.

The paper's introduction motivates the self-join through algorithms that need
the ε-neighborhood of every point — DBSCAN in particular — and lists kNN
search as future work.  Both are provided here on top of the public
:func:`repro.selfjoin` API and the grid index.

The names below resolve lazily (:mod:`repro.utils.lazy`); ``dbscan`` and
``crossmatch`` are the functions, not the modules of those names, as with
an eager import.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".dbscan": ["dbscan", "DBSCANResult"],
    ".knn": ["knn_search"],
    ".crossmatch": ["crossmatch", "CrossMatchResult"],
})
