"""Core GPU-SJ algorithm: grid index, kernels, UNICOMP, batching and the public API.

The names below resolve lazily (:mod:`repro.utils.lazy`), so importing one
core module (the kernels, say) does not import the engine behind
:func:`selfjoin`.  ``selfjoin`` is the function, not the module of that
name, as with an eager import.
"""

from repro.utils.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gridindex": ["GridIndex"],
    ".result": ["NeighborTable", "ResultSet"],
    ".selfjoin": ["GPUSelfJoin", "SelfJoinConfig", "selfjoin"],
    ".batching": ["BatchPlan", "BatchPlanner"],
    ".nativekernels": ["KernelTierUnavailableError",
                       "kernel_tier_availability", "resolve_kernel_tier"],
})
