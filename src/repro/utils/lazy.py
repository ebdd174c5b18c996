"""Lazy public names for the package ``__init__`` modules (PEP 562).

A package declares which submodule defines each of its public names and
imports that submodule on the name's first access, so importing a package,
or any one of its submodules, loads nothing else: a shard worker imports
the shard path and not the planner, the service or the apps.  ``from
package import name``, ``__all__`` and ``dir()`` behave as with eager
imports.  A name that shadows a submodule of the same name (the function
``repro.core.selfjoin`` over the module of that name) keeps shadowing it,
whichever of the two is imported first.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


class _LazyPackage(types.ModuleType):
    """A package whose exported names win over same-named submodules.

    The import system binds a submodule on its package once the submodule
    has loaded.  Where the package exports a name from that submodule under
    the submodule's own name, the exported object is bound instead, as an
    eager ``from .selfjoin import selfjoin`` would have left it.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType) \
                and self.__dict__["_lazy_sources"].get(name) == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module (absolute, or relative to
    ``package``) to the names the package exports from it.  Call it from
    the package's ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {
            ".gridindex": ["GridIndex"],
        })

    A resolved name is bound on the package, so only its first access
    goes through ``__getattr__``.
    """
    sources: Dict[str, str] = {
        name: importlib.util.resolve_name(module, package)
        for module, names in exports.items() for name in names}
    module = sys.modules[package]
    module.__dict__["_lazy_sources"] = sources
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        try:
            source = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(source), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(module.__dict__.keys() | sources.keys())

    return list(sources), __getattr__, __dir__
