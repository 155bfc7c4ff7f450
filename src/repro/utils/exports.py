"""Lazy package exports: a submodule loads when one of its names is first read.

Every ``repro`` package ``__init__`` except ``repro.cli`` and
``repro.bench`` declares its public names in one table and hands it to
:func:`lazy_exports`, which builds the package's ``__all__``, module
``__getattr__`` (PEP 562) and ``__dir__``.  ``import repro`` therefore
loads no submodule, and a run imports only the modules whose names it
reads.  The objects are the defining modules' own, so identity,
pickling and ``from package import *`` behave as with eager imports.

Nothing may rely on a package ``__init__`` having imported a sibling:
code that needs a module imports it.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping


def lazy_exports(
    namespace: dict, table: Mapping[str, str]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of the package whose ``globals()`` is ``namespace``.

    ``table`` maps each public name, in ``__all__`` order, to the module
    that defines it, relative to the package (``".folds"``); ``"."`` is the
    package itself, for a value its ``__init__`` defines.  The first read
    of a name imports its module and stores the value in the package
    namespace, so later reads skip the hook.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return list(table), __getattr__, __dir__
