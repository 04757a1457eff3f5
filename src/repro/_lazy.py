"""Lazy package exports (PEP 562 module ``__getattr__`` / ``__dir__``).

Every package ``__init__`` in :mod:`repro` names its public exports once,
each with the module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "UpdateService": "repro.service.service",
    })

The defining module is imported on first access to the name, so importing a
package costs the package alone and heavy dependencies (scipy, the daemon)
load only when something uses them.  A name that is the last component of
its module (``"figures": "repro.experiments.figures"``) exports that
submodule itself.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``exports`` maps each public name to the absolute name of the module
    that defines it; ``__all__`` lists the names in the mapping's order.
    A resolved name is cached in the package namespace, so later lookups
    never reach ``__getattr__`` again.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
