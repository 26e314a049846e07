"""Finite BCK/MV/Wajsberg algebras and the binary block codes they generate.

Each module lists the public names it defines in its ``__all__``; the package
re-exports them, and its ``__all__`` is those lists joined.
"""

from importlib import import_module as _import_module

_MODULES = ("algebras", "attach", "catalog", "codes", "convert", "errors", "fileio", "order")
# each list is read off the module itself: ``from .convert import *`` binds
# ``convert`` to the function, and a reload finds that binding, not the module
__all__ = [name for module in _MODULES for name in _import_module(f".{module}", __name__).__all__]

from .algebras import *  # noqa: E402, F403
from .attach import *  # noqa: E402, F403
from .catalog import *  # noqa: E402, F403
from .codes import *  # noqa: E402, F403
from .convert import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .fileio import *  # noqa: E402, F403
from .order import *  # noqa: E402, F403
