"""Finite BCK/MV/Wajsberg algebras and the binary block codes they generate.

Each module lists the public names it defines in its ``__all__``; the package
re-exports them, and its ``__all__`` is those lists joined.
"""

from . import algebras, attach, catalog, codes, convert, errors, fileio, order

# read before ``from .convert import *`` rebinds ``convert`` to the function
__all__ = []
__all__ += algebras.__all__
__all__ += attach.__all__
__all__ += catalog.__all__
__all__ += codes.__all__
__all__ += convert.__all__
__all__ += errors.__all__
__all__ += fileio.__all__
__all__ += order.__all__

from .algebras import *  # noqa: E402, F403
from .attach import *  # noqa: E402, F403
from .catalog import *  # noqa: E402, F403
from .codes import *  # noqa: E402, F403
from .convert import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .fileio import *  # noqa: E402, F403
from .order import *  # noqa: E402, F403
