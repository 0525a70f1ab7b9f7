"""Kernel backend selection.

Imports the compiled kernels when they are built, otherwise falls back to the
pure-Python twins.  ``PREORDER_BCA_BACKEND=python`` forces the fallback (used
by the benchmark and the backend-agreement tests); a value other than auto, c
or python, or c without the compiled kernels, raises BadParameter on import.
"""

from __future__ import annotations

import os

from . import _kernels_py
from .errors import BadParameter

_forced = os.environ.get("PREORDER_BCA_BACKEND", "").strip().lower()

if _forced in ("", "auto", "c"):
    try:
        from . import _kernels_c as _impl  # type: ignore[attr-defined]
    except ImportError as exc:
        if _forced == "c":
            raise BadParameter("PREORDER_BCA_BACKEND is c, but the compiled "
                               "kernels are not built") from exc
        _impl = _kernels_py
elif _forced == "python":
    _impl = _kernels_py
else:
    raise BadParameter(f"unknown PREORDER_BCA_BACKEND value: {_forced!r}; "
                       f"expected auto, c or python")

BACKEND_NAME: str = _impl.BACKEND_NAME
fast_distance = _impl.fast_distance
direct_distance = _impl.direct_distance
sweep_min_distance = _impl.sweep_min_distance


def available_backends() -> dict[str, object]:
    """Name -> kernel module, for everything importable in this environment."""
    found: dict[str, object] = {"python": _kernels_py}
    try:
        from . import _kernels_c  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        found["c"] = _kernels_c
    return found
