"""The one probe for the optional numpy dependency.

numpy is never required: every vectorized path in the package (the
columnar pcap decoder, the matcher's batch q-gram sweep) has a stdlib
path that produces identical output.  The probe runs once, at import,
and ``REPRO_COLUMNAR_NUMPY=0`` disables every vectorized path together
-- the tier-1 "stdlib" CI leg sets it so the mandatory fallbacks stay
exercised on hosts that do have numpy installed.
"""

from __future__ import annotations

import importlib
import os
from types import ModuleType

_NUMPY_ENV = "REPRO_COLUMNAR_NUMPY"


def _load_numpy() -> ModuleType | None:
    if os.environ.get(_NUMPY_ENV, "").strip() == "0":
        return None
    try:
        return importlib.import_module("numpy")
    except Exception:
        return None


#: The numpy module, or ``None`` when it is absent or disabled.
NUMPY = _load_numpy()


def numpy_available() -> bool:
    """True when the vectorized paths are importable and enabled."""
    return NUMPY is not None
