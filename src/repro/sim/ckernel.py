"""Lazy gcc+ctypes loader for the C cycle kernel.

The array engine's hot loop is ~100 numpy dispatches per cycle; at the
paper's network sizes the dispatch overhead, not the arithmetic, is the
floor.  ``_cycle_kernel.c`` ports the already-validated scalar cycle
(phase A pick + ascending-port phase B commit) to C over the very same
flat arrays, leaving every Python-object effect (deliveries, dateline
vclass upgrades, route refreshes, side-deque refills) to the caller as
replayable event lists.

The kernel is compiled on first use with whatever ``cc`` the host has
(``$CC`` overrides), cached under the system temp directory keyed by a
hash of the source, and loaded via :mod:`ctypes`.  Every failure mode --
no compiler, sandboxed temp dir, bad toolchain -- degrades silently to
``None`` and the engine keeps its pure-numpy paths.  Set
``REPRO_ARRAY_CKERNEL=0`` to force the numpy paths (the differential
suite uses this to lockstep both implementations).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional

__all__ = ["load_cycle_kernel"]

_SRC_PATH = os.path.join(os.path.dirname(__file__), "_cycle_kernel.c")

#: 5 geometry scalars, then 29 array pointers, in the exact order of
#: the C signature.  Pointers are passed as raw addresses (c_void_p).
_ARGTYPES = [ctypes.c_longlong] * 5 + [ctypes.c_void_p] * 29

_cached: Optional[ctypes.CFUNCTYPE] = None
_failed = False


def _compile_and_load() -> Optional["ctypes._CFuncPtr"]:
    with open(_SRC_PATH, "rb") as fh:
        src = fh.read()
    tag = hashlib.sha256(src).hexdigest()[:16]
    libdir = os.path.join(tempfile.gettempdir(), "repro-ckernel")
    os.makedirs(libdir, exist_ok=True)
    lib = os.path.join(libdir, f"cycle-{tag}.so")
    if not os.path.exists(lib):
        cc = os.environ.get("CC", "cc")
        # compile to a unique name, then atomically publish: concurrent
        # processes (test workers, sweep pools) may race on the same
        # cache entry
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=libdir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SRC_PATH],
                check=True, capture_output=True, timeout=120)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    dll = ctypes.CDLL(lib)
    fn = dll.repro_cycle
    fn.restype = ctypes.c_longlong
    fn.argtypes = _ARGTYPES
    return fn


def load_cycle_kernel():
    """The compiled cycle kernel, or ``None`` if disabled/unavailable.

    The env gate is re-read on every call (tests toggle it per attach);
    only the compile/load result itself is cached.
    """
    global _cached, _failed
    if os.environ.get("REPRO_ARRAY_CKERNEL", "1") == "0":
        return None
    if _cached is None and not _failed:
        try:
            _cached = _compile_and_load()
        except Exception:
            _failed = True
    return _cached
