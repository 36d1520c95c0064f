"""Hold every OpenBLAS build loaded in the process at one thread."""

import ctypes
import threading
from contextlib import contextmanager
from pathlib import Path

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads")
_found: dict = {}  # library path -> (get, set) thread-count functions, or None
_lock = threading.Lock()
_depth, _saved = 0, []  # open scopes; (set, count) of each build, found by the first


def openblas_pools() -> dict:
    """File name -> (get, set) thread-count functions of each OpenBLAS build loaded."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    for path in {line.split()[-1] for line in lines if "openblas" in line} - _found.keys():
        lib = ctypes.CDLL(path)
        name = next((s for s in _SYMBOLS if hasattr(lib, s.format("get"))), None)
        _found[path] = name and tuple(getattr(lib, name.format(f)) for f in ("get", "set"))
    return {Path(path).name: pair for path, pair in sorted(_found.items()) if pair}


@contextmanager
def single_threaded():
    """Every OpenBLAS build found in ``/proc/self/maps`` at one thread, process-wide;
    nested or concurrent scopes save and restore once.  Without one (MKL,
    Accelerate, not Linux) the scope does nothing."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(set_, get()) for get, set_ in openblas_pools().values()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
