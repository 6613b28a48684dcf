"""Print the fingerprint that fixes this machine's float64 bits.

The absolute digests the tests pin (metrics streams, wire bytes, datasets)
hold only where numpy's SIMD loops and the OpenBLAS kernel are the same:
`np.exp`/`np.log` round by the active dispatch, and every `@` product by
the BLAS core. This prints the numpy version, the CPU features numpy found
active, the targets it dispatches to, and the OpenBLAS core name, read
through ctypes from the OpenBLAS library bundled with a numpy wheel.

    python tools/envprobe.py

Uses numpy (2.x) and the standard library only.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
from numpy._core import _multiarray_umath as umath


def openblas_core() -> str:
    """The core name of numpy's bundled scipy-openblas, or why it is unknown."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")))
    if not paths:
        return f"unknown (no bundled libscipy_openblas64_*.so in {libs})"
    try:
        corename = ctypes.CDLL(paths[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError) as exc:
        return f"unknown ({exc})"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def main() -> None:
    active = [name for name, on in umath.__cpu_features__.items() if on]
    print(f"numpy {np.__version__}")
    print(f"cpu features: {' '.join(active)}")
    dispatch = umath.__cpu_dispatch__
    print(f"cpu dispatch: {' '.join(dispatch)} "
          f"(active: {' '.join(t for t in dispatch if umath.__cpu_features__.get(t))})")
    print(f"openblas core: {openblas_core()}")


if __name__ == "__main__":
    main()
