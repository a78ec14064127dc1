"""The kernel module the library calls through.

There is one kernel path, ``qgqec._kernels_py`` (Python ints, and numpy in
the shot sampler).
Callers reach it as ``backend.kernels`` so that a tracer can wrap its
functions on that one module object.
"""

from __future__ import annotations

from qgqec import _kernels_py

kernels = _kernels_py
BACKEND_NAME: str = kernels.BACKEND_NAME


def available_backends() -> list[str]:
    return [BACKEND_NAME]
