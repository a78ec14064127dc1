"""The kernel module the library calls through.

There is one kernel path, ``qgqec._kernels_py`` (numpy and Python ints).
Callers reach it as ``backend.kernels`` so that a tracer can wrap its
functions on that one module object.
"""

from __future__ import annotations

from qgqec import _kernels_py

kernels = _kernels_py
BACKEND_NAME: str = kernels.BACKEND_NAME


def available_backends() -> list[str]:
    return [BACKEND_NAME]
