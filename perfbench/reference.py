"""Expected outputs the benchmark checks jobs against.

The SDFG references are written here in plain NumPy, independently of
``repro``, from the programs' stated semantics: each time step relaxes
A into B and then B back into A over the interior, with the boundary
held fixed.  The operations and their order match the programs'
expressions, so the results must agree bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np


def jacobi_1d(u0: np.ndarray, tsteps: int) -> np.ndarray:
    a, b = u0.copy(), u0.copy()
    for _ in range(1, tsteps):
        b[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / 3.0
        a[1:-1] = (b[:-2] + b[1:-1] + b[2:]) / 3.0
    return a


def jacobi_2d(u0: np.ndarray, tsteps: int) -> np.ndarray:
    a, b = u0.copy(), u0.copy()
    for _ in range(1, tsteps):
        b[1:-1, 1:-1] = 0.25 * (a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:])
        a[1:-1, 1:-1] = 0.25 * (b[:-2, 1:-1] + b[2:, 1:-1] + b[1:-1, :-2] + b[1:-1, 2:])
    return a


def field_digest(field: np.ndarray) -> str:
    """Exact fingerprint of an array: dtype, shape and every byte."""
    h = hashlib.sha256(f"{field.dtype.str}{field.shape}".encode())
    h.update(np.ascontiguousarray(field).tobytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of ``generate_cuda`` output per (dimensions, pipeline, overlap
#: chunks), recorded from the code generator when the benchmark was defined
CUDA_DIGESTS = {
    (1, "baseline", None): "b06635e4af1c6a93d3dfd0331bb7bbbf8c0f9e060cbfb1538ff094cb79396afa",
    (1, "cpufree", None): "8e076d369eb694dcef153b85d6fe011585110bbfde22f3f347650ec4c34fa9a4",
    (2, "baseline", None): "b0885fc9296401391e101143071ba97dce22d91f8f4394accb65fc750f1bc0e7",
    (2, "cpufree", None): "dc78d22f8b4ae11899dd2d27808f1f2489abc9a811d23b90368ab1d870f88181",
    (2, "cpufree", 1): "c04aa05877d2a443448caae52e0fed4bb95f91729adecf3c46bbc8c579bb1035",
    (2, "cpufree", 2): "7ff277a5da3c413ec8e510ff490c4527b16f5c4fdb2209f418d5f8f158c9e906",
    (2, "cpufree", 4): "f824e19bc95884960f39dd23926373f7f6ad523ffada8d25330f84ff992edee5",
}
