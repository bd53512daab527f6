"""Device memory: buffers, storage classes, UVA peer access.

Buffers are backed by real NumPy arrays so the simulated kernels
perform the actual Jacobi arithmetic — every communication-protocol
variant is checked for numerical correctness against a single-domain
reference, not just timed.

Storage classes mirror the paper's §5.3.3: ordinary ``GLOBAL`` device
memory versus ``SYMMETRIC`` (NVSHMEM PGAS heap) memory, which is the
only storage remote-memory operations may target.  ``HOST`` exists for
staged baseline copies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["DeviceBuffer", "MemoryManager", "Storage"]


class Storage(enum.Enum):
    """Where an allocation lives (paper §5.3.3 storage types)."""

    HOST = "host"
    GLOBAL = "gpu_global"       #: cudaMalloc-style device memory
    SYMMETRIC = "gpu_nvshmem"   #: nvshmem_malloc symmetric heap


@dataclass(eq=False)
class DeviceBuffer:
    """A typed allocation on one device.

    ``data`` is the backing NumPy array.  Identity (not value) equality
    is intentional: buffers are handles.
    """

    device: int
    name: str
    data: np.ndarray
    storage: Storage = Storage.GLOBAL

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeviceBuffer {self.name} dev={self.device} {self.shape} "
            f"{self.dtype} {self.storage.value}>"
        )


class PeerAccessError(RuntimeError):
    """Raised on a peer access that was never enabled (UVA discipline)."""


class MemoryManager:
    """Tracks allocations and peer-access permissions for one node.

    Models the constraints the real stack enforces:

    - capacity accounting per device (allocation beyond HBM raises),
    - direct peer load/store requires ``enable_peer_access`` first
      (``cudaDeviceEnablePeerAccess``) unless the buffer is symmetric.
    """

    def __init__(self, num_gpus: int, capacity_bytes: int | None = None) -> None:
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        self.num_gpus = num_gpus
        self.capacity_bytes = capacity_bytes
        self._used = [0] * num_gpus
        self._buffers: list[DeviceBuffer] = []
        self._peer_ok: set[tuple[int, int]] = set()

    # -- allocation ---------------------------------------------------------

    def alloc(
        self,
        device: int,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        storage: Storage = Storage.GLOBAL,
        fill: float | None = 0.0,
    ) -> DeviceBuffer:
        """Allocate a buffer on ``device``; zero-filled by default."""
        self._check_device(device)
        self._check_capacity(device, _nbytes(shape, dtype))
        buf = DeviceBuffer(device=device, name=name,
                           data=_new_array(shape, dtype, fill), storage=storage)
        self._used[device] += buf.nbytes
        self._buffers.append(buf)
        return buf

    def alloc_block(
        self,
        n_devices: int,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        storage: Storage = Storage.GLOBAL,
        fill: float | None = 0.0,
    ) -> tuple[np.ndarray, list[DeviceBuffer]]:
        """Allocate ``shape`` on each of devices ``0 .. n_devices-1`` as
        one contiguous ``(n_devices, *shape)`` block.

        Device ``d``'s buffer holds the view ``block[d]``; capacity and
        accounting are per device, exactly as for :meth:`alloc`.
        Returns ``(block, buffers)``.
        """
        if not 0 < n_devices <= self.num_gpus:
            raise ValueError(
                f"n_devices {n_devices} out of range (num_gpus={self.num_gpus})")
        shape = _as_shape(shape)
        nbytes = _nbytes(shape, dtype)
        for device in range(n_devices):
            self._check_capacity(device, nbytes)
        block = _new_array((n_devices, *shape), dtype, fill)
        buffers = [DeviceBuffer(device=device, name=name, data=block[device, ...],
                                storage=storage) for device in range(n_devices)]
        for device in range(n_devices):
            self._used[device] += nbytes
        self._buffers.extend(buffers)
        return block, buffers

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer (double-free raises)."""
        try:
            self._buffers.remove(buf)
        except ValueError:
            raise RuntimeError(f"double free or foreign buffer: {buf.name}") from None
        self._used[buf.device] -= buf.nbytes

    def used_bytes(self, device: int) -> int:
        self._check_device(device)
        return self._used[device]

    def buffers_on(self, device: int) -> Iterator[DeviceBuffer]:
        self._check_device(device)
        return (b for b in self._buffers if b.device == device)

    # -- peer access (UVA) ----------------------------------------------------

    def enable_peer_access(self, src: int, dst: int) -> None:
        """Allow device ``src`` to directly load/store ``dst`` memory."""
        self._check_device(src)
        self._check_device(dst)
        self._peer_ok.add((src, dst))

    def enable_all_peer_access(self) -> None:
        for a in range(self.num_gpus):
            for b in range(self.num_gpus):
                if a != b:
                    self.enable_peer_access(a, b)

    def check_peer_access(self, accessor: int, buf: DeviceBuffer) -> None:
        """Validate a direct device-side access to ``buf`` by ``accessor``.

        Symmetric-heap buffers are always remotely accessible (that is
        the PGAS contract); global memory needs peer access enabled.
        """
        if accessor == buf.device or buf.storage is Storage.SYMMETRIC:
            return
        if (accessor, buf.device) not in self._peer_ok:
            raise PeerAccessError(
                f"device {accessor} has no peer access to device {buf.device} "
                f"buffer {buf.name!r} (storage={buf.storage.value})"
            )

    def _check_capacity(self, device: int, nbytes: int) -> None:
        if self.capacity_bytes is not None:
            if self._used[device] + nbytes > self.capacity_bytes:
                raise MemoryError(
                    f"device {device}: allocation of {nbytes} bytes exceeds "
                    f"capacity ({self._used[device]}/{self.capacity_bytes} used)"
                )

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_gpus:
            raise ValueError(f"device {device} out of range (num_gpus={self.num_gpus})")


def _as_shape(shape: tuple[int, ...] | int) -> tuple[int, ...]:
    return (int(shape),) if np.ndim(shape) == 0 else tuple(int(n) for n in shape)


def _nbytes(shape: tuple[int, ...] | int, dtype: np.dtype | type) -> int:
    return math.prod(_as_shape(shape)) * np.dtype(dtype).itemsize


def _new_array(shape: tuple[int, ...] | int, dtype: np.dtype | type,
               fill: float | None) -> np.ndarray:
    """``fill=None`` leaves the memory uninitialised; a zero fill comes
    from ``np.zeros`` (the OS hands out zeroed pages lazily)."""
    if fill is None:
        return np.empty(shape, dtype=dtype)
    if fill == 0 and not np.signbit(fill):  # -0.0 keeps its sign via np.full
        return np.zeros(shape, dtype=dtype)
    return np.full(shape, fill, dtype=dtype)
