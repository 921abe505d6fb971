"""Parallel kernel backend: ``fast`` plus thread-tiled depthwise kernels.

The GEMMs are the inherited ``fast`` kernels: row-block tiling of an INT8
GEMM never beat a single BLAS call on a measured shape.  What this backend
adds are the two depthwise kernels, which ``fast`` leaves on the reference
integer einsum:

* **Exact-float32 tiles.**  int8 operands staged to float32 feed a
  vectorized einsum whose per-(position, channel) accumulation over
  ``kernel_area`` products stays inside float32's exact-integer window.
  For the depthwise *gradient* the reduction spans all positions and can
  leave that window, so tiles are capped at an exact-window row count and
  their exact partial sums accumulate in int64 — bit-identical to the
  ``reference`` and ``fast`` backends on every input.
* **Thread tiling.**  Position blocks are dispatched to a shared
  :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy releases the GIL
  inside its buffered loops, so the tiles overlap on multi-core hosts.
  The calling thread processes the first tile itself.  On single-core
  hosts (``num_workers == 1``) every tile runs inline and no pool starts.

The worker pool is the only resource this backend owns; an engine built on
it releases the pool with :meth:`ParallelBackend.shutdown` on ``close()``.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.backends.fast import FastBackend, exact_f32_possible

#: Environment override for the worker-pool width (default: CPU count).
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"


def _default_workers() -> int:
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


class ParallelBackend(FastBackend):
    """The ``fast`` kernels plus tiled, threaded exact depthwise kernels."""

    name = "parallel"

    def __init__(
        self,
        num_workers: Optional[int] = None,
        min_rows_per_tile: int = 32,
    ) -> None:
        super().__init__()
        self.num_workers = (
            _default_workers() if num_workers is None else max(1, int(num_workers))
        )
        self.min_rows_per_tile = max(1, int(min_rows_per_tile))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._pool_pid: Optional[int] = None
        self._atexit_registered = False

    # ------------------------------------------------------------------ #
    # tiling machinery
    # ------------------------------------------------------------------ #
    def _tiles(
        self, rows: int, max_tile_rows: Optional[int] = None
    ) -> Optional[List[Tuple[int, int]]]:
        """Row-block bounds, or ``None`` when tiling cannot pay for itself.

        ``max_tile_rows`` caps a tile's height regardless of worker count
        (used by the depthwise gradient to stay inside the exact-float32
        accumulation window).
        """
        blocks = min(self.num_workers, rows // self.min_rows_per_tile)
        if max_tile_rows is not None and rows > max_tile_rows:
            blocks = max(blocks, -(-rows // max_tile_rows))
        if blocks < 2:
            return None
        bounds = np.linspace(0, rows, blocks + 1).astype(int)
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(blocks)
            if bounds[i] < bounds[i + 1]
        ]

    def _executor(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is not None and self._pool_pid == os.getpid():
            return pool
        with self._pool_lock:
            # A pool inherited through os.fork is dead weight: the worker
            # threads did not survive into the child, so submitting to it
            # would queue work forever.  Drop the handle (the parent still
            # owns the real pool) and build a fresh one for this process.
            if self._pool is not None and self._pool_pid != os.getpid():
                self._pool = None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-parallel",
                )
                self._pool_pid = os.getpid()
                if not self._atexit_registered:
                    # Idempotent shutdown at interpreter exit; explicit
                    # shutdown() / context-manager exit remains the
                    # deterministic path for tests and short-lived tools.
                    atexit.register(self.shutdown)
                    self._atexit_registered = True
        return self._pool

    @property
    def pool_active(self) -> bool:
        """True while a worker pool this process owns is live."""
        return self._pool is not None and self._pool_pid == os.getpid()

    def shutdown(self) -> None:
        """Join and release the worker-thread pool (idempotent).

        The backend stays usable: the next tiled kernel call lazily builds
        a fresh pool.  A pool inherited through ``os.fork`` is discarded
        without joining — its threads only exist in the parent.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            owner = self._pool_pid
            self._pool_pid = None
        if pool is not None and owner == os.getpid():
            pool.shutdown(wait=True)

    def _run_tiles(
        self, work: Callable[[int, int], None], tiles: Sequence[Tuple[int, int]]
    ) -> None:
        """Run ``work(r0, r1)`` over every tile; calling thread takes tile 0.

        A concurrent :meth:`shutdown` (another engine closing a shared
        backend) may retire the pool between lookup and submit; tiles are
        order-independent and exact, so the unsubmitted remainder simply
        runs inline on the calling thread — same bits, one pool restart
        later.
        """
        if len(tiles) == 1 or self.num_workers == 1:
            for r0, r1 in tiles:
                work(r0, r1)
            return
        pool = self._executor()
        futures = []
        inline: List[Tuple[int, int]] = []
        for r0, r1 in tiles[1:]:
            try:
                futures.append(pool.submit(work, r0, r1))
            except RuntimeError:  # pool shut down mid-call
                inline.append((r0, r1))
        work(*tiles[0])
        for r0, r1 in inline:
            work(r0, r1)
        for future in futures:
            future.result()  # propagate worker exceptions

    # ------------------------------------------------------------------ #
    # depthwise kernels
    # ------------------------------------------------------------------ #
    def int8_depthwise(
        self, cols_q: np.ndarray, weight_q: np.ndarray
    ) -> np.ndarray:
        if not (
            cols_q.dtype == np.int8
            and weight_q.dtype == np.int8
            and exact_f32_possible(cols_q.shape[2], qmax=128, rhs_max=128)
        ):
            return super().int8_depthwise(cols_q, weight_q)
        positions, channels = cols_q.shape[0], cols_q.shape[1]
        out = np.empty((positions, channels), dtype=np.int64)
        weight_f32 = weight_q.astype(np.float32)

        def work(r0: int, r1: int) -> None:
            # The per-(position, channel) reduction spans kernel_area
            # products bounded by 128^2, far inside float32's exact window —
            # the float einsum vectorizes where the integer einsum cannot.
            out[r0:r1] = np.einsum(
                "pck,ck->pc", cols_q[r0:r1].astype(np.float32), weight_f32
            )

        tiles = self._tiles(positions) or [(0, positions)]
        self._run_tiles(work, tiles)
        return out

    def int8_depthwise_grad(
        self, grad_q: np.ndarray, cols_q: np.ndarray
    ) -> np.ndarray:
        if not (
            grad_q.dtype == np.int8
            and cols_q.dtype == np.int8
            and cols_q.shape[0] > 0
        ):
            return super().int8_depthwise_grad(grad_q, cols_q)
        positions = cols_q.shape[0]
        # Each tile's float32 accumulation must stay exact: per-position
        # products are bounded by 128^2, so cap tile height accordingly
        # (tiles is never None once positions exceeds the cap).
        max_tile = max(1, (2 ** 24 - 1) // (128 * 128))
        tiles = self._tiles(positions, max_tile_rows=max_tile)
        if tiles is None:
            tiles = [(0, positions)]
        partials = np.zeros((len(tiles),) + cols_q.shape[1:], dtype=np.int64)
        tile_index = {r0: index for index, (r0, _) in enumerate(tiles)}

        def work(r0: int, r1: int) -> None:
            # Exact inside the tile (the row cap keeps every partial sum
            # below 2^24); the cross-tile reduction is integer.
            partials[tile_index[r0]] = np.einsum(
                "pc,pck->ck",
                grad_q[r0:r1].astype(np.float32),
                cols_q[r0:r1].astype(np.float32),
            )

        self._run_tiles(work, tiles)
        return partials.sum(axis=0)


__all__ = ["ParallelBackend", "WORKERS_ENV_VAR"]
