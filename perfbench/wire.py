"""Open-loop load generator speaking the ``repro.serve.frontend`` wire protocol.

A frame is ``[4-byte big-endian header length][JSON header][raw payload]``
in both directions.  The generator owns one connection and two threads:
the caller's thread sends on a schedule, a receiver thread reads the
responses, which the server may return out of order (it pipelines every
request of a connection).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Dict, List, Optional

import numpy as np

_LEN = struct.Struct(">I")


def encode_frame(header: Dict, payload: bytes = b"") -> bytes:
    """One wire frame; ``payload_nbytes`` is added when there is a payload."""
    if payload:
        header = dict(header, payload_nbytes=len(payload))
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(raw)) + raw + payload


def encode_predict(request_id: int, shape: List[int], payload: bytes) -> bytes:
    """A ``predict`` frame for one float32 sample of ``shape`` (no batch
    dimension) given as its raw bytes."""
    return encode_frame(
        {"kind": "predict", "id": int(request_id), "shape": list(shape),
         "dtype": "float32"},
        payload,
    )


def read_frame(stream) -> Optional[Dict]:
    """The next frame's header from a binary stream (``None`` at EOF)."""
    raw = stream.read(4)
    if len(raw) < 4:
        return None
    (length,) = _LEN.unpack(raw)
    header = json.loads(stream.read(length))
    extra = int(header.get("payload_nbytes", 0))
    if extra:
        stream.read(extra)
    return header


class Phase:
    """Per-request record of one load phase, indexed by send order."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.count = 0
        self.due = np.full(capacity, np.nan)
        self.sent = np.full(capacity, np.nan)
        self.recv = np.full(capacity, np.nan)
        self.server_ms = np.full(capacity, np.nan)
        self.label = np.full(capacity, -1, dtype=np.int64)
        self.pool_index = np.full(capacity, -1, dtype=np.int64)
        self.status: List[Optional[str]] = [None] * capacity
        self.backlog = np.zeros(capacity, dtype=np.int64)
        self.started = float("nan")
        self.ended = float("nan")       # last send
        self.drained = float("nan")     # last response (or drain timeout)

    def trim(self) -> "Phase":
        n = self.count
        for name in ("due", "sent", "recv", "server_ms", "label",
                     "pool_index", "backlog"):
            setattr(self, name, getattr(self, name)[:n])
        self.status = self.status[:n]
        return self


class LoadGenerator:
    """One connection; a receiver thread settles requests by id."""

    def __init__(self, host: str, port: int, pool: np.ndarray) -> None:
        # Payload bytes are prepared once per pool entry; only the small
        # JSON header is encoded in the send loop.
        self._shape = list(pool.shape[1:])
        self._payloads = [
            np.ascontiguousarray(sample, dtype=np.float32).tobytes()
            for sample in pool
        ]
        self._sock = socket.create_connection((host, port), timeout=30.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        self._stream = self._sock.makefile("rb", buffering=1 << 16)
        self._lock = threading.Lock()
        self._inflight: Dict[int, tuple] = {}
        self._next_id = 0
        self._idle = threading.Condition(self._lock)
        self._window: Optional[threading.Semaphore] = None
        self._receiver = threading.Thread(
            target=self._receive_loop, name="perfbench-recv", daemon=True)
        self._receiver.start()

    # ---------------------------------------------------------------- #
    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._receiver.join(timeout=10.0)

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- #
    def _send(self, phase: Phase, slot: int, pool_index: int,
              due: float) -> None:
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            self._inflight[request_id] = (phase, slot)
            backlog = len(self._inflight)
        frame = encode_predict(request_id, self._shape,
                               self._payloads[pool_index])
        phase.pool_index[slot] = pool_index
        phase.due[slot] = due
        phase.backlog[slot] = backlog
        phase.sent[slot] = time.perf_counter()
        self._sock.sendall(frame)
        phase.count = max(phase.count, slot + 1)

    def _receive_loop(self) -> None:
        while True:
            try:
                header = read_frame(self._stream)
            except (OSError, ValueError):
                header = None
            now = time.perf_counter()
            if header is None:
                with self._lock:
                    self._idle.notify_all()
                return
            with self._lock:
                entry = self._inflight.pop(header.get("id"), None)
                if not self._inflight:
                    self._idle.notify_all()
            if entry is None:
                continue
            phase, slot = entry
            phase.recv[slot] = now
            phase.status[slot] = str(header.get("status"))
            phase.server_ms[slot] = float(header.get("server_ms", np.nan))
            if header.get("status") == "ok":
                phase.label[slot] = int(header["label"])
            window = self._window
            if window is not None:
                window.release()

    def wait_idle(self, timeout: float) -> bool:
        """Block until every sent request has a response."""
        deadline = time.perf_counter() + timeout
        with self._lock:
            while self._inflight:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._receiver.is_alive():
                    return False
                self._idle.wait(remaining)
        return True

    # ---------------------------------------------------------------- #
    def open_loop(self, name: str, offsets: np.ndarray,
                  pool_indices: np.ndarray, drain_s: float) -> Phase:
        """Send request i at ``start + offsets[i]``, late or not.

        Each request's latency is measured from when it was due, so a
        stall also charges the requests queued behind it.
        """
        phase = Phase(name, len(offsets))
        start = time.perf_counter() + 0.002
        phase.started = start
        for slot, (offset, index) in enumerate(zip(offsets, pool_indices)):
            due = start + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(phase, slot, int(index), due)
        phase.ended = time.perf_counter()
        self.wait_idle(drain_s)
        phase.drained = time.perf_counter()
        return phase.trim()

    def windowed(self, name: str, window: int, duration_s: float,
                 pool_indices: np.ndarray, drain_s: float) -> Phase:
        """Keep ``window`` requests outstanding for ``duration_s`` seconds."""
        phase = Phase(name, len(pool_indices))
        self._window = threading.Semaphore(window)
        try:
            start = time.perf_counter()
            phase.started = start
            stop = start + duration_s
            for slot, index in enumerate(pool_indices):
                if not self._window.acquire(timeout=drain_s):
                    break
                now = time.perf_counter()
                if now >= stop:
                    break
                self._send(phase, slot, int(index), now)
            phase.ended = time.perf_counter()
            self.wait_idle(drain_s)
            phase.drained = time.perf_counter()
        finally:
            self._window = None
        return phase.trim()

