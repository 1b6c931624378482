"""Length-prefixed pickle framing for the remote sweep backend.

One frame on the wire is::

    MAGIC (4 bytes) | body length (8 bytes, big-endian) | pickled body

The magic guards against a stray client speaking something else to a
worker port; the length prefix makes framing trivial and lets the
receiver reject absurd frames before allocating. Pickle is acceptable
here for the same reason the process-pool executor uses it: both ends
run the *same* ``repro`` source tree — the handshake rejects a worker
whose :func:`repro.cache.keys.model_fingerprint` differs — on hosts the
operator launched personally. A sweep worker port is not a public
endpoint and must not be exposed as one (see the README's distributed
sweeps section).

The handshake, worker side first::

    worker  -> {"type": "hello", "protocol": 1, "fingerprint": ...,
                "pid": ..., "tag": ...}
    coord   -> {"type": "welcome", "env": {...}}      # accepted
    coord   -> {"type": "reject", "reason": "..."}    # close after

``welcome`` carries the coordinator's run-mode environment
(:data:`MODE_ENV_KEYS`) so a worker launched in a vanilla shell still
runs tasks under the exact solver/kernel/scheduler modes the
coordinator's cache keys assume. Then, repeatedly::

    coord   -> {"type": "run", "tasks": [(task_id, SweepTask), ...]}
    worker  -> {"type": "result", "task_id": ..., "ok": True,
                "value": ..., "duration": ...}          # one per task,
                                                        # in finish order
    worker  -> {"type": "result", "task_id": ..., "ok": False,
                "error": "...", "traceback": "..."}

until ``{"type": "bye"}`` (coordinator done; the worker accepts the
next connection) or ``{"type": "shutdown"}`` (the worker process exits;
``sweepworkerctl stop`` sends this).
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Optional

from repro.errors import ReproError

__all__ = [
    "MODE_ENV_KEYS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "recv_msg",
    "send_msg",
]

PROTOCOL_VERSION = 1

_MAGIC = b"RSW1"
_HEADER = struct.Struct(">4sQ")

#: Hard cap on one frame; a sweep task or result that pickles larger
#: than this is a bug, not a workload.
MAX_FRAME_BYTES = 1 << 30

#: Environment knobs the coordinator forwards in ``welcome`` so both
#: sides resolve the same run modes (they are read *inside* task
#: bodies and folded into cache keys). ``REPRO_TRACE`` rides along so a
#: localhost worker drops trace files where the coordinator expects
#: them; on a genuinely remote machine they land on that machine.
MODE_ENV_KEYS = (
    "REPRO_FAST",
    "REPRO_SOLVER",
    "REPRO_KERNEL",
    "REPRO_SCHEDULER",
    "REPRO_TRACE",
)


class ProtocolError(ReproError):
    """The peer sent bytes that are not a well-formed frame."""


def send_msg(sock: socket.socket, obj: Any) -> None:
    """Write one frame; raises ``OSError`` on a dead peer."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(body)}-byte frame "
            f"(cap {MAX_FRAME_BYTES})")
    sock.sendall(_HEADER.pack(_MAGIC, len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """``n`` bytes, ``None`` on clean EOF at offset 0, error mid-frame."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`ProtocolError` on bad magic, an oversized length, a
    truncated frame or an unpicklable body, and ``OSError`` on socket
    failures.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, length = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {_MAGIC!r}); "
            f"is the peer a repro sweep worker?")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed before frame body")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"cannot unpickle frame body: {exc}") from exc
