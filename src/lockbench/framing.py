"""Length-prefixed frames over stream sockets (u32 little-endian prefix)."""

from __future__ import annotations

import socket
import struct

_LEN = struct.Struct("<I")


def connect(host: str, port: int) -> socket.socket:
    """A TCP connection with Nagle's algorithm off: every frame is one
    small request or reply that must not wait for more data."""
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def listen(host: str, port: int) -> socket.socket:
    """A listening TCP socket with SO_REUSEADDR; port 0 picks a free port."""
    return socket.create_server((host, port), backlog=128)


def close(sock: socket.socket) -> None:
    """Shut down both directions, which wakes a thread blocked in recv on
    this socket, then close it; a socket the peer already reset is fine."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


def recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly n bytes; None on EOF or a closed/reset socket."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket, limit: int | None = None) -> bytes | None:
    """The next frame's payload; None on EOF, on a closed/reset socket, or
    when the prefix claims more than `limit` bytes (nothing more is read)."""
    header = recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if limit is not None and length > limit:
        return None
    return recv_exactly(sock, length)
