"""Lock table layout and 64-bit lock-word codec.

A lock word packs the state of one item into 8 little-endian bytes: the
high 32 bits hold the exclusive owner's client ID (0 = no owner), the low
32 bits hold the shared-holder count.  Entry i of the table lives at byte
offset 8*i of its registered region.

Because the count sits in the low half, FA(+1) on the whole word bumps
only the shared count, and FA(2^64-1) decrements it, as long as the count
stays clear of the 32-bit boundary.  Configurations are capped at
MAX_CLIENTS concurrent clients so the count can never creep into the
owner bits.
"""

from __future__ import annotations

from typing import NamedTuple

WORD_SIZE = 8
HALF_SIZE = 4
U32_MASK = 0xFFFFFFFF

# Guard margin: with at most 2^16 clients the shared count stays far from
# the 2^32 wraparound that would corrupt the owner half.
MAX_CLIENTS = 1 << 16


def encode(owner: int, count: int) -> int:
    """Pack (exclusive owner ID, shared count) into one 64-bit word."""
    if not 0 <= owner <= U32_MASK:
        raise ValueError(f"owner {owner} out of 32-bit range")
    if not 0 <= count <= U32_MASK:
        raise ValueError(f"count {count} out of 32-bit range")
    return (owner << 32) | count


def decode(word: int) -> tuple[int, int]:
    """Split a 64-bit lock word into (exclusive owner ID, shared count)."""
    return (word >> 32) & U32_MASK, word & U32_MASK


def check_client_capacity(n_clients: int) -> None:
    """Reject configurations that could overflow the shared count."""
    if n_clients > MAX_CLIENTS:
        raise ValueError(
            f"{n_clients} clients exceeds the supported maximum of {MAX_CLIENTS}"
        )


class TableHandle(NamedTuple):
    """Client-side view of a lock table: enough to address its words from
    any transport, and picklable so process-based clients can receive it."""

    region_id: int
    item_count: int


class LockTable:
    """A registered region holding `item_count` lock words."""

    def __init__(self, region, item_count: int):
        if item_count < 1:
            raise ValueError("lock table needs at least one item")
        if region.length != item_count * WORD_SIZE:
            raise ValueError(
                f"region of {region.length} bytes cannot hold {item_count} lock words"
            )
        self.region = region
        self.item_count = item_count

    @classmethod
    def allocate(cls, host, item_count: int) -> "LockTable":
        """Register a zeroed region sized for `item_count` words on `host`
        (an InprocFabric or TcpAgent)."""
        region = host.register_region(item_count * WORD_SIZE)
        return cls(region, item_count)

    @property
    def region_id(self) -> int:
        return self.region.region_id

    def words(self) -> list[int]:
        """Snapshot of every lock word (for quiescence assertions)."""
        return [self.region.snapshot_word(i) for i in range(self.item_count)]
