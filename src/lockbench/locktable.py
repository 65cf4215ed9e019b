"""Lock table layout and 64-bit lock-word codec.

A lock table is a region registered on a verb host, described by its
`TableHandle`.  A lock word packs the state of one item into 8
little-endian bytes: the high 32 bits hold the exclusive owner's client
ID (0 = no owner), the low 32 bits hold the shared-holder count.  Entry i
of the table lives at byte offset 8*i of the region.

Because the count sits in the low half, FA(+1) on the whole word bumps
only the shared count, and FA(2^64-1) decrements it, as long as the count
stays clear of the 32-bit boundary.  Configurations are capped at
MAX_CLIENTS concurrent clients so the count can never creep into the
owner bits.
"""

from __future__ import annotations

from typing import NamedTuple

from .verbs import WORD_SIZE  # noqa: F401  (re-exported: the table's layout)

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


class TableHandle(NamedTuple):
    """A lock table: the ID of the region holding its words and their
    count.  It addresses the words from any transport, and pickles, so
    process-based clients can receive it."""

    region_id: int
    item_count: int
