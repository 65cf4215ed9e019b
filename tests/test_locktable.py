"""Lock-word codec identities and table layout."""

import pytest
from hypothesis import given, strategies as st

from lockbench.client_lm import ClientSession
from lockbench.locktable import (
    HALF_SIZE,
    MAX_CLIENTS,
    U32_MASK,
    WORD_SIZE,
    LockTable,
    TableHandle,
    check_client_capacity,
    decode,
    encode,
)
from lockbench.verbs import InprocFabric

U64 = 1 << 64

owners = st.integers(min_value=0, max_value=U32_MASK)
counts = st.integers(min_value=0, max_value=U32_MASK)


@given(owners, counts)
def test_encode_decode_round_trip(owner, count):
    assert decode(encode(owner, count)) == (owner, count)


@given(owners, counts)
def test_encoded_word_fits_64_bits(owner, count):
    assert 0 <= encode(owner, count) < U64


@given(owners, st.integers(min_value=0, max_value=U32_MASK - 1))
def test_fa_plus_one_bumps_only_the_count(owner, count):
    # The bridge the client-centric design rides on: whole-word +1 is a
    # shared-count increment as long as the count stays below 2^32.
    assert encode(owner, count) + 1 == encode(owner, count + 1)


@given(owners, st.integers(min_value=1, max_value=U32_MASK))
def test_fa_minus_one_decrements_only_the_count(owner, count):
    assert (encode(owner, count) + (U64 - 1)) % U64 == encode(owner, count - 1)


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        encode(U32_MASK + 1, 0)
    with pytest.raises(ValueError):
        encode(0, -1)


def test_owner_occupies_high_bytes_little_endian():
    word = encode(0xABCD, 3)
    raw = word.to_bytes(WORD_SIZE, "little")
    assert raw[:HALF_SIZE] == (3).to_bytes(HALF_SIZE, "little")
    assert raw[HALF_SIZE:] == (0xABCD).to_bytes(HALF_SIZE, "little")


def test_client_capacity_guard():
    check_client_capacity(MAX_CLIENTS)
    with pytest.raises(ValueError):
        check_client_capacity(MAX_CLIENTS + 1)


@pytest.fixture
def fabric():
    f = InprocFabric()
    yield f
    f.close()


@pytest.fixture
def table(fabric):
    return LockTable.allocate(fabric, 6)


def test_table_word_offsets(table):
    # Entry i is the word at byte offset 8*i.
    for i in range(6):
        table.region.write(i * WORD_SIZE, encode(i, i).to_bytes(WORD_SIZE, "little"))
    assert table.words() == [encode(i, i) for i in range(6)]


def test_table_words_start_zeroed(table):
    assert table.words() == [0] * 6


def test_table_requires_exact_region_size():
    fabric = InprocFabric()
    region = fabric.register_region(8)
    with pytest.raises(ValueError):
        LockTable(region, 2)


def test_handle_mirrors_table_addressing(fabric, table):
    # A session addresses the same words through a handle as through the table.
    session = ClientSession(fabric.connect(7), TableHandle(table.region_id, 6), 7)
    session.acquire(5, shared=False)
    assert table.words() == [0] * 5 + [encode(7, 0)]
    with pytest.raises(ValueError):
        session.acquire(6, shared=False)


def test_handle_is_picklable(table):
    import pickle

    handle = TableHandle(table.region_id, table.item_count)
    assert pickle.loads(pickle.dumps(handle)) == handle
