"""Lock-word codec identities, table layout, and the package's exports."""

import pytest
from hypothesis import given, strategies as st

import lockbench
from lockbench.client_lm import ClientSession
from lockbench.locktable import HALF_SIZE, U32_MASK, WORD_SIZE, TableHandle, decode, encode
from lockbench.verbs import InprocFabric

from helpers import lock_table, words

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


@pytest.fixture
def fabric():
    f = InprocFabric()
    yield f
    f.close()


@pytest.fixture
def region_and_handle(fabric):
    return lock_table(fabric, 6)


def test_table_word_offsets(region_and_handle):
    # Entry i is the word at byte offset 8*i.
    region, _ = region_and_handle
    for i in range(6):
        region.write(i * WORD_SIZE, encode(i, i).to_bytes(WORD_SIZE, "little"))
    assert words(region) == [encode(i, i) for i in range(6)]


def test_table_words_start_zeroed(region_and_handle):
    region, handle = region_and_handle
    assert region.length == handle.item_count * WORD_SIZE
    assert words(region) == [0] * 6


def test_handle_mirrors_table_addressing(fabric, region_and_handle):
    # A session addresses the region's words through the handle.
    region, handle = region_and_handle
    session = ClientSession(fabric.connect(7), handle, 7)
    session.acquire(5, shared=False)
    assert words(region) == [0] * 5 + [encode(7, 0)]
    with pytest.raises(ValueError):
        session.acquire(6, shared=False)


def test_handle_is_picklable(region_and_handle):
    import pickle

    _, handle = region_and_handle
    assert pickle.loads(pickle.dumps(handle)) == handle


def test_package_exports_are_sorted_and_resolve():
    assert lockbench.__all__ == sorted(lockbench.__all__)
    assert [name for name in lockbench.__all__ if not hasattr(lockbench, name)] == []
    assert lockbench.TableHandle is TableHandle
