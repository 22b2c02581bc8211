"""Unit tests for the XASH-style super keys (repro.core.xash)."""
import pytest

from repro.core.xash import BLEND_BITS, BLEND_K, super_key, value_hash


def covers(row_key: int, required: int) -> bool:
    """The Bloom check MC and MATE apply to a row's super key."""
    return (row_key & required) == required


def test_value_hash_deterministic():
    assert value_hash("abc") == value_hash("abc")


def test_value_hash_differs_by_value():
    assert value_hash("abc") != value_hash("abd")


@pytest.mark.parametrize("bits", [8, 16, 32, 63])
def test_value_hash_within_bits(bits):
    for v in ["a", "b", "hello", "42", "x" * 50]:
        assert 0 < value_hash(v, bits, 2) < (1 << bits)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_value_hash_at_most_k_bits(k):
    for v in ["alpha", "beta", "gamma"]:
        assert bin(value_hash(v, 63, k)).count("1") <= k


def test_value_hash_default_width():
    assert value_hash("anything") < (1 << BLEND_BITS)
    assert bin(value_hash("anything")).count("1") <= BLEND_K


def test_super_key_or_of_values():
    sk = super_key(["a", "b"])
    assert sk == value_hash("a") | value_hash("b")


def test_super_key_ignores_none():
    assert super_key(["a", None]) == super_key(["a"])


def test_super_key_empty():
    assert super_key([]) == 0


def test_super_key_order_invariant():
    assert super_key(["x", "y", "z"]) == super_key(["z", "x", "y"])


def test_covers_positive():
    sk = super_key(["a", "b", "c"])
    assert covers(sk, super_key(["a", "b"]))
    assert covers(sk, super_key(["c"]))


def test_covers_negative_mostly():
    # a row without the value cannot cover it (unless hash collision —
    # check a value whose bits provably differ)
    sk = super_key(["a"])
    other = value_hash("completely-different-value")
    if other & ~sk:
        assert not covers(sk, other)


def test_covers_zero_required():
    assert covers(super_key(["a"]), 0)


def test_superkey_monotone_growth():
    sk1 = super_key(["a"])
    sk2 = super_key(["a", "b"])
    assert sk1 & sk2 == sk1  # adding values can only set more bits


def test_value_hash_cache_consistency():
    # lru_cache must not leak across (bits, k) configurations
    a63 = value_hash("v", 63, 3)
    a32 = value_hash("v", 32, 2)
    assert a32 < (1 << 32)
    assert value_hash("v", 63, 3) == a63
