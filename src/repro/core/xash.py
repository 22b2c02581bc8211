"""XASH-style super keys (MATE [24], adapted per the paper's §V).

MATE aggregates the values of a table row into a single hash — the *super
key* — which acts as a Bloom filter: a candidate row can only contain a
given set of query values if its super key covers the OR of the values'
hashes. BLEND stores this super key as one extra column of ``AllTables``.

MATE's original XASH is a 128-bit hash engineered for wide web-table rows.
Our lakes are laptop-scale (rows of 3–8 cells), so we scale the filter
down proportionally: BLEND's index uses a 63-bit key with 3 bits per value
(fits a signed Spark LongType), while the stand-alone MATE baseline uses a
32-bit key with 2 bits per value — preserving the *relative* false-positive
behaviour that Table V measures (MATE passes far more non-joinable rows to
validation than BLEND's aligned SQL join does).
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable

BLEND_BITS = 63
BLEND_K = 3


@lru_cache(maxsize=1 << 18)
def value_hash(value: str, bits: int = BLEND_BITS, k: int = BLEND_K) -> int:
    """Bloom signature of one normalized cell value: ``k`` bit positions
    drawn from the value's md5 digest, OR-ed into a ``bits``-wide mask."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    out = 0
    for i in range(k):
        # two digest bytes per position -> uniform over [0, bits)
        pos = (digest[2 * i] << 8 | digest[2 * i + 1]) % bits
        out |= 1 << pos
    return out


def super_key(values: Iterable[str], bits: int = BLEND_BITS, k: int = BLEND_K) -> int:
    """Super key of a row = OR of its cells' Bloom signatures."""
    out = 0
    for v in values:
        if v is not None:
            out |= value_hash(v, bits, k)
    return out
