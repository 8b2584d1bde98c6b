"""EasyLSH — Marginalia's 64-bit locality-sensitive hash.

Port of /root/reference/code/libraries/easy-lsh/src/main/java/nu/marginalia/lsh/EasyLSH.java:12-87
plus Java String.hashCode (the s[0]*31^(n-1)+... polynomial over UTF-16 code
units) which addUnordered(Object) relies on.  Used for within-domain
near-duplicate detection (LshDocumentDeduplicator, Hamming distance <= 2)
and for the search results' ``dataHash`` dedup (query/url_dedup.py).

Python's bitwise ops on negative ints follow two's-complement semantics, so
Java's signed >> / >>> mix is reproduced by keeping hashes as signed ints and
masking only where Java's 32-bit wrap matters."""

from __future__ import annotations

from functools import lru_cache

INT_MASK = 0xFFFF_FFFF


def _i32(x: int) -> int:
    """Wrap to Java signed int32."""
    x &= INT_MASK
    return x - (1 << 32) if x >= (1 << 31) else x


@lru_cache(maxsize=1 << 17)
def java_string_hash(s: str) -> int:
    """Java String.hashCode as a signed 32-bit int (UTF-16 code units, so a
    character outside the BMP counts as its surrogate pair).
    Cached: inputs are tokens, which repeat Zipfian across documents."""
    h = 0
    b = s.encode("utf-16-be", "surrogatepass")
    for i in range(0, len(b), 2):
        cu = (b[i] << 8) | b[i + 1]
        h = (h * 31 + cu) & INT_MASK
    return _i32(h)


def hamming(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFF_FFFF_FFFF_FFFF).count("1")


class EasyLSH:
    SHINGLING = 2
    hamming_distance = staticmethod(hamming)

    def __init__(self):
        self.fields = [0] * 64
        self.prev = [0] * self.SHINGLING
        self.prev_idx = 0

    def add_unordered(self, obj: str) -> None:
        self.add_hash_unordered(java_string_hash(obj))

    def add_ordered(self, obj: str) -> None:
        self.add_hash_ordered(java_string_hash(obj))

    def add_hash_ordered(self, hash_code: int) -> None:
        self.add_hash_unordered(self._shingle(hash_code))

    def add_hash_unordered(self, hash_code: int) -> None:
        # value = 1 - (h & 2): +1 or -1
        value = 1 - (hash_code & 2)
        u = hash_code & INT_MASK
        # (h >> 2) is Java arithmetic shift (signed); the rest are >>> on the
        # 32-bit pattern.  Python's >> on a signed int IS arithmetic.
        field = (hash_code >> 2) ^ (u >> 8) ^ (u >> 14) ^ (u >> 20) ^ (u >> 26)
        self.fields[field & 63] += value

    def _shingle(self, next_hash: int) -> int:
        self.prev[self.prev_idx & (self.SHINGLING - 1)] = next_hash
        self.prev_idx += 1
        ret = 0
        for h in self.prev:
            ret ^= h
        return ret

    def get(self) -> int:
        val = 0
        for f in self.fields:
            val = ((val << 1) | ((f & INT_MASK) >> 31)) & 0xFFFF_FFFF_FFFF_FFFF
        return val


# word -> (field index, ±1) — the addUnordered update is a pure function of
# the token, so the memoized pair reproduces EasyLSH.addUnordered exactly
_UNORD_MEMO: dict[str, tuple[int, int]] = {}


def _unord_update(w: str) -> tuple[int, int]:
    v = _UNORD_MEMO.get(w)
    if v is None:
        if len(_UNORD_MEMO) > 1_000_000:
            _UNORD_MEMO.clear()
        hc = java_string_hash(w)
        u = hc & INT_MASK
        field = (hc >> 2) ^ (u >> 8) ^ (u >> 14) ^ (u >> 20) ^ (u >> 26)
        v = (field & 63, 1 - (hc & 2))
        _UNORD_MEMO[w] = v
    return v


def lsh_of_words(words) -> int:
    """DocumentLanguageData.localitySensitiveHashCode: addUnordered of every
    token (original case) in every sentence.  Memoized per token (Zipfian
    repeats); bit-identical to the EasyLSH loop."""
    fields = [0] * 64
    upd = _unord_update
    for w in words:
        i, val = upd(w)
        fields[i] += val
    val = 0
    for f in fields:
        val = ((val << 1) | ((f & INT_MASK) >> 31)) & 0xFFFF_FFFF_FFFF_FFFF
    return val

