"""Hash functions with reference parity.

- `murmur3_64(bytes)` reproduces Guava `Hashing.murmur3_128().hashBytes(b).padToLong()`
  as used for term identity in the reference lexicon
  (/root/reference/code/features-index/lexicon/src/main/java/nu/marginalia/lexicon/KeywordLexicon.java:25,60).
  padToLong() returns the first 8 output bytes little-endian, which for
  MurmurHash3 x64_128 (seed 0) is exactly h1.  We use the 64-bit hash itself
  as the term id (no dense lexicon), matching the reference's tolerance of
  hash collisions (lexicon readme).

- `term_freq_hash` reproduces TermFrequencyDict.longHash (polynomial string
  hash mod 2^61-1 over *signed* java bytes + 1,
  /root/reference/code/libraries/term-frequency-dict/src/main/java/nu/marginalia/term_frequency_dict/TermFrequencyDict.java:101-118).

Both are public, well-known algorithms (MurmurHash3 by Austin Appleby is
public domain; the polynomial hash is textbook cp-algorithms material).
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b as _blake2b

MASK64 = 0xFFFF_FFFF_FFFF_FFFF

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


def _rotl64(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & MASK64


def _fmix64(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & MASK64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & MASK64
    k ^= k >> 33
    return k


def murmur3_128(data: bytes, seed: int = 0) -> tuple[int, int]:
    """MurmurHash3 x64_128 (the variant Guava's murmur3_128 implements)."""
    length = len(data)
    nblocks = length // 16
    h1 = seed
    h2 = seed

    for i in range(nblocks):
        o = i * 16
        k1 = int.from_bytes(data[o : o + 8], "little")
        k2 = int.from_bytes(data[o + 8 : o + 16], "little")

        k1 = (k1 * _C1) & MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & MASK64
        h1 ^= k1
        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & MASK64
        h1 = (h1 * 5 + 0x52DCE729) & MASK64

        k2 = (k2 * _C2) & MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & MASK64
        h2 ^= k2
        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & MASK64
        h2 = (h2 * 5 + 0x38495AB5) & MASK64

    tail = data[nblocks * 16 :]
    k1 = 0
    k2 = 0
    tl = len(tail)
    if tl > 8:
        k2 = int.from_bytes(tail[8:], "little")
        k2 = (k2 * _C2) & MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & MASK64
        h2 ^= k2
    if tl > 0:
        k1 = int.from_bytes(tail[:8], "little")
        k1 = (k1 * _C1) & MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & MASK64
    h2 = (h2 + h1) & MASK64
    h1 = _fmix64(h1)
    h2 = _fmix64(h2)
    h1 = (h1 + h2) & MASK64
    h2 = (h2 + h1) & MASK64
    return h1, h2


def content_hash64(data: bytes) -> int:
    """Engine-internal 64-bit content hash for document bodies (equality
    comparison only — canonical dedup, re-crawl detection).  blake2b runs
    at C speed where the pure-Python murmur costs ~25 µs per document;
    nothing in the reference wire format depends on the body-hash function
    (DocumentRecord.bodyHash feeds only equality checks)."""
    return int.from_bytes(_blake2b(data, digest_size=8).digest(), "big")


@lru_cache(maxsize=1 << 18)
def murmur3_64(data: bytes) -> int:
    """Guava murmur3_128(b).padToLong() == h1 of x64_128, as unsigned 64.

    Cached — intended for short, repeating inputs (terms, urls).  For
    document-sized payloads use content_hash64 (C-speed, uncached)."""
    return murmur3_128(data)[0]


def domain_id31(fqdn: str) -> int:
    """The 31-bit id of a domain: the low 31 bits of murmur3_64 of its
    name.  It is the high half of every doc id (codecs.domain_id_of) and
    the key of the domain rankings, so both must come from here."""
    return murmur3_64(fqdn.encode("utf-8")) & 0x7FFF_FFFF


@lru_cache(maxsize=1 << 18)
def term_hash(word: str) -> int:
    """Term id of a keyword: 64-bit murmur3 of its UTF-8 bytes.

    The reference rejects words of >=127 UTF-8 bytes (KeywordLexicon.java:54-58);
    callers should have filtered those already, but we keep the guard for
    identical behavior (returns None -> drop)."""
    b = word.encode("utf-8")
    if len(b) >= 127:
        return None
    return murmur3_64(b)


_TF_M = (1 << 61) - 1
_TF_P = 127


def term_freq_hash_bytes(*byte_groups: bytes) -> int:
    """TermFrequencyDict.longHash — polynomial hash over signed-java-byte+1."""
    if not byte_groups:
        return 0
    h = 0
    p_power = 1
    for bs in byte_groups:
        for b in bs:
            signed = b - 256 if b >= 128 else b
            h = (h + (signed + 1) * p_power) % _TF_M
            p_power = (p_power * _TF_P) % _TF_M
    return h


def term_freq_hash_stemmed(s: str) -> int:
    """TermFrequencyDict.getTermFreqStemmed key for an already-stemmed word."""
    return term_freq_hash_bytes(s.encode("utf-8"))


def term_freq_hash_string(s: str) -> int:
    """TermFrequencyDict.getStringHash parity (TermFrequencyDict.java:82-94):
    multi-part strings (space/underscore separated) hash the concatenation of
    the per-part *stems*; single words hash their raw surface bytes."""
    if " " in s or "_" in s:
        from marginalia_ray.functions.stemmer import stem

        parts = [p for p in s.replace("_", " ").split(" ") if p]
        return term_freq_hash_bytes(*(stem(p).encode("utf-8") for p in parts))
    return term_freq_hash_bytes(s.encode("utf-8"))
