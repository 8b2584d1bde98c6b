"""Unit tests for bit-packing, hashing, stemming, and the postings codec.

Mirrors the reference's primitive-level test tier (SURVEY.md §5: WordMetadataTest,
DocumentMetadataTest, btree round-trips, array sort/search tests)."""

import numpy as np
import pytest

from marginalia_ray.model import codecs as C
from marginalia_ray.functions.hashing import (
    murmur3_64,
    murmur3_128,
    term_freq_hash_stemmed,
)
from marginalia_ray.functions.stemmer import stem
from marginalia_ray.index.postings import (
    BLOCK_SIZE,
    block_counts,
    decode_blocks,
    encode_run,
    read_postings,
    varbyte_decode,
    varbyte_encode,
    write_postings,
)


def _one_term_run(ids, metas):
    """encode_run over a single term's sorted doc ids."""
    return encode_run(np.full(len(ids), 5, dtype=np.uint64), ids, metas)


def _decode_run(run):
    """Decode a one-term run's whole list."""
    df = int(run["doc_freq"].sum())
    return decode_blocks(run["deltas"], block_counts(df, np.arange(-(-df // BLOCK_SIZE))))


class TestWordMetadata:
    # WordMetadataTest.java round-trip concerns
    def test_roundtrip(self):
        for positions in [0, 1, 0x56, (1 << 56) - 1, 0xF0F0F0F0F0F0F0]:
            for flags in [0, 1, 0xFF, C.WordFlags.Title.bit | C.WordFlags.Synthetic.bit]:
                enc = C.encode_word_meta(positions, flags)
                assert C.word_meta_positions(enc) == positions & C.WM_POSITIONS_MASK
                assert C.word_meta_flags(enc) == flags & 0xFF

    def test_urldomain_flag_dropped(self):
        # WordMetadata.java:14 FLAGS_MASK=0xFF truncates UrlDomain (bit 8)
        enc = C.encode_word_meta(0, C.WordFlags.UrlDomain.bit)
        assert C.word_meta_flags(enc) == 0

    def test_factors_test_encoding(self):
        # WordMetadata(i, EnumSet.of(Title)).encode() used by the parity corpus
        enc = C.encode_word_meta(3, C.WordFlags.Title.bit)
        assert enc == (3 << 8) | 1

    def test_vectorized(self):
        metas = np.array(
            [C.encode_word_meta(p, f) for p, f in [(5, 1), (7, 3), (0, 0)]], dtype=np.uint64
        )
        np.testing.assert_array_equal(C.word_meta_positions(metas), [5, 7, 0])
        np.testing.assert_array_equal(C.word_meta_flags(metas), [1, 3, 0])


class TestDocumentMetadata:
    def test_roundtrip(self):
        enc = C.encode_doc_meta(
            avg_sent_length=2, rank=37, enc_domain_size=9, topology=4, year=12, sets=5, quality=3, flags=0
        )
        assert C.doc_meta_asl(enc) == 2
        assert C.doc_meta_rank(enc) == 37
        assert C.doc_meta_size(enc) == 45
        assert C.doc_meta_topology(enc) == 4
        assert C.doc_meta_year(enc) == 12 + 1996
        assert C.doc_meta_quality(enc) == 3

    def test_clamping(self):
        # DocumentMetadata.encode clamps each field to its mask
        enc = C.encode_doc_meta(quality=19, sets=300, year=999)
        assert C.doc_meta_quality(enc) == 15
        assert C.doc_meta_year_byte(enc) == 255

    def test_factors_corpus_encoding(self):
        # DocumentMetadata(0,0,0,0, id%5, id, id%20, 0) from the parity test
        i = 137
        enc = C.encode_doc_meta(year=i % 5, sets=i, quality=i % 20)
        assert C.doc_meta_year(enc) == (i % 5) + 1996
        assert C.doc_meta_quality(enc) == min(15, i % 20)

    def test_encode_rank(self):
        enc = C.encode_doc_meta(year=3, quality=2)
        with_rank = C.doc_meta_encode_rank(enc, 200)
        assert C.doc_meta_rank(with_rank) == 200
        assert C.doc_meta_quality(with_rank) == 2


class TestDocIds:
    def test_combine_split(self):
        c = C.combine_id(7, 12345)
        assert C.domain_id_of(c) == 7
        assert C.url_id_of(c) == 12345

    def test_rank_encode(self):
        c = C.combine_id(7, 12345)
        r = C.rank_encode_id(c, 255)
        assert C.url_id_of(r) == 12345
        assert C.domain_id_of(r) == 255

    def test_rank_encode_vectorized(self):
        combined = np.array([C.combine_id(d, u) for d, u in [(1, 10), (2, 20)]], dtype=np.uint64)
        ranks = np.array([255, 3], dtype=np.uint64)
        enc = C.rank_encode_id(combined, ranks)
        np.testing.assert_array_equal(C.url_id_of(enc), [10, 20])
        np.testing.assert_array_equal(C.domain_id_of(enc), [255, 3])


class TestMurmur3:
    def test_known_vectors(self):
        # widely-published x64_128 seed-0 vectors (mmh3 / Guava / smhasher),
        # cross-checked against the Java Murmur3 vendored by the reference
        # (/root/reference/third-party/count-min-sketch/.../Murmur3.java)
        def signed(u):
            return u - (1 << 64) if u >= (1 << 63) else u

        h1, h2 = murmur3_128(b"foo")
        assert signed(h1) == -2129773440516405919  # mmh3.hash64("foo")[0]
        assert murmur3_128(b"hell")[0] == 0x629942693E10F867
        assert murmur3_128(b"hello")[0] == 0xCBD8A7B341BD9B02

    def test_empty(self):
        assert murmur3_64(b"") == 0

    def test_quick_brown_fox(self):
        # smhasher reference digest for x64_128, seed 0
        h1, h2 = murmur3_128(b"The quick brown fox jumps over the lazy dog")
        digest = h1.to_bytes(8, "little") + h2.to_bytes(8, "little")
        assert digest.hex() == "6c1b07bc7bbc4be347939ac4a93c437a"

    def test_distinct(self):
        hashes = {murmur3_64(str(i).encode()) for i in range(1, 512)}
        assert len(hashes) == 511


class TestTermFreqHash:
    def test_poly_hash_small(self):
        # h("a") = (97+1)*1 = 98
        assert term_freq_hash_stemmed("a") == 98
        # h("ab") = 98 + 99*127
        assert term_freq_hash_stemmed("ab") == 98 + 99 * 127

    def test_signed_byte_semantics(self):
        # UTF-8 high bytes are signed in Java; 'é' = 0xC3 0xA9 -> -61, -87
        expected = ((-61 + 1) + (-87 + 1) * 127) % ((1 << 61) - 1)
        assert term_freq_hash_stemmed("é") == expected


class TestPorterStemmer:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ],
    )
    def test_porter_paper_vocabulary(self, word, expected):
        assert stem(word) == expected


class TestPostingsCodec:
    def test_varbyte_roundtrip(self):
        rng = np.random.default_rng(42)
        vals = rng.integers(0, 1 << 62, size=10_000, dtype=np.uint64)
        vals[:100] = rng.integers(0, 128, size=100)  # single-byte cases
        enc = varbyte_encode(vals)
        dec = varbyte_decode(enc, len(vals))
        np.testing.assert_array_equal(dec, vals)

    def test_varbyte_edge_values(self):
        vals = np.array([0, 1, 127, 128, 255, 16383, 16384, (1 << 64) - 1], dtype=np.uint64)
        np.testing.assert_array_equal(varbyte_decode(varbyte_encode(vals), len(vals)), vals)

    def test_delta_roundtrip(self):
        ids = np.array([3, 4, 5, 1000, 1001, 1 << 40, (1 << 40) + 7], dtype=np.uint64)
        np.testing.assert_array_equal(_decode_run(_one_term_run(ids, None)), ids)

    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 1000, 5000])
    def test_posting_roundtrip(self, n):
        rng = np.random.default_rng(7 + n)
        # adversarial gap patterns per FIXTURES.md F3: dense runs + huge gaps
        gaps = rng.choice(
            np.array([1, 1, 1, 2, 5, 1000, 1 << 33], dtype=np.uint64), size=n
        )
        ids = np.cumsum(gaps, dtype=np.uint64)
        metas = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        run = _one_term_run(ids, metas)
        assert run["doc_freq"].sum() == n
        np.testing.assert_array_equal(_decode_run(run), ids)
        np.testing.assert_array_equal(run["metas"], metas)

    def test_posting_no_meta(self, tmp_path):
        ids = np.arange(1, 500, dtype=np.uint64) * 3
        run = _one_term_run(ids, None)
        np.testing.assert_array_equal(_decode_run(run), ids)
        assert run["metas"] is None
        # the postings.bin layout round-trips the run, with no meta section
        write_postings(tmp_path / "p.bin", run)
        sections = read_postings(tmp_path / "p.bin")
        np.testing.assert_array_equal(sections["deltas"], run["deltas"])
        np.testing.assert_array_equal(sections["block_max"], run["block_max"])
        np.testing.assert_array_equal(sections["block_off"], run["block_off"])
        assert len(sections["metas"]) == 0

    def test_block_max_metadata(self):
        ids = np.arange(1, 1000, dtype=np.uint64) * 7
        run = _one_term_run(ids, None)
        n_blocks = -(-len(ids) // BLOCK_SIZE)
        assert len(run["block_max"]) == n_blocks
        for bi in range(n_blocks):
            hi = min((bi + 1) * BLOCK_SIZE, len(ids))
            assert run["block_max"][bi] == ids[hi - 1]

    def test_decode_from_block(self):
        ids = np.arange(1, 1000, dtype=np.uint64) * 7
        run = _one_term_run(ids, None)
        n_blocks = len(run["block_max"])
        for first_block in [0, 1, 3, n_blocks - 1, n_blocks]:
            lo = int(run["block_off"][first_block]) if first_block < n_blocks else len(run["deltas"])
            counts = block_counts(len(ids), np.arange(first_block, n_blocks))
            dec = decode_blocks(run["deltas"][lo:], counts)
            np.testing.assert_array_equal(dec, ids[first_block * BLOCK_SIZE :])
