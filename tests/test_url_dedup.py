"""EasyLSH + UrlDeduplicator (reference cites in functions/lsh.py
and query/url_dedup.py)."""

from marginalia_ray.functions.lsh import EasyLSH, java_string_hash
from marginalia_ray.query.url_dedup import (
    ResultUrl,
    UrlDeduplicator,
    domain_key,
    long_domain_key,
    superficial_hash,
)


class TestJavaStringHash:
    def test_known_values(self):
        # String.hashCode ground truths
        assert java_string_hash("") == 0
        assert java_string_hash("a") == 97
        assert java_string_hash("ab") == 3105
        assert java_string_hash("hello") == 99162322
        # int32 wrap goes negative on long strings
        assert java_string_hash("polygenelubricants") == -2147483648

    def test_non_bmp_hashes_utf16_code_units(self):
        # U+1F600 is the surrogate pair D83D DE00 in a Java String:
        # 0xD83D * 31 + 0xDE00, not the code point 0x1F600 = 128512
        assert java_string_hash("\U0001F600") == 1772899
        # a lone surrogate is one code unit, as in a Java String
        assert java_string_hash("\ud800") == 0xD800


class TestEasyLSH:
    def test_counter_sign_packing(self):
        lsh = EasyLSH()
        lsh.add_hash_unordered(0)  # +1 vote on field 0 -> sign bit 0
        assert lsh.get() == 0
        lsh2 = EasyLSH()
        lsh2.add_hash_unordered(2)  # value 1-(2&2) = -1, field (2>>2)^...=0
        assert lsh2.get() == 1 << 63  # field 0's sign lands at bit 63

    def test_order_sensitivity_via_shingle(self):
        a, b = EasyLSH(), EasyLSH()
        for w in ["lorem", "ipsum", "dolor", "sit", "amet"]:
            a.add_ordered(w)
        for w in ["amet", "sit", "dolor", "ipsum", "lorem"]:
            b.add_ordered(w)
        assert a.get() != b.get()  # reversed order shingles differently

    def test_similarity_gradient(self):
        # EasyLSHTest.testEZLSH shape: overlapping texts are closer than
        # disjoint ones
        base = ("locality sensitive hashing is an algorithmic technique that "
                "hashes similar input items into the same buckets with high "
                "probability").split()
        overlap = base[:12] + "the wrath sing goddess of peleus son".split()
        disjoint = ("quo usque tandem abutere catilina patientia nostra quam "
                    "diu etiam furor iste tuus nos eludet quem ad finem").split()
        h = {}
        for name, words in (("a", base), ("b", overlap), ("c", disjoint)):
            lsh = EasyLSH()
            for w in words:
                lsh.add_ordered(w)
            h[name] = lsh.get()
        d = EasyLSH.hamming_distance
        assert d(h["a"], h["b"]) < d(h["a"], h["c"])

    def test_unordered_is_order_insensitive(self):
        a, b = EasyLSH(), EasyLSH()
        for w in ["x", "y", "z"]:
            a.add_unordered(w)
        for w in ["z", "x", "y"]:
            b.add_unordered(w)
        assert a.get() == b.get()


class TestDomainKeys:
    def test_short_and_long_keys(self):
        assert domain_key("https://en.wikipedia.org/wiki/X") == "wikipedia"
        assert long_domain_key("https://en.wikipedia.org/wiki/X") == "wikipedia:en"
        # www and bare collapse together in the long key
        assert long_domain_key("https://www.example.com/") == "example"
        assert long_domain_key("https://example.com/") == "example"
        assert domain_key("https://example.com/") == "example"


class TestUrlDeduplicator:
    def _r(self, url, title="t", data_hash=0, special=False):
        return ResultUrl(url, title, data_hash, special)

    def test_superficial_hash_dedup(self):
        d = UrlDeduplicator(10)
        # same path+title on different domains share Objects.hash(path, title)
        assert d.filter(self._r("http://a.com/page", "T", data_hash=1))
        assert d.should_remove(self._r("http://b.com/page", "T", data_hash=1 << 40))

    def test_lsh_near_dup_rejected(self):
        d = UrlDeduplicator(10)
        assert d.filter(self._r("http://a.com/1", "t1", data_hash=0b1100))
        # hamming 1 from the kept hash -> rejected
        assert d.should_remove(self._r("http://b.com/2", "t2", data_hash=0b1101))
        # hamming 2 -> kept
        assert d.filter(self._r("http://c.com/3", "t3", data_hash=0b0000))

    def test_domain_cap_quirks(self):
        d = UrlDeduplicator(3)
        h = [1 << i for i in range(8, 16)]  # pairwise hamming 2
        # strict < 3 admits only two results per long key
        assert d.filter(self._r("http://sub.x.com/1", "1", h[0]))
        assert d.filter(self._r("http://sub.x.com/2", "2", h[1]))
        assert d.should_remove(self._r("http://sub.x.com/3", "3", h[2]))
        # distinct subdomain has its own long key
        assert d.filter(self._r("http://other.x.com/4", "4", h[3]))
        # www pools with the apex
        d2 = UrlDeduplicator(3)
        assert d2.filter(self._r("http://www.y.com/1", "1", h[0]))
        assert d2.filter(self._r("http://y.com/2", "2", h[1]))
        assert d2.should_remove(self._r("http://y.com/3", "3", h[2]))

    def test_special_domain_short_key_pools_subdomains(self):
        d = UrlDeduplicator(3)
        h = [1 << i for i in range(8, 16)]
        # SPECIAL domains share the short key across subdomains
        assert d.filter(self._r("http://en.wiki.org/1", "1", h[0], special=True))
        assert d.filter(self._r("http://de.wiki.org/2", "2", h[1], special=True))
        assert d.should_remove(self._r("http://fr.wiki.org/3", "3", h[2], special=True))

    def test_superficial_hash_title_null(self):
        assert superficial_hash("/p", None) == 31 * (31 + java_string_hash("/p"))

    def test_emoji_title_dedup_key_matches_java(self):
        # Objects.hash("/p", "\U0001F600") in Java: 31 * (31 + 1569) + 1772899
        assert superficial_hash("/p", "\U0001F600") == 1822499
        # "\u1031\x11" hashes to 128512, the emoji's code point; hashing code
        # points would make the two titles collide and drop a distinct result
        assert java_string_hash("\u1031\x11") == 128512
        d = UrlDeduplicator(10)
        assert d.filter(self._r("http://a.com/p", "\U0001F600", data_hash=1))
        assert d.filter(self._r("http://b.com/p", "\u1031\x11", data_hash=1 << 40))
