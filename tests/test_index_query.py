"""Rank-parity gate: the reference query set over the factors corpus.

Port of IndexQueryServiceIntegrationTest
(/root/reference/code/services-core/index-service/src/test/java/nu/marginalia/index/svc/IndexQueryServiceIntegrationTest.java:71-199):
doc i (1..511) contains keywords = decimal factors of i with
WordMetadata(positions=factor_index, {Title}); docMeta year=i%5, sets=i,
quality=i%20.  Expected results are exact urlId arrays in exact order.
"""

import collections

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from marginalia_ray.functions.hashing import term_hash
from marginalia_ray.index.build import build_index
from marginalia_ray.model.codecs import encode_doc_meta, encode_word_meta, WordFlags
from marginalia_ray.query.engine import IndexSearcher, SearchSpec, SpecLimit, Subquery


from marginalia_ray.sources.factors import factors, make_factors_journal


def make_journal(with_domain=False):
    return make_factors_journal(with_domain=with_domain)


@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    journal = ray.data.from_arrow(make_journal())
    build_index(journal, d, n_shards=8, n_buckets=1)
    return d


@pytest.fixture(scope="module")
def built_domain_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("idx_domain")
    journal = ray.data.from_arrow(make_journal(with_domain=True))
    build_index(journal, d, n_shards=8, n_buckets=1)
    return d


class TestFactorsCorpusParity:
    def test_will_it_blend(self, built_index):
        """include {3,5,2} exclude {4} => exactly [30,90,...,510] in order."""
        s = IndexSearcher(built_index)
        res = s.search(
            SearchSpec(
                subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])],
                limit_by_domain=10,
                limit_total=10,
                fetch_size=4000,
            )
        )
        assert [r.url_id for r in res] == [30, 90, 150, 210, 270, 330, 390, 450, 510]

    def test_domain_query(self, built_domain_index):
        s = IndexSearcher(built_domain_index)
        res = s.search(
            SearchSpec(
                subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])],
                limit_by_domain=10,
                limit_total=10,
                fetch_size=4000,
                domains=[2],
            )
        )
        assert [r.url_id for r in res] == [210, 270]

    def test_year_query(self, built_index):
        s = IndexSearcher(built_index)
        res = s.search(
            SearchSpec(
                subqueries=[Subquery(include=["4"])],
                limit_by_domain=10,
                limit_total=10,
                fetch_size=4000,
                year=SpecLimit.eq(1998),
            )
        )
        assert len(res) == 10
        from marginalia_ray.model.codecs import doc_meta_year

        metas, _ = s.forward.lookup(np.array([r.url_id for r in res], dtype=np.int64))
        assert set(int(y) for y in doc_meta_year(metas)) == {1998}

    def test_doc_freq_matches_groupby(self, built_index):
        """G5: per-term doc_freq == number of docs containing the term."""
        s = IndexSearcher(built_index)
        # term "2" appears in every even doc: 255 of 1..511
        assert s.num_hits(term_hash("2")) == 255
        assert s.num_hits(term_hash("3")) == 170
        assert s.num_hits(term_hash("5")) == 102
        assert s.num_hits(term_hash("511")) == 1
        assert s.num_hits(term_hash("512")) == 0

    def test_postings_sorted_and_rank_encoded(self, built_index):
        s = IndexSearcher(built_index)
        ids, metas = s.postings("full", term_hash("7"))
        assert len(ids) == 73  # multiples of 7 in 1..511
        assert (np.diff(ids.astype(np.int64)) > 0).all()
        # rank defaults to 255 (empty DomainRankings) -> top 32 bits == 255
        assert set(int(i) >> 32 for i in ids) == {255}

    def test_priority_index_subset(self, built_index):
        # every posting has Title flag -> prio df == full df
        s = IndexSearcher(built_index)
        assert s.num_hits_prio(term_hash("3")) == s.num_hits(term_hash("3"))


class TestBuildDeterminism:
    def test_bucketed_build_identical(self, ray_session, tmp_path_factory, build_paths):
        """Salted (bucketed) build produces identical per-term posting lists
        and identical query results vs the single-bucket build (the merge-
        determinism gate of FIXTURES.md F3), on both grouping paths."""
        for grouping in build_paths():
            d1 = tmp_path_factory.mktemp("det1")
            d4 = tmp_path_factory.mktemp("det4")
            journal = ray.data.from_arrow(make_journal())
            build_index(journal, d1, n_shards=4, n_buckets=1)
            journal2 = ray.data.from_arrow(make_journal())
            built = build_index(journal2, d4, n_shards=4, n_buckets=4)
            assert built["grouping"] == grouping

            # the salt must actually split: multiple bucket=* run files per shard
            # (guards against the bucket fn silently mapping everything to 0)
            bucket_files = {
                p.name for p in (d4 / "full").glob("shard=*/bucket=*.terms.parquet")
            }
            assert len(bucket_files) >= 2, bucket_files

            s1, s4 = IndexSearcher(d1), IndexSearcher(d4)
            for t in ["1", "2", "3", "17", "100", "509"]:
                ids1, m1 = s1.postings("full", term_hash(t))
                ids4, m4 = s4.postings("full", term_hash(t))
                np.testing.assert_array_equal(ids1, ids4)
                np.testing.assert_array_equal(m1, m4)

            spec = SearchSpec(subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])])
            assert [r.url_id for r in s1.search(spec)] == [r.url_id for r in s4.search(spec)]

    def test_non_power_of_two_buckets(self, ray_session, tmp_path_factory, build_paths):
        """n_buckets=3 (quantile boundaries need no power-of-two) keeps
        per-term lists sorted and identical to the single-bucket build, on
        both grouping paths."""
        for grouping in build_paths():
            d1 = tmp_path_factory.mktemp("npt1")
            d3 = tmp_path_factory.mktemp("npt3")
            build_index(ray.data.from_arrow(make_journal()), d1, n_shards=4, n_buckets=1)
            built = build_index(ray.data.from_arrow(make_journal()), d3, n_shards=4, n_buckets=3)
            assert built["grouping"] == grouping
            s1, s3 = IndexSearcher(d1), IndexSearcher(d3)
            for t in ["1", "2", "3", "251"]:
                ids1, m1 = s1.postings("full", term_hash(t))
                ids3, m3 = s3.postings("full", term_hash(t))
                assert (np.diff(ids3.astype(np.int64)) > 0).all()
                np.testing.assert_array_equal(ids1, ids3)
                np.testing.assert_array_equal(m1, m3)

    def test_rebuild_into_same_dir_is_clean(self, ray_session, tmp_path_factory):
        """Re-running build_index into an existing build_dir must not
        accumulate stale forward/bucket files (doubling doc_count)."""
        d = tmp_path_factory.mktemp("rebuild")
        build_index(ray.data.from_arrow(make_journal()), d, n_shards=4, n_buckets=4)
        m2 = build_index(ray.data.from_arrow(make_journal()), d, n_shards=4, n_buckets=1)
        assert m2["doc_count"] == 511
        s = IndexSearcher(d)
        ids, _ = s.postings("full", term_hash("2"))
        assert len(ids) == 255  # not doubled, no stale bucket files

    def test_partitioning_invariance(self, ray_session, tmp_path_factory, build_paths):
        """Build with different input block structure => identical segments,
        on both grouping paths."""
        t = make_journal()
        for grouping in build_paths():
            da = tmp_path_factory.mktemp("parta")
            db = tmp_path_factory.mktemp("partb")
            build_index(ray.data.from_arrow(t), da, n_shards=4)
            built = build_index(ray.data.from_arrow(t).repartition(7), db, n_shards=4)
            assert built["grouping"] == grouping
            sa, sb = IndexSearcher(da), IndexSearcher(db)
            for term in ["2", "3", "251"]:
                ia, ma = sa.postings("full", term_hash(term))
                ib, mb = sb.postings("full", term_hash(term))
                np.testing.assert_array_equal(ia, ib)
                np.testing.assert_array_equal(ma, mb)



class TestGroupingPaths:
    """build_index groups a journal that fits in one run in the calling
    process and a larger one by the Ray Data shuffle; both write the same
    runs."""

    def test_small_journal_builds_locally(self, ray_session, tmp_path):
        import pyarrow.compute as pc

        from marginalia_ray.index.segment import read_manifest

        t = make_journal()
        m = build_index(ray.data.from_arrow([t.slice(0, 200), t.slice(200)]), tmp_path, n_shards=4)
        assert m["grouping"] == "local"
        assert m["n_postings"] == pc.sum(pc.list_value_length(t["term_hashes"])).as_py()
        assert m["n_postings"] == sum(r["n_postings"] for r in m["runs"] if r["kind"] == "full")
        assert read_manifest(tmp_path)["grouping"] == "local"
        # one forward part, whatever the block count
        assert len(list((tmp_path / "forward").glob("*.parquet"))) == 1

    @pytest.mark.parametrize("n_buckets", [1, 2, 3])
    def test_paths_write_identical_runs(self, ray_session, tmp_path, build_paths, n_buckets):
        """Same run bytes, lineage rows, boundaries and forward rows (sorted
        by url id: the shuffle writes one part per block) on both paths,
        with domain rankings in the doc ids."""
        import hashlib

        import pyarrow.parquet as pq

        from marginalia_ray.model.codecs import domain_id_of

        t = make_journal(with_domain=True)
        domains = np.unique(domain_id_of(t["doc_id"].to_numpy().astype(np.uint64)))
        rankings = {int(d): int(d) * 37 % 200 for d in domains}
        out = {}
        for grouping in build_paths():
            d = tmp_path / grouping
            blocks = [t.slice(k, 100) for k in range(0, t.num_rows, 100)]
            m = build_index(ray.data.from_arrow(blocks), d, n_shards=4,
                            n_buckets=n_buckets, domain_rankings=rankings)
            assert m["grouping"] == grouping
            runs = {
                str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.rglob("*.postings.bin"))
            }
            terms = {
                str(p.relative_to(d)): pq.read_table(p).to_pydict()
                for p in sorted(d.rglob("*.terms.parquet"))
            }
            fwd = pa.concat_tables(
                [pq.read_table(f) for f in sorted((d / "forward").glob("*.parquet"))]
            ).sort_by("url_id")
            keys = ("doc_count", "n_buckets", "bucket_boundaries", "n_postings", "runs")
            out[grouping] = (runs, terms, fwd, {k: m[k] for k in keys})
        (rl, tl, fl, ml), (rs, ts, fs, ms) = out["local"], out["shuffle"]
        assert len(rl) == 2 * 4 * ml["n_buckets"] and ml["n_buckets"] == n_buckets
        assert rl == rs
        assert tl == ts
        assert fl.equals(fs)
        assert ml == ms

class TestAutoBuckets:
    def test_sketch_and_auto_bucket_choice(self, ray_session):
        from marginalia_ray.index.build import choose_buckets, estimate_max_doc_freq

        journal = ray.data.from_arrow(make_journal())
        # term "1" appears in every doc: max df == 511
        assert estimate_max_doc_freq(journal, 8) == 511
        # tiny target forces splitting: ceil(511/100) == 6 buckets
        assert choose_buckets(journal, 8, target=100) == 6
        assert choose_buckets(journal, 8, target=1_000_000) == 1

    def test_auto_bucket_build_matches_single_bucket(self, ray_session, tmp_path):
        from marginalia_ray.index.build import build_index
        from marginalia_ray.index.build import TARGET_RUN_POSTINGS

        d1 = tmp_path / "b1"
        da = tmp_path / "auto"
        build_index(ray.data.from_arrow(make_journal()), d1, n_shards=4, n_buckets=1)
        build_index(ray.data.from_arrow(make_journal()), da, n_shards=4, n_buckets="auto")
        s1, sa = IndexSearcher(d1), IndexSearcher(da)
        for t in ("2", "3", "17"):
            i1, m1 = s1.postings("full", term_hash(t))
            ia, ma = sa.postings("full", term_hash(t))
            assert (i1 == ia).all()
            assert (m1 == ma).all()


class TestBlockMaxSkip:
    def test_overlap_subset_equals_full_intersection(self, built_index):
        """postings_overlap decodes only candidate-relevant blocks but must
        give identical retain/reject/meta answers to the full decode."""
        from marginalia_ray.index.segment import SegmentShardReader
        from marginalia_ray.query.engine import _difference_sorted, _intersect_sorted

        s = IndexSearcher(built_index)
        th = term_hash("1")  # every doc -> 511 postings, several blocks
        full_ids, full_metas = s.postings("full", th)
        assert len(full_ids) == 511

        cand = full_ids[[0, 5, 100]].copy()  # candidates confined to block 0
        shard = s._shard("full", th)
        sub_ids, sub_metas = shard.postings_overlap(th, cand)
        # proper subset (blocks skipped), sorted, same intersection
        assert 0 < len(sub_ids) < len(full_ids)
        assert (np.diff(sub_ids.astype(np.int64)) > 0).all()
        np.testing.assert_array_equal(
            _intersect_sorted(cand, sub_ids), _intersect_sorted(cand, full_ids)
        )
        np.testing.assert_array_equal(
            _difference_sorted(cand, sub_ids), _difference_sorted(cand, full_ids)
        )
        # meta gather identical on the subset
        for ids, metas in ((full_ids, full_metas), (sub_ids, sub_metas)):
            idx = np.minimum(np.searchsorted(ids, cand), len(ids) - 1)
            hit = ids[idx] == cand
            got = np.where(hit, metas[idx], np.uint64(0))
            if ids is full_ids:
                want = got
        np.testing.assert_array_equal(got, want)

    def test_search_results_identical_with_and_without_skip(self, built_index):
        s1 = IndexSearcher(built_index)
        s1.SKIP_DECODE_FACTOR = 8
        s2 = IndexSearcher(built_index)
        s2.SKIP_DECODE_FACTOR = 10**9  # effectively disables the skip path
        spec = SearchSpec(
            subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])],
            limit_by_domain=10, limit_total=10, fetch_size=4000,
        )
        r1 = [(r.url_id, round(r.score, 9)) for r in s1.search(spec)]
        r2 = [(r.url_id, round(r.score, 9)) for r in s2.search(spec)]
        assert r1 == r2


class TestQueryLookups:
    """The warm query path looks each term's doc frequency up once per
    query, and touches the forward index for the param filter only when
    the spec constrains something."""

    @staticmethod
    def _count_doc_freq(monkeypatch):
        from marginalia_ray.index.segment import SegmentShardReader

        calls = collections.Counter()
        orig = SegmentShardReader.doc_freq

        def counting(self, th):
            calls[(self.kind, th)] += 1
            return orig(self, th)

        monkeypatch.setattr(SegmentShardReader, "doc_freq", counting)
        return calls

    def test_doc_freq_once_per_query(self, built_index, monkeypatch):
        from marginalia_ray.query.parser import parse_query

        s = IndexSearcher(built_index)
        q = "3 5 2 -4"
        # the query expands into several variants that share terms
        assert len(s.expand_variants(parse_query(q).subqueries[0])) > 1
        calls = self._count_doc_freq(monkeypatch)

        res = s.search_query(q)
        assert res and calls
        assert max(calls.values()) == 1, calls.most_common(3)
        first = dict(calls)

        # the table lives only for one call: the next query looks up anew
        calls.clear()
        assert s.search_query(q) == res
        assert dict(calls) == first

        # a direct search(spec) gets its own table too
        calls.clear()
        spec = SearchSpec(subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])])
        assert [r.url_id for r in s.search(spec)] == [30, 90, 150, 210, 270, 330, 390, 450, 510]
        assert max(calls.values()) == 1, calls.most_common(3)

    def test_num_hits_sums_bucket_directories(self, ray_session, tmp_path_factory, build_paths):
        """On a multi-bucket build, num_hits / num_hits_prio equal each
        term's doc_freq summed over the terms directories of its buckets,
        on both grouping paths."""
        import pyarrow.parquet as pq

        for grouping in build_paths():
            d = tmp_path_factory.mktemp("dfsum")
            built = build_index(ray.data.from_arrow(make_journal()), d, n_shards=4, n_buckets=3)
            assert built["grouping"] == grouping
            s = IndexSearcher(d)
            for kind, num_hits in (("full", s.num_hits), ("prio", s.num_hits_prio)):
                want: collections.Counter = collections.Counter()
                spread: collections.Counter = collections.Counter()
                for p in sorted((d / kind).glob("shard=*/bucket=*.terms.parquet")):
                    t = pq.read_table(p, columns=["term_hash", "doc_freq"])
                    for th, df in zip(t["term_hash"].to_pylist(), t["doc_freq"].to_pylist()):
                        want[th] += df
                        spread[th] += 1
                assert max(spread.values()) > 1  # some term spans buckets
                assert {th: num_hits(th) for th in want} == dict(want)
            assert s.num_hits(term_hash("512")) == 0

    def test_always_true_limits_match_unfiltered(self, built_index, monkeypatch):
        """Limits that every doc passes force the forward-index filter yet
        return the same results as a spec with no limit; the unlimited spec
        reads the forward index only to score."""
        from marginalia_ray.index.segment import ForwardIndex

        lookups = []
        orig = ForwardIndex.lookup

        def counting(self, url_ids):
            lookups.append(len(url_ids))
            return orig(self, url_ids)

        monkeypatch.setattr(ForwardIndex, "lookup", counting)
        s = IndexSearcher(built_index)
        for include in (["2"], ["3", "5"], ["3", "5", "2"]):
            base = dict(subqueries=[Subquery(include=include)], limit_total=20)
            lookups.clear()
            want = s.search(SearchSpec(**base))
            assert want and len(lookups) == 1  # _score's lookup only
            for limits in (
                {"quality": SpecLimit.ge(0)},
                {"rank": SpecLimit.le(255)},
                {"quality": SpecLimit.ge(0), "rank": SpecLimit.le(255)},
            ):
                lookups.clear()
                assert s.search(SearchSpec(**base, **limits)) == want
                assert len(lookups) > 1  # the param filter ran

    def test_one_conjunction_per_subquery(self, built_index, monkeypatch):
        """Every query head shares one full-index conjunction: at most one
        set operation per include after the rarest and one per exclude,
        however many heads the subquery has (here 3 BEST, 3 GOOD and the
        FALLBACK, since every factors posting is in the prio index)."""
        from marginalia_ray.query import engine

        ops = collections.Counter()
        for name in ("_intersect_sorted", "_difference_sorted"):
            orig = getattr(engine, name)

            def counting(a, b, _name=name, _orig=orig):
                ops[_name] += 1
                return _orig(a, b)

            monkeypatch.setattr(engine, name, counting)
        spec = SearchSpec(subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])])
        res = IndexSearcher(built_index).search(spec)
        assert [r.url_id for r in res] == [30, 90, 150, 210, 270, 330, 390, 450, 510]
        assert sum(ops.values()) <= (3 - 1) + 1, ops


def make_mixed_prio_journal() -> pa.Table:
    """The factors corpus with Title on 3 of every 8 postings and no flag
    on the rest, so the priority index holds a proper subset of each full
    list: among the candidates of "3 5 2 -4" some docs are in two prio
    lists (BEST heads) and some in none (only FALLBACK finds them).  No
    position mask sets bit 0, which the prio predicate would read as the
    UrlDomain flag.  Year 1998 goes to docs i with i // 30 not a multiple
    of 3 (in the factors corpus every multiple of 30 has year 1996)."""
    t = make_journal()
    rows = t["kw_metas"].to_pylist()
    title = WordFlags.Title.bit
    metas = [
        [encode_word_meta((idx + 1) << 1, title if (i // 10 + 2 * idx) % 8 < 3 else 0) for idx in range(len(row))]
        for i, row in enumerate(rows, start=1)
    ]
    years = [encode_doc_meta(year=2 if (i // 30) % 3 else 0, sets=i) for i in range(1, len(rows) + 1)]
    t = t.set_column(1, "doc_meta", pa.array(years, type=pa.uint64()))
    return t.set_column(3, "kw_metas", pa.array(metas, type=pa.list_(pa.uint64())))


@pytest.fixture(scope="module")
def built_mixed_prio_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("idx_mixed_prio")
    build_index(ray.data.from_arrow(make_mixed_prio_journal()), d, n_shards=8, n_buckets=1)
    return d


def oracle_candidates(s: IndexSearcher, spec: SearchSpec) -> list[int]:
    """createQueries/executeQuery written with Python sets over whole
    posting lists: each head (BEST prio pairs, GOOD prio terms, FALLBACK
    rarest full term) is intersected with every include's full list, minus
    every exclude's, minus ids an earlier head considered; the param filter
    runs after dedup, then the sorted head is cut to the room left."""
    from marginalia_ray.model.codecs import doc_meta_year

    def ids(kind, th):
        return set(s.postings(kind, th)[0].tolist())

    def passes(c):
        if spec.year.type == "NONE":
            return True
        metas, _ = s.forward.lookup(np.array([c & 0xFFFFFFFF], dtype=np.int64))
        return bool(spec.year.test(doc_meta_year(metas))[0])

    out, seen = [], set()
    for sq in spec.subqueries:
        hashes = [term_hash(w) for w in sq.include + sq.advice]
        if not hashes or any(th is None or not ids("full", th) for th in hashes):
            continue
        excludes = [th for th in map(term_hash, sq.exclude) if th is not None]
        full = {th: ids("full", th) for th in hashes}
        prio = {th: ids("prio", th) for th in hashes}
        ordered = sorted(set(hashes), key=lambda t: (len(full[t]), hashes.index(t)))
        ordered_prio = sorted(set(hashes), key=lambda t: (len(prio[t]), hashes.index(t)))
        heads = [
            ("BEST", prio[a] & prio[b])
            for k, a in enumerate(ordered_prio)
            for b in ordered_prio[k + 1 :]
        ]
        heads += [("GOOD", prio[t]) for t in ordered_prio]
        heads.append(("FALLBACK", full[ordered[0]]))
        fetch_size = spec.fetch_size * (4 if len(ordered) == 1 else 1)
        for priority, head in heads:
            if priority == "GOOD" and len(out) > spec.fetch_size // 4:
                continue
            if priority == "FALLBACK" and len(out) > spec.fetch_size // 256:
                continue
            cand = head.intersection(*full.values())
            cand = cand.difference(*(ids("full", t) for t in excludes)) - seen
            seen |= cand
            cand = sorted(c for c in cand if passes(c))
            if not cand:
                continue
            room = fetch_size - len(out)
            if room <= 0:
                break
            out += cand[:room]
    return out


class TestCandidateOracle:
    """`_evaluate_subqueries` against `oracle_candidates` on the variants
    of one query, across fetch sizes that trip the omitQuery thresholds
    and the room cut at different heads."""

    @pytest.mark.parametrize("fixture", ["built_index", "built_mixed_prio_index"])
    @pytest.mark.parametrize("year", [None, 1998])
    def test_heads_match_set_oracle(self, fixture, year, request):
        from marginalia_ray.query.parser import parse_query

        s = IndexSearcher(request.getfixturevalue(fixture))
        subqueries = s.expand_variants(parse_query("3 5 2 -4").subqueries[0])
        assert len(subqueries) > 1
        limits = {"year": SpecLimit.eq(year)} if year is not None else {}
        lengths = set()
        for fetch_size in (4, 16, 64, 256, 4000):
            spec = SearchSpec(subqueries=subqueries, fetch_size=fetch_size, **limits)
            want = oracle_candidates(s, spec)
            assert s._evaluate_subqueries(spec).tolist() == want, fetch_size
            lengths.add(len(want))
        if fixture == "built_index" and year is not None:
            assert lengths == {0}  # every candidate has year 1996
        else:
            assert len(lengths) > 1  # the room cut bites at the small sizes


class TestDisqualification:
    """calculatePreliminaryScore drops a doc whose terms have neither a
    filter flag nor a position in any strategy-ok variant."""

    @pytest.fixture(scope="class")
    def built_small(self, ray_session, tmp_path_factory):
        title, subjects = WordFlags.Title.bit, WordFlags.Subjects.bit
        docs = {  # url id -> {term: (positions, flags)}
            1: {"a": (0, 0)},  # neither: dropped
            2: {"a": (0, subjects)},  # flags only
            3: {"a": (0b10, 0)},  # positions only
            4: {"a": (0b10, subjects)},  # no Title anywhere
            5: {"a": (0b10, subjects), "b": (0b100, title)},  # Title on "b"
            6: {"c": (0, subjects), "d": (0, 0)},  # "d" has neither: dropped
        }
        t = pa.table(
            {
                "doc_id": pa.array([u | (7 << 32) for u in docs], type=pa.uint64()),
                "doc_meta": pa.array([0] * len(docs), type=pa.uint64()),
                "term_hashes": pa.array(
                    [[term_hash(w) for w in d] for d in docs.values()], type=pa.list_(pa.uint64())
                ),
                "kw_metas": pa.array(
                    [[encode_word_meta(p, f) for p, f in d.values()] for d in docs.values()],
                    type=pa.list_(pa.uint64()),
                ),
            }
        )
        d = tmp_path_factory.mktemp("idx_disq")
        build_index(ray.data.from_arrow(t), d, n_shards=2, n_buckets=1)
        return IndexSearcher(d)

    @staticmethod
    def _urls(s, strategy):
        spec = SearchSpec(
            subqueries=[Subquery(include=["a"]), Subquery(include=["b"]), Subquery(include=["c", "d"])],
            limit_total=10,
            query_strategy=strategy,
        )
        return sorted(r.url_id for r in s.search(spec))

    def test_no_flags_and_no_positions_dropped(self, built_small):
        assert self._urls(built_small, "SENTENCE") == [2, 3, 4, 5]

    def test_variant_without_title_does_not_rescue(self, built_small):
        # only doc 5 has a variant (["b"]) whose every term carries Title
        assert self._urls(built_small, "REQUIRE_FIELD_TITLE") == [5]


class TestUrlDomainBit:
    def test_title_line_position_reads_as_url_domain(self, ray_session, tmp_path):
        """WordFlags.UrlDomain.bit (256) is bit 0 of the position mask, and
        the prio predicate tests it on the raw word meta: a flagless term
        on the title line (position bit 0) is in the prio list, the same
        term on line 2 only (position bit 1) is not.  This pins the
        reference's encode quirk (UrlDomain dropped by the 8-bit flag
        field) that the golden rank table depends on."""
        t = make_journal()
        metas = [
            [encode_word_meta(1 if i % 2 else 2, 0) for _ in row]
            for i, row in enumerate(t["kw_metas"].to_pylist(), start=1)
        ]
        t = t.set_column(3, "kw_metas", pa.array(metas, type=pa.list_(pa.uint64())))
        build_index(ray.data.from_arrow(t), tmp_path, n_shards=2, n_buckets=1)
        s = IndexSearcher(tmp_path)

        def docs(kind):
            return {int(c) & 0xFFFFFFFF for c in s.postings(kind, term_hash("3"))[0]}

        assert {3, 6, 9, 12} <= docs("full")
        assert docs("prio") == {i for i in docs("full") if i % 2}
        assert 3 in docs("prio") and 6 not in docs("prio")


class TestTermCoherenceGolden:
    """Mirror of the reference's TermCoherenceFactorTest.java:17-42: the
    coherence factor over a (n_terms, n_docs) word-meta matrix must be
    exactly 1.0 when both terms set every one of the 56 position bits,
    and exactly 0.0 when neither sets any."""

    def _metas(self, pos_a: int, pos_b: int) -> np.ndarray:
        from marginalia_ray.model.codecs import encode_word_meta

        return np.array(
            [
                [encode_word_meta(positions=pos_a, flags=0)],
                [encode_word_meta(positions=pos_b, flags=0)],
            ],
            dtype=np.uint64,
        )

    def test_all_bits_set_is_one(self):
        from marginalia_ray.query.ranking import term_coherence

        full = (1 << 56) - 1
        assert term_coherence(self._metas(full, full))[0] == pytest.approx(1.0)

    def test_no_bits_set_is_zero(self):
        from marginalia_ray.query.ranking import term_coherence

        assert term_coherence(self._metas(0, 0))[0] == pytest.approx(0.0)

    def test_disjoint_masks_cancel(self):
        # AND semantics: terms that never share a position give zero
        from marginalia_ray.query.ranking import term_coherence

        assert term_coherence(self._metas(0b1111, 0b1111 << 4))[0] == pytest.approx(0.0)

    def test_bits_set_scaling_monotone(self):
        # TermCoherenceFactorTest.testBitMatchScaling: (k/56)^0.25 rises
        from marginalia_ray.query.ranking import term_coherence

        vals = [
            term_coherence(self._metas((1 << k) - 1, (1 << k) - 1))[0]
            for k in range(1, 48)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx((1 / 56.0) ** 0.25)
