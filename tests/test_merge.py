"""K-way segment merge (marginalia_ray.index.merge): merging builds of
journal slices must reproduce the fresh full build — per-term posting
lists (ids AND metas), forward lookups, and engine-level query results —
and refuse non-disjoint or shard-incompatible sources."""

from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from marginalia_ray.functions.hashing import term_hash
from marginalia_ray.index.build import build_index
from marginalia_ray.index.merge import _merge_shard, merge_builds
from marginalia_ray.index.segment import (
    ForwardIndex,
    SegmentShardReader,
    read_manifest,
)
from marginalia_ray.query.engine import IndexSearcher, SearchSpec, Subquery
from marginalia_ray.sources.factors import make_factors_journal

PROBE_TERMS = ["1", "2", "3", "5", "17", "100", "251", "509"]


def _n_forward_parts(build) -> int:
    return len(list((Path(build) / "forward").glob("*.parquet")))


def _assert_same_forward(a, b) -> None:
    fa, fb = ForwardIndex(a), ForwardIndex(b)
    for col in ("url_ids", "doc_metas", "domain_ids", "n_collisions"):
        np.testing.assert_array_equal(getattr(fa, col), getattr(fb, col))


def _slices(n_slices: int):
    """Split the factors journal row-wise into n interleaved slices."""
    j = make_factors_journal()
    return [j.filter(pa.array([r % n_slices == k for r in range(j.num_rows)]))
            for k in range(n_slices)]


@pytest.fixture(scope="module")
def merged_vs_full(ray_session, tmp_path_factory):
    full_dir = tmp_path_factory.mktemp("full")
    build_index(
        ray.data.from_arrow(make_factors_journal()), full_dir,
        n_shards=4, n_buckets=2,
    )
    src_dirs = []
    for k, part in enumerate(_slices(3)):
        d = tmp_path_factory.mktemp(f"src{k}")
        build_index(ray.data.from_arrow(part), d, n_shards=4, n_buckets=2)
        src_dirs.append(d)
    out_dir = tmp_path_factory.mktemp("merged")
    manifest = merge_builds(src_dirs, out_dir)
    return full_dir, src_dirs, out_dir, manifest


class TestMergeParity:
    def test_posting_lists_identical(self, merged_vs_full):
        full_dir, _, out_dir, _ = merged_vs_full
        sf, sm = IndexSearcher(full_dir), IndexSearcher(out_dir)
        for t in PROBE_TERMS:
            ids_f, m_f = sf.postings("full", term_hash(t))
            ids_m, m_m = sm.postings("full", term_hash(t))
            np.testing.assert_array_equal(ids_f, ids_m)
            np.testing.assert_array_equal(m_f, m_m)
            ids_fp, _ = sf.postings("prio", term_hash(t))
            ids_mp, _ = sm.postings("prio", term_hash(t))
            np.testing.assert_array_equal(ids_fp, ids_mp)

    def test_query_results_identical(self, merged_vs_full):
        full_dir, _, out_dir, _ = merged_vs_full
        sf, sm = IndexSearcher(full_dir), IndexSearcher(out_dir)
        specs = [
            SearchSpec(subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])]),
            SearchSpec(subqueries=[Subquery(include=["7", "2"], exclude=[])]),
            SearchSpec(subqueries=[Subquery(include=["2"], exclude=["3"])]),
        ]
        for spec in specs:
            rf = [(r.url_id, r.score) for r in sf.search(spec)]
            rm = [(r.url_id, r.score) for r in sm.search(spec)]
            assert rf == rm

    def test_forward_lookup_covers_all_slices(self, merged_vs_full):
        full_dir, _, out_dir, manifest = merged_vs_full
        ff, fm = ForwardIndex(full_dir), ForwardIndex(out_dir)
        ids = np.arange(1, 512, dtype=np.uint64)
        mf, df_ = ff.lookup(ids)
        mm, dm = fm.lookup(ids)
        np.testing.assert_array_equal(mf, mm)
        np.testing.assert_array_equal(df_, dm)
        assert manifest["doc_count"] == 511

    def test_forward_keeps_first_source_layout(self, merged_vs_full):
        """The forward pass keeps the first source's part count and gives
        the arrays of a fresh build of the union journal."""
        full_dir, src_dirs, out_dir, _ = merged_vs_full
        assert _n_forward_parts(out_dir) == _n_forward_parts(src_dirs[0])
        _assert_same_forward(out_dir, full_dir)

    def test_merged_lists_sorted_per_term(self, merged_vs_full):
        _, _, out_dir, manifest = merged_vs_full
        assert manifest["n_buckets"] >= 2  # re-salting preserved
        s = IndexSearcher(out_dir)
        for t in PROBE_TERMS:
            ids, _ = s.postings("full", term_hash(t))
            if len(ids) > 1:
                assert (np.diff(ids.astype(np.int64)) > 0).all()

    def test_manifest_lineage(self, merged_vs_full):
        _, src_dirs, out_dir, manifest = merged_vs_full
        src_ids = [read_manifest(d)["build_id"] for d in src_dirs]
        assert manifest["merged_from"] == src_ids
        assert read_manifest(out_dir)["merged_from"] == src_ids


class TestMergeGuards:
    def test_non_disjoint_sources_rejected(self, ray_session, tmp_path_factory):
        j = make_factors_journal()
        parts = _slices(2)
        # the whole journal twice; two slices that share exactly 3 urls
        cases = [
            (j, j, r"merge_builds: 511 \(url_id, domain_id\) pairs .* doc-disjoint"),
            (parts[0], pa.concat_tables([parts[1], parts[0].slice(0, 3)]),
             r"merge_builds: 3 \(url_id, domain_id\) pairs .* doc-disjoint"),
        ]
        for first, second, message in cases:
            a = tmp_path_factory.mktemp("dup_a")
            b = tmp_path_factory.mktemp("dup_b")
            build_index(ray.data.from_arrow(first), a, n_shards=2, n_buckets=1)
            build_index(ray.data.from_arrow(second), b, n_shards=2, n_buckets=1)
            with pytest.raises(RuntimeError, match=message):
                merge_builds([a, b], tmp_path_factory.mktemp("dup_out"))

    def test_duplicate_postings_caught_without_check(
        self, ray_session, tmp_path_factory
    ):
        """Past the forward check, the per-shard posting merge itself still
        refuses duplicate (term, doc) pairs."""
        a = tmp_path_factory.mktemp("nd_a")
        b = tmp_path_factory.mktemp("nd_b")
        j = make_factors_journal()
        build_index(ray.data.from_arrow(j), a, n_shards=2, n_buckets=1)
        build_index(ray.data.from_arrow(j), b, n_shards=2, n_buckets=1)
        with pytest.raises(RuntimeError, match="duplicate"):
            _merge_shard._function(
                [str(a), str(b)], str(tmp_path_factory.mktemp("nd_out")),
                "full", 0, 1, "job", np.zeros(0, np.uint64),
            )

    def test_shard_mismatch_rejected(self, ray_session, tmp_path_factory):
        parts = _slices(2)
        a = tmp_path_factory.mktemp("sm_a")
        b = tmp_path_factory.mktemp("sm_b")
        build_index(ray.data.from_arrow(parts[0]), a, n_shards=2, n_buckets=1)
        build_index(ray.data.from_arrow(parts[1]), b, n_shards=4, n_buckets=1)
        with pytest.raises(ValueError, match="n_shards"):
            merge_builds([a, b], tmp_path_factory.mktemp("sm_out"))

    def test_too_few_sources(self, ray_session, tmp_path_factory):
        with pytest.raises(ValueError, match=">= 2"):
            merge_builds([tmp_path_factory.mktemp("one")], tmp_path_factory.mktemp("o"))


class TestBucketIterator:
    def test_roundtrip_multi_block_terms(self, ray_session, tmp_path_factory):
        """A term with >BLOCK_SIZE postings exercises the absolute-at-
        block-start carry reset of the whole-bucket decode."""
        from marginalia_ray.index.segment import write_run

        d = tmp_path_factory.mktemp("rt")
        rng = np.random.default_rng(7)
        n_a, n_b = 300, 5  # term a spans 3 blocks
        ids_a = np.sort(rng.choice(10**9, n_a, replace=False).astype(np.uint64))
        ids_b = np.sort(rng.choice(10**9, n_b, replace=False).astype(np.uint64))
        terms = np.concatenate(
            [np.full(n_a, 11, np.uint64), np.full(n_b, 22, np.uint64)]
        )
        ids = np.concatenate([ids_a, ids_b])
        metas = rng.integers(0, 2**63, n_a + n_b).astype(np.uint64)
        write_run(d, "full", 0, 3, terms, ids, metas)
        [(bucket, t_out, i_out, m_out)] = SegmentShardReader(d, "full", 0).iter_buckets()
        assert bucket == 3
        np.testing.assert_array_equal(t_out, terms)
        np.testing.assert_array_equal(i_out, ids)
        np.testing.assert_array_equal(m_out, metas)


class TestMergeResume:
    def test_rerun_skips_done_shards_and_rebuilds_missing(
        self, ray_session, tmp_path_factory
    ):
        import json
        import shutil

        parts = _slices(2)
        a = tmp_path_factory.mktemp("rs_a")
        b = tmp_path_factory.mktemp("rs_b")
        build_index(ray.data.from_arrow(parts[0]), a, n_shards=4, n_buckets=1)
        build_index(ray.data.from_arrow(parts[1]), b, n_shards=4, n_buckets=1)
        out = tmp_path_factory.mktemp("rs_out")
        m1 = merge_builds([a, b], out)
        s_before = IndexSearcher(out)
        ids_before, _ = s_before.postings("full", term_hash("3"))

        # simulate a crashed shard: wipe one shard dir (marker included)
        victim = Path(out) / "full" / "shard=00002"
        assert victim.exists()
        shutil.rmtree(victim)
        # stamp the other markers so we can prove they were not rewritten
        stamps = {
            p: p.stat().st_mtime_ns
            for p in Path(out).glob("*/shard=*/_DONE.json")
        }
        m2 = merge_builds([a, b], out)  # the same job resumes
        # completed shards untouched
        for p, t in stamps.items():
            assert p.stat().st_mtime_ns == t, f"{p} was rewritten"
        # the victim shard is back and identical
        assert (Path(out) / "full" / "shard=00002" / "_DONE.json").exists()
        ids_after, _ = IndexSearcher(out).postings("full", term_hash("3"))
        np.testing.assert_array_equal(ids_before, ids_after)
        assert m2["doc_count"] == m1["doc_count"]

    def test_param_change_invalidates_resume(self, ray_session, tmp_path_factory):
        parts = _slices(2)
        a = tmp_path_factory.mktemp("pc_a")
        b = tmp_path_factory.mktemp("pc_b")
        b2 = tmp_path_factory.mktemp("pc_b2")
        build_index(ray.data.from_arrow(parts[0]), a, n_shards=2, n_buckets=1)
        for d in (b, b2):
            build_index(ray.data.from_arrow(parts[1]), d, n_shards=2, n_buckets=1)
        out = tmp_path_factory.mktemp("pc_out")
        merge_builds([a, b], out)
        stamps = {
            p: p.stat().st_mtime_ns
            for p in Path(out).glob("*/shard=*/_DONE.json")
        }
        # the same slice rebuilt under another build id: a different job key
        merge_builds([a, b2], out)
        # every marker rewritten (full rebuild)
        for p, t in stamps.items():
            assert p.stat().st_mtime_ns != t
        s = IndexSearcher(out)
        ids, _ = s.postings("full", term_hash("2"))
        assert (np.diff(ids.astype(np.int64)) > 0).all()

    def test_within_build_recrawl_is_not_cross_build_overlap(
        self, ray_session, tmp_path_factory
    ):
        """A url re-crawled WITHIN one source build (duplicate forward
        rows; ForwardIndex resolves keep-first) must not trip the
        doc-disjointness check — only the same url in DIFFERENT builds
        is a merge error."""
        import pyarrow as pa

        parts = _slices(2)
        # duplicate the first journal row of slice A (same doc_id = same url)
        dup = pa.concat_tables([parts[0], parts[0].slice(0, 1)])
        a = tmp_path_factory.mktemp("rc_a")
        b = tmp_path_factory.mktemp("rc_b")
        build_index(ray.data.from_arrow(dup), a, n_shards=2, n_buckets=1)
        build_index(ray.data.from_arrow(parts[1]), b, n_shards=2, n_buckets=1)
        out = tmp_path_factory.mktemp("rc_out")
        manifest = merge_builds([a, b], out)  # must not raise
        assert manifest["doc_count"] == 512  # 256 + dup + 255
        s = IndexSearcher(out)
        ids, _ = s.postings("full", term_hash("2"))
        assert (np.diff(ids.astype(np.int64)) > 0).all()  # still unique+sorted


class TestHierarchicalMerge:
    def test_merge_of_merges_equals_full_build(self, ray_session, tmp_path_factory):
        """Two-level merge tree — merge(merge(s0,s1), merge(s2,s3)) — must
        equal the flat build of the union (the 'merge hierarchically'
        scale path in the module docstring)."""
        full_dir = tmp_path_factory.mktemp("h_full")
        build_index(
            ray.data.from_arrow(make_factors_journal()), full_dir,
            n_shards=4, n_buckets=1,
        )
        leaves = []
        for k, part in enumerate(_slices(4)):
            d = tmp_path_factory.mktemp(f"h_s{k}")
            build_index(ray.data.from_arrow(part), d, n_shards=4, n_buckets=1)
            leaves.append(d)
        m01 = tmp_path_factory.mktemp("h_m01")
        m23 = tmp_path_factory.mktemp("h_m23")
        merge_builds(leaves[:2], m01)
        merge_builds(leaves[2:], m23)
        root = tmp_path_factory.mktemp("h_root")
        manifest = merge_builds([m01, m23], root)
        assert manifest["doc_count"] == 511
        assert _n_forward_parts(root) == _n_forward_parts(m01) == _n_forward_parts(leaves[0])
        _assert_same_forward(root, full_dir)

        sf, sm = IndexSearcher(full_dir), IndexSearcher(root)
        for t in PROBE_TERMS:
            ids_f, m_f = sf.postings("full", term_hash(t))
            ids_m, m_m = sm.postings("full", term_hash(t))
            np.testing.assert_array_equal(ids_f, ids_m)
            np.testing.assert_array_equal(m_f, m_m)
        spec = SearchSpec(subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])])
        assert [(r.url_id, r.score) for r in sf.search(spec)] == [
            (r.url_id, r.score) for r in sm.search(spec)
        ]


def test_current_pointer_swap_to_merged_build(ray_session, tmp_path_factory):
    """S6 atomic switch works for merge output: point CURRENT at the
    merged build and read through the root like the serving path does."""
    from marginalia_ray.index.segment import get_current, set_current

    root = tmp_path_factory.mktemp("swap_root")
    parts = _slices(2)
    build_index(ray.data.from_arrow(parts[0]), root / "b0", n_shards=2, n_buckets=1)
    build_index(ray.data.from_arrow(parts[1]), root / "b1", n_shards=2, n_buckets=1)
    merge_builds([root / "b0", root / "b1"], root / "merged")
    set_current(root, "merged")
    assert get_current(root) == "merged"
    live = Path(root) / get_current(root)
    s = IndexSearcher(live)
    spec = SearchSpec(subqueries=[Subquery(include=["7", "2"], exclude=[])])
    assert len(s.search(spec)) > 0
