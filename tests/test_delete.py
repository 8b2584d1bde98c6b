"""Tombstone deletion (marginalia_ray.index.delete): deleting docs from
an immutable build must reproduce the fresh build over the surviving
journal rows — per-term posting lists (ids AND metas), forward lookups,
manifest counts, and engine-level query results — and overwrite_merge
must give the reference's loader-overwrite re-crawl semantics."""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from marginalia_ray.functions.hashing import term_hash
from marginalia_ray.index.build import build_index
from marginalia_ray.index.delete import delete_docs, overwrite_merge
from marginalia_ray.index.segment import ForwardIndex, SegmentShardReader, read_manifest
from marginalia_ray.query.engine import IndexSearcher, SearchSpec, Subquery
from marginalia_ray.sources.factors import make_factors_journal

PROBE_TERMS = ["1", "2", "3", "5", "17", "100", "251", "509"]


def _filter_journal(j: pa.Table, keep_fn) -> pa.Table:
    urls = (j["doc_id"].to_numpy().astype(np.uint64) & np.uint64(0xFFFFFFFF)).astype(
        np.int64
    )
    return j.filter(pa.array([bool(keep_fn(u)) for u in urls]))


@pytest.fixture(scope="module")
def deleted_vs_fresh(ray_session, tmp_path_factory):
    j = make_factors_journal()
    full_dir = tmp_path_factory.mktemp("full")
    build_index(ray.data.from_arrow(j), full_dir, n_shards=4, n_buckets=2)

    tombs = [i for i in range(1, 512) if i % 7 == 0]
    del_dir = tmp_path_factory.mktemp("deleted")
    manifest = delete_docs(full_dir, del_dir, tombs)

    fresh_dir = tmp_path_factory.mktemp("fresh")
    build_index(
        ray.data.from_arrow(_filter_journal(j, lambda u: u % 7 != 0)),
        fresh_dir,
        n_shards=4,
        n_buckets=2,
    )
    return full_dir, del_dir, fresh_dir, manifest, tombs


class TestDeleteParity:
    def test_posting_lists_identical(self, deleted_vs_fresh):
        _, del_dir, fresh_dir, _, _ = deleted_vs_fresh
        sd, sf = IndexSearcher(del_dir), IndexSearcher(fresh_dir)
        for t in PROBE_TERMS:
            ids_d, m_d = sd.postings("full", term_hash(t))
            ids_f, m_f = sf.postings("full", term_hash(t))
            np.testing.assert_array_equal(ids_d, ids_f)
            np.testing.assert_array_equal(m_d, m_f)
            ids_dp, _ = sd.postings("prio", term_hash(t))
            ids_fp, _ = sf.postings("prio", term_hash(t))
            np.testing.assert_array_equal(ids_dp, ids_fp)

    def test_no_tombstoned_url_survives(self, deleted_vs_fresh):
        _, del_dir, _, _, tombs = deleted_vs_fresh
        tomb_set = set(tombs)
        fwd = ForwardIndex(del_dir)
        assert not (set(fwd.url_ids.tolist()) & tomb_set)
        sd = IndexSearcher(del_dir)
        for t in PROBE_TERMS:
            ids, _ = sd.postings("full", term_hash(t))
            urls = (ids & np.uint64(0xFFFFFFFF)).astype(np.int64)
            assert not (set(urls.tolist()) & tomb_set)

    def test_manifest_counts(self, deleted_vs_fresh):
        full_dir, _, fresh_dir, manifest, tombs = deleted_vs_fresh
        full_m = read_manifest(full_dir)
        fresh_m = read_manifest(fresh_dir)
        assert manifest["doc_count"] == fresh_m["doc_count"]
        assert manifest["n_deleted_docs"] == len(tombs)
        assert manifest["deleted_from"] == full_m["build_id"]

    def test_query_parity(self, deleted_vs_fresh):
        _, del_dir, fresh_dir, _, _ = deleted_vs_fresh
        sd, sf = IndexSearcher(del_dir), IndexSearcher(fresh_dir)
        spec = SearchSpec(
            subqueries=[Subquery(include=["3", "5"], exclude=["2"])], limit_total=100
        )
        rd = [(r.url_id, r.score) for r in sd.search(spec)]
        rf = [(r.url_id, r.score) for r in sf.search(spec)]
        assert rd == rf and len(rd) > 0

    def test_resume_markers_hit(self, deleted_vs_fresh, tmp_path):
        full_dir, del_dir, _, manifest, tombs = deleted_vs_fresh
        # identical re-run reuses every shard marker: same run lineage
        again = delete_docs(full_dir, del_dir, tombs)
        assert again["runs"] == manifest["runs"]
        assert again["doc_count"] == manifest["doc_count"]
        # a DIFFERENT tombstone set invalidates the job and rewrites
        other = delete_docs(full_dir, del_dir, tombs[:3])
        assert other["n_deleted_docs"] == 3

    def test_untouched_buckets_are_copied(self, deleted_vs_fresh, tmp_path, monkeypatch):
        from marginalia_ray.index import merge, segment

        full_dir = deleted_vs_fresh[0]
        buckets = list(SegmentShardReader(full_dir, "full", 0).iter_buckets())
        assert len(buckets) > 1
        # buckets are doc ranges: one url lives in exactly one bucket
        tomb = np.array([buckets[0][2][0] & np.uint64(0xFFFFFFFF)], dtype=np.uint64)
        encodes = []
        real = segment.encode_run
        monkeypatch.setattr(segment, "encode_run", lambda *a: encodes.append(1) or real(*a))
        rows = merge._delete_shard._function(
            str(full_dir), str(tmp_path), "full", 0, tomb, "job"
        )
        assert len(encodes) == 1
        src, dst = Path(full_dir) / "full" / "shard=00000", tmp_path / "full" / "shard=00000"
        built = {(r["kind"], r["shard"], r["bucket"]): r for r in read_manifest(full_dir)["runs"]}
        for bucket, *_ in buckets[1:]:
            for suffix in ("postings.bin", "terms.parquet"):
                name = f"bucket={bucket:04d}.{suffix}"
                assert (dst / name).read_bytes() == (src / name).read_bytes()
        for row in rows[1:]:
            assert row == built["full", 0, row["bucket"]]


def _remeta(t: pa.Table, **fields) -> pa.Table:
    """The same pages re-crawled: every row gets a new doc_meta."""
    from marginalia_ray.model.codecs import encode_doc_meta

    meta = pa.array([encode_doc_meta(**fields)] * t.num_rows, type=pa.uint64())
    return t.set_column(t.schema.get_field_index("doc_meta"), "doc_meta", meta)


def _index_contents(build) -> dict:
    """Every posting of a build as canonical (term, id)-sorted arrays per
    (kind, shard), independent of how the shard is split into buckets."""
    out = {}
    n_shards = read_manifest(build)["n_shards"]
    for kind in ("full", "prio"):
        for shard in range(n_shards):
            parts = list(SegmentShardReader(build, kind, shard).iter_buckets())
            terms = np.concatenate([p[1] for p in parts])
            ids = np.concatenate([p[2] for p in parts])
            order = np.lexsort((ids, terms))
            metas = np.concatenate([p[3] for p in parts])[order] if kind == "full" else None
            out[kind, shard] = (terms[order], ids[order], metas)
    return out


def _assert_same_index(a, b) -> None:
    ca, cb = _index_contents(a), _index_contents(b)
    assert ca.keys() == cb.keys()
    for key in ca:
        for x, y in zip(ca[key], cb[key]):
            np.testing.assert_array_equal(x, y)
    fa, fb = ForwardIndex(a), ForwardIndex(b)
    for col in ("url_ids", "doc_metas", "domain_ids"):
        np.testing.assert_array_equal(getattr(fa, col), getattr(fb, col))


@pytest.fixture(scope="module")
def recrawl(ray_session, tmp_path_factory):
    """The factors journal as the old build and its url % 5 == 0 slice,
    re-crawled with a new doc_meta, as the new build."""
    j = make_factors_journal()
    old_dir = tmp_path_factory.mktemp("old")
    build_index(ray.data.from_arrow(j), old_dir, n_shards=4, n_buckets=2)
    v2 = _remeta(_filter_journal(j, lambda u: u % 5 == 0), year=4, sets=1, quality=3)
    new_dir = tmp_path_factory.mktemp("new")
    build_index(ray.data.from_arrow(v2), new_dir, n_shards=4, n_buckets=2)
    return j, v2, old_dir, new_dir


class TestOverwriteMerge:
    def test_recrawl_replaces_old_versions(self, recrawl, tmp_path_factory):
        j, v2, old_dir, new_dir = recrawl
        out_dir = tmp_path_factory.mktemp("overwritten")
        overwrite_merge(old_dir, new_dir, out_dir)
        # one pass: no intermediate build is left next to the output
        assert not (Path(str(out_dir) + "_tombstoned")).exists()

        # reference result: fresh build over (old minus slice) + v2
        expect_tbl = pa.concat_tables(
            [_filter_journal(j, lambda u: u % 5 != 0), v2]
        )
        expect_dir = tmp_path_factory.mktemp("expect")
        build_index(
            ray.data.from_arrow(expect_tbl), expect_dir, n_shards=4, n_buckets=2
        )

        so, se = IndexSearcher(out_dir), IndexSearcher(expect_dir)
        for t in PROBE_TERMS:
            ids_o, m_o = so.postings("full", term_hash(t))
            ids_e, m_e = se.postings("full", term_hash(t))
            np.testing.assert_array_equal(np.sort(ids_o), np.sort(ids_e))
            # metas aligned per sorted id
            oo, eo = np.argsort(ids_o, kind="stable"), np.argsort(ids_e, kind="stable")
            np.testing.assert_array_equal(m_o[oo], m_e[eo])
        assert read_manifest(out_dir)["doc_count"] == expect_tbl.num_rows

    def test_manifest_lineage(self, recrawl, tmp_path):
        _, v2, old_dir, new_dir = recrawl
        m = overwrite_merge(old_dir, new_dir, tmp_path / "out")
        old_m, new_m = read_manifest(old_dir), read_manifest(new_dir)
        assert m["merged_from"] == [old_m["build_id"], new_m["build_id"]]
        assert m["n_tombstones"] == v2.num_rows  # each re-crawled url once
        assert m["n_deleted_docs"] == v2.num_rows  # each had one old version
        assert m["doc_count"] == old_m["doc_count"]

    def test_tombstone_bound_is_loud(self, recrawl, tmp_path):
        _, _, old_dir, new_dir = recrawl
        with pytest.raises(RuntimeError, match="exceeds"):
            overwrite_merge(old_dir, new_dir, tmp_path / "out", max_tombstones=3)

    def test_resume_rebuilds_only_a_broken_shard(self, recrawl, tmp_path):
        j, v2, old_dir, new_dir = recrawl
        out = tmp_path / "out"
        m1 = overwrite_merge(old_dir, new_dir, out)
        before = {p: p.read_bytes() for p in sorted(out.rglob("*.postings.bin"))}

        # a crash mid-shard: its marker is gone and one of its runs is cut
        victim = out / "full" / "shard=00001"
        (victim / "_DONE.json").unlink()
        run = sorted(victim.glob("*.postings.bin"))[0]
        run.write_bytes(run.read_bytes()[:16])
        stamps = {p: p.stat().st_mtime_ns for p in out.glob("**/_DONE.json")}
        m2 = overwrite_merge(old_dir, new_dir, out)
        for p, t in stamps.items():
            assert p.stat().st_mtime_ns == t, f"{p} was rewritten"
        assert (victim / "_DONE.json").exists()
        assert {p: p.read_bytes() for p in sorted(out.rglob("*.postings.bin"))} == before
        assert m2["runs"] == m1["runs"]

        # a new build of the same slice has another id: the whole job reruns
        new2 = tmp_path / "new2"
        build_index(ray.data.from_arrow(v2), new2, n_shards=4, n_buckets=2)
        stamps = {p: p.stat().st_mtime_ns for p in out.glob("**/_DONE.json")}
        m3 = overwrite_merge(old_dir, new2, out)
        for p, t in stamps.items():
            assert p.stat().st_mtime_ns != t, f"{p} was kept"
        assert m3["merged_from"][1] == read_manifest(new2)["build_id"]
        assert m3["runs"] == m1["runs"]

    def test_chained_overwrites_equal_fresh_builds(self, ray_session, tmp_path):
        """Six re-crawl cycles, each replacing some live urls and adding
        some new ones: every result equals a fresh build of the journal it
        should hold, and the forward part count never grows."""
        j = make_factors_journal()
        urls = (j["doc_id"].to_numpy() & np.uint64(0xFFFFFFFF)).astype(np.int64)
        expect = j.filter(pa.array(urls % 4 != 3))
        # several blocks, so each build writes several forward parts
        live = tmp_path / "live0"
        build_index(ray.data.from_arrow([expect.slice(k, 100) for k in range(0, expect.num_rows, 100)]),
                    live, n_shards=4, n_buckets=2)
        n_parts = len(list((live / "forward").glob("*.parquet")))
        assert n_parts > 1
        for c in range(6):
            recrawled = _remeta(_filter_journal(j, lambda u: u % 6 == c), year=c + 1, sets=1, quality=c % 4)
            new = tmp_path / f"new{c}"
            half = recrawled.num_rows // 2
            build_index(ray.data.from_arrow([recrawled.slice(0, half), recrawled.slice(half)]),
                        new, n_shards=4, n_buckets=1 + c % 3)
            out = tmp_path / f"live{c + 1}"
            m = overwrite_merge(live, new, out)
            expect = pa.concat_tables(
                [_filter_journal(expect, lambda u: u % 6 != c), recrawled]
            )
            fresh = tmp_path / f"fresh{c}"
            build_index(ray.data.from_arrow(expect), fresh, n_shards=4, n_buckets=2)
            _assert_same_index(out, fresh)
            assert m["doc_count"] == expect.num_rows
            assert len(list((out / "forward").glob("*.parquet"))) == n_parts
            live = out

    def test_empty_tombstones_is_identity_copy(self, ray_session, tmp_path_factory):
        j = make_factors_journal()
        src = tmp_path_factory.mktemp("src")
        build_index(ray.data.from_arrow(j), src, n_shards=2, n_buckets=1)
        out = tmp_path_factory.mktemp("copy")
        manifest = delete_docs(src, out, [])
        assert manifest["doc_count"] == read_manifest(src)["doc_count"]
        assert manifest["n_deleted_docs"] == 0
        s0, s1 = IndexSearcher(src), IndexSearcher(out)
        for t in PROBE_TERMS:
            a, ma = s0.postings("full", term_hash(t))
            b, mb = s1.postings("full", term_hash(t))
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(ma, mb)
