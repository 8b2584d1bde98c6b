"""Format pin for the posting-run files: a fixed small journal goes through
`build_index`, `merge_builds` and `delete_docs` (and, in a second pin, a
re-crawl `overwrite_merge`), and one sha256 over every `postings.bin` and
every terms-directory column must stay the same.  A change that is meant to
keep the on-disk bytes (a refactor of the codec, of the readers or of the
rewrite passes) keeps these digests; a change that alters the format updates
them on purpose, in the same commit."""

import hashlib
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from marginalia_ray.index.build import build_index
from marginalia_ray.index.delete import delete_docs
from marginalia_ray.index.merge import merge_builds
from marginalia_ray.sources.factors import make_factors_journal

# recorded on the codec before the run format moved into index/postings.py
PINNED_SHA256 = "d30fc9503a3a3e7c81232abee9d7a902f36c376724d18f5804b10185d29e1365"

# recorded on overwrite_merge when it still ran delete_docs into an
# intermediate build and then merge_builds: the one-pass overwrite keeps it
OVERWRITE_SHA256 = "d4a78afbe484a8d81c0a62462e10ed485044725a3882f0998751c2693957db1a"

TERMS_COLUMNS = ("term_hash", "doc_freq", "offset", "nbytes")


def _digest(root: Path) -> str:
    """sha256 over (relative path, bytes) of every postings.bin and
    (relative path, column, values) of every terms.parquet under root."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.postings.bin")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    for p in sorted(root.rglob("*.terms.parquet")):
        t = pq.read_table(p)
        h.update(str(p.relative_to(root)).encode())
        for col in TERMS_COLUMNS:
            h.update(col.encode())
            h.update(t[col].to_numpy().tobytes())
    return h.hexdigest()


def _pinned_build_merge_delete(root: Path) -> list[dict]:
    """The first pin's rewrites; returns the two build manifests."""
    j = make_factors_journal()  # term "1" holds 511 postings: 4 blocks
    halves = [
        j.filter(pa.array([r % 2 == k for r in range(j.num_rows)])) for k in (0, 1)
    ]
    manifests = [
        build_index(ray.data.from_arrow(part), root / f"b{k}", n_shards=2, n_buckets=2)
        for k, part in enumerate(halves)
    ]
    merge_builds([root / "b0", root / "b1"], root / "merged")
    delete_docs(root / "merged", root / "deleted", [i for i in range(1, 512) if i % 7 == 0])
    return manifests


def test_run_files_bytes_pinned(ray_session, tmp_path, build_paths):
    for grouping in build_paths():
        root = tmp_path / grouping
        manifests = _pinned_build_merge_delete(root)
        assert {m["grouping"] for m in manifests} == {grouping}
        assert _digest(root) == PINNED_SHA256, grouping


def test_overwrite_bytes_pinned(ray_session, tmp_path, build_paths):
    from marginalia_ray.index.delete import overwrite_merge
    from marginalia_ray.model.codecs import encode_doc_meta

    j = make_factors_journal()
    # re-crawl every url % 5 == 0 with a new doc_meta
    urls = j["doc_id"].to_numpy() & 0xFFFFFFFF
    recrawl = j.filter(pa.array(urls % 5 == 0))
    meta = pa.array([encode_doc_meta(year=4, sets=1, quality=3)] * recrawl.num_rows, pa.uint64())
    recrawl = recrawl.set_column(recrawl.schema.get_field_index("doc_meta"), "doc_meta", meta)
    for grouping in build_paths():
        root = tmp_path / grouping
        m_old = build_index(ray.data.from_arrow(j), root / "old", n_shards=4, n_buckets=2)
        m_new = build_index(ray.data.from_arrow(recrawl), root / "new", n_shards=4, n_buckets=2)
        assert {m_old["grouping"], m_new["grouping"]} == {grouping}
        overwrite_merge(root / "old", root / "new", root / "out")
        assert _digest(root / "out") == OVERWRITE_SHA256, grouping


def test_posting_bound_falls_back_to_shuffle(ray_session, tmp_path, monkeypatch):
    """A journal under the doc gate but over the posting bound builds by
    the shuffle from the blocks already pulled (no second read of the
    journal), with the pinned bytes."""
    from marginalia_ray.index import build

    handed = []
    from_refs = ray.data.from_arrow_refs

    def spy(refs):
        handed.append(len(refs))
        return from_refs(refs)

    monkeypatch.setattr(ray.data, "from_arrow_refs", spy)
    monkeypatch.setattr(build, "TARGET_RUN_POSTINGS", 100)  # each half has ~1.6 k
    manifests = _pinned_build_merge_delete(tmp_path)
    assert [m["grouping"] for m in manifests] == ["shuffle", "shuffle"]
    assert len(handed) == 2 and min(handed) >= 1
    assert _digest(tmp_path) == PINNED_SHA256
