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


def test_run_files_bytes_pinned(ray_session, tmp_path):
    j = make_factors_journal()  # term "1" holds 511 postings: 4 blocks
    halves = [
        j.filter(pa.array([r % 2 == k for r in range(j.num_rows)])) for k in (0, 1)
    ]
    for k, part in enumerate(halves):
        build_index(ray.data.from_arrow(part), tmp_path / f"b{k}", n_shards=2, n_buckets=2)
    merge_builds([tmp_path / "b0", tmp_path / "b1"], tmp_path / "merged")
    delete_docs(tmp_path / "merged", tmp_path / "deleted", [i for i in range(1, 512) if i % 7 == 0])
    assert _digest(tmp_path) == PINNED_SHA256


def test_overwrite_bytes_pinned(ray_session, tmp_path):
    from marginalia_ray.index.delete import overwrite_merge
    from marginalia_ray.model.codecs import encode_doc_meta

    j = make_factors_journal()
    build_index(ray.data.from_arrow(j), tmp_path / "old", n_shards=4, n_buckets=2)
    # re-crawl every url % 5 == 0 with a new doc_meta
    urls = j["doc_id"].to_numpy() & 0xFFFFFFFF
    recrawl = j.filter(pa.array(urls % 5 == 0))
    meta = pa.array([encode_doc_meta(year=4, sets=1, quality=3)] * recrawl.num_rows, pa.uint64())
    recrawl = recrawl.set_column(recrawl.schema.get_field_index("doc_meta"), "doc_meta", meta)
    build_index(ray.data.from_arrow(recrawl), tmp_path / "new", n_shards=4, n_buckets=2)
    overwrite_merge(tmp_path / "old", tmp_path / "new", tmp_path / "out")
    assert _digest(tmp_path / "out") == OVERWRITE_SHA256
