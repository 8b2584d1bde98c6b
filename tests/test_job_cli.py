"""The job CLI's rewrite modes (`--merge`, `--delete-from`, `--overwrite`):
options they cannot honour are refused before any work starts, and a parquet
tombstone input deletes exactly what the same ids given as a list do."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from marginalia_ray.functions.hashing import term_hash
from marginalia_ray.index.build import build_index
from marginalia_ray.index.segment import read_manifest
from marginalia_ray.job import main
from marginalia_ray.query.engine import IndexSearcher
from marginalia_ray.sources.factors import make_factors_journal

PROBE_TERMS = ["1", "2", "3", "5", "17", "100", "251", "509"]
TOMBSTONES = [i for i in range(1, 512) if i % 7 == 0]


@pytest.fixture(scope="module")
def slices(ray_session, tmp_path_factory):
    """Two doc-disjoint builds of the factors journal's odd and even rows."""
    j = make_factors_journal()
    dirs = []
    for k in (0, 1):
        d = tmp_path_factory.mktemp(f"slice{k}")
        part = j.filter(pa.array([r % 2 == k for r in range(j.num_rows)]))
        build_index(ray.data.from_arrow(part), d, n_shards=2, n_buckets=1)
        dirs.append(str(d))
    return dirs


@pytest.mark.parametrize(
    "option", [["--no-resume"], ["--concurrency", "2"]], ids=["no-resume", "concurrency"]
)
@pytest.mark.parametrize("mode", ["merge", "delete", "overwrite"])
def test_rewrite_refuses_ignored_options(slices, tmp_path, capsys, mode, option):
    a, b = slices
    args = {
        "merge": ["--merge", a, b],
        "delete": ["--delete-from", a, "--tombstones", "7,14"],
        "overwrite": ["--overwrite", a, b],
    }[mode]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(out)] + option)
    assert exc.value.code == 2
    assert f"{option[0]} does not apply" in capsys.readouterr().err
    assert not out.exists()


def test_parquet_tombstones_match_id_list(slices, tmp_path):
    src = slices[0]
    ids = pa.table({"url_id": pa.array(TOMBSTONES, pa.int64())})
    pq.write_table(ids, tmp_path / "tombs.parquet")
    (tmp_path / "tomb_dir").mkdir()
    half = len(TOMBSTONES) // 2
    pq.write_table(ids.slice(0, half), tmp_path / "tomb_dir" / "a.parquet")
    pq.write_table(ids.slice(half), tmp_path / "tomb_dir" / "b.parquet")

    listed = tmp_path / "listed"
    assert main(["--delete-from", src, "--tombstones", ",".join(map(str, TOMBSTONES)),
                 "--out", str(listed)]) == 0
    expect = read_manifest(listed)
    assert expect["n_deleted_docs"] > 0
    s_expect = IndexSearcher(listed)
    for source in ("tombs.parquet", "tomb_dir"):
        out = tmp_path / f"from_{source}"
        assert main(["--delete-from", src, "--tombstones", str(tmp_path / source),
                     "--out", str(out)]) == 0
        got = read_manifest(out)
        for key in ("doc_count", "n_deleted_docs", "n_tombstones"):
            assert got[key] == expect[key]
        s_got = IndexSearcher(out)
        for t in PROBE_TERMS:
            for kind in ("full", "prio"):
                ids_e, m_e = s_expect.postings(kind, term_hash(t))
                ids_g, m_g = s_got.postings(kind, term_hash(t))
                np.testing.assert_array_equal(ids_g, ids_e)
                if kind == "full":
                    np.testing.assert_array_equal(m_g, m_e)
