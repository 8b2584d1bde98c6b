"""BrowseArtifact rows on small fixtures (the TestOldAlgoCascade /
TestSiteInfo corpora from test_browse.py, plus a six-row adjacency), each
pinned to literal expected rows, and the journal-built artifact.  The
independent reference for the browse queries is the DuckDB SQL of the
browse rows in tests/test_oracle.py."""

import numpy as np
import pyarrow as pa
import pytest

import ray


def _old_algo_inputs():
    nb = pa.table(
        {
            "domain_id": pa.array([1, 1, 1], pa.int64()),
            "neighbor_id": pa.array([2, 3, 4], pa.int64()),
            "adj_idx": pa.array([1, 2, 3], pa.int64()),
        }
    )
    links = pa.table(
        {
            "src": pa.array([1, 1, 7, 8, 9, 9, 9, 9, 9, 9], pa.int64()),
            "dst": pa.array([5, 6, 1, 1, 2, 3, 5, 6, 7, 8], pa.int64()),
        }
    )
    doms = pa.table(
        {
            "domain_id": pa.array(list(range(1, 10)), pa.int64()),
            "domain_name": pa.array(
                [f"d{i}.example" for i in range(1, 10)], pa.string()
            ),
            "state": pa.array([0] * 9, pa.int64()),
            "domain_alias": pa.array([None] * 9, pa.int64()),
        }
    )
    meta = pa.table(
        {
            "domain_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
            "known_urls": pa.array([1, 1, 1, 1, 1, 1, 1, 99], pa.int64()),
            "rank": pa.array([9, 9, 9, 9, 2, 1, 5, 9], pa.int64()),
        }
    )
    return nb, links, doms, meta


def _site_inputs():
    doms = pa.table(
        {
            "domain_id": pa.array([1, 2, 3, 4], pa.int64()),
            "domain_name": pa.array(
                ["a.example", "b.example", "c.example", "d.example"], pa.string()
            ),
            "state": pa.array([0, 1, 2, 0], pa.int64()),
            "rank_d": pa.array([0.5, 0.25, None, 0.0], pa.float64()),
        }
    )
    meta = pa.table(
        {
            "domain_id": pa.array([1, 2], pa.int64()),
            "known_urls": pa.array([10, 5], pa.int64()),
            "visited_urls": pa.array([8, 0], pa.int64()),
            "good_urls": pa.array([6, 0], pa.int64()),
        }
    )
    links = pa.table(
        {
            "src": pa.array([2, 3, 4, 1, 1], pa.int64()),
            "dst": pa.array([1, 1, 1, 2, 3], pa.int64()),
        }
    )
    cq = pa.table({"domain_name": pa.array(["b.example"], pa.string())})
    bl = pa.table({"domain_name": pa.array(["c.example"], pa.string())})
    return doms, meta, links, cq, bl


@pytest.fixture(scope="module")
def old_algo_artifact(ray_session, tmp_path_factory):
    from marginalia_ray.pipelines.browse_artifact import build_browse_artifact

    nb, links, doms, meta = _old_algo_inputs()
    out = tmp_path_factory.mktemp("browse_art") / "a"
    build_browse_artifact(
        str(out),
        neighbors=ray.data.from_arrow(nb),
        links=ray.data.from_arrow(links),
        domains=ray.data.from_arrow(doms),
        meta=ray.data.from_arrow(meta),
        n_buckets=8,
    )
    return str(out)


@pytest.fixture(scope="module")
def site_artifact(ray_session, tmp_path_factory):
    from marginalia_ray.pipelines.browse_artifact import build_browse_artifact

    doms, meta, links, cq, bl = _site_inputs()
    out = tmp_path_factory.mktemp("browse_art") / "s"
    build_browse_artifact(
        str(out),
        neighbors=ray.data.from_arrow(
            pa.table(
                {
                    "domain_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "adj_idx": pa.array([], pa.int64()),
                }
            )
        ),
        links=ray.data.from_arrow(links),
        domains=ray.data.from_arrow(doms),
        meta=ray.data.from_arrow(meta),
        crawl_queue=ray.data.from_arrow(cq),
        blacklist_names=ray.data.from_arrow(bl),
        n_buckets=8,
    )
    return str(out)


class TestOldAlgoParity:
    def _art(self, out_dir, **kw):
        from marginalia_ray.pipelines.browse_artifact import BrowseArtifact

        return (
            BrowseArtifact(out_dir)
            .old_algo_neighbors(1, count=6, max_known=50, **kw)
            .to_pylist()
        )

    def test_all_stages_parity(self, ray_session, old_algo_artifact):
        assert self._art(old_algo_artifact, blacklist=(6,)) == [
            {"domain_id": 2, "domain_name": "d2.example"},
            {"domain_id": 3, "domain_name": "d3.example"},
            {"domain_id": 7, "domain_name": "d7.example"},
        ]

    def test_no_blacklist_parity(self, ray_session, old_algo_artifact):
        assert self._art(old_algo_artifact) == [
            {"domain_id": 2, "domain_name": "d2.example"},
            {"domain_id": 3, "domain_name": "d3.example"},
            {"domain_id": 6, "domain_name": "d6.example"},
        ]

    def test_unknown_probe_empty(self, ray_session, old_algo_artifact):
        from marginalia_ray.pipelines.browse_artifact import BrowseArtifact

        got = BrowseArtifact(old_algo_artifact).old_algo_neighbors(777)
        assert got.num_rows == 0


SITE_INFO_SCHEMA = pa.schema(
    [
        ("domain", pa.string()),
        ("blacklisted", pa.bool_()),
        ("pages_known", pa.int64()),
        ("pages_fetched", pa.int64()),
        ("pages_indexed", pa.int64()),
        ("incoming_links", pa.int64()),
        ("outgoing_links", pa.int64()),
        ("ranking", pa.float64()),
        ("state", pa.int64()),
        ("in_crawl_queue", pa.bool_()),
        ("suggest_for_crawling", pa.bool_()),
        ("linking_domains", pa.string()),
    ]
)

# (domain, blacklisted, known, fetched, indexed, in, out, ranking, state,
#  in_crawl_queue, suggest_for_crawling, linking_domains)
SITE_INFO_ROWS = {
    "a.example": ("a.example", False, 10, 8, 6, 3, 2, 50.0, 0, False, False,
                  "b.example,c.example,d.example"),
    "b.example": ("b.example", False, 5, 0, 0, 1, 1, 75.0, 1, True, False,
                  "a.example"),
    "c.example": ("c.example", True, 0, 0, 0, 1, 1, 0.0, 2, False, True,
                  "a.example"),
    "zzz.example": None,
}


class TestSiteInfoParity:
    @pytest.mark.parametrize(
        "site", ["a.example", "b.example", "c.example", "zzz.example"]
    )
    def test_parity(self, ray_session, site_artifact, site):
        from marginalia_ray.pipelines.browse_artifact import BrowseArtifact

        art = BrowseArtifact(site_artifact).site_info(site)
        assert art.schema == SITE_INFO_SCHEMA
        row = SITE_INFO_ROWS[site]
        expect = [] if row is None else [dict(zip(SITE_INFO_SCHEMA.names, row))]
        assert art.to_pylist() == expect


class TestSimilarDomainsParity:
    def test_parity(self, ray_session, tmp_path):
        """Artifact-served similar_domains on a fixture with relatedness,
        a screenshot set (no screenshot for 4) and a blacklist (3)."""
        from marginalia_ray.pipelines.browse_artifact import (
            BrowseArtifact,
            build_browse_artifact,
        )

        adj = pa.table(
            {
                "domain_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                "neighbor_id": pa.array([2, 3, 4, 5, 1, 3], pa.int64()),
                "relatedness": pa.array([0.9, 0.8, 0.7, 0.95, 0.5, 0.6]),
            }
        )
        doms = pa.table(
            {
                "domain_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "domain_name": pa.array(
                    [f"d{i}.example" for i in range(1, 6)], pa.string()
                ),
                "state": pa.array([0] * 5, pa.int64()),
                "domain_alias": pa.array([None] * 5, pa.int64()),
            }
        )
        shots = pa.table({"domain_id": pa.array([1, 2, 3, 5], pa.int64())})
        links = pa.table(
            {"src": pa.array([1], pa.int64()), "dst": pa.array([2], pa.int64())}
        )
        meta = pa.table(
            {
                "domain_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "known_urls": pa.array([1] * 5, pa.int64()),
            }
        )
        out = tmp_path / "art"
        build_browse_artifact(
            str(out),
            neighbors=ray.data.from_arrow(adj),
            links=ray.data.from_arrow(links),
            domains=ray.data.from_arrow(doms),
            meta=ray.data.from_arrow(meta),
            screenshots=ray.data.from_arrow(shots),
            n_buckets=4,
        )
        art = BrowseArtifact(str(out)).similar_domains(
            (1, 2), count=2, blacklist=(3,)
        )
        key = ["domain_id", "neighbor_id", "neighbor_name", "relatedness"]
        assert art.column_names == key
        assert [tuple(r.values()) for r in art.to_pylist()] == [
            (1, 5, "d5.example", 95),
            (1, 2, "d2.example", 90),
            (2, 1, "d1.example", 50),
        ]


class TestJournalBuild:
    @staticmethod
    def _journal(tmp_path, hosts, targets):
        """A converter-shaped journal (url, links): three pages per host,
        each linking to the front pages of ``targets(host_index)``."""
        import pyarrow.parquet as pq

        rows_url, rows_links = [], []
        for i, h in enumerate(hosts):
            for p in range(3):
                rows_url.append(f"https://{h}/p{p}")
                rows_links.append([f"https://{t}/" for t in targets(i)])
        jdir = tmp_path / "journal"
        jdir.mkdir()
        pq.write_table(
            pa.table(
                {
                    "url": pa.array(rows_url, pa.string()),
                    "links": pa.array(rows_links, pa.list_(pa.string())),
                }
            ),
            jdir / "part-0.parquet",
        )
        return jdir

    @pytest.fixture(scope="class")
    def clique_artifact(self, ray_session, tmp_path_factory):
        """A 20-host clique journal's artifact: (hosts, out dir, reader)."""
        from marginalia_ray.pipelines.browse_artifact import (
            BrowseArtifact,
            build_browse_from_journal,
        )

        tmp_path = tmp_path_factory.mktemp("clique")
        hosts = [f"h{i}.example" for i in range(20)]
        jdir = self._journal(
            tmp_path, hosts, lambda i: [h for j, h in enumerate(hosts) if j != i]
        )
        out = build_browse_from_journal(str(jdir), str(tmp_path / "browse"), n_buckets=4)
        return hosts, tmp_path / "browse", BrowseArtifact(out)

    def test_clique_journal_serves_relatedness(self, clique_artifact):
        """A 20-host clique yields real domain adjacencies, so the
        neighbors table is written from the ranked rows (not the empty
        schema): explorer_related reads its relatedness column."""
        import pyarrow.parquet as pq

        hosts, out, art = clique_artifact
        nb = pq.read_table(out / "neighbors")
        assert nb.num_rows > 0 and "relatedness" in nb.column_names
        rel = art.explorer_related("h0.example").to_pandas()
        assert set(rel["domain"]) == set(hosts[1:])
        assert (rel["relatedness"] > 0).all()

    def test_journal_artifact_similar_domains_raises(self, clique_artifact):
        """The journal carries no screenshots, so the artifact has no
        screenshots table and similar_domains raises a typed error for
        every probe, known or not."""
        from marginalia_ray.pipelines.browse_artifact import NoScreenshotData
        from marginalia_ray.functions.hashing import domain_id31

        hosts, out, art = clique_artifact
        assert not (out / "screenshots").exists()
        for probe in (hosts[0], "unknown.example"):
            with pytest.raises(NoScreenshotData, match="no screenshots table"):
                art.similar_domains([domain_id31(probe)], count=5)

    def test_build_from_journal(self, ray_session, tmp_path):
        """job.py --browse path: a hand-built journal (url, links) yields a
        servable artifact — domains/meta from urls, degrees from the link
        graph, neighbors from domain_adjacencies, site_info answerable."""
        from marginalia_ray.pipelines.browse_artifact import (
            BrowseArtifact,
            build_browse_from_journal,
        )
        from marginalia_ray.functions.hashing import domain_id31

        # each page links to the next two hosts' front pages
        hosts = [f"h{i}.example" for i in range(6)]
        jdir = self._journal(
            tmp_path, hosts, lambda i: [hosts[(i + 1) % 6], hosts[(i + 2) % 6]]
        )
        out = build_browse_from_journal(str(jdir), str(tmp_path / "browse"), n_buckets=4)
        art = BrowseArtifact(out)
        si = art.site_info("h0.example").to_pandas()
        assert len(si) == 1
        r = si.iloc[0]
        assert r["pages_known"] == 3 and r["pages_fetched"] == 3
        # every host links to h0? h4 and h5 link to h0 -> 2 distinct inbound
        assert r["incoming_links"] == 2 and r["outgoing_links"] == 2
        assert "h4.example" in r["linking_domains"] or "h5.example" in r["linking_domains"]
        # old_algo probe works end to end (may be empty, must not error)
        nb = art.old_algo_neighbors(domain_id31("h0.example"), count=5)
        assert set(nb.column_names) == {"domain_id", "domain_name"}


class TestExplorerRelatedParity:
    def _doms(self):
        rows = [
            (1, "a.example", 0, 1, None),
            (2, "b.example", 1, 0, None),
            (3, "c.example", 2, 1, None),
            (4, "d.example", 0, 2, 1),  # aliased to 1
            (5, "e.example", 0, 0, None),
            (6, "nodotname", 0, 1, None),
            (7, "g.example", 3, 1, None),
        ]
        return pa.table(
            {
                "domain_id": pa.array([r[0] for r in rows], pa.int64()),
                "domain_name": pa.array([r[1] for r in rows], pa.string()),
                "state": pa.array([r[2] for r in rows], pa.int64()),
                "indexed": pa.array([r[3] for r in rows], pa.int64()),
                "domain_alias": pa.array([r[4] for r in rows], pa.int64()),
            }
        )

    def _build(self, adj, tmp_path):
        from marginalia_ray.pipelines.browse_artifact import (
            BrowseArtifact,
            build_browse_artifact,
        )

        out = tmp_path / "art"
        build_browse_artifact(
            str(out),
            neighbors=ray.data.from_arrow(adj),
            links=ray.data.from_arrow(
                pa.table(
                    {"src": pa.array([1], pa.int64()), "dst": pa.array([2], pa.int64())}
                )
            ),
            domains=ray.data.from_arrow(self._doms()),
            meta=ray.data.from_arrow(
                pa.table(
                    {
                        "domain_id": pa.array(list(range(1, 8)), pa.int64()),
                        "known_urls": pa.array([1] * 7, pa.int64()),
                    }
                )
            ),
            n_buckets=4,
        )
        return BrowseArtifact(str(out))

    @pytest.mark.parametrize(
        "query", ["http://a.example/x", "d.example", "zzz.example"]
    )
    def test_parity(self, ray_session, tmp_path, query):
        adj = pa.table(
            {
                "domain_id": pa.array([1, 1, 1, 2, 5, 4], pa.int64()),
                "neighbor_id": pa.array([2, 5, 7, 1, 1, 6], pa.int64()),
                "relatedness": pa.array(
                    [0.505, 0.504999, 0.9, 0.505, 0.2, 0.8], pa.float64()
                ),
            }
        )
        # d.example aliases to a.example, and its own neighbor (nodotname)
        # fails the name filter, so both probes give the same rows
        rows = [
            ["g.example", "http://g.example/", 90, False, False, True],
            ["b.example", "http://b.example/", 51, True, True, False],
            ["e.example", "http://e.example/", 50, True, True, False],
        ]
        expect = {"http://a.example/x": rows, "d.example": rows, "zzz.example": []}
        art = self._build(adj, tmp_path).explorer_related(query).to_pandas()
        assert list(art.columns) == [
            "domain", "url", "relatedness", "has_more", "active", "indexed",
        ]
        assert art.values.tolist() == expect[query], f"{query}:\n{art}"


def test_bench_cache_dir_tracks_inputs(tmp_path):
    """The driver's cached browse artifact is keyed by its inputs: touching
    one parquet file it reads moves the cache directory."""
    import os

    import pyarrow.parquet as pq

    import __ray_entry__ as e

    for name in ("lineitem.parquet", "part.parquet"):
        pq.write_table(pa.table({"x": [1]}), tmp_path / name)
    before = e._browse_cache_dir(str(tmp_path))
    assert e._browse_cache_dir(str(tmp_path)) == before
    st = os.stat(tmp_path / "part.parquet")
    os.utime(tmp_path / "part.parquet", ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert e._browse_cache_dir(str(tmp_path)) != before
