"""Tests for per-domain dedup (D3), link extraction (M12), PageRank (G6)."""

import numpy as np
import pyarrow as pa
import pytest

from marginalia_ray.stages.extract import extract_document, extract_links, parse_html


def test_extract_links_resolution_and_filtering():
    html = """<html><body>
    <a href="/rel/path">rel</a>
    <a href="https://other.example/x">abs</a>
    <a href="javascript:void(0)">js</a>
    <a href="mailto:x@y.z">mail</a>
    <a href="#frag">frag</a>
    <a href="https://other.example/x#sec">dup-with-frag</a>
    <iframe src="https://frames.example/f"></iframe>
    </body></html>"""
    links = extract_links(parse_html(html), "https://base.example/dir/page")
    assert "https://base.example/rel/path" in links
    assert "https://other.example/x" in links
    assert "https://frames.example/f" in links
    assert len([l for l in links if "other.example" in l]) == 1  # deduped
    assert not any("javascript" in l or "mailto" in l for l in links)


def test_extract_document_carries_links():
    html = '<html><body><p>Hello world text here.</p><a href="https://a.example/1">a</a></body></html>'
    doc = extract_document(html, base_url="https://b.example/")
    assert doc.links == ["https://a.example/1"]


def _journal_row(doc_id, url, state="OK", lsh=0, length=200, terms=(1, 2)):
    return {
        "doc_id": doc_id,
        "url": url,
        "state": state,
        "lsh": lsh,
        "length": length,
        "term_hashes": list(terms),
        "kw_metas": [0] * len(terms),
    }


def _journal_table(rows):
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], pa.uint64()),
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "state": pa.array([r["state"] for r in rows], pa.string()),
            "lsh": pa.array([r["lsh"] for r in rows], pa.uint64()),
            "length": pa.array([r["length"] for r in rows], pa.int64()),
            "term_hashes": pa.array([r["term_hashes"] for r in rows], pa.list_(pa.uint64())),
            "kw_metas": pa.array([r["kw_metas"] for r in rows], pa.list_(pa.uint64())),
        }
    )


def test_dedup_domain_group_shorter_path_wins():
    from marginalia_ray.pipelines.domain_stage import dedup_domain_group

    rows = [
        _journal_row(1, "https://d.example/a", lsh=0b1111),
        _journal_row(2, "https://d.example/a/much/longer/path", lsh=0b1110),  # hamming 1
        _journal_row(3, "https://d.example/other", lsh=0xFFFF_FFFF),  # far away
    ]
    out = dedup_domain_group(_journal_table(rows))
    states = out["state"].to_pylist()
    assert states == ["OK", "DISQUALIFIED_DUPLICATE", "OK"]
    assert out["term_hashes"][1].as_py() == []  # postings cleared


def test_dedup_requires_min_words():
    from marginalia_ray.pipelines.domain_stage import dedup_domain_group

    rows = [
        _journal_row(1, "https://d.example/a", lsh=1, length=50),
        _journal_row(2, "https://d.example/a/long", lsh=1, length=50),
    ]
    out = dedup_domain_group(_journal_table(rows))
    assert out["state"].to_pylist() == ["OK", "OK"]  # both under 100 words


def test_pagerank_orders_by_inlinks(ray_session):
    import ray.data

    from marginalia_ray.pipelines.domain_rank import pagerank

    # star graph: everyone links to hub (id 1)
    edges = [{"src": s, "dst": 1} for s in (2, 3, 4, 5)] + [{"src": 1, "dst": 2}]
    ranks = pagerank(ray.data.from_items(edges))
    assert set(ranks) == {1, 2, 3, 4, 5}
    # hub gets the best (lowest) rank byte
    assert ranks[1] <= min(ranks[s] for s in (3, 4, 5))
    assert all(1 <= v <= 255 for v in ranks.values())


def test_doc_id_domain_half_is_the_rankings_key(ray_session):
    """build_index looks a doc's rank up by codecs.domain_id_of(doc_id) in
    the rankings dict, so the converter's doc ids and the link graph's
    domain ids must agree for every host."""
    import ray.data

    from marginalia_ray.model.codecs import domain_id_of
    from marginalia_ray.pipelines.domain_rank import domain_edges, pagerank
    from marginalia_ray.stages.tokenizer import TokenizerStage

    urls = ["https://a.example/p", "https://b.example/q", "https://www.c.example/"]
    html = "<html><body><p>" + "plain words of text " * 30 + "</p></body></html>"
    out = TokenizerStage()(
        pa.table({"url": urls, "html": [html.encode()] * 3, "lang": ["en"] * 3})
    )
    doc_hosts = {
        u: domain_id_of(int(d))
        for u, d in zip(out["url"].to_pylist(), out["doc_id"].to_pylist())
    }
    # each host links to the next, so every host is a rankings key
    journal = ray.data.from_arrow(
        pa.table({"url": urls, "links": [[urls[(i + 1) % 3]] for i in range(3)]})
    )
    rankings = pagerank(domain_edges(journal))
    assert set(doc_hosts.values()) == set(rankings)
    assert len(rankings) == 3


def test_domain_rank_feeds_doc_metadata(ray_session, tmp_path):
    """Rank-encoded doc ids: better-ranked domains sort first in postings."""
    from marginalia_ray.pipelines.index_pipeline import run_index_pipeline
    from marginalia_ray.query.engine import IndexSearcher
    from marginalia_ray.sources.pages import pages_parquet

    pages = pages_parquet(300, cache_dir=str(tmp_path / "pages"))
    m = run_index_pipeline(
        pages, str(tmp_path / "idx"), n_shards=4, concurrency=2,
        dedup=True, rank_domains=True,
    )
    assert m["doc_count"] > 250
    s = IndexSearcher(tmp_path / "idx")
    res = s.search_words(["search"])
    assert len(res) > 0


def test_recrawl_dedup_keeps_first(ray_session):
    import pyarrow as pa

    from marginalia_ray.pipelines.domain_stage import dedup_recrawls_domain_group

    g = pa.table(
        {
            "doc_id": pa.array([10, 11, 10, 12, 11], pa.uint64()),
            "url": pa.array(["a", "b", "a", "c", "b"]),
            "state": pa.array(["OK"] * 5),
        }
    )
    out = dedup_recrawls_domain_group(g)
    assert out["doc_id"].to_pylist() == [10, 11, 12]
    assert out["url"].to_pylist() == ["a", "b", "c"]
