"""Self-tests of the benchmark: seeded generators, the metric contract with
BENCHMARK.json, and that every output check rejects a corrupted result.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import fnmatch
import json
from collections import Counter
from pathlib import Path

import pytest

from perfbench import checks, gen
from perfbench.lifecycle import plan, spec_metrics
from perfbench.spec import END_TO_END, MOVES, NOT_GATED, PER_LAYER, WORKLOADS
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small_crawl():
    return gen.crawl(5, 120)


def test_crawl_is_deterministic_per_seed(small_crawl):
    again = gen.crawl(5, 120)
    assert again.pages == small_crawl.pages
    assert gen.crawl(6, 120).pages != small_crawl.pages


def test_query_mix_and_cold_queries_are_deterministic(small_crawl):
    mix = gen.query_mix(5, small_crawl, 60)
    assert mix == gen.query_mix(5, small_crawl, 60)
    assert mix != gen.query_mix(6, small_crawl, 60)
    assert Counter(c for c, _ in mix) == {c: 10 for c in gen.QUERY_CLASSES}
    head = set(gen._vocab()[: gen.HEAD_TERMS])
    heads = Counter(sum(w in head for w in q.strip('"').split()) for c, q in mix if c == "phrase")
    assert heads == Counter(gen.PHRASE_HEADS[k % len(gen.PHRASE_HEADS)] for k in range(10))
    terms = [gen.rare_term(i) for i in range(50)]
    assert gen.cold_queries(5, terms, 40) == gen.cold_queries(5, terms, 40)
    assert gen.cold_queries(5, terms, 40) != gen.cold_queries(6, terms, 40)


def test_recrawl_slices_are_deterministic_and_well_formed(small_crawl):
    a = gen.recrawl_slices(5, small_crawl, 3, 8, 4)
    b = gen.recrawl_slices(5, small_crawl, 3, 8, 4)
    assert [(s.pages, s.replaced, s.added) for s in a] == [(s.pages, s.replaced, s.added) for s in b]
    base_urls = {p["url"] for p in small_crawl.pages}
    replaced = [u for s in a for u in s.replaced]
    assert len(replaced) == len(set(replaced)) == 24  # each url re-crawled once
    assert set(replaced) <= set(small_crawl.unique_url_idx)
    for s in a:
        assert len(s.pages) == len(s.replaced) + len(s.added)
        assert not set(s.added) & base_urls
        for url, (old, new) in s.replaced.items():
            assert old == gen.rare_term(small_crawl.unique_url_idx[url]) and old != new
            page = next(p for p in s.pages if p["url"] == url)
            assert new in page["text"] and old not in page["text"]


def test_every_per_layer_metric_moves_end_to_end_metrics():
    assert set(MOVES) == set(PER_LAYER)
    for name, moves in MOVES.items():
        for pattern in moves.split():
            assert fnmatch.filter([*END_TO_END, *NOT_GATED], pattern), (name, pattern)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_reported_names_and_units_follow_benchmark_json(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = END_TO_END if kind == "end_to_end" else PER_LAYER
    out = spec_metrics({k: 1.5 for k in units}, units)
    assert {k: v["unit"] for k, v in out.items()} == {m["name"]: m["unit"] for m in bench[kind]}
    with pytest.raises(ValueError):
        spec_metrics({k: 1.5 for k in list(units)[1:]}, units)


def test_tracer_extend_keeps_parent_links():
    a, b = Tracer(), Tracer()
    with a.span("x"):
        pass
    with b.span("outer"), b.span("inner"):
        pass
    a.extend(b.spans, [("r", "n", 2.0)])
    assert [s[3] for s in a.spans] == [-1, -1, 1]
    assert a.counted("n") == 2.0


def test_plan_is_fixed_work_per_workload():
    for w in WORKLOADS:
        assert plan(w, 8) == plan(w, 8)
    assert plan("refresh", 8).cycles > plan("serve", 8).cycles
    assert plan("serve", 8).loop_queries > plan("refresh", 8).loop_queries
    assert plan("serve", 8).batch_queries == plan("refresh", 8).batch_queries


# --- output checks: pass on a good result, fail on a corrupted one --------

def _search(table):
    return lambda term: table.get(term, [])


def test_check_ingest():
    index = {"rare1term": [11], "rare6term": [16, 17]}
    samples = [("rare1term", [11]), ("rare6term", [17, 16])]
    assert checks.check_ingest(40, 40, samples, _search(index)) == []
    assert len(checks.check_ingest(39, 40, samples, _search(index))) == 1
    lost_dup = dict(index, rare6term=[16])
    assert len(checks.check_ingest(40, 40, samples, _search(lost_dup))) == 1
    wrong = dict(index, rare1term=[12])
    assert len(checks.check_ingest(40, 40, samples, _search(wrong))) == 1


def test_check_serve():
    inproc = {0: [5, 6, 7], 1: [8], 2: []}
    rows = [(0, 0, 5), (0, 1, 6), (0, 2, 7), (1, 0, 8)]
    assert checks.check_serve(rows, inproc) == []
    swapped = [(0, 0, 6), (0, 1, 5), (0, 2, 7), (1, 0, 8)]
    assert len(checks.check_serve(swapped, inproc)) == 1
    assert len(checks.check_serve(rows[:-1], inproc)) == 1
    assert len(checks.check_serve(rows + [(2, 0, 9)], inproc)) == 1


def test_check_refresh():
    base = [1, 2, 3, 4]
    slices = [[2, 9], [3]]
    expected = checks.expected_forward(base, slices)
    assert expected == Counter({1: 1, 2: 1, 3: 1, 4: 1, 9: 1})
    replaced = {2: ("rare2term", "rare102term"), 3: ("rare3term", "rare103term")}
    index = {"rare102term": [2], "rare103term": [3], "rare2term": [], "rare3term": [7]}
    good = [1, 2, 3, 4, 9]
    assert checks.check_refresh(good, expected, replaced, _search(index)) == []
    # the old copy of a replaced url survived the delete
    assert checks.check_refresh(good + [2], expected, replaced, _search(index))
    # a document went missing
    assert checks.check_refresh([1, 2, 3, 9], expected, replaced, _search(index))
    # the old body's term still finds the replaced url
    stale = dict(index, rare2term=[2])
    assert len(checks.check_refresh(good, expected, replaced, _search(stale))) == 1
    # the new body's term does not find it
    lost = dict(index, rare103term=[])
    assert len(checks.check_refresh(good, expected, replaced, _search(lost))) == 1
