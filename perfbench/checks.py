"""Output checks.  Each check takes plain data (and a search callable where it
must ask the index) and returns a list of failure messages, one per failed
item, so a run can count failures against what it attempted."""

from __future__ import annotations

from collections import Counter
from typing import Callable

# search(term) -> url_ids of the results, best first
Search = Callable[[str], list[int]]


def check_ingest(
    forward_doc_count: int,
    journal_ok_rows: int,
    samples: list[tuple[str, list[int]]],
    search: Search,
) -> list[str]:
    """The forward index holds every OK journal row; each sampled rare term
    returns exactly the url_ids of the kept pages that carry it (a page and
    its near-duplicate share one term)."""
    fails = []
    if forward_doc_count != journal_ok_rows:
        fails.append(f"forward doc_count {forward_doc_count} != journal OK rows {journal_ok_rows}")
    for term, want in samples:
        got = search(term)
        if sorted(got) != sorted(want):
            fails.append(f"{term}: got url_ids {sorted(got)}, want {sorted(want)}")
    return fails


def check_serve(
    batch_rows: list[tuple[int, int, int]],
    inproc: dict[int, list[int]],
) -> list[str]:
    """Batch results equal the in-process results row for row:
    (query_id, rank, url_id).  One failure per mismatching query."""
    by_q: dict[int, list[tuple[int, int]]] = {}
    for qid, rank, url in batch_rows:
        by_q.setdefault(qid, []).append((rank, url))
    fails = []
    for qid in sorted(set(inproc) | set(by_q)):
        want = list(enumerate(inproc.get(qid, [])))
        got = sorted(by_q.get(qid, []))
        if got != want:
            fails.append(f"query {qid}: batch {got[:3]}... != in-process {want[:3]}...")
    return fails


def expected_forward(base_url_ids: list[int], slices_url_ids: list[list[int]]) -> Counter:
    """Overwrite semantics: every url_id in a slice replaces all of its
    earlier copies."""
    live = Counter(base_url_ids)
    for ids in slices_url_ids:
        for u in set(ids):
            live.pop(u, None)
        live.update(ids)
    return live


def check_refresh(
    forward_url_ids: list[int],
    expected: Counter,
    replaced: dict[int, tuple[str, str]],
    search: Search,
) -> list[str]:
    """After the re-crawl merges: the forward index holds exactly the
    expected url_ids (so the doc count adds up), each replaced url once; its
    new body's rare term finds it and its old body's rare term does not.
    ``replaced`` maps url_id -> (old term, new term) for urls whose new body
    the converter kept."""
    fails = []
    got = Counter(forward_url_ids)
    if sum(got.values()) != sum(expected.values()):
        fails.append(f"doc count {sum(got.values())} != expected {sum(expected.values())}")
    elif got != expected:
        diff = (got - expected) + (expected - got)
        fails.append(f"forward url_ids differ from expected on {len(diff)} ids")
    for url_id, (old, new) in replaced.items():
        if got[url_id] != 1:
            fails.append(f"url_id {url_id} appears {got[url_id]} times")
        if url_id not in search(new):
            fails.append(f"{new} does not find url_id {url_id}")
        if url_id in search(old):
            fails.append(f"{old} still finds replaced url_id {url_id}")
    return fails
