"""Seeded input generators: the crawl, the query mix, the cold query sets
and the re-crawl slices.  Every output is a pure function of its arguments,
so the same seed gives the same inputs; the engine only ever sees the
generated pages and query strings.

Pages come from the repo's synthetic crawl (`sources.pages.make_page`):
page ``i`` carries the unique term ``rare<i>term`` (near-duplicate rows,
``i % 40 == 7``, share their source's term), rows with ``i % 97 == 13`` are
non-English and rows with ``i % 101 == 17`` carry robots ``noindex``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from marginalia_ray.sources.pages import BASE_TS, _vocab, make_page

# Zipf head of the synthetic vocabulary: the terms every page is salted with
HEAD_TERMS = 26

QUERY_CLASSES = ("head_pair", "head_triple", "phrase", "exclude", "year", "rare_head")

# A phrase query's cost is set mostly by how many of its two words are head
# terms: warm, one head word made it about 3 times and two about 20 times as
# costly as none (measured on a 4-CPU host).  The k-th phrase of a mix takes
# that count from this cycle, in about the shares the adjacent word pairs of
# the crawl's text have (1/3, 1/2, 1/6), so the class mean does not move
# with how many costly phrases a seed happens to draw.
PHRASE_HEADS = (0, 1, 0, 1, 1, 2)


def is_near_dup(idx: int) -> bool:
    return idx % 40 == 7 and idx > 0


def rare_term(idx: int) -> str:
    """The page-unique term of page ``idx`` (a near-duplicate carries its
    source's term)."""
    return f"rare{idx - 1 if is_near_dup(idx) else idx}term"


def is_plain(idx: int) -> bool:
    """Page indices whose page is English, indexable and not a near-dup."""
    return idx % 97 != 13 and idx % 101 != 17 and not is_near_dup(idx)


@dataclass
class Crawl:
    seed: int
    pages: list[dict]
    # url -> page index, for urls that occur once in the crawl
    unique_url_idx: dict[str, int] = field(default_factory=dict)


def crawl(seed: int, n_pages: int) -> Crawl:
    """The base crawl: ``n_pages`` synthetic pages of seed ``seed``."""
    pages = [make_page(i, n_pages, seed) for i in range(n_pages)]
    seen: dict[str, int] = {}
    dups: set[str] = set()
    for i, p in enumerate(pages):
        if p["url"] in seen:
            dups.add(p["url"])
        seen[p["url"]] = i
    return Crawl(seed, pages, {u: i for u, i in seen.items() if u not in dups})


def _head_word(rng: random.Random) -> str:
    # Zipf-ranked head: low ranks dominate, as in web term streams
    head = _vocab()[:HEAD_TERMS]
    return head[min(HEAD_TERMS - 1, int(HEAD_TERMS ** rng.random()) - 1)]


def _distinct_head(rng: random.Random, k: int) -> list[str]:
    out: list[str] = []
    while len(out) < k:
        w = _head_word(rng)
        if w not in out:
            out.append(w)
    return out


def _phrase(rng: random.Random, pages: list[dict], heads: int) -> str:
    """Two adjacent words of a random page's extracted text, quoted, of
    which exactly ``heads`` are head terms."""
    head = set(_vocab()[:HEAD_TERMS])
    while True:
        words = pages[rng.randrange(len(pages))]["text"].split()
        if len(words) < 2:
            continue
        i = rng.randrange(len(words) - 1)
        a, b = words[i].strip(".,").lower(), words[i + 1].strip(".,").lower()
        if a.isalpha() and b.isalpha() and (a in head) + (b in head) == heads:
            return f'"{a} {b}"'


def query_mix(seed: int, c: Crawl, n: int) -> list[tuple[str, str]]:
    """``n`` (class, query string) pairs, the six classes in equal share,
    in seeded order.  Head terms repeat across the mix, so a searcher that
    keeps decoded postings serves most lookups from cache.  The equal shares
    are an assumption, not taken from any query log, so the benchmark gates
    each class's latency on its own rather than a mean over the mix."""
    rng = random.Random(seed * 7919 + 1)
    n_pages = len(c.pages)
    out = []
    for k in range(n):
        cls = QUERY_CLASSES[k % len(QUERY_CLASSES)]
        if cls == "head_pair":
            q = " ".join(_distinct_head(rng, 2))
        elif cls == "head_triple":
            q = " ".join(_distinct_head(rng, 3))
        elif cls == "phrase":
            heads = PHRASE_HEADS[k // len(QUERY_CLASSES) % len(PHRASE_HEADS)]
            q = _phrase(rng, c.pages, heads)
        elif cls == "exclude":
            a, b, x = _distinct_head(rng, 3)
            q = f"{a} {b} -{x}"
        elif cls == "year":
            q = f"{_head_word(rng)} year>{rng.randrange(1996, 2021)}"
        else:
            q = f"{rare_term(rng.randrange(n_pages))} {_head_word(rng)}"
        out.append((cls, q))
    rng.shuffle(out)
    return out


def cold_queries(seed: int, terms: list[str], n: int) -> list[str]:
    """A rare-term-heavy query set: mostly single page-unique terms, some
    paired with a head term.  Each rare term is a first touch on a fresh
    searcher's postings cache."""
    rng = random.Random(seed * 104729 + len(terms))
    out = []
    for k in range(n):
        t = terms[rng.randrange(len(terms))]
        out.append(t if k % 4 else f"{t} {_head_word(rng)}")
    return out


@dataclass
class Slice:
    """One re-crawl slice: replaced base urls with new bodies, plus new urls."""

    cycle: int
    pages: list[dict]
    # url -> (old rare term, new rare term) for the replaced urls
    replaced: dict[str, tuple[str, str]]
    # url -> rare term for urls new to the index
    added: dict[str, str]


def recrawl_slices(
    seed: int, c: Crawl, n_slices: int, n_replaced: int, n_added: int
) -> list[Slice]:
    """Seeded re-crawl slices.  Slice ``k`` re-fetches ``n_replaced`` base
    urls (each url at most once over all slices) with bodies drawn from a
    second seed, each body carrying a rare term no other page has, and adds
    ``n_added`` urls the crawl never had.  The split between re-fetched and
    new urls is an assumption, not measured from a real crawl."""
    rng = random.Random(seed * 15485863 + 3)
    body_seed = seed + 1_000_003
    n_base = len(c.pages)
    pool = sorted(
        i for u, i in c.unique_url_idx.items() if is_plain(i)
    )
    rng.shuffle(pool)
    taken = set(c.unique_url_idx) | {p["url"] for p in c.pages}
    next_body = n_base
    slices = []

    def body(url: str | None) -> tuple[dict, str]:
        nonlocal next_body
        while not is_plain(next_body):
            next_body += 1
        page = make_page(next_body, n_base, body_seed)
        term = rare_term(next_body)
        next_body += 1
        if url is not None:
            page["url"] = url
        return page, term

    for k in range(n_slices):
        pages, replaced, added = [], {}, {}
        for idx in pool[k * n_replaced : (k + 1) * n_replaced]:
            url = c.pages[idx]["url"]
            page, term = body(url)
            pages.append(page)
            replaced[url] = (rare_term(idx), term)
        while len(added) < n_added:
            page, term = body(None)
            if page["url"] in taken:
                continue
            taken.add(page["url"])
            pages.append(page)
            added[page["url"]] = term
        for j, p in enumerate(pages):
            p["warc_ts"] = BASE_TS + (k + 1) * 10**12 + j
        slices.append(Slice(k, pages, replaced, added))
    return slices
