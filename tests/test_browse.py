"""Browse/explore family: random domains, similar domains, explorer
related-domains, the old-algo cascade, site info, url-id browse, dating
session.

Reference semantics: DbBrowseDomainsRandom.java, DbBrowseDomainsSimilar
Cosine.java, ExplorerService.java, DbBrowseDomainsSimilarOldAlgo.java,
DomainInformationService.java, DatingSessionObject.java (see
ops/browse.py, pipelines/browse_artifact.py and query/dating.py
docstrings for line cites).  random_domains and browse_url_ids are
dataset ops; the neighbor queries and site info are served by
BrowseArtifact, built here from small hand-built tables.  The oracle
parity of every browse row is covered by tests/test_oracle.py via
__ray_entry__; these tests pin the unit-level semantics."""

import numpy as np
import pyarrow as pa
import pytest

import ray

from marginalia_ray.ops.browse import (
    browse_url_ids,
    random_domains,
    trim_url_junk,
)
from marginalia_ray.ops.dedup import _fmix64_vec
from marginalia_ray.pipelines.browse_artifact import (
    BrowseArtifact,
    build_browse_artifact,
)
from marginalia_ray.query.dating import (
    BrowseResult,
    DatingSession,
    find_viable_domain,
)


def _domains_table(rows):
    return pa.table(
        {
            "domain_id": pa.array([r[0] for r in rows], pa.int64()),
            "domain_name": pa.array([r[1] for r in rows], pa.string()),
            "state": pa.array([r[2] for r in rows], pa.int64()),
            "indexed": pa.array([r[3] for r in rows], pa.int64()),
            "domain_alias": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def _domains(rows):
    return ray.data.from_arrow(_domains_table(rows))


def _ids(ids):
    return pa.table({"domain_id": pa.array(ids, pa.int64())})


def _artifact(out_dir, neighbors, domains, *, links=None, meta=None, **tables):
    """A BrowseArtifact built from pa tables.  ``links`` and ``meta``
    default to one-row stubs (the similar-domains and explorer queries
    read neither); ``tables`` passes screenshots, crawl_queue and
    blacklist_names through."""
    if links is None:
        links = pa.table({"src": [1], "dst": [2]})
    if meta is None:
        meta = pa.table({"domain_id": [1], "known_urls": [1]})
    build_browse_artifact(
        str(out_dir),
        neighbors=ray.data.from_arrow(neighbors),
        links=ray.data.from_arrow(links),
        domains=ray.data.from_arrow(domains),
        meta=ray.data.from_arrow(meta),
        n_buckets=8,
        **{k: ray.data.from_arrow(t) for k, t in tables.items()},
    )
    return BrowseArtifact(str(out_dir))


DOMS = [
    # id, name, state, indexed, alias
    (1, "a.example", 0, 1, None),
    (2, "b.example", 1, 0, None),
    (3, "c.example", 2, 1, None),  # state >= 2: excluded from random
    (4, "d.example", 0, 2, 1),  # aliased: excluded from random
    (5, "e.example", 0, 0, None),
    (6, "nodotname", 0, 1, None),  # explorer name filter drops it
    (7, "g.example", 3, 1, None),  # inactive for explorer
]


class TestRandomDomains:
    def test_filters_and_deterministic_order(self, ray_session):
        domains = _domains(DOMS)
        sets = ray.data.from_arrow(
            pa.table(
                {
                    "domain_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
                    "domain_set": pa.array([0, 0, 0, 0, 0, 1, 0], pa.int64()),
                }
            )
        )
        got = random_domains(
            domains, sets, count=3, domain_set=0, blacklist=(5,), seed=9
        ).to_pandas()
        # eligible: 1, 2 (3 and 7 state>=2, 4 aliased, 5 blacklisted, 6 set 1)
        elig = np.array([1, 2], np.uint64)
        order = np.argsort(_fmix64_vec(elig ^ np.uint64(9)))
        expect = elig[order].astype(np.int64)
        assert got["domain_id"].tolist() == expect.tolist()

    def test_count_cap(self, ray_session):
        domains = _domains(DOMS)
        sets = ray.data.from_arrow(
            pa.table(
                {
                    "domain_id": pa.array([1, 2, 5], pa.int64()),
                    "domain_set": pa.array([0, 0, 0], pa.int64()),
                }
            )
        )
        got = random_domains(domains, sets, count=2, domain_set=0).to_pandas()
        assert len(got) == 2


# domain 1's neighbors: 2 (51 %), 5 (50 %), 7 (90 %)
ADJ = pa.table(
    {
        "domain_id": pa.array([1, 1, 1, 2, 5], pa.int64()),
        "neighbor_id": pa.array([2, 5, 7, 1, 1], pa.int64()),
        "relatedness": pa.array([0.505, 0.504999, 0.9, 0.505, 0.2], pa.float64()),
    }
)


@pytest.fixture(scope="module")
def adj_art(ray_session, tmp_path_factory):
    """ADJ over DOMS, with screenshots for domains 2, 5 and 7."""
    out = tmp_path_factory.mktemp("browse") / "adj"
    return _artifact(out, ADJ, _domains_table(DOMS), screenshots=_ids([2, 5, 7]))


class TestNeighborsView:
    def test_names_and_integer_percent(self, adj_art):
        # EC_NEIGHBORS_VIEW's names and ROUND(100 * cosine), as the two
        # relatedness queries serve them
        got = adj_art.similar_domains([1], count=5).to_pandas()
        by = got.set_index("neighbor_id")
        assert (got["domain_id"] == 1).all()
        assert by.loc[2, "neighbor_name"] == "b.example"
        # ROUND(100 * 0.505) = 51 (half away from zero), 0.504999 -> 50
        assert by.loc[2, "relatedness"] == 51
        assert by.loc[5, "relatedness"] == 50
        assert str(got["relatedness"].dtype) == "int64"
        # the probe resolves by its own name, a.example
        rel = adj_art.explorer_related("a.example").to_pandas().set_index("domain")
        assert rel.loc["b.example", "relatedness"] == 51
        assert rel.loc["e.example", "relatedness"] == 50
        assert str(rel["relatedness"].dtype) == "int64"


class TestSimilarDomains:
    def test_screenshot_blacklist_topk(self, adj_art):
        got = (
            adj_art.similar_domains([1], blacklist=(7,), count=1)
            .to_pandas()
            .sort_values("neighbor_id")
        )
        # neighbors of 1: 2 (51), 5 (50), 7 (90, blacklisted) -> top-1 = 2
        assert got["neighbor_id"].tolist() == [2]
        assert got["neighbor_name"].tolist() == ["b.example"]
        assert got["relatedness"].tolist() == [51]

    def test_screenshotless_neighbor_skipped(self, ray_session, tmp_path):
        art = _artifact(tmp_path / "art", ADJ, _domains_table(DOMS), screenshots=_ids([5]))
        got = art.similar_domains([1], count=5).to_pandas()
        assert got["neighbor_id"].tolist() == [5]


class TestExplorer:
    def test_trim_url_junk(self):
        # ExplorerService.trimUrlJunk
        assert trim_url_junk("https://x.com/path/y") == "x.com"
        assert trim_url_junk("http://x.com") == "x.com"
        assert trim_url_junk("x.com/") == "x.com"
        assert trim_url_junk("/rooted") == "/rooted"  # indexOf('/') == 0 kept

    def test_forward_reverse_union(self, adj_art):
        got = adj_art.explorer_related("http://a.example/x").to_pandas()
        # forward: 2, 5, 7; reverse: 2 (dup name, skipped), 5 (dup, skipped)
        assert got["domain"].tolist() == ["g.example", "b.example", "e.example"]
        assert got["relatedness"].tolist() == [90, 51, 50]
        # has_more fwd: does the neighbor appear as a probe side? 2 yes, 5 yes, 7 no
        by = got.set_index("domain")
        assert bool(by.loc["b.example", "has_more"])
        assert bool(by.loc["e.example", "has_more"])
        assert not bool(by.loc["g.example", "has_more"])
        # active: state in (0,1,2); g.example has state 3
        assert not bool(by.loc["g.example", "active"])
        assert bool(by.loc["b.example", "active"])
        # indexed > 0: e.example has indexed 0
        assert not bool(by.loc["e.example", "indexed"])

    def test_alias_following_and_name_filter(self, ray_session, tmp_path):
        # d.example aliases to 1, so probing it pulls 1's neighbors too;
        # nodotname (6) would be filtered had it appeared
        adj = pa.table(
            {
                "domain_id": pa.array([4, 1], pa.int64()),
                "neighbor_id": pa.array([6, 5], pa.int64()),
                "relatedness": pa.array([0.8, 0.3], pa.float64()),
            }
        )
        art = _artifact(tmp_path / "art", adj, _domains_table(DOMS))
        got = art.explorer_related("d.example").to_pandas()
        # probes {4, 1}: fwd neighbors 6 (no dot, dropped) and 5
        assert got["domain"].tolist() == ["e.example"]

    def test_unknown_domain_empty(self, adj_art):
        got = adj_art.explorer_related("zzz.example").to_pandas()
        assert len(got) == 0
        assert list(got.columns) == [
            "domain", "url", "relatedness", "has_more", "active", "indexed",
        ]


class TestBrowseUrlIds:
    def test_quality_and_known_urls_gates(self, ray_session):
        urls = ray.data.from_arrow(
            pa.table(
                {
                    "url_id": pa.array([10, 11, 12, 13], pa.int64()),
                    "domain_id": pa.array([1, 1, 2, 3], pa.int64()),
                    "domain_name": pa.array(
                        ["a.example", "a.example", "b.example", "c.example"],
                        pa.string(),
                    ),
                    "quality": pa.array([-5.0, -11.0, 0.0, 1.0], pa.float64()),
                }
            )
        )
        meta = ray.data.from_arrow(
            pa.table(
                {
                    "domain_id": pa.array([1, 2, 3], pa.int64()),
                    "known_urls": pa.array([10, 6000, 3], pa.int64()),
                }
            )
        )
        got = (
            browse_url_ids(urls, meta, url_ids=[10, 11, 12], max_known=5000)
            .to_pandas()
            .sort_values("url_id")
        )
        # 11 fails quality > -10; 12's domain fails known_urls < 5000;
        # 13 not requested
        assert got["url_id"].tolist() == [10]
        assert got["domain_name"].tolist() == ["a.example"]


class TestDatingSession:
    def r(self, i):
        return BrowseResult(f"http://d{i}/", i)

    def test_next_refills_25_and_pops_head(self):
        calls = []

        def provider(n):
            calls.append(n)
            return [self.r(i) for i in range(n)]

        s = DatingSession()
        first = s.next(provider)
        assert calls == [25]
        assert first == self.r(0)
        assert len(s.queue) == 24
        s.next(provider)
        assert calls == [25]  # no refill while non-empty

    def test_next_similar_prepends_and_trims(self):
        s = DatingSession()
        for i in range(100, 200):
            s.add_to_queue(self.r(i))  # addFirst each -> 199..100, cap 100
        assert len(s.queue) == 100

        def similar(domain_id, n):
            return [self.r(i) for i in range(n)]

        got = s.next_similar(1, similar)
        # each addFirst: last similar row (24) ends at the head
        assert got == self.r(24)
        # tail trimmed to MAX_QUEUE_SIZE before the poll
        assert len(s.queue) == 99

    def test_browse_forward_backward_history(self):
        s = DatingSession()
        a, b, c = self.r(1), self.r(2), self.r(3)
        s.browse_forward(a)
        assert s.current == a and not s.has_history()
        s.browse_forward(b)
        assert s.has_history() and s.recently_viewed[0] == a
        s.browse_backward(c)
        # current b pushed back onto the queue head
        assert s.queue[0] == b and s.current == c
        assert s.is_recent(a) and s.is_recent(c) and not s.is_recent(b)
        assert s.take_from_history() == a
        assert not s.has_history()

    def test_history_cap(self):
        s = DatingSession()
        for i in range(150):
            s.add_to_history(self.r(i))
        assert len(s.recently_viewed) == 100
        assert s.recently_viewed[0] == self.r(149)

    def test_find_viable_domain_skips(self):
        s = DatingSession()
        draws = iter([self.r(2), self.r(3)])

        def provider(n):
            return list(draws)

        shots = {3}
        got = find_viable_domain(
            s, self.r(1), provider, lambda d: d in shots
        )
        assert got == self.r(3)

    def test_find_viable_domain_exhausted_raises(self):
        s = DatingSession()
        with pytest.raises(RuntimeError):
            find_viable_domain(s, self.r(1), lambda n: [], lambda d: False)


class TestOldAlgoCascade:
    """Hand-built fixture driving all three stages deterministically
    (DbBrowseDomainsSimilarOldAlgo.java:29-134 semantics)."""

    @pytest.fixture(scope="class")
    def art(self, ray_session, tmp_path_factory):
        nb = pa.table(
            {
                "domain_id": pa.array([1, 1, 1], pa.int64()),
                "neighbor_id": pa.array([2, 3, 4], pa.int64()),
                "adj_idx": pa.array([1, 2, 3], pa.int64()),
            }
        )
        links = pa.table(
            {
                # probe 1 links to 5, 6; 7, 8 link to probe 1; 9 gives
                # every candidate except 4 one inbound link
                "src": pa.array([1, 1, 7, 8, 9, 9, 9, 9, 9, 9], pa.int64()),
                "dst": pa.array([5, 6, 1, 1, 2, 3, 5, 6, 7, 8], pa.int64()),
            }
        )
        doms = _domains_table(
            [(i, f"d{i}.example", 0, 1, None) for i in range(1, 10)]
        )
        meta = pa.table(
            {
                "domain_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
                "known_urls": pa.array([1, 1, 1, 1, 1, 1, 1, 99], pa.int64()),
                # rank: 6 beats 5 so the blacklisted row consumes the slot
                "rank": pa.array([9, 9, 9, 9, 2, 1, 5, 9], pa.int64()),
            }
        )
        out = tmp_path_factory.mktemp("browse") / "old_algo"
        return _artifact(out, nb, doms, links=links, meta=meta)

    def _run(self, art, **kw):
        return art.old_algo_neighbors(1, count=6, max_known=50, **kw).to_pandas()

    def test_all_stages_and_slot_consumption(self, art):
        got = self._run(art, blacklist=(6,))
        # q1: 2, 3 eligible (4 has no inbound link) -> n=2 < 6//2=3.
        # q2 shortfall 1: rank order [6, 5]; 6 is read (consumes the one
        # slot) but blacklisted -> nothing added, 5 never reached.
        # q3 shortfall 1: candidates {7 (ok), 8 (known_urls over cap)} -> 7.
        assert sorted(got["domain_id"].tolist()) == [2, 3, 7]

    def test_stage1_fills_no_fallback(self, art):
        got = self._run(art, blacklist=())
        # without the blacklist q2's slot admits 6; set reaches 3 = half,
        # so q3 never fires
        assert sorted(got["domain_id"].tolist()) == [2, 3, 6]


class TestCommands:
    def _r(self, i, url=None):
        return BrowseResult(url or f"http://d{i}.example/", i)

    def _browse(self, **kw):
        from marginalia_ray.query.commands import BrowseCommand

        defaults = dict(
            random_provider=lambda n, s: [self._r(i) for i in range(s * 10, s * 10 + 5)],
            similar_provider=lambda d, n: [self._r(d + 1), self._r(d + 2)],
            old_algo_provider=lambda d, n: [self._r(d + 2), self._r(d + 3)],
            domain_id_lookup=lambda w: 10 if w == "known.example" else None,
            has_screenshot=lambda i: True,
        )
        defaults.update(kw)
        return BrowseCommand(**defaults)

    def test_browse_random_and_sets(self):
        cmd = self._browse()
        got = cmd.process("browse:random")
        assert got.kind == "browse"
        assert [r.domain_id for r in got.payload] == [0, 1, 2, 3, 4]
        got2 = cmd.process("browse:random:2")
        assert [r.domain_id for r in got2.payload] == [20, 21, 22, 23, 24]

    def test_browse_related_supplements_and_dedups(self):
        cmd = self._browse()
        got = cmd.process("browse:known.example")
        # cosine gives 11, 12; thin (<25) -> union with old-algo {12, 13}
        assert [r.domain_id for r in got.payload] == [11, 12, 13]

    def test_browse_unknown_falls_through(self):
        assert self._browse().process("browse:nope.example") is None

    def test_browse_pattern_rejects(self):
        assert self._browse().process("browse me") is None
        assert self._browse().process("browse:bad_char!") is None

    def test_cleaner_screenshot_and_www_hash(self):
        from marginalia_ray.query.commands import browse_result_cleaner

        remove = browse_result_cleaner(lambda i: i != 3)
        a = BrowseResult("http://www.x.example/", 1)
        b = BrowseResult("http://x.example/", 2)  # same hash as a
        c = BrowseResult("http://sub.x.example/", 4)  # distinct hash
        d = BrowseResult("http://y.example/", 3)  # no screenshot
        assert not remove(a)
        assert remove(b)
        assert not remove(c)
        assert remove(d)

    def test_conversion_patterns(self):
        from marginalia_ray.query.commands import SearchUnitConversion

        c = SearchUnitConversion()
        assert c.try_conversion("3 kg in g") == "3,000 g"  # DecimalFormat grouping
        assert c.try_conversion("what is love") is None
        # eval: digits-only short-circuits, expressions evaluate
        assert c.try_eval("123") is None
        assert c.try_eval("2+3") == "5"
        assert c.try_eval("define:word") is None

    def test_evaluator_priority_and_fallback(self):
        from marginalia_ray.query.commands import (
            BangCommandAdapter,
            CommandEvaluator,
            ConvertCommand,
            DefinitionCommand,
            SiteListCommand,
        )

        ev = CommandEvaluator(
            browse=self._browse(),
            convert=ConvertCommand(),
            define=DefinitionCommand(lambda w: [f"def of {w}"]),
            site=SiteListCommand(
                domain_info_provider=lambda w: {"domain": w}
                if w == "known.example"
                else None,
                site_search_provider=lambda q: ["hit"],
                domain_id_lookup=lambda w: 7,
            ),
            search=lambda q: {"q": q},
        )
        assert ev.eval("browse:random").kind == "browse"
        assert ev.eval("3 kg in g").kind == "convert"
        assert ev.eval("define:word").kind == "define"
        site = ev.eval("site:known.example")
        assert site.kind == "site"
        assert site.payload["screenshot"] == "/screenshot/7"
        unknown = ev.eval("site:other.example")
        assert unknown.payload["info"]["suggest_for_crawling"]
        assert ev.eval("!g kittens").kind == "bang"
        fallback = ev.eval("plain words")
        assert fallback.kind == "search" and fallback.payload == {"q": "plain words"}


class TestSiteInfo:
    @pytest.fixture(scope="class")
    def site_info(self, ray_session, tmp_path_factory):
        doms = pa.table(
            {
                "domain_id": pa.array([1, 2, 3, 4], pa.int64()),
                "domain_name": pa.array(
                    ["a.example", "b.example", "c.example", "d.example"],
                    pa.string(),
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
        no_neighbors = pa.table(
            {
                "domain_id": pa.array([], pa.int64()),
                "neighbor_id": pa.array([], pa.int64()),
                "adj_idx": pa.array([], pa.int64()),
            }
        )
        out = tmp_path_factory.mktemp("browse") / "site"
        art = _artifact(
            out, no_neighbors, doms, links=links, meta=meta,
            crawl_queue=pa.table({"domain_name": pa.array(["b.example"], pa.string())}),
            blacklist_names=pa.table({"domain_name": pa.array(["c.example"], pa.string())}),
        )
        return art.site_info

    def test_counts_rank_and_linking_order(self, site_info):
        got = site_info("a.example").to_pandas()
        r = got.iloc[0]
        assert r["pages_known"] == 10 and r["pages_fetched"] == 8
        assert r["incoming_links"] == 3 and r["outgoing_links"] == 2
        # Math.round(10000 * (1 - 0.5)) / 100 = 50.0
        assert r["ranking"] == 50.0
        # linking domains by source id asc
        assert r["linking_domains"] == "b.example,c.example,d.example"
        assert not r["blacklisted"] and not r["in_crawl_queue"]
        assert not r["suggest_for_crawling"]  # visited > 0

    def test_queue_and_suggest_gate(self, site_info):
        r = site_info("b.example").to_pandas().iloc[0]
        # visited == 0 but in the crawl queue -> no suggestion
        assert bool(r["in_crawl_queue"]) and not r["suggest_for_crawling"]

    def test_blacklist_null_rank_and_meta_defaults(self, site_info):
        r = site_info("c.example").to_pandas().iloc[0]
        assert bool(r["blacklisted"])
        # IFNULL(RANK, 1) -> ranking 0.0; no metadata row -> 0 defaults
        assert r["ranking"] == 0.0
        assert r["pages_known"] == 0 and r["pages_fetched"] == 0
        assert bool(r["suggest_for_crawling"])  # 0 visited, not queued

    def test_unknown_domain(self, site_info):
        got = site_info("zzz.example").to_pandas()
        assert len(got) == 0
