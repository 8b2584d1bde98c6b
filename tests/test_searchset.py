"""S8/Q10: ranking search sets — personalized PageRank domain bitsets,
wire-format round trip, and query-engine filtering."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from marginalia_ray.index.build import build_index
from marginalia_ray.query.engine import IndexSearcher, SearchSpec, Subquery
from marginalia_ray.query.searchset import (
    RankingSearchSet,
    SearchSetAny,
    SmallSearchSet,
    build_ranking_search_set,
)
from marginalia_ray.sources.factors import make_factors_journal


class TestSetSemantics:
    def test_any(self):
        s = SearchSetAny()
        assert s.contains(42)
        assert s.contains_array(np.array([1, 2])).all()

    def test_small(self):
        s = SmallSearchSet([3, 5])
        assert s.contains(3) and not s.contains(4)
        np.testing.assert_array_equal(
            s.contains_array(np.array([3, 4, 5])), [True, False, True]
        )

    def test_empty_ranking_set_accepts_all(self):
        # RankingSearchSet.contains:58-63 — empty set => no restriction
        s = RankingSearchSet("RETRO")
        assert s.contains(99)
        assert s.contains_array(np.array([1])).all()

    def test_wire_format_roundtrip(self, tmp_path):
        s = RankingSearchSet("ACADEMIA", [7, 3, 1 << 20])
        p = tmp_path / "academia.dat"
        s.write(p)
        # big-endian int32 stream (DataOutputStream format)
        raw = np.frombuffer(p.read_bytes(), dtype=">i4")
        assert sorted(raw.tolist()) == [3, 7, 1 << 20]
        s2 = RankingSearchSet.load("ACADEMIA", p)
        assert s2.contains(7) and not s2.contains(8)

    def test_load_missing_file_empty(self, tmp_path):
        s = RankingSearchSet.load("RETRO", tmp_path / "nope.dat")
        assert s.contains(123)  # empty => accepts all


class TestPersonalizedBuild:
    @pytest.fixture()
    def journal(self, ray_session):
        # two communities: a* domains interlink, b* domains interlink,
        # one weak bridge; seeds in the a-community should rank a* on top
        rows = []
        domains = ["a0.x", "a1.x", "a2.x", "b0.x", "b1.x", "b2.x"]
        links = {
            "a0.x": ["a1.x", "a2.x"], "a1.x": ["a0.x", "a2.x"],
            "a2.x": ["a0.x", "a1.x", "b0.x"],
            "b0.x": ["b1.x", "b2.x"], "b1.x": ["b0.x", "b2.x"],
            "b2.x": ["b0.x", "b1.x"],
        }
        for d in domains:
            rows.append(
                {
                    "url": f"https://{d}/",
                    "links": [f"https://{t}/p" for t in links[d]],
                }
            )
        return ray.data.from_items(rows)

    def test_seeded_set_prefers_seed_community(self, journal):
        from marginalia_ray.functions.hashing import domain_id31

        s = build_ranking_search_set(journal, "RETRO", ["a0.x"], max_n=3)
        ids = {domain_id31(d) for d in ("a0.x", "a1.x", "a2.x")}
        got = {int(x) for x in s._sorted}
        assert len(got & ids) >= 2  # seed community dominates the top 3

    def test_reverse_build_runs(self, journal):
        s = build_ranking_search_set(journal, "SMALLWEB", ["b0.x"], max_n=2, reverse=True)
        assert len(s._sorted) == 2


class TestEngineFiltering:
    def test_search_set_restricts_results(self, ray_session, tmp_path):
        d = tmp_path / "idx"
        build_index(
            ray.data.from_arrow(make_factors_journal(with_domain=True)),
            d, n_shards=4, n_buckets=1,
        )
        s = IndexSearcher(d)
        spec = SearchSpec(
            subqueries=[Subquery(include=["3", "5", "2"], exclude=["4"])],
            limit_by_domain=10, limit_total=10, fetch_size=4000,
        )
        all_res = s.search(spec)
        assert all_res
        dom = all_res[0].domain_id
        spec.search_set = SmallSearchSet([dom])
        restricted = s.search(spec)
        assert restricted
        assert all(r.domain_id == dom for r in restricted)
        # empty ranking set = no restriction
        spec.search_set = RankingSearchSet("NONE")
        assert [r.url_id for r in s.search(spec)] == [r.url_id for r in all_res]
