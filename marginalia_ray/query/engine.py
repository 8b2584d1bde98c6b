"""Query engine: Marginalia's keyword-search path over our segments.

Ports (semantics, not code) of:
  - SearchIndex.createQueries (query-head construction, rarest-first):
      /root/reference/code/services-core/index-service/src/main/java/nu/marginalia/index/index/SearchIndex.java:93-171
  - IndexQueryExecutor (fetchSize budget):
      .../svc/IndexQueryExecutor.java:14-38
  - IndexQueryService.executeSearch/evaluateSubqueries/omitQuery/selectBestResults:
      .../svc/IndexQueryService.java:122-282
  - IndexResultValuator.calculatePreliminaryScore (disqualification, flags):
      .../results/IndexResultValuator.java:54-170
  - IndexMetadataService term/coherence gathers: .../results/IndexMetadataService.java
  - ParamMatchingQueryFilter (forward-index param filter):
      /root/reference/code/features-index/index-forward/.../ParamMatchingQueryFilter.java:17-88
  - SearchTermsService term resolution rules (missing include => empty):
      .../svc/SearchTermsService.java:26-82
  - IndexResultDomainDeduplicator: .../results/IndexResultDomainDeduplicator.java

Candidate retrieval is vectorized: posting lists are sorted uint64 arrays;
retain (J3) = sorted intersection via np.searchsorted (galloping
equivalent); reject (J4) = sorted difference.  Every query head of a
subquery shares the reference's alsoFull/notFull filters, so their
conjunction over the full index is computed once per subquery and each
head is a boolean mask over it.  Scoring runs as one numpy pass over all
candidates (the reference scores with a parallel stream).

Lookups per query:
  - Doc frequencies: while one `search_query` (or a direct `search`) runs,
    each distinct (kind, term hash) is looked up in the shard's terms
    directory once and kept in a table that lives only for that call
    (`_query_scope`); parsing, variant expansion, term resolution,
    query-head ordering, the skip-decode choice and the valuator all read
    it.  Nothing is kept across queries.
  - Set operations: per subquery, one intersection per include after the
    rarest and one difference per exclude; the heads add one searchsorted
    per priority list.
  - The forward-index param filter runs only when the spec constrains
    something (domains, a search set, or a `SpecLimit` other than NONE),
    and then once per subquery, testing only the limits that are set.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from marginalia_ray.functions.hashing import term_hash
from marginalia_ray.index.segment import ForwardIndex, SegmentShardReader, read_manifest
from marginalia_ray.model.codecs import (
    FLAGS_FILTER_MASK,
    U64,
    WordFlags,
    doc_meta_quality,
    doc_meta_rank,
    doc_meta_size,
    doc_meta_year,
    url_id_of,
    word_meta_positions,
)
from marginalia_ray.query import ranking as R


@dataclass(frozen=True)
class SpecLimit:
    """SpecificationLimit.java — NONE/EQUALS/GREATER_THAN(>=)/LESS_THAN(<=)."""

    type: str = "NONE"
    value: int = 0

    @staticmethod
    def none():
        return SpecLimit()

    @staticmethod
    def eq(v):
        return SpecLimit("EQUALS", v)

    @staticmethod
    def ge(v):
        return SpecLimit("GREATER_THAN", v)

    @staticmethod
    def le(v):
        return SpecLimit("LESS_THAN", v)

    def test(self, vals: np.ndarray) -> np.ndarray:
        if self.type == "NONE":
            return np.ones(len(vals), dtype=bool)
        if self.type == "EQUALS":
            return vals == self.value
        if self.type == "GREATER_THAN":
            return vals >= self.value
        if self.type == "LESS_THAN":
            return vals <= self.value
        raise ValueError(self.type)


@dataclass
class Subquery:
    include: list[str]
    exclude: list[str] = dc_field(default_factory=list)
    advice: list[str] = dc_field(default_factory=list)
    priority: list[str] = dc_field(default_factory=list)
    coherences: list[list[str]] = dc_field(default_factory=list)


@dataclass
class SearchSpec:
    subqueries: list[Subquery]
    limit_by_domain: int = 10
    limit_total: int = 10
    fetch_size: int = 4000
    quality: SpecLimit = dc_field(default_factory=SpecLimit.none)
    year: SpecLimit = dc_field(default_factory=SpecLimit.none)
    size: SpecLimit = dc_field(default_factory=SpecLimit.none)
    rank: SpecLimit = dc_field(default_factory=SpecLimit.none)
    domains: list[int] = dc_field(default_factory=list)
    # S8/Q10: profile search set (query/searchset.py); None = SearchSetAny
    search_set: object | None = None
    query_strategy: str = "SENTENCE"
    ranking_params: R.RankingParams = dc_field(default_factory=R.RankingParams)


@dataclass
class SearchResult:
    combined_id: int  # rank-encoded id
    url_id: int
    ranking: int
    domain_id: int
    score: float
    has_priority_term: bool
    results_from_domain: int = 0


# ParamMatchingQueryFilter's doc-meta limits: (SearchSpec field, extractor)
_DOC_META_LIMITS = (
    ("quality", lambda metas: doc_meta_quality(metas).astype(np.int64)),
    ("year", doc_meta_year),
    ("size", doc_meta_size),
    ("rank", lambda metas: doc_meta_rank(metas).astype(np.int64)),
)


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask over `a`: which elements are present in sorted array `b`."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros(len(a), dtype=bool)
    idx = np.minimum(np.searchsorted(b, a), len(b) - 1)
    return b[idx] == a


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keep elements of `a` present in sorted array `b` (retain / semi-join)."""
    return a[_in_sorted(a, b)]


def _difference_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Drop elements of `a` present in sorted array `b` (reject / anti-join)."""
    return a[~_in_sorted(a, b)]


class IndexSearcher:
    """Reader + query evaluator over one index build directory.

    Single-process evaluator; the distributed path wraps one of these per
    actor holding a subset of shards (queries fan out and merge top-k)."""

    def __init__(self, build_dir: str | Path):
        build_dir = Path(build_dir)
        m = read_manifest(build_dir)
        if m is None:
            # given an index root: follow the CURRENT pointer (hot-swap
            # equivalent of SearchIndex.switchIndex)
            cur = build_dir / "CURRENT"
            if cur.exists():
                build_dir = build_dir / cur.read_text().strip()
                m = read_manifest(build_dir)
        self.build_dir = build_dir
        if m is None:
            raise FileNotFoundError(f"no MANIFEST.json in {build_dir}")
        self.doc_count = int(m["doc_count"])
        self.n_shards = int(m["n_shards"])
        self.forward = ForwardIndex(build_dir)
        self._full: dict[int, SegmentShardReader] = {}
        self._prio: dict[int, SegmentShardReader] = {}
        self._postings_cache: dict[tuple[str, int], tuple] = {}
        # (kind, term hash) -> doc frequency, only while a query runs
        self._query_dfs: dict[tuple[str, int], int] | None = None
        # A5: TermFrequencyDict for the query frontend — written by
        # run_index_pipeline(with_term_freq=True) next to the index root
        # (corpus-level, shared across builds like the journal).  Sorted
        # uint64 keys + counts: searchsorted lookup, no Python dict.
        self._tfreq: tuple[np.ndarray, np.ndarray] | None = None
        for p in (build_dir / "tfreq.parquet", build_dir.parent / "tfreq.parquet"):
            if p.exists():
                import pyarrow.parquet as pq

                t = pq.read_table(p)
                keys = t["term_key"].to_numpy().astype(np.uint64)
                vals = t["doc_freq"].to_numpy().astype(np.int64)
                order = np.argsort(keys)
                self._tfreq = (keys[order], vals[order])
                break

    def term_freq_dict(self, key: int) -> int:
        """TermFrequencyDict.wordRates.get — 0 when no dict was built."""
        if self._tfreq is None:
            return 0
        keys, vals = self._tfreq
        i = int(np.searchsorted(keys, np.uint64(key)))
        return int(vals[i]) if i < len(keys) and keys[i] == np.uint64(key) else 0

    # --- term access ---------------------------------------------------
    def _shard(self, kind: str, th: int) -> SegmentShardReader:
        cache = self._full if kind == "full" else self._prio
        s = th % self.n_shards
        if s not in cache:
            cache[s] = SegmentShardReader(self.build_dir, kind, s)
        return cache[s]

    def postings(self, kind: str, th: int):
        key = (kind, th)
        if key not in self._postings_cache:
            self._postings_cache[key] = self._shard(kind, th).postings(th)
        return self._postings_cache[key]

    # block-max skipping pays once a term's list is much longer than the
    # candidate buffer (each candidate touches at most one 128-posting block)
    SKIP_DECODE_FACTOR = 8

    def postings_vs(self, kind: str, th: int, cand: np.ndarray):
        """(ids, metas) for term `th` sufficient to intersect / reject /
        meta-gather against sorted candidates `cand`: the full (cached)
        list when it is short, else a block-max skip subset
        (SegmentShardReader.postings_overlap) that decodes only the blocks
        candidates can land in — the WAND-style skip path for hot terms.
        The choice reads the term's doc frequency from the running query's
        lookup table, so it costs no second terms-directory search."""
        key = (kind, th)
        if key in self._postings_cache:
            return self._postings_cache[key]
        df = self._doc_freq(kind, th)
        if df <= 1024 or df <= self.SKIP_DECODE_FACTOR * len(cand):
            return self.postings(kind, th)
        return self._shard(kind, th).postings_overlap(th, cand)

    def num_hits(self, th: int) -> int:
        """Full-index doc frequency of term `th`.  Inside a query it is read
        from, or added to, that query's lookup table (`_query_scope`), so
        each term's terms directory is searched once per query."""
        return self._doc_freq("full", th)

    def num_hits_prio(self, th: int) -> int:
        """Priority-index doc frequency of term `th`; see `num_hits`."""
        return self._doc_freq("prio", th)

    def _doc_freq(self, kind: str, th: int) -> int:
        dfs = self._query_dfs
        if dfs is None:
            return self._shard(kind, th).doc_freq(th)
        key = (kind, th)
        df = dfs.get(key)
        if df is None:
            df = dfs[key] = self._shard(kind, th).doc_freq(th)
        return df

    @contextlib.contextmanager
    def _query_scope(self):
        """Hold a per-query doc-frequency table for the duration of the
        block; a nested scope (search inside search_query) shares the
        outer one, and the outermost drops it on exit.  Entries are a pure
        function of the immutable build, so overlapping queries on one
        searcher that share or lose the table still get exact counts."""
        if self._query_dfs is not None:
            yield
            return
        self._query_dfs = {}
        try:
            yield
        finally:
            self._query_dfs = None

    # --- search --------------------------------------------------------
    def search(self, spec: SearchSpec) -> list[SearchResult]:
        with self._query_scope():
            candidates = self._evaluate_subqueries(spec)
            if len(candidates) == 0:
                return []
            results = self._score(spec, candidates)
            return self._select_best(spec, results)

    def search_words(
        self,
        include: list[str],
        exclude: list[str] | None = None,
        priority: list[str] | None = None,
        **spec_kwargs,
    ) -> list[SearchResult]:
        """Convenience: single-subquery keyword search over lowercased words
        (the form DocumentKeywordsBuilder stores)."""
        sq = Subquery(
            include=[w.lower() for w in include],
            exclude=[w.lower() for w in (exclude or [])],
            priority=[w.lower() for w in (priority or [])],
        )
        return self.search(SearchSpec(subqueries=[sq], **spec_kwargs))

    def search_query(
        self, raw: str, expand_variants: bool = True, **spec_kwargs
    ) -> list[SearchResult]:
        """Full query-string path: Q1/Q3 parser -> variant expansion (Q2)
        -> SearchSpec -> search, under one per-query doc-frequency table."""
        from marginalia_ray.query.parser import parse_query

        with self._query_scope():
            spec = parse_query(raw, **spec_kwargs)
            if expand_variants and spec.subqueries:
                spec.subqueries = self.expand_variants(spec.subqueries[0])
            return self.search(spec)

    MAX_VARIANTS = 5  # QueryFactory.trimArray retains the last 5 variants
    MAX_ALTERNATIVES = 6  # permuteQueriesNew caps faithful+alternative at 6

    def expand_variants(self, sq: Subquery) -> list[Subquery]:
        """Q2: the full QueryVariants path (query/variants.py) — POS-coerced
        span lattice, omittable-word/dash/digit re-spellings, compound joins
        and English word variants.  The index's own term directory stands in
        for the reference's NGramBloomFilter / TermFrequencyDict presence
        and frequency tests (QueryVariants.java:40-151); special `key:value`
        and quoted n-gram terms pass through untouched.  Variant order
        follows the reference: faithful (rarest first), then alternatives
        up to 6 total, then trimArray keeps the LAST 5."""
        from marginalia_ray.query.variants import QueryVariants
        from marginalia_ray.stages.langfilter import EN_DICT

        def _freq(w: str) -> float:
            th = term_hash(w)
            return float(self.num_hits(th)) if th is not None else 0.0

        if self._tfreq is not None:
            # the real TermFrequencyDict probes (QueryVariants.java:165,337):
            # getTermFreq hashes via getStringHash (stems multi-part strings),
            # getTermFreqStemmed hashes the already-stemmed bytes
            from marginalia_ray.functions.hashing import (
                term_freq_hash_stemmed,
                term_freq_hash_string,
            )

            def _tf(w: str) -> float:
                return float(self.term_freq_dict(term_freq_hash_string(w)))

            def _tf_stemmed(s: str) -> float:
                return float(self.term_freq_dict(term_freq_hash_stemmed(s)))
        else:
            # no dict built (with_term_freq=False): the index's surface-form
            # directory stands in.  Compound joins then fire only when
            # stem(a+b) equals an indexed surface form — reduced recall vs
            # the reference's stemmed table (documented, ADVICE r2).
            _tf, _tf_stemmed = _freq, _freq

        inc = sq.include
        plain = [w for w in inc if ":" not in w and "_" not in w]
        passthrough = [w for w in inc if ":" in w or "_" in w]
        if not plain:
            return [sq]

        qv = QueryVariants(
            is_known_ngram=lambda s: _freq(s) > 0,
            term_freq=_tf,
            term_freq_stemmed=_tf_stemmed,
            is_word=lambda w: (w in EN_DICT) or _freq(w) > 0,
        )
        vs = qv.get_query_variants(plain)
        variant_lists = list(vs.faithful)
        for alt in vs.alternative:
            if len(variant_lists) >= self.MAX_ALTERNATIVES:
                break
            variant_lists.append(alt)
        if not variant_lists:
            return [sq]

        subqueries = [
            Subquery(
                include=[w.lower() for w in terms] + passthrough,
                exclude=sq.exclude,
                advice=sq.advice,
                priority=sq.priority,
                coherences=sq.coherences,
            )
            for terms in variant_lists
        ]
        if len(subqueries) > self.MAX_VARIANTS:
            subqueries = subqueries[-self.MAX_VARIANTS :]
        return subqueries

    # evaluateSubqueries + createQueries + executeQuery
    def _evaluate_subqueries(self, spec: SearchSpec) -> np.ndarray:
        """Candidate ids, head by head, at most `fetch_size` in total (4x
        for a one-term subquery).

        Each subquery computes its full-index conjunction once, rarest
        include first: `conj` = the rarest full list, intersected with
        every other include's and stripped of every exclude's — the
        alsoFull/notFull filters the reference runs on each head.  A head
        is then a mask over `conj`: GOOD_i marks the ids in prio list P_i,
        BEST_ij = GOOD_i & GOOD_j, FALLBACK is all of `conj`.  Heads run in
        BEST, GOOD, FALLBACK order with the reference's omitQuery
        thresholds; an id a head considered (before the param filter and
        `room` truncation) is skipped by every later head and subquery."""
        out: list[np.ndarray] = []
        total = 0
        seen = np.zeros(0, dtype=U64)  # consideredUrlIds dedup (D2)
        param_filtered = self._constrains(spec)

        for sq in spec.subqueries:
            terms = self._resolve_terms(sq)
            if terms is None:
                continue
            includes, excludes = terms
            if not includes:
                continue

            ordered = sorted(set(includes), key=lambda t: (self.num_hits(t), includes.index(t)))
            conj, _ = self.postings("full", ordered[0])
            for t in ordered[1:]:  # alsoFull
                if len(conj) == 0:
                    break
                full_ids, _ = self.postings_vs("full", t, conj)
                conj = _intersect_sorted(conj, full_ids)
            for t in excludes:  # notFull
                if len(conj) == 0:
                    break
                ex_ids, _ = self.postings_vs("full", t, conj)
                conj = _difference_sorted(conj, ex_ids)
            if len(conj) == 0:
                continue

            ordered_prio = sorted(set(includes), key=lambda t: (self.num_hits_prio(t), includes.index(t)))
            good = [_in_sorted(conj, self.postings("prio", t)[0]) for t in ordered_prio]
            heads = [("BEST", good[i] & good[j]) for i in range(len(good)) for j in range(i + 1, len(good))]
            heads += [("GOOD", g) for g in good]
            heads.append(("FALLBACK", np.ones(len(conj), dtype=bool)))

            considered = _in_sorted(conj, seen)
            # forward-index param filter (memoized last in the reference)
            param_ok = self._param_filter(spec, conj) if param_filtered else None
            fetch_size = spec.fetch_size * (4 if len(ordered) == 1 else 1)
            for priority, mask in heads:
                # omitQuery (IndexQueryService.java:199-207)
                if priority == "GOOD" and total > spec.fetch_size // 4:
                    continue
                if priority == "FALLBACK" and total > spec.fetch_size // 256:
                    continue
                hit = mask & ~considered
                considered |= mask
                if param_ok is not None:
                    hit &= param_ok
                if not hit.any():
                    continue
                room = fetch_size - total
                if room <= 0:
                    break
                cand = conj[hit][:room]
                out.append(cand)
                total += len(cand)
            seen = np.union1d(seen, conj[considered])

        if not out:
            return np.zeros(0, dtype=U64)
        return np.concatenate(out)

    def _resolve_terms(self, sq: Subquery):
        """SearchTermsService.getSearchTerms: any missing include/advice term
        => empty subquery; missing excludes ignored."""
        includes = []
        for w in sq.include + sq.advice:
            th = term_hash(w)
            if th is None or self.num_hits(th) == 0:
                return None
            includes.append(th)
        excludes = []
        for w in sq.exclude:
            th = term_hash(w)
            if th is not None and self.num_hits(th) > 0:
                excludes.append(th)
        return includes, excludes

    @staticmethod
    def _constrains(spec: SearchSpec) -> bool:
        """Whether the param filter can reject anything: the spec names
        domains, a search set, or a doc-meta limit other than NONE."""
        return (
            bool(spec.domains)
            or spec.search_set is not None
            or any(getattr(spec, name).type != "NONE" for name, _ in _DOC_META_LIMITS)
        )

    def _param_filter(self, spec: SearchSpec, cand: np.ndarray) -> np.ndarray:
        """ParamMatchingQueryFilter over the forward index (J6); tests only
        the constraints the spec sets.  `_evaluate_subqueries` calls it
        only when `_constrains(spec)`."""
        url_ids = url_id_of(cand).astype(np.int64)
        metas, domains = self.forward.lookup(url_ids)
        ok = np.ones(len(cand), dtype=bool)
        if spec.domains:
            ok &= np.isin(domains, np.asarray(spec.domains, dtype=np.int64))
        if spec.search_set is not None:
            ok &= spec.search_set.contains_array(domains)
        for name, extract in _DOC_META_LIMITS:
            limit = getattr(spec, name)
            if limit.type != "NONE":
                ok &= limit.test(extract(metas))
        return ok

    # calculatePreliminaryScore, vectorized over all candidates
    def _score(self, spec: SearchSpec, cand: np.ndarray) -> dict:
        cand = np.sort(cand)
        n = len(cand)
        url_ids = url_id_of(cand).astype(np.int64)
        doc_metas, domain_ids = self.forward.lookup(url_ids)

        # distinct include-term variants across subqueries
        variants: list[list[str]] = []
        for sq in spec.subqueries:
            if sq.include not in variants:
                variants.append(sq.include)

        # all include terms + coherence + priority term ids
        def metas_for(th: int) -> np.ndarray:
            # J5 term-meta gather: block-max skip decode vs the candidates
            ids, metas = self.postings_vs("full", th, cand)
            if len(ids) == 0:
                return np.zeros(n, dtype=U64)
            idx = np.searchsorted(ids, cand)
            idx = np.minimum(idx, len(ids) - 1)
            hit = ids[idx] == cand
            return np.where(hit, metas[idx], U64(0))

        term_meta_cache: dict[int, np.ndarray] = {}

        def get_metas(w: str) -> np.ndarray:
            th = term_hash(w)
            if th is None:
                return np.zeros(n, dtype=U64)
            if th not in term_meta_cache:
                term_meta_cache[th] = metas_for(th)
            return term_meta_cache[th]

        # priority terms -> docs containing any (getResultsWithPriorityTerms)
        has_prio = np.zeros(n, dtype=bool)
        for sq in spec.subqueries:
            for w in sq.priority:
                has_prio |= get_metas(w) != 0
        prio_bonus = np.where(has_prio, 2.0, 0.0)  # PriorityTermBonus

        best_score = np.full(n, 10.0)  # ResultValuator bestScore init
        # the reference keeps, over strategy-ok variants, the max of each
        # variant's min flag / position count and disqualifies on 0: a doc
        # passes when some variant has a filter flag (or a position) on
        # every term
        has_flags = np.zeros(n, dtype=bool)
        has_positions = np.zeros(n, dtype=bool)
        any_all_synth = np.zeros(n, dtype=bool)

        params = spec.ranking_params
        for termlist in variants:
            wm = np.stack([get_metas(w) for w in termlist]) if termlist else np.zeros((0, n), dtype=U64)
            strategy_ok = self._strategy_ok(spec.query_strategy, wm)
            # raw word meta: FLAGS_FILTER_MASK's UrlDomain.bit is position
            # bit 0, so a term on the title line passes whatever its flags
            has_flags |= strategy_ok & ((wm & U64(FLAGS_FILTER_MASK)) != 0).all(axis=0)
            has_positions |= strategy_ok & (word_meta_positions(wm) != 0).all(axis=0)
            synth = (wm & U64(WordFlags.Synthetic.bit)) != 0  # (n_terms, n)
            any_all_synth |= strategy_ok & synth.all(axis=0)

            # ResultValuator.createKeywordSet: drop "special" keywords — the
            # term string contains ':' (always excluded) or the *per-doc*
            # word metadata has the Synthetic flag.  The per-doc exclusion
            # changes the set size, so group docs by their synthetic-bit
            # pattern (tiny cardinality) and score each pattern exactly.
            colon_free = [i for i, w in enumerate(termlist) if ":" not in w]
            if not colon_free:
                continue

            synth_bits = synth[colon_free]
            pattern = np.zeros(n, dtype=np.int64)
            for t in range(synth_bits.shape[0]):
                pattern |= synth_bits[t].astype(np.int64) << t

            tf_full_all, tf_prio_all = [], []
            for i in colon_free:
                th = term_hash(termlist[i])
                tf_full_all.append(self.num_hits(th) if th is not None else 0)
                tf_prio_all.append(self.num_hits_prio(th) if th is not None else 0)

            for pat in np.unique(pattern):
                rows = [t for t in range(len(colon_free)) if not (pat >> t) & 1]
                if not rows:
                    continue  # empty keyword set -> skip (isEmpty)
                if any("_" in termlist[colon_free[t]] for t in rows):
                    continue  # hasNgram() -> skip set
                docs = pattern == pat
                wm_reg = wm[[colon_free[t] for t in rows]][:, docs]
                score = R.score_keyword_set(
                    wm_reg,
                    np.asarray([tf_full_all[t] for t in rows], dtype=np.float64),
                    np.asarray([tf_prio_all[t] for t in rows], dtype=np.float64),
                    doc_metas[docs],
                    prio_bonus[docs],
                    self.doc_count,
                    length=5000,
                    params=params,
                )
                best_score[docs] = np.minimum(best_score[docs], score)

        # coherence (IndexMetadataService.TermMetadata.testCoherence)
        coherent = np.ones(n, dtype=bool)
        coherences = spec.subqueries[0].coherences if spec.subqueries else []
        for coh in coherences:
            overlap = np.full(n, (1 << 56) - 1, dtype=U64)
            for w in coh:
                overlap &= word_meta_positions(get_metas(w))
            coherent &= overlap != 0

        keep = coherent & (has_flags | any_all_synth | has_positions)  # else disqualified
        return {
            "cand": cand[keep],
            "url_ids": url_ids[keep],
            "domain_ids": domain_ids[keep],
            "score": best_score[keep],
            "has_prio": has_prio[keep],
        }

    @staticmethod
    def _strategy_ok(strategy: str, wm: np.ndarray) -> np.ndarray:
        n = wm.shape[1] if wm.ndim == 2 else 0
        if strategy in ("AUTO", "SENTENCE", "TOPIC"):
            return np.ones(n, dtype=bool)
        flag = {
            "REQUIRE_FIELD_SITE": WordFlags.Site,
            "REQUIRE_FIELD_SUBJECT": WordFlags.Subjects,
            "REQUIRE_FIELD_TITLE": WordFlags.Title,
            "REQUIRE_FIELD_URL": WordFlags.UrlPath,
            "REQUIRE_FIELD_DOMAIN": WordFlags.UrlDomain,
        }.get(strategy)
        if flag is None:
            return np.ones(n, dtype=bool)
        ok = np.ones(n, dtype=bool)
        # raw word meta: UrlDomain.bit is position bit 0, so
        # REQUIRE_FIELD_DOMAIN passes a term on the title line whatever
        # its flags (the encode quirk, kept)
        for t in range(wm.shape[0]):
            ok &= (wm[t] & U64(flag.bit)) != 0
        return ok

    # selectBestResults
    def _select_best(self, spec: SearchSpec, scored: dict) -> list[SearchResult]:
        """Sort + domain cap on arrays; SearchResult objects are built only
        for the picked rows (the reference sorts then caps,
        IndexResultSelector — identical ordering: lexsort and list.sort are
        both stable, and the pre-sort order is the same np.sort(cand))."""
        cand = scored["cand"]
        n = len(cand)
        if n == 0:
            return []
        url_ids = scored["url_ids"]
        domain_ids = scored["domain_ids"]
        score = scored["score"]
        has_prio = scored["has_prio"]
        rankings = (cand >> np.uint64(32)).astype(np.int64)

        order = np.lexsort((url_ids, rankings, score, ~has_prio))

        # results_from_domain counts EVERY scored result of the domain,
        # not just the picked ones (the reference increments before capping)
        uniq, tot = np.unique(domain_ids, return_counts=True)
        totals = dict(zip(uniq.tolist(), tot.tolist()))

        limit_dom = spec.limit_by_domain
        limit_total = spec.limit_total
        picked_idx: list[int] = []
        counts: dict[int, int] = {}
        for i in order.tolist():
            key = int(domain_ids[i])
            if key == -1:  # unknown domain -> deduplicationKey 0 -> passes
                picked_idx.append(i)
            else:
                c = counts.get(key, 0) + 1
                counts[key] = c
                if c <= limit_dom:
                    picked_idx.append(i)
            if len(picked_idx) >= limit_total:
                break
        picked = []
        for i in picked_idx:
            d = int(domain_ids[i])
            picked.append(
                SearchResult(
                    combined_id=int(cand[i]),
                    url_id=int(url_ids[i]),
                    ranking=int(rankings[i]),
                    domain_id=d,
                    score=float(score[i]),
                    has_priority_term=bool(has_prio[i]),
                    results_from_domain=totals.get(d, 1) if d != -1 else 1,
                )
            )
        return picked
