"""Tokenizer / converter actor stage: pages -> index-journal rows.

The Ray-native equivalent of DocumentProcessor.process +
HtmlDocumentProcessorPlugin.createDetails + DocumentKeywordExtractor
(/root/reference/code/processes/converting-process/src/main/java/nu/marginalia/converting/processor/DocumentProcessor.java:41-136,
 .../plugin/HtmlDocumentProcessorPlugin.java:97-179).

This is a CALLABLE CLASS for `map_batches(TokenizerStage, concurrency=N)`:
model-ish state (term-frequency dict ref, compiled regexes, stopword set) is
created once per actor in __init__ (A1/A2 in SURVEY.md §2.3), per-batch work
is __call__.  Output schema is the journal table consumed by
marginalia_ray.index.build.build_index:
    (doc_id u64, doc_meta u64, term_hashes list<u64>, kw_metas list<u64>,
     url str, state str, lsh u64, length i64, title str, quality f64)

Doc identity: doc_id = domain_id<<32 | url_id with domain_id/url_id = 31-bit
murmur3 of the (lower-cased) strings — deterministic and shuffle-free, the
hash-as-identity design the reference already applies to terms (lexicon
readme).  At 10^12-doc scale the 32-bit url space must be partitioned per
index shard exactly as the reference partitions per index service.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from marginalia_ray.functions.hashing import (
    content_hash64,
    domain_id31,
    murmur3_64,
    term_hash,
)
from marginalia_ray.functions.lsh import lsh_of_words
from marginalia_ray.functions.urls import parse_url
from marginalia_ray.model.codecs import (
    DocumentFlags,
    WordFlags,
    encode_doc_meta,
    year_to_byte,
)
from marginalia_ray.stages.extract import extract_document
from marginalia_ray.stages.keywords import extract_keywords, meta_tags
from marginalia_ray.stages.sentences import extract_dld

DISQUALIFIED_STATES = ("LANGUAGE", "ROBOTS_NOINDEX", "LENGTH", "EMPTY", "IRRELEVANT")
# DocumentLengthLogic.validateLength semantics (ported formula:
# modifier * total_num_words < min).  The reference injects the minimum as
# config (@Named("min-document-length") = 250, ConverterModule.java:25) for
# real crawled pages; this repo's synthetic fixtures are an order shorter,
# so the default knob is corpus-scaled — override per stage for crawl data.
MIN_DOCUMENT_WORDS = 40


class TokenizerStage:
    """pages batch (url, html|text, lang, warc_ts) -> journal batch."""

    def __init__(self, dict_freqs_ref=None, doc_count: int = 11_820_118,
                 use_html: bool = True, min_document_words: int = MIN_DOCUMENT_WORDS):
        # per-actor state: broadcast TermFrequencyDict (A2) fetched once
        self.dict_freqs = ray.get(dict_freqs_ref) if dict_freqs_ref is not None else None
        self.doc_count = doc_count
        self.use_html = use_html
        self.min_document_words = min_document_words

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        # no lang column => None per row: the dictionary-agreement language
        # filter takes over in _process_one (M9)
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names else [None] * len(urls)
        htmls = batch["html"].to_pylist() if self.use_html and "html" in batch.column_names else None
        texts = batch["text"].to_pylist() if "text" in batch.column_names else None
        # optional raw HTTP header block per page (pubdate LastModified)
        hdrs = batch["headers"].to_pylist() if "headers" in batch.column_names else None

        out = {
            "doc_id": [], "doc_meta": [], "term_hashes": [], "kw_metas": [],
            "url": [], "state": [], "lsh": [], "length": [], "title": [],
            "description": [], "quality": [], "links": [], "flag_words": [],
            "top_words": [], "canonical": [], "body_hash": [],
        }

        for i, url in enumerate(urls):
            row = self._process_one(
                url,
                htmls[i] if htmls is not None else None,
                texts[i] if texts is not None else None,
                langs[i],
                hdrs[i] if hdrs is not None else "",
            )
            for k, v in row.items():
                out[k].append(v)

        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.uint64()),
                "doc_meta": pa.array(out["doc_meta"], pa.uint64()),
                "term_hashes": pa.array(out["term_hashes"], pa.list_(pa.uint64())),
                "kw_metas": pa.array(out["kw_metas"], pa.list_(pa.uint64())),
                "url": pa.array(out["url"], pa.string()),
                "state": pa.array(out["state"], pa.string()),
                "lsh": pa.array(out["lsh"], pa.uint64()),
                "length": pa.array(out["length"], pa.int64()),
                "title": pa.array(out["title"], pa.string()),
                "description": pa.array(out["description"], pa.string()),
                "quality": pa.array(out["quality"], pa.float64()),
                "links": pa.array(out["links"], pa.list_(pa.string())),
                "flag_words": pa.array(out["flag_words"], pa.list_(pa.string())),
                "top_words": pa.array(out["top_words"], pa.list_(pa.string())),
                "canonical": pa.array(out["canonical"], pa.string()),
                "body_hash": pa.array(out["body_hash"], pa.uint64()),
            }
        )

    def _process_one(
        self, url: str, html, text: str | None, lang: str, headers: str = ""
    ) -> dict:
        pu = parse_url(url)
        doc_id = (domain_id31(pu.fqdn) << 32) | (murmur3_64(url.encode("utf-8")) & 0xFFFF_FFFF)

        def disqualified(state: str) -> dict:
            return dict(
                doc_id=doc_id, doc_meta=0, term_hashes=[], kw_metas=[], url=url,
                state=state, lsh=0, length=0, title="", description="",
                quality=0.0, links=[], flag_words=[], top_words=[],
                canonical="", body_hash=0,
            )

        # M9 / LanguageFilter: a provided lang column is trusted (the crawl
        # pipeline already classified); absent/empty lang falls back to the
        # reference's dictionary-agreement check after the DLD is built.
        lang_known = bool(lang)
        if lang_known and lang not in ("en",):
            return disqualified("LANGUAGE")

        year = None
        q = 0.0
        links: list[str] = []
        length_modifier = 1.0
        generators: list[str] = []
        doc_flags = 0
        canonical = ""
        if html is not None:
            h = html.decode("utf-8", "replace") if isinstance(html, (bytes, bytearray)) else html
            # LanguageFilter.isBlockedUnicodeRange on the raw body
            # (HtmlDocumentProcessorPlugin.java:102) — runs before parsing
            from marginalia_ray.stages.langfilter import is_blocked_unicode

            if is_blocked_unicode(h):
                return disqualified("LANGUAGE")
            doc = extract_document(
                h, base_url=url, headers=headers, defer_summary=True
            )
            if doc.noindex:
                return disqualified("ROBOTS_NOINDEX")
            if not doc.should_index:
                # specialization.shouldIndex(url) == false (M17)
                return disqualified("IRRELEVANT")
            text = doc.text
            title = doc.title
            description = ""  # deferred: computed with important words below
            q = doc.quality
            features = doc.features
            fmt = doc.standard
            year = doc.pub_year  # M18: sniffed inside extract_document
            links = doc.links
            length_modifier = doc.length_modifier
            generators = doc.generators
            canonical = doc.canonical
            if "special:scripts" in features:
                doc_flags |= DocumentFlags.Javascript.bit
            doc_flags |= {
                "docs": DocumentFlags.GeneratorDocs.bit,
                "forum": DocumentFlags.GeneratorForum.bit,
                "wiki": DocumentFlags.GeneratorWiki.bit,
            }.get(doc.generator_type, 0)
        else:
            # M23 / PlainTextDocumentProcessorPlugin.java:60-120: title via
            # PlainTextLogic over the first 40 lines, quality pinned to -1,
            # pubdate pinned to 1993-01-01 (the plugin's fixed PubDate)
            from marginalia_ray.stages.langfilter import is_blocked_unicode
            from marginalia_ray.stages.plaintext import (
                first_n_lines,
                get_description,
                get_title,
            )

            if text and is_blocked_unicode(text):
                return disqualified("LANGUAGE")
            first_lines = first_n_lines(text or "", 40)
            title = get_title(pu.path, first_lines)[:128]
            description = get_description(first_lines)
            features = set()
            fmt = "PLAIN"
            doc_flags |= DocumentFlags.PlainText.bit
            q = -1.0
            year = 1993

        if not text:
            return disqualified("EMPTY")
        # cheap char prefilter: N words always span >= 2N-1 chars, so with
        # the modifier folded in this can only reject docs the word check
        # below would reject anyway (the word check needs
        # words >= min/modifier, hence chars >= 2*min/modifier - 1)
        if len(text) < 2 * self.min_document_words / length_modifier - 1:
            return disqualified("LENGTH")

        dld = extract_dld(text, title)
        # DocumentLengthLogic.validateLength (words, not characters)
        if length_modifier * dld.total_num_words < self.min_document_words:
            return disqualified("LENGTH")

        if not lang_known:
            # checkDocumentLanguage: dictionary agreement >= 0.1 or reject
            from marginalia_ray.stages.langfilter import dictionary_agreement

            if dictionary_agreement(dld) < 0.1:
                return disqualified("LANGUAGE")
        builder = extract_keywords(
            dld, pu.path, pu.fqdn, dict_freqs=self.dict_freqs, doc_count=self.doc_count
        )

        if html is not None and doc.summary_root is not None:
            # M19, reference order: description AFTER keyword extraction so
            # the SummarizingDOMFilter relevance re-rank sees the real
            # important words (HtmlDocumentProcessorPlugin.java:156-158)
            description = doc.summary_spec.get_summary(
                doc.summary_root, set(builder.important)
            )[:255]

        # topic categories (M20: category:food / category:crafts) need the
        # DLD, so they join the DOM features here
        from marginalia_ray.stages.features import topic_features

        features = features | topic_features(dld)

        # synthetic meta terms (M11): generator:* keywords included (M17)
        tags = meta_tags(
            pu.proto, pu.fqdn, pu.top_domain, pu.tld,
            generators=generators,
            fmt=fmt, features=features,
            has_js="special:scripts" in features,
            year=year,
        )
        # link keywords (M12, createLinkKeywords: links:<fqdn> + links:<domain>
        # for each foreign domain, HtmlDocumentProcessorPlugin.java:263-274)
        for link in links:
            lp = parse_url(link)
            if lp.fqdn != pu.fqdn:
                tags.add(f"links:{lp.fqdn.lower()}")
                tags.add(f"links:{lp.top_domain.lower()}")
        for t in sorted(tags):
            builder.add_synthetic(t)

        kws = builder.build()
        hashes, metas = [], []
        flag_mask = WordFlags.Subjects.bit | WordFlags.NamesWords.bit
        flag_words = []
        for w, m in zip(kws.words, kws.metas):
            th = term_hash(w)
            if th is not None:
                hashes.append(th)
                metas.append(m)
                if m & flag_mask:
                    flag_words.append(w)

        # DocumentMetadata: asl = round((words/sentences)/4) clamped to the
        # 2-bit field (DocumentLengthLogic.getEncodedAverageLength)
        n_sent = max(1, len(dld.sentences))
        doc_meta = encode_doc_meta(
            avg_sent_length=int(round((dld.total_num_words / n_sent) / 4.0)),
            year=year_to_byte(year) if year else 0,
            quality=int(-q) if q < 0 else 0,
            flags=doc_flags,
        )

        lsh = lsh_of_words(w for s in dld.sentences for w in s.words)

        return dict(
            doc_id=doc_id,
            doc_meta=doc_meta,
            term_hashes=hashes,
            kw_metas=metas,
            url=url,
            state="OK",
            lsh=lsh,
            length=dld.total_num_words,
            title=title,
            description=description,
            quality=q,
            links=links,
            flag_words=flag_words,
            top_words=sorted(builder.important),
            canonical=canonical,
            body_hash=content_hash64(text.encode("utf-8")),
        )


