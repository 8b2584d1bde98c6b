"""Driver-side spans around calls into the engine's public functions.

Spans are recorded by wrapping module attributes and class methods for the
duration of a ``Tracer.patched()`` block; nothing inside ``marginalia_ray``
changes.  Each span has a name, start, end, parent span and request id; all
of them stay in memory until ``Tracer.dump`` writes them out.  Code running
inside Ray workers is not wrapped (the wrappers live in this process only).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name).  An attribute path "Cls.meth" wraps a
# method on the class, so every instance sees it.
TARGETS = (
    ("marginalia_ray.stages.tokenizer", "extract_document", "stages.extract_document"),
    ("marginalia_ray.stages.tokenizer", "extract_dld", "stages.extract_dld"),
    ("marginalia_ray.stages.tokenizer", "extract_keywords", "stages.extract_keywords"),
    ("marginalia_ray.pipelines.index_pipeline", "build_index", "index.build_index"),
    ("marginalia_ray.index.build", "build_index", "index.build_index"),
    ("marginalia_ray.index.delete", "delete_docs", "index.delete_docs"),
    ("marginalia_ray.index.merge", "merge_builds", "index.merge_builds"),
    ("marginalia_ray.index.postings", "encode_run", "index.encode_run"),
    ("marginalia_ray.query.engine", "IndexSearcher.__init__", "index.segment_open"),
    ("marginalia_ray.query.parser", "parse_query", "query.parse"),
    ("marginalia_ray.query.engine", "IndexSearcher.expand_variants", "query.variants"),
    ("marginalia_ray.query.engine", "IndexSearcher.search", "query.search"),
    ("marginalia_ray.query.ranking", "score_keyword_set", "query.score"),
    ("marginalia_ray.index.segment", "ForwardIndex.lookup", "query.forward_lookup"),
    ("marginalia_ray.index.segment", "SegmentShardReader.postings", "query.decode"),
    ("marginalia_ray.index.segment", "SegmentShardReader.postings_overlap", "query.decode_skip"),
    ("marginalia_ray.query.engine", "IndexSearcher.postings", "query.postings"),
    ("marginalia_ray.query.engine", "IndexSearcher.postings_vs", "query.postings"),
)


class Tracer:
    """Span recorder.  ``spans`` holds (name, start, end, parent, request)
    tuples; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.request = ""
        # (request, name, value): per-call quantities such as the number of
        # candidates scored or the run bytes a build wrote
        self.counts: list[tuple[str, str, float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent, self.request))
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            n, t0, _, p, r = self.spans[i]
            self.spans[i] = (n, t0, time.perf_counter(), p, r)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if name == "query.score":
                # input width: candidates scored in this keyword set
                tracer.counts.append((tracer.request, "query.candidates_scored", args[0].shape[1]))
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if name in ("index.build_index", "index.delete_docs", "index.merge_builds"):
                # the build manifest lists every posting run it wrote
                tracer.counts.append((tracer.request, name + ".bytes",
                                      sum(r["bytes"] for r in out["runs"])))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every TARGETS entry; restore the originals on exit."""
        saved = []
        try:
            for mod_name, path, name in TARGETS:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def extend(self, spans: list, counts: list) -> None:
        """Append the spans and counts another Tracer recorded (the serving
        process's), keeping their parent links."""
        off = len(self.spans)
        self.spans += [(n, t0, t1, p + off if p >= 0 else -1, r) for n, t0, t1, p, r in spans]
        self.counts += [tuple(c) for c in counts]

    # --- aggregation -----------------------------------------------------
    def self_times(self, request_prefix: str = "") -> dict[str, float]:
        """Total self time (s) per span name over the requests whose id
        starts with ``request_prefix``: duration minus time covered by
        direct children."""
        child = defaultdict(float)
        for n, t0, t1, p, r in self.spans:
            if p >= 0 and t1 is not None:
                child[p] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (n, t0, t1, p, r) in enumerate(self.spans):
            if t1 is not None and r.startswith(request_prefix):
                out[n] += (t1 - t0) - child[i]
        return out

    def totals(self, request_prefix: str = "") -> dict[str, float]:
        """Total wall time (s) per span name, nested calls of the same name
        counted once (outermost only)."""
        out: dict[str, float] = defaultdict(float)
        for n, t0, t1, p, r in self.spans:
            if t1 is None or not r.startswith(request_prefix):
                continue
            if p >= 0 and self.spans[p][0] == n:
                continue
            out[n] += t1 - t0
        return out

    def calls(self, request_prefix: str = "", outermost: bool = False) -> dict[str, int]:
        """Call count per span name; ``outermost`` skips calls nested in a
        span of the same name."""
        out: dict[str, int] = defaultdict(int)
        for n, t0, t1, p, r in self.spans:
            if not r.startswith(request_prefix):
                continue
            if outermost and p >= 0 and self.spans[p][0] == n:
                continue
            out[n] += 1
        return out

    def counted(self, name: str, request_prefix: str = "") -> float:
        return sum(v for r, n, v in self.counts if n == name and r.startswith(request_prefix))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for n, t0, t1, p, r in self.spans:
                f.write(json.dumps({"name": n, "start": t0, "end": t1,
                                    "parent": p, "request": r}) + "\n")
