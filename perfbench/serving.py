"""The query phases that run with no Ray session alive, in a fresh process
that imports only the engine.  Its memory and CPU time are then the
searcher's, not the harness's (which holds the crawl, the converter's memos
and a finished Ray driver).

    python -m perfbench.serving JOB OUT

JOB is a JSON file written by lifecycle.py:

    root          index root; its CURRENT build is served
    mix           [[class, query], ...]
    loop_queries  length of the measured closed loop
    fresh         [[build dir, [query, ...]], ...]: cold query sets, each
                  on a newly opened searcher of its build
    trace         0 or 1

serve   one closed-loop client, IndexSearcher.search_query over the mix.
        The first pass warms the postings cache and records the results
        the batch path must reproduce; the loop after it is measured.
        The resident set is read just before the searcher opens and after
        the loop.
fresh   each cold set on a newly opened searcher, after serve

Latency is the process's CPU time per query (``time.process_time``), which
counts pyarrow's pool threads; the wall time is recorded next to it.  OUT
receives the samples, the failures and, in a traced run, the spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from marginalia_ray.query.engine import IndexSearcher

from perfbench.trace import Tracer

# a traced run alternates untraced and traced blocks of this many loop
# queries, so the tracing overhead is measured in the same run
TRACE_BLOCK = 50


def rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmRSS in /proc/self/status")


class Serving:
    def __init__(self, job: dict):
        self.job = job
        self.trace = bool(job["trace"])
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self.out: dict = {}

    def timed(self, searcher, q: str) -> tuple[float, float] | None:
        """(CPU ms, wall ms) of one query, or None if it raised."""
        try:
            t, c = time.perf_counter(), time.process_time()
            searcher.search_query(q, limit_total=10)
            return (time.process_time() - c) * 1e3, (time.perf_counter() - t) * 1e3
        except Exception as e:  # noqa: BLE001
            self.failures.append((1, f"query {q!r}: {e!r}"))
            return None

    def serve(self) -> None:
        mix = self.job["mix"]
        rss_open = rss_mb()
        searcher = IndexSearcher(self.job["root"])
        inproc = {}
        self.attempted += len(mix)
        for qid, (_, q) in enumerate(mix):
            try:
                inproc[qid] = [r.url_id for r in searcher.search_query(q, limit_total=10)]
            except Exception as e:  # noqa: BLE001
                self.failures.append((1, f"query {q!r}: {e!r}"))
        n = self.job["loop_queries"]
        self.attempted += n
        cpu, wall = [], []
        by_class: dict[str, list[float]] = {c: [] for c, _ in mix}
        traced, plain = [], []
        for b in range(0, n, TRACE_BLOCK):
            on = self.trace and (b // TRACE_BLOCK) % 2 == 1
            with self.tracer.patched() if on else contextlib.nullcontext():
                for i in range(b, min(n, b + TRACE_BLOCK)):
                    cls, q = mix[i % len(mix)]
                    self.tracer.request = f"serve-{i}"
                    r = self.timed(searcher, q)
                    if r is None:
                        continue
                    cpu.append(r[0])
                    wall.append(r[1])
                    (traced if on else plain).append(r[0])
                    if not on:
                        by_class[cls].append(r[0])
        self.out.update(
            inproc=inproc, query_cpu_ms=cpu, query_wall_ms=wall, class_cpu_ms=by_class,
            traced_cpu_ms=traced, plain_cpu_ms=plain,
            rss_open_mb=rss_open, rss_served_mb=rss_mb(),
        )

    def fresh(self) -> None:
        cpu, wall = [], []
        with self.tracer.patched() if self.trace else contextlib.nullcontext():
            for k, (build_dir, queries) in enumerate(self.job["fresh"]):
                self.attempted += len(queries)
                searcher = IndexSearcher(build_dir)
                for i, q in enumerate(queries):
                    self.tracer.request = f"fresh-{k}-{i}"
                    r = self.timed(searcher, q)
                    if r is not None:
                        cpu.append(r[0])
                        wall.append(r[1])
        self.out.update(fresh_cpu_ms=cpu, fresh_wall_ms=wall)

    def result(self) -> dict:
        return dict(
            self.out, attempted=self.attempted, failures=self.failures,
            spans=self.tracer.spans, counts=self.tracer.counts,
        )


def main(argv: list[str]) -> int:
    job_path, out_path = argv
    with open(job_path) as f:
        s = Serving(json.load(f))
    s.serve()
    s.fresh()
    with open(out_path, "w") as f:
        json.dump(s.result(), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
