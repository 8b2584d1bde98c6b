"""One benchmark run: the engine's whole life on seeded inputs.

    set-up   generate crawl, query mix and re-crawl slices; convert the
             slices to journals (converter stage, in-process); start Ray
    ingest   run_index_pipeline(crawl, resume=False)               Ray up
    refresh  per cycle: build_index(slice journal), overwrite_merge into
             the live build, swap CURRENT, open a new IndexSearcher  Ray up
    batch    the query mix through query.batch.evaluate_queries    Ray up
    serve    in a fresh process (serving.py): one closed-loop client,
             IndexSearcher.search_query over the query mix        Ray down
    fresh    same process, after serve: per cycle, a cold rare-term query
             set on a newly opened searcher of the build that cycle made
             live                                                 Ray down
    checks   ingest (after ingest), serve and refresh outputs (checks.py)

Times of Ray phases are the host's busy CPU seconds (all processes, Ray's
daemons and short-lived workers included) and query latencies are the
serving process's CPU time: on a shared host both vary far less from run
to run than wall time.  Wall time less steal, raw wall time and each Ray
phase's CPU utilisation are reported next to them, ungated (utilisation
in traced runs), so a change that runs the same work on fewer workers
still shows there.

Every workload runs every phase, so every metric is measured on every
workload; the workload decides how much extra work its own phases get
(``plan``): ``serve`` a longer query loop, ``refresh``
more re-crawl cycles, each followed by cold queries on a new searcher.
Work is a fixed function of (workload, seconds), never of elapsed time, so
two commits do the same work on the same seed.

Run as ``python -m perfbench.lifecycle`` by perfbench/run.py, which owns
the wall-clock limit and process clean-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import checks, gen
from perfbench.spec import DROP_STATES, END_TO_END, PER_LAYER
from perfbench.trace import Tracer

# measured on a 4-CPU host: seconds per unit of work, used only to turn
# --seconds into fixed work counts
SEC_PER_CYCLE = 3.5
SEC_PER_QUERY = 0.002

# head terms are on nearly every kept page, so their lists pass the
# 1,024 postings above which IndexSearcher.postings_vs takes the block-max
# skip path (postings_overlap) for short candidate lists
CRAWL_PAGES = 2000
MIX_QUERIES = 3000         # 500 per class
# Newly opened searchers over all cycles, and cold queries on each.  The
# costliest cold queries are a searcher's first touches of its shards and of
# the largest head-term lists, about 1% of them; the p99 sits among those,
# and 16 searchers (4,000 queries) steadied it where 8 moved by up to 15%
# from run to run.
FRESH_SEARCHERS = 16
FRESH_PER_SEARCHER = 250
SLICE_REPLACED = 40
SLICE_ADDED = 20
INGEST_CHECK_SAMPLES = 24
TOKBENCH_PAGES = 160       # in-process converter sample (traced runs)
# one converter batch per file: the pipeline's actor pool then gets equal
# bundles, and ingest time did not jump between runs by how they fell
PAGES_PER_FILE = 256
OP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Plan:
    cycles: int
    batch_queries: int
    loop_queries: int


def plan(workload: str, seconds: int) -> Plan:
    """Fixed work per phase: every workload does the least work that still
    yields every metric, and its own phases get the --seconds budget on
    top.  Query counts are whole passes over the mix, so every query of
    the mix weighs the same."""
    passes = max(1, round(0.5 * seconds / (MIX_QUERIES * SEC_PER_QUERY)))
    # one pass over the mix in the loop and one in the batch: a class mean
    # moves from seed to seed with the queries drawn, so distinct queries
    # steady it where repeating the same ones would not
    p = Plan(cycles=2, batch_queries=MIX_QUERIES, loop_queries=MIX_QUERIES)
    if workload == "serve":
        return replace(p, loop_queries=p.loop_queries + passes * MIX_QUERIES)
    if workload == "refresh":
        return replace(p, cycles=p.cycles + round(seconds / SEC_PER_CYCLE))
    raise ValueError(f"unknown workload {workload!r}")


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""

    def fire(signum, frame):
        raise TimeoutError(f"timed out after {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(np.ceil(q / 100 * len(s))) - 1))
    return s[k]


def spec_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """The result's metrics block: every metric named in ``units`` (name ->
    unit), with its unit."""
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} disagree with the spec")
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def cpu_times() -> tuple[float, float, float]:
    """(busy, steal, total) CPU seconds of the host so far, over all CPUs,
    from /proc/stat.  Busy is user, nice, system, irq and softirq; it leaves
    out steal, the time the hypervisor gave to other guests, so on a shared
    host it varies far less than wall time, and it covers Ray's daemons and
    short-lived workers, which per-process accounting loses when they exit."""
    with open("/proc/stat") as f:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(x) for x in f.readline().split()[1:9])
    hz = os.sysconf("SC_CLK_TCK")
    busy = user + nice + system + irq + softirq
    return busy / hz, steal / hz, (busy + idle + iowait + steal) / hz


def host_cpus() -> int:
    with open("/proc/stat") as f:
        return sum(1 for line in f if line[:3] == "cpu" and line[3].isdigit())


class PhaseClock:
    """Times one phase: ``cpu_s`` is the host's busy CPU seconds, ``s`` wall
    time less steal (the host's non-stolen CPU seconds over all its CPUs,
    divided by their count), ``wall_s`` raw wall time, and ``utilisation``
    busy over non-stolen CPU seconds."""

    ncpu = host_cpus()

    def __enter__(self):
        self._t, self._c = time.perf_counter(), cpu_times()
        return self

    def __exit__(self, *exc):
        busy, steal, total = (b - a for a, b in zip(self._c, cpu_times()))
        self.wall_s = time.perf_counter() - self._t
        self.cpu_s = busy
        self.s = (total - steal) / self.ncpu
        self.utilisation = busy / (total - steal)
        return False


def pages_table(pages: list[dict]) -> pa.Table:
    return pa.table({
        "url": pa.array([p["url"] for p in pages], pa.string()),
        "warc_ts": pa.array([p["warc_ts"] for p in pages], pa.timestamp("us")),
        "html": pa.array([p["html"] for p in pages], pa.binary()),
        "text": pa.array([p["text"] for p in pages], pa.string()),
        "lang": pa.array([p["lang"] for p in pages], pa.string()),
    })


def convert_in_process(table: pa.Table) -> pa.Table:
    """The converter stage called directly, in the pipeline's batch size."""
    from marginalia_ray.stages.tokenizer import TokenizerStage

    stage = TokenizerStage()
    return pa.concat_tables(
        [stage(table.slice(i, 256)) for i in range(0, table.num_rows, 256)]
    )


def dir_bytes(d: Path) -> int:
    return sum(f.stat().st_size for f in d.rglob("*") if f.is_file())


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.work = Path(args.work)
        self.ray_tmp = args.ray_tmp
        self.plan = plan(args.workload, args.seconds)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.fail_log: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.host: dict = {"phases": {}}
        self.layer: dict[str, float] = {}
        # ungated figures printed next to the metrics
        self.info: dict[str, float] = {}
        self.ncpu = len(os.sched_getaffinity(0))
        self.t0 = time.perf_counter()
        self.cpu0 = cpu_times()

    # --- bookkeeping -----------------------------------------------------
    def fail(self, n: int, msg: str) -> None:
        self.failed += n
        self.fail_log.append(msg)
        print(f"FAIL ({n}): {msg}", file=sys.stderr, flush=True)

    def phase(self, name: str) -> None:
        import ray

        now = time.perf_counter()
        self.host["phases"][name] = {"ray_alive": ray.is_initialized(),
                                     "at_s": round(now - self.t0, 2)}

    def traced(self):
        return self.tracer.patched() if self.trace else contextlib.nullcontext()

    # --- engine ------------------------------------------------------------
    def start_engine(self) -> float:
        """ray.init with the host's CPU count, then prove a worker can
        import the engine (a worker that cannot would otherwise be retried
        by Ray Data without an error reaching the driver).  Workers inherit
        PYTHONPATH, which run.py sets to the checkout root."""
        import ray
        import ray.data

        t = time.perf_counter()
        root = str(Path(__file__).resolve().parent.parent)
        ray.init(
            num_cpus=self.ncpu,
            include_dashboard=False,
            object_store_memory=512 * 2**20,
            _temp_dir=self.ray_tmp,
            log_to_driver=False,
            logging_level="ERROR",
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False

        @ray.remote(max_retries=0)
        def probe():
            import marginalia_ray.stages.tokenizer as m

            return m.__file__

        with time_limit(60):
            where = ray.get(probe.remote())
        if not where.startswith(root):
            raise RuntimeError(f"Ray worker imported marginalia_ray from {where}, not {root}")
        self.host["ray_num_cpus"] = ray.cluster_resources().get("CPU")
        return time.perf_counter() - t

    @staticmethod
    def stop_engine() -> None:
        import ray

        ray.shutdown()

    # --- set-up ------------------------------------------------------------
    def setup(self) -> None:
        t = time.perf_counter()
        p = self.plan
        self.crawl = gen.crawl(self.seed, CRAWL_PAGES)
        self.mix = gen.query_mix(self.seed, self.crawl, MIX_QUERIES)
        self.slices = gen.recrawl_slices(self.seed, self.crawl, p.cycles, SLICE_REPLACED, SLICE_ADDED)
        self.pages_dir = self.work / "pages"
        self.pages_dir.mkdir(parents=True)
        pages = self.crawl.pages
        for i in range(0, len(pages), PAGES_PER_FILE):
            pq.write_table(pages_table(pages[i : i + PAGES_PER_FILE]),
                           self.pages_dir / f"part-{i // PAGES_PER_FILE:04d}.parquet")
        self.slice_journals = []
        for s in self.slices:
            d = self.work / f"slice-{s.cycle}" / "journal"
            d.mkdir(parents=True)
            j = convert_in_process(pages_table(s.pages))
            j = j.filter(pc.equal(j["state"], "OK"))
            pq.write_table(j, d / "part-0.parquet")
            self.slice_journals.append(d)
        self.host["setup_local_s"] = time.perf_counter() - t
        self.host["engine_start_s"] = self.start_engine()

    # --- phases ------------------------------------------------------------
    def ingest(self) -> None:
        from marginalia_ray.pipelines import index_pipeline

        self.phase("ingest")
        self.root = self.work / "idx"
        self.attempted += CRAWL_PAGES
        try:
            with time_limit(OP_TIMEOUT_S), self.traced():
                self.tracer.request = "ingest"
                with PhaseClock() as clock, self.tracer.span("pipelines.run_index_pipeline"):
                    self.manifest = index_pipeline.run_index_pipeline(
                        str(self.pages_dir), str(self.root), resume=False)
        except Exception as e:
            self.fail(CRAWL_PAGES, f"ingest: {e!r}")
            raise
        self.samples["ingest_docs_per_cpu_s"] = [CRAWL_PAGES / clock.cpu_s]
        self.info["ingest_docs_per_s"] = CRAWL_PAGES / clock.s
        self.info["ingest_docs_per_wall_s"] = CRAWL_PAGES / clock.wall_s
        self.layer["pipelines.ingest_utilisation"] = clock.utilisation
        build = self.root / "build-0"
        self.samples["index_bytes_per_doc"] = [dir_bytes(build) / self.manifest["doc_count"]]
        self.check_ingest()

    def check_ingest(self) -> None:
        from marginalia_ray.query.engine import IndexSearcher

        j = pq.read_table(self.root / "journal", columns=["url", "doc_id"])
        self.base_url_ids = [d & 0xFFFFFFFF for d in j["doc_id"].to_pylist()]
        url_id = dict(zip(j["url"].to_pylist(), self.base_url_ids))
        # carriers of each rare term among kept pages with crawl-unique urls
        carriers: dict[str, list[int]] = {}
        ambiguous = set()
        for i, p in enumerate(self.crawl.pages):
            term = gen.rare_term(i)
            if p["url"] not in self.crawl.unique_url_idx:
                ambiguous.add(term)
            elif p["url"] in url_id:
                carriers.setdefault(term, []).append(url_id[p["url"]])
        terms = sorted(t for t in carriers if t not in ambiguous)
        rng = random.Random(self.seed)
        pairs = [t for t in terms if len(carriers[t]) > 1]
        sample = rng.sample(terms, min(INGEST_CHECK_SAMPLES, len(terms)))
        sample += rng.sample(pairs, min(4, len(pairs)))
        searcher = IndexSearcher(self.root)
        fails = checks.check_ingest(
            int(self.manifest["doc_count"]), j.num_rows,
            [(t, carriers[t]) for t in sample],
            lambda term: [r.url_id for r in searcher.search_words([term])],
        )
        self.attempted += len(sample) + 1
        for f in fails:
            self.fail(1, f"ingest check: {f}")

    def refresh(self) -> None:
        import ray.data

        from marginalia_ray.index import build, delete
        from marginalia_ray.index.segment import set_current
        from marginalia_ray.pipelines.index_pipeline import JOURNAL_COLS
        from marginalia_ray.query.engine import IndexSearcher

        self.phase("refresh")
        live = "build-0"
        cycles: list[PhaseClock] = []
        self.slice_url_ids: list[list[int]] = []
        self.replaced: dict[int, tuple[str, str]] = {}
        # (build, rare terms of its live pages) per cycle, queried once Ray is down
        self.fresh_sets: list[tuple[Path, list[str]]] = []
        live_base = {i for i in range(CRAWL_PAGES) if gen.is_plain(i)}
        for s, jdir in zip(self.slices, self.slice_journals):
            self.attempted += 1
            out = f"build-{s.cycle + 1}"
            sdir = jdir.parent / "build"
            try:
                with time_limit(OP_TIMEOUT_S), self.traced():
                    self.tracer.request = f"refresh-{s.cycle}"
                    with PhaseClock() as clock:
                        build.build_index(ray.data.read_parquet(str(jdir), columns=JOURNAL_COLS), sdir)
                        delete.overwrite_merge(self.root / live, sdir, self.root / out)
                        set_current(self.root, out)
                        IndexSearcher(self.root)
                    cycles.append(clock)
            except Exception as e:  # noqa: BLE001
                self.fail(1, f"refresh cycle {s.cycle}: {e!r}")
                continue
            shutil.rmtree(sdir)
            live = out
            j = pq.read_table(jdir, columns=["url", "doc_id"])
            ids = [d & 0xFFFFFFFF for d in j["doc_id"].to_pylist()]
            self.slice_url_ids.append(ids)
            kept = dict(zip(j["url"].to_pylist(), ids))
            for url, terms in s.replaced.items():
                if url in kept:
                    self.replaced[kept[url]] = terms
            # cold queries ask for pages the live build should hold: this
            # slice's new bodies and base pages no slice has replaced
            live_base -= {self.crawl.unique_url_idx[u] for u in s.replaced}
            terms = [t for _, t in s.replaced.values()] + list(s.added.values())
            terms += [gen.rare_term(i) for i in sorted(live_base)]
            self.fresh_sets.append((self.root / out, terms))
        if not cycles:
            raise RuntimeError("every refresh cycle failed")
        self.samples["refresh_cpu_s"] = [c.cpu_s for c in cycles]
        self.info["refresh_s"] = statistics.median(c.s for c in cycles)
        self.info["refresh_wall_s"] = statistics.median(c.wall_s for c in cycles)
        self.layer["index.refresh_utilisation"] = statistics.median(c.utilisation for c in cycles)

    def serving(self) -> None:
        """serve and fresh, in a fresh process that imports only the
        engine (serving.py), with no Ray session alive."""
        self.phase("serve")
        fresh = []
        for k in range(FRESH_SEARCHERS):
            build_dir, terms = self.fresh_sets[k % len(self.fresh_sets)]
            fresh.append([str(build_dir), gen.cold_queries(
                self.seed * FRESH_SEARCHERS + k, terms, FRESH_PER_SEARCHER)])
        job = {"root": str(self.root), "mix": self.mix, "loop_queries": self.plan.loop_queries,
               "fresh": fresh, "trace": int(self.trace)}
        job_path, out_path = self.work / "serving-job.json", self.work / "serving-out.json"
        job_path.write_text(json.dumps(job))
        n = len(self.mix) + self.plan.loop_queries + FRESH_SEARCHERS * FRESH_PER_SEARCHER
        try:
            subprocess.run([sys.executable, "-m", "perfbench.serving", str(job_path), str(out_path)],
                           check=True, timeout=OP_TIMEOUT_S)
        except Exception as e:
            self.attempted += n
            self.fail(n, f"serving: {e!r}")
            raise
        r = json.loads(out_path.read_text())
        self.attempted += r["attempted"]
        for k, msg in r["failures"]:
            self.fail(k, msg)
        if not r["query_cpu_ms"] or not r["fresh_cpu_ms"]:
            raise RuntimeError("every serve or fresh query failed")
        self.tracer.extend(r["spans"], r["counts"])
        self.inproc = {int(k): v for k, v in r["inproc"].items()}
        self.class_lat = r["class_cpu_ms"]
        for k in ("query_cpu_ms", "fresh_cpu_ms"):
            self.samples[k] = r[k]
        self.samples["query_rss_mb"] = [r["rss_served_mb"] - r["rss_open_mb"]]
        self.info["serving_rss_mb"] = r["rss_served_mb"]
        self.info["query_wall_p99_ms"] = percentile(r["query_wall_ms"], 99)
        self.info["fresh_query_wall_p50_ms"] = statistics.median(r["fresh_wall_ms"])
        self.info["fresh_query_wall_p99_ms"] = percentile(r["fresh_wall_ms"], 99)
        if self.trace:
            traced, plain = r["traced_cpu_ms"], r["plain_cpu_ms"]
            self.layer["trace.overhead.query_cpu_p50_ms"] = (
                statistics.median(traced) - statistics.median(plain))
            self.layer["trace.overhead.query_cpu_p99_ms"] = (
                percentile(traced, 99) - percentile(plain, 99))

    def batch(self) -> None:
        import ray.data

        from marginalia_ray.query.batch import evaluate_queries

        self.phase("batch")
        n = self.plan.batch_queries
        rows = [{"query_id": i, "query": self.mix[i % len(self.mix)][1]} for i in range(n)]
        self.attempted += n
        try:
            with time_limit(OP_TIMEOUT_S), PhaseClock() as clock:
                refs = evaluate_queries(ray.data.from_items(rows), str(self.root)).to_arrow_refs()
                out = pa.concat_tables(ray.get(refs))
        except Exception as e:  # noqa: BLE001
            self.fail(n, f"batch: {e!r}")
            raise
        self.samples["batch_queries_per_cpu_s"] = [n / clock.cpu_s]
        self.info["batch_qps"] = n / clock.s
        self.info["batch_wall_qps"] = n / clock.wall_s
        self.layer["query.batch_utilisation"] = clock.utilisation
        self.batch_rows = list(zip(
            out["query_id"].to_pylist(), out["rank"].to_pylist(), out["url_id"].to_pylist()))

    def check_serve(self) -> None:
        m = len(self.mix)
        want = {i: self.inproc[i % m] for i in range(self.plan.batch_queries) if i % m in self.inproc}
        for f in checks.check_serve(self.batch_rows, want):
            self.fail(1, f"serve check: {f}")

    def check_refresh(self) -> None:
        from marginalia_ray.index.segment import get_current
        from marginalia_ray.query.engine import IndexSearcher

        build = self.root / get_current(self.root)
        fwd = pq.read_table(build / "forward", columns=["url_id"])
        searcher = IndexSearcher(self.root)
        expected = checks.expected_forward(self.base_url_ids, self.slice_url_ids)
        fails = checks.check_refresh(
            fwd["url_id"].to_pylist(), expected, self.replaced,
            lambda term: [r.url_id for r in searcher.search_words([term])],
        )
        self.attempted += 1 + len(self.replaced)
        for f in fails:
            self.fail(1, f"refresh check: {f}")

    # --- traced-run extras -------------------------------------------------
    def tokbench(self) -> None:
        """In-process converter over a fixed crawl sample."""
        table = pages_table(self.crawl.pages[:TOKBENCH_PAGES])
        with self.tracer.patched():
            self.tracer.request = "tokbench"
            t = time.perf_counter()
            with self.tracer.span("stages.TokenizerStage"):
                out = convert_in_process(table)
            dt = time.perf_counter() - t
        n = table.num_rows
        st = self.tracer.self_times("tokbench")
        self.layer["stages.tokenizer_docs_per_s_core"] = n / dt
        for name in ("extract_document", "extract_dld", "extract_keywords"):
            self.layer[f"stages.{name}_ms"] = st.get(f"stages.{name}", 0.0) * 1e3 / n
        states = out["state"].to_pylist()
        self.layer["stages.kept_ratio"] = states.count("OK") / n
        for s in DROP_STATES:
            self.layer[f"stages.dropped.{s}"] = states.count(s)

    def encbench(self) -> None:
        """In-process encode_run over the crawl's flat postings."""
        from marginalia_ray.index import postings

        j = pq.read_table(self.root / "journal", columns=["doc_id", "term_hashes"])
        kw = j["term_hashes"].combine_chunks()
        ids = j["doc_id"].to_numpy().astype(np.uint64)[pc.list_parent_indices(kw).to_numpy()]
        terms = pc.list_flatten(kw).to_numpy().astype(np.uint64)
        order = np.lexsort((ids, terms))
        terms, ids = terms[order], ids[order]
        keep = np.r_[True, (terms[1:] != terms[:-1]) | (ids[1:] != ids[:-1])]
        terms, ids = terms[keep], ids[keep]
        reps = []
        with self.tracer.patched():
            self.tracer.request = "encbench"
            for _ in range(5):
                t = time.perf_counter()
                postings.encode_run(terms, ids, None)
                reps.append(time.perf_counter() - t)
        self.layer["index.encode_run_ms_per_mposting"] = statistics.median(reps) * 1e3 / (len(ids) / 1e6)

    def layer_metrics(self) -> None:
        tr = self.tracer
        tot = tr.totals("ingest")
        self.layer["index.build_s"] = tot["index.build_index"]
        self.layer["pipelines.convert_s"] = tot["pipelines.run_index_pipeline"] - tot["index.build_index"]
        runs = self.manifest["runs"]
        self.layer["index.postings_written"] = sum(r["n_postings"] for r in runs)
        self.layer["index.postings_bytes"] = sum(r["bytes"] for r in runs)
        full = [r["n_postings"] for r in runs if r["kind"] == "full"]
        self.layer["index.run_skew"] = max(full) / statistics.median(full)

        cycles = len(self.samples["refresh_cpu_s"])
        tot = tr.totals("refresh-")
        self.layer["index.delete_s"] = tot.get("index.delete_docs", 0.0) / cycles
        self.layer["index.merge_s"] = tot.get("index.merge_builds", 0.0) / cycles
        self.layer["index.segment_open_ms"] = (
            tot.get("index.segment_open", 0.0) * 1e3 / tr.calls("refresh-").get("index.segment_open", 1))
        written = tr.counted("index.delete_docs.bytes", "refresh-") + tr.counted("index.merge_builds.bytes", "refresh-")
        self.layer["index.merge_write_amp"] = written / tr.counted("index.build_index.bytes", "refresh-")

        def query_layers(prefix: str, key: str) -> None:
            st = tr.self_times(prefix)
            calls = tr.calls(prefix)
            top = tr.calls(prefix, outermost=True)
            nq = max(1, calls.get("query.search", 0))
            if key == "query":
                for name in ("parse", "variants", "search", "score", "forward_lookup"):
                    self.layer[f"query.{name}_ms"] = st.get(f"query.{name}", 0.0) * 1e3 / nq
                self.layer["query.candidates_scored"] = tr.counted("query.candidates_scored", prefix) / nq
            skips = calls.get("query.decode_skip", 0)
            decodes = calls.get("query.decode", 0) + skips
            self.layer[f"{key}.decode_ms"] = (
                st.get("query.decode", 0.0) + st.get("query.decode_skip", 0.0)) * 1e3 / nq
            self.layer[f"{key}.decodes_per_query"] = decodes / nq
            if key == "query.fresh":
                # share of decodes that took the block-max skip path
                self.layer[f"{key}.skip_decode_share"] = skips / decodes if decodes else 0.0
            lookups = top.get("query.postings", 0)
            self.layer[f"{key}.cache_hit_ratio"] = 1 - decodes / lookups if lookups else 0.0

        query_layers("fresh-", "query.fresh")
        query_layers("serve-", "query")
        for cls, v in self.class_lat.items():
            self.layer[f"query.class.{cls}.p50_ms"] = statistics.median(v)
            self.layer[f"query.class.{cls}.p99_ms"] = percentile(v, 99)

    # --- driver --------------------------------------------------------------
    def execute(self) -> dict:
        self.setup()
        if self.trace:
            self.tokbench()
        self.ingest()
        if self.trace:
            self.encbench()
        self.refresh()
        self.batch()
        self.stop_engine()
        self.serving()
        self.phase("checks")
        _, steal, total = (b - a for a, b in zip(self.cpu0, cpu_times()))
        self.host["steal_frac"] = round(steal / total, 4) if total else 0.0
        self.check_serve()
        self.check_refresh()
        if self.trace:
            self.tracer.dump(str(self.work.parent / f"spans-{self.workload}-{self.seed}.jsonl"))
            self.layer_metrics()
        return self.result()

    def result(self) -> dict:
        s = self.samples
        e2e = {
            "setup_s": (self.host["setup_local_s"] + self.host["engine_start_s"], 1),
            "ingest_docs_per_cpu_s": (s["ingest_docs_per_cpu_s"][0], 1),
            "index_bytes_per_doc": (s["index_bytes_per_doc"][0], 1),
            # one figure per query class: the classes' shares of real
            # traffic are not known, so no mean over the mix is gated.  A
            # class's own latencies can be bimodal (phrase found or not),
            # which makes its median jump between modes; its mean does not
            **{f"query_{c}_cpu_mean_ms": (statistics.fmean(v), len(v))
               for c, v in self.class_lat.items()},
            "query_cpu_p99_ms": (percentile(s["query_cpu_ms"], 99), len(s["query_cpu_ms"])),
            "query_rss_mb": (s["query_rss_mb"][0], 1),
            "batch_queries_per_cpu_s": (s["batch_queries_per_cpu_s"][0], self.plan.batch_queries),
            "refresh_cpu_s": (statistics.median(s["refresh_cpu_s"]), len(s["refresh_cpu_s"])),
            "fresh_query_cpu_p50_ms": (statistics.median(s["fresh_cpu_ms"]), len(s["fresh_cpu_ms"])),
            "fresh_query_cpu_p99_ms": (percentile(s["fresh_cpu_ms"], 99), len(s["fresh_cpu_ms"])),
            "ok_frac": (1 - self.failed / self.attempted, self.attempted),
        }
        if self.trace:
            metrics = spec_metrics(self.layer, PER_LAYER)
        else:
            metrics = spec_metrics({k: v for k, (v, _) in e2e.items()}, END_TO_END)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "samples": {k: n for k, (_, n) in e2e.items()},
            "plan": asdict(self.plan),
            "host": self.host,
            "failures": self.fail_log[:50],
            "info": self.info,
        }


def host_record(ncpu: int) -> dict:
    import platform

    import ray

    return {
        "affinity_cpus": ncpu,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "numpy": np.__version__,
        "pyarrow": pa.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    run = Run(args)
    run.host.update(host_record(run.ncpu))
    res = run.execute()
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(res, f)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
