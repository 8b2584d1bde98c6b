"""Search-engine benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {serve,refresh} --seed N \
        --seconds S --trace {0,1}

Runs one seeded engine lifecycle (perfbench/lifecycle.py) in a child
process with a hard wall-clock limit, then prints one line per metric and,
as the last line of stdout, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(spans are written to .perfbench/spans-<workload>-<seed>.jsonl).  Run from
the repository root; everything the run writes stays under .perfbench/,
except Ray's session directory when the checkout path is too long for
Ray's socket paths (then a short temporary directory, removed afterwards).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

# the child's limit plus the clean-up's stays under the 180 s a run may take
CHILD_LIMIT_S = 145
REAP_LIMIT_S = 20
# AF_UNIX paths are capped at 107 bytes; Ray appends about 63 to its temp dir
RAY_TMP_MAX = 107 - 64


def group_pids(pgid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                out.append(int(d))
    return out


def reap(pgid: int, timeout: float = REAP_LIMIT_S) -> None:
    """Kill what is left of the child's process group and wait until every
    member has exited."""
    deadline = time.monotonic() + timeout
    while True:
        pids = group_pids(pgid)
        if not pids:
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} of group {pgid} did not exit")
        time.sleep(0.1)


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "marginalia_ray" / "__init__.py").exists():
        print(f"error: no marginalia_ray package under {ROOT}", file=sys.stderr)
        return 2
    from perfbench.spec import END_TO_END, MOVES, PER_LAYER, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    ray_tmp = base / "ray"
    short_tmp = None
    if len(str(ray_tmp)) > RAY_TMP_MAX:
        short_tmp = tempfile.mkdtemp(prefix="pbray-")
        ray_tmp = Path(short_tmp)
    out = work / "result.json"
    log = base / f"log-{args.workload}-{args.seed}-{args.trace}.txt"
    env = dict(os.environ, PYTHONPATH=str(ROOT), PYTHONUNBUFFERED="1")
    cmd = [sys.executable, "-m", "perfbench.lifecycle",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--ray-tmp", str(ray_tmp), "--out", str(out)]
    rc = None
    try:
        with open(log, "w") as logf:
            child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=logf,
                                     stderr=subprocess.STDOUT, start_new_session=True)
            try:
                rc = child.wait(timeout=CHILD_LIMIT_S - (time.monotonic() - t_start))
            except subprocess.TimeoutExpired:
                print(f"error: run exceeded its wall-clock limit; log in {log}", file=sys.stderr)
            finally:
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait()
                reap(child.pid)
        if rc != 0 or not out.exists():
            if rc is not None:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                print(f"error: run failed with exit code {rc}; log in {log}", file=sys.stderr)
            return 1
        res = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        if short_tmp:
            shutil.rmtree(short_tmp, ignore_errors=True)

    spec = PER_LAYER if args.trace else END_TO_END
    missing = set(spec) - set(res["metrics"])
    if missing:
        print(f"error: run reported no value for {sorted(missing)}", file=sys.stderr)
        return 1
    print(f"# host: {json.dumps(res['host'], sort_keys=True)}")
    print(f"# plan: {json.dumps(res['plan'])}")
    print(f"# not gated: {json.dumps(res['info'])}")
    for msg in res["failures"]:
        print(f"# failure: {msg}")
    for name in spec:
        m = res["metrics"][name]
        extra = f"moves {MOVES[name]}" if args.trace else f"n={res['samples'][name]}"
        print(f"# {name} = {m['value']:.6g} {m['unit']}  {extra}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
