#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program is compiled from the
sources in this checkout (perfbench/ and src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, and runs there once per run, in a fresh
directory of its own that it removes afterwards; a traced run leaves its
spans in spans_<workload>.jsonl there. The last line printed is the result
object; the line before it carries run metadata (host, nproc, SIMD level,
OpenMP threads and wait policy, commit, seed, generator lateness per phase
and, for a traced run, the tracing overhead against the last untraced run of
the same workload).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run must end within 180 s of its start, not counting the first
# build of a checkout; later builds are no-op checks.
RUN_DEADLINE_S = 170.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    """Configures (once) and builds the benchmark; returns the build tree."""
    tree = out / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    return tree


def p99_limit_ms(spec, workload):
    """The max-rate ladder's p99 limit, stated in the workload's `why`."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"p99 <= ([0-9.]+) ms", w["why"])
            if not m:
                raise SystemExit(f"run.py: no 'p99 <= N ms' in {workload}'s why")
            return m.group(1)
    raise SystemExit(f"run.py: unknown workload {workload!r}")


def source_id():
    """Commit when the checkout is a git work tree, plus a digest of the
    sources the benchmark compiles (a checkout export has no .git)."""
    commit = "none"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()[:12]
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return f"{commit}+src.{h.hexdigest()[:12]}"


def tracing_overhead(meta, out):
    """Traced minus untraced end-to-end values, as a share of the untraced
    ones, against the most recent untraced run of this workload."""
    last = out / f"last_untraced_{meta['workload']}.json"
    if meta["trace"] == 0:
        last.write_text(json.dumps(meta))
        return None
    if not last.exists():
        return None
    base = json.loads(last.read_text())
    over = {}
    for name, m in meta["end_to_end"].items():
        b = base["end_to_end"].get(name, {}).get("value")
        if b:
            over[name] = (m["value"] - b) / b
    return {"vs_seed": base["seed"], "relative": over}


def run_bench(tree, out, args, limit):
    """Runs the benchmark program once; returns its (meta, result)."""
    cmd = [str(tree / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--limit-ms", limit,
           "--commit", source_id()]
    proc = subprocess.Popen(cmd, cwd=out, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: benchmark exceeded {RUN_DEADLINE_S:.0f} s")
    finally:
        # Reached on a timeout or a SIGTERM to run.py as well: the program
        # is stopped before run.py exits, and its directory, which it
        # removes itself when it ends normally, is removed here otherwise.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(out / f"run-{proc.pid}", ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: benchmark exited with {proc.returncode}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise SystemExit("run.py: benchmark printed no result")
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"run.py: malformed result keys {sorted(result)}")
    return meta, result


def selftest(out):
    tree = build(out)
    done = subprocess.run([str(tree / "perfbench_selftest")], cwd=tree)
    return done.returncode


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        raise SystemExit("run.py: BENCHMARK.json not found at the checkout root")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        return selftest(out)
    if not args.workload:
        raise SystemExit("run.py: --workload is required")
    spec = json.loads(spec_path.read_text())
    limit = p99_limit_ms(spec, args.workload)

    tree = build(out)
    meta, result = run_bench(tree, out, args, limit)
    # Report exactly the metrics BENCHMARK.json lists for this mode.
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        raise SystemExit(f"run.py: benchmark did not measure {missing}")
    result["metrics"] = {n: result["metrics"][n] for n in wanted}
    meta["tracing_overhead"] = tracing_overhead(meta, out)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
