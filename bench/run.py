#!/usr/bin/env python3
"""tropikit job benchmark: a single-process, single-client, closed-loop driver.

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Each job calls tropikit.cli.main(argv) in-process on seeded input files and
writes its artifact with -o.  The next job starts when the previous one ends.
Outputs are checked against the oracles in oracles.py outside the timed
region.  Run it from the root of a source tree; it imports tropikit from
./src and works in ./.bench_work.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, with every
time scaled to a reference host speed by the probe in speed.py.  --trace 1
runs an untraced pass, then the same jobs again with every public function
wrapped in a span (spans.py), then a tracemalloc pass over the largest job
of each subcommand, and prints the per-layer metrics.  The last line of
stdout is the JSON result; the run record (seed, input digest, machine) and
the spans are written next to the work files.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_JOBS = 100  # pool jobs, so that at least 10 lie above the 90th percentile
HARD_CAP_S = 120  # the loop never runs longer than this, whatever the job mix
SETUP_SAMPLES = 7
PROBES_PER_SETUP = 15
COLD_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
               "import tropikit.cli; d = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
               f"import speed, statistics; print(d, statistics.median("
               f"speed.probe() for _ in range({PROBES_PER_SETUP})))")


def _cold_import_here():
    if not (SRC / "tropikit" / "cli.py").is_file():
        sys.exit(f"bench: no tropikit sources under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tropikit.cli  # noqa: F401  (numpy is first imported here too)
    return time.perf_counter() - t0


def setup_seconds(first):
    """Median cold `import tropikit.cli`, this process's and fresh interpreters',
    each at the reference speed of the probes its interpreter ran after it."""
    samples = [(first, statistics.median(speed.probe() for _ in range(PROBES_PER_SETUP)))]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", COLD_IMPORT, str(SRC), str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s = map(float, done.stdout.split())
        samples.append((seconds, probe_s))
    return statistics.median(t * speed.REFERENCE_S / p for t, p in samples), samples


# --- running jobs ---------------------------------------------------------------------


class Runner:
    """Runs pool jobs in a closed loop and keeps what the oracles need."""

    def __init__(self, pool, out_dir: Path):
        self.cli = sys.modules["tropikit.cli"]  # main is looked up per call, so wrappers apply
        self.pool = pool
        self.out = out_dir
        self.first = {}  # pool index -> (rc, stderr, stdout, artifact digest)
        self.mismatch = set()  # exec numbers of repeats whose outcome differs from the first
        self.execs = []  # (pool index, wall seconds)
        self.probes = []  # speed probe seconds, one before each job of the timed loop

    def run(self, idx, tracer=None):
        job = self.pool[idx]
        first = idx not in self.first
        path = self.out / f"{job.id}.{'out' if first else 'rep'}"
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
        exec_no = len(self.execs)
        if tracer is not None:
            tracer.job = exec_no
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(job.argv + ["-o", str(path)])
            except SystemExit as e:
                rc = f"SystemExit({e.code!r}) escaped main"
            except Exception as e:  # noqa: BLE001  an escaping exception is a failed job
                rc = f"{type(e).__name__} escaped main: {e}"
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        self.execs.append((idx, wall))
        artifact = path.read_bytes() if path.exists() else None
        outcome = (rc, err.getvalue(), out.getvalue(),
                   None if artifact is None else hashlib.sha256(artifact).hexdigest())
        if first:
            self.first[idx] = outcome
        else:
            if outcome != self.first[idx]:
                self.mismatch.add(exec_no)
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
        return wall

    def loop(self, seconds):
        """Cycle through the pool until `seconds` of job time and one whole pass,
        ending on a round boundary."""
        busy, n, t_end = 0.0, 0, time.perf_counter() + HARD_CAP_S
        while time.perf_counter() < t_end:
            idx = n % len(self.pool)
            new_round = self.pool[idx].round != self.pool[idx - 1].round
            if busy >= seconds and n >= len(self.pool) and new_round:
                break
            self.probes.append(speed.probe())
            busy += self.run(idx)
            n += 1
        return self.execs[-n:]

    def verify(self, oracles):
        """Reasons per pool index for first runs the oracle rejects."""
        bad = {}
        for idx, (rc, err, out, _) in self.first.items():
            job = self.pool[idx]
            path = self.out / f"{job.id}.out"
            artifact = path.read_bytes() if path.exists() else None
            reason = "unexpected stdout" if out else oracles.verify(job, rc, err, artifact)
            if reason:
                bad[idx] = f"{job.id} {job.kind} n={job.size}: {reason}"
        return bad

    def failures(self, bad):
        return [i for i, (idx, _) in enumerate(self.execs) if idx in bad or i in self.mismatch]

    def selftest(self, oracles, bad):
        """Flip one digit of the first good artifact of each subcommand; all must be caught."""
        caught = {}
        for idx, (rc, err, _, digest) in self.first.items():
            job = self.pool[idx]
            if job.sub in caught or idx in bad or digest is None:
                continue
            data = bytearray((self.out / f"{job.id}.out").read_bytes())
            pos = next(i for i, b in enumerate(data) if 48 <= b <= 57)
            data[pos] ^= 0x01  # '0'<->'1', '2'<->'3', ...: still a digit, another number
            caught[job.sub] = oracles.verify(job, rc, err, bytes(data)) is not None
        return caught


# --- records ---------------------------------------------------------------------------


def input_digest(pool, in_dir: Path):
    h = hashlib.sha256()
    for job in pool:
        argv = [a.replace(str(in_dir), "<inputs>") for a in job.argv]
        h.update(json.dumps([job.id, argv]).encode())
    for path in sorted(in_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy as np

    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "machine": platform.machine(), "commit": _git_commit()}


def emit(spec_metrics, values, attempted, failed, correct):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def p90(lat):
    return statistics.quantiles(lat, n=10, method="inclusive")[8]


def job_metrics(execs, times):
    """Throughput and latency over the pool jobs a loop ran.  Each pool job
    counts once, at the mean of its runs, so every run of a seed has the same
    job mix however many rounds it completed."""
    runs = {}
    for (idx, _), t in zip(execs, times):
        runs.setdefault(idx, []).append(t)
    per_job = [statistics.mean(v) for v in runs.values()]
    return {"jobs_per_s": len(per_job) / sum(per_job),
            "job_p50_ms": 1e3 * statistics.median(per_job),
            "job_p90_ms": 1e3 * p90(per_job)}


def traced_pass(runner, seconds, per_layer, run_dir, record):
    """Per-layer metrics: untraced and traced runs of each job, then a memory pass.

    Each job runs once untraced and once traced, back to back, so that drift
    in machine speed cancels out of the overhead share.  The second run of an
    input is a few percent faster, so the order alternates, and the share is
    the geometric mean of the traced/untraced ratios of the two orders.
    """
    tracer = spans.Tracer()
    untraced, traced = [], {}  # (pool index, wall); exec number -> wall
    sums = [[0.0, 0.0], [0.0, 0.0]]  # per order: [traced, untraced] seconds
    busy, k, t_end = 0.0, 0, time.perf_counter() + HARD_CAP_S
    while busy < seconds and time.perf_counter() < t_end:
        idx = k % len(runner.pool)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                exec_no = len(runner.execs)
                tracer.install()
                try:
                    traced[exec_no] = runner.run(idx, tracer)
                finally:
                    tracer.uninstall()
                sums[k % 2][0] += traced[exec_no]
            else:
                untraced.append((idx, runner.run(idx)))
                busy += untraced[-1][1]
                sums[k % 2][1] += untraced[-1][1]
        k += 1

    # the largest job of each subcommand, once more under tracemalloc
    largest = {}
    for idx, _ in untraced:
        sub, size = runner.pool[idx].sub, runner.pool[idx].size
        if sub not in largest or size > runner.pool[largest[sub]].size:
            largest[sub] = idx
    mem = spans.Tracer(memory=True)
    tracemalloc.start()
    mem.install()
    try:
        for idx in largest.values():
            runner.run(idx, mem)
    finally:
        mem.uninstall()
        tracemalloc.stop()

    values, mismatch = spans.layer_metrics(tracer.spans, traced, mem.spans)
    values["trace.overhead_share"] = statistics.geometric_mean(
        [t / u for t, u in sums if u > 0]) - 1.0
    values["trace.matrix_mul_temp_ratio"] = spans.temp_ratio(mem.spans)
    by_sub = {}
    for idx, w in untraced:
        by_sub.setdefault(runner.pool[idx].sub, []).append(w)
    for m in per_layer:
        name = m["name"]
        if name.startswith("cli.") and name.endswith(".p50_ms"):
            sub = name[len("cli."):-len(".p50_ms")]
            values[name] = 1e3 * statistics.median(by_sub[sub]) if sub in by_sub else 0.0
    record["self_time_mismatch_s"] = mismatch
    record["computed_not_measured"] = sorted(
        name for name in values if name.endswith((".ops", ".temp_bytes", ".pairs", ".triples")))
    tracer.write(run_dir / "spans.jsonl")
    mem.write(run_dir / "memory_spans.jsonl")
    return values


# --- main -------------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("closure", "solve", "transforms", "geometry"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    first_import = _cold_import_here()
    global speed  # used by setup_seconds and Runner.loop
    import oracles  # these import numpy, so only after the cold import was timed
    import speed
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()

    t0 = time.perf_counter()
    pool = workloads.make_pool(args.workload, args.seed, in_dir)
    assert len(pool) >= MIN_JOBS, "a pool needs at least MIN_JOBS jobs"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool_jobs": len(pool),
              "inputs_sha256": input_digest(pool, in_dir),
              "generate_s": time.perf_counter() - t0, "environment": environment()}
    runner = Runner(pool, out_dir)

    if args.trace == 0:
        setup_s, setup_samples = setup_seconds(first_import)
        execs = runner.loop(args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = [w for _, w in execs]
        values = job_metrics(execs, speed.scaled(raw, runner.probes))
        values.update(peak_rss_mib=peak_rss_mib, setup_s=setup_s)
        record["speed"] = {"reference_probe_s": speed.REFERENCE_S, "probes_s": runner.probes,
                           "measured": job_metrics(execs, raw),
                           "setup_samples_s_and_probe_s": setup_samples}
        metric_spec = spec["end_to_end"]
    else:
        values = traced_pass(runner, args.seconds / 2, spec["per_layer"], run_dir, record)
        metric_spec = spec["per_layer"]

    t0 = time.perf_counter()
    bad = runner.verify(oracles)
    record["verify_s"] = time.perf_counter() - t0
    failed = runner.failures(bad)
    attempted = len(runner.execs)
    if args.trace == 1:
        values["jobs.failed_share"] = len(failed) / attempted
    caught = runner.selftest(oracles, bad)
    selftest_ok = bool(caught) and all(caught.values())
    trace_ok = args.trace == 0 or record["self_time_mismatch_s"] < 1e-6
    correct = not failed and selftest_ok and trace_ok
    reasons = sorted(bad.values())
    if runner.mismatch:
        reasons.append(f"{len(runner.mismatch)} repeats differ from the first run of their input")
    record.update({"attempted": attempted, "failed": len(failed),
                   "failed_share": len(failed) / attempted, "failure_reasons": reasons[:20],
                   "selftest_corrupted_artifact_caught": caught,
                   "latencies_ms": [1e3 * w for _, w in runner.execs],
                   "jobs": [pool[idx].id for idx, _ in runner.execs], "metrics": values})
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(in_dir)
    shutil.rmtree(out_dir)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"inputs sha256 {record['inputs_sha256']}")
    print(f"attempted {attempted} failed {len(failed)} failed_share {len(failed) / attempted:.4f}")
    for sub, rejected in sorted(caught.items()):
        print(f"self-test {sub}: corrupted artifact {'rejected' if rejected else 'ACCEPTED'}")
    for reason in reasons[:5]:
        print(f"FAILED {reason}")
    print(f"record: {run_dir / 'result.json'}")
    emit(metric_spec, values, attempted, len(failed), correct)


if __name__ == "__main__":
    main()
