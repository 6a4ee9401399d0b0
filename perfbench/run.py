#!/usr/bin/env python3
"""InfoShield benchmark: the CLI's CSV -> InfoShield::Run -> ranked JSON
path and the incremental ingest path, end to end and per module.

    python3 perfbench/run.py --workload ads-t4 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It builds perfbench/ together with
src/ into .bench_build/, generates the workload's inputs from the seed,
measures for --seconds, checks every output against its oracle, and
prints one JSON line last: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1 (names and units: BENCHMARK.json).
Exit code 1 means an output was wrong, 2 that the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "perfbench_driver"
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

# Repetitions per run at least, even when they outlast --seconds, so that
# every timing is a median of more than one.
MIN_OPS = 2


def build():
    """Configures (once) and builds perfbench_driver; build output goes to
    stderr so the result stays the last line of stdout."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def digest(path):
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


class Workload:
    """One workload's generated inputs and the perfbench_driver jobs run on
    them."""

    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        self.jobs = 0
        info, _ = self.job("gen", "--seed", seed)
        if not info["ok"]:
            raise RuntimeError(f"input generation failed: {info['error']}")
        self.docs = info["docs"]
        self.threads = info["threads"]
        self.stream = info["stream"]

    def job(self, mode, *flags):
        """Runs one driver job in a fresh process; returns (report, rss_mb)."""
        self.jobs += 1
        out = self.work / f"job{self.jobs}.out"
        code, rss = benchlib.run_process(
            [DRIVER, mode, "--workload", self.name, "--dir", self.work,
             *flags], out)
        lines = out.read_text().strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = {"ok": False, "error": "no report"}
        if code != 0 and report.get("ok"):
            report = {"ok": False, "error": f"exit code {code}"}
        return report, rss

    def path(self, stem):
        return self.work / f"{stem}{self.jobs + 1}.json"


def read_trace(path):
    return benchlib.layer_metrics(json.loads(Path(path).read_text()))


def check_job(report, out, reference, ledger):
    """Counts every repetition of one batch job as an operation: it fails
    unless the job succeeded, its bytes match the first repetition's, and
    the file the job wrote matches the oracle's (`reference`; None when
    the job is its own reference). Returns False when nothing ran."""
    reps = report.get("same", [])
    if not reps:
        ledger.record(False, report["error"])
        return False
    matches = report["ok"] and (reference is None or digest(out) == reference)
    for same in reps:
        ledger.record(matches and same == 1,
                      report["error"] or "output differs from the oracle")
    return True


def untraced(report, key):
    return [v for v, t in zip(report[key], report["traced"]) if not t]


def traced_layers(path, report):
    layers = read_trace(path)
    return benchlib.median_metrics(
        [layers[i] for i, t in enumerate(report["traced"]) if t])


def measure_batch(wl, seconds, traced, ledger):
    """Repeats the CLI path on the whole CSV in one fresh process."""
    reference = None
    if wl.threads != 1:
        # The serial reference, outside the timed process.
        oracle = wl.path("oracle")
        report, _ = wl.job("batch", "--threads", 1, "--json", oracle)
        ledger.record(report["ok"], f"--threads 1 oracle: {report['error']}")
        reference = digest(oracle) if report["ok"] else "oracle failed"

    out, trace = wl.path("run"), wl.path("trace")
    flags = ["--trace", trace] if traced else []
    report, rss = wl.job("batch", "--json", out, "--seconds", seconds,
                         "--min-ops", MIN_OPS, *flags)
    if not check_job(report, out, reference, ledger):
        return None

    e2e = untraced(report, "e2e_s")
    if traced:
        layers = traced_layers(trace, report)
        base = statistics.median(
            r + k + j for r, k, j in zip(untraced(report, "run_s"),
                                         untraced(report, "rank_s"),
                                         untraced(report, "json_s")))
        both = sum(layers[k] for k in ("core.run_s", "core.rank_s",
                                       "io.json_s"))
        layers["trace.overhead_frac"] = both / base - 1.0
        return layers
    print(f"# {wl.name}: {len(e2e)} pipeline runs in one process, e2e_s "
          + " ".join(f"{v:.3f}" for v in e2e))
    e2e_s = statistics.median(e2e)
    return {
        "e2e_s": e2e_s,
        "docs_per_s": wl.docs / e2e_s,
        "setup_s": statistics.median(untraced(report, "setup_s")),
        # The whole CSV is one ingest: its latency is the pipeline run's.
        "ingest_p50_ms": 1e3 * e2e_s,
        "ingest_p90_ms": 1e3 * e2e_s,
        "peak_rss_mb": rss,
        "f1": report["f1"],
    }


def measure_stream(wl, seconds, traced, ledger):
    """Repeats the stream in one fresh process; its final state must match
    a batch run over all rows."""
    oracle, oracle_trace = wl.path("oracle"), wl.path("oracle-trace")
    flags = ["--min-ops", MIN_OPS, "--trace", oracle_trace] if traced else []
    report, _ = wl.job("batch", "--json", oracle, *flags)
    if not check_job(report, oracle, None, ledger):
        return None
    reference = digest(oracle)
    if traced:
        layers = traced_layers(oracle_trace, report)

    out, trace = wl.path("stream"), wl.path("trace")
    flags = ["--trace", trace] if traced else []
    report, rss = wl.job("stream", "--json", out, "--seconds", seconds,
                         "--min-ops", MIN_OPS, *flags)
    if "ingests" not in report:
        ledger.record(False, report["error"])
        return None
    # Every IngestBatch is an operation; a pass whose final state differs
    # from the batch run (or fails validation) fails its last one.
    ledger.add(report["ingests"], report["failed_ingests"], report["error"])
    diverged = report["ok"] and digest(out) != reference
    if diverged or (not report["ok"] and report["failed_ingests"] == 0):
        ledger.fail(report["error"] or "final state differs from the batch run")
    for same in report["same"]:
        if not same:
            ledger.fail("a repeated pass ended in different bytes")
    if not report["same"]:
        return None

    stream_s = untraced(report, "stream_s")
    if traced:
        for key, value in traced_layers(trace, report).items():
            if key.startswith("incremental."):
                layers[key] = value
        layers["incremental.full_rerun_s"] = layers["core.run_s"]
        traced_s = [s for s, t in zip(report["stream_s"], report["traced"])
                    if t]
        layers["trace.overhead_frac"] = (statistics.median(traced_s)
                                         / statistics.median(stream_s) - 1.0)
        return layers
    ingest_ms = [ms for p in untraced(report, "ingest_ms") for ms in p]
    pct, tail = benchlib.tail_percentile(ingest_ms)
    print(f"# {wl.name}: {len(stream_s)} passes, {len(ingest_ms)} IngestBatch "
          f"latencies; tail = p{pct}")
    return {
        "e2e_s": statistics.median(a + b for a, b in zip(
            untraced(report, "setup_s"), stream_s)),
        "docs_per_s": report["streamed_docs"] / statistics.median(stream_s),
        "setup_s": statistics.median(untraced(report, "setup_s")),
        "ingest_p50_ms": statistics.median(ingest_ms),
        "ingest_p90_ms": tail,
        "peak_rss_mb": rss,
        "f1": report["f1"],
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            wl = Workload(args.workload, args.seed, work)
        except (OSError, RuntimeError) as e:
            print(f"cannot run: {e}", file=sys.stderr)
            return 2
        ledger = benchlib.Ledger()
        measure = measure_stream if wl.stream else measure_batch
        values = measure(wl, args.seconds, bool(args.trace), ledger)
        for reason in ledger.reasons:
            print(f"failure: {reason}", file=sys.stderr)
        if values is None:
            print("no operation succeeded; nothing to report", file=sys.stderr)
            return 1
        print(f"# fail_frac = {ledger.fail_frac:g} "
              f"({ledger.failed}/{ledger.attempted})")
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        if args.trace:
            # Layers the workload never enters did no work.
            values = {s["name"]: values.get(s["name"], 0.0) for s in specs}
        print(benchlib.result_line(ledger, values, specs))
        return 0 if ledger.failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
