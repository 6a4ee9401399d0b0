"""Pure helpers for run.py: percentiles, failure accounting, per-process
peak RSS, trace aggregation and the result line. Kept free of workload
logic so tests/test_benchlib.py can check them in isolation."""

import json
import math
import os
import statistics


def tail_percentile(values, cap=90, beyond=10):
    """The highest integer percentile p <= cap (and >= 50) that has at least
    `beyond` samples above it, as (p, value) by the nearest-rank rule. When
    no such percentile exists the sample is too small to support a tail,
    and the maximum is returned as (100, max): the worst observed, never an
    optimistic guess."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(cap, 49, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            return pct, ordered[rank - 1]
    return 100, ordered[-1]


class Ledger:
    """Counts operations (one pipeline run or one IngestBatch) and failures:
    a non-OK status, a failed validation, or output bytes that differ from
    the oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def add(self, attempted, failed, reason=""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)

    def fail(self, reason):
        """A failure found after the fact (e.g. an oracle mismatch) in an
        operation already counted as attempted."""
        self.failed += 1
        self.reasons.append(reason)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def run_process(argv, stdout_path):
    """Runs argv to completion with stdout going to stdout_path and returns
    (exit_code, peak_rss_mb). The peak comes from wait4 on this child alone,
    so it is the child's own high-water mark, unaffected by any earlier or
    concurrent child (unlike RUSAGE_CHILDREN, which keeps the maximum over
    all waited-for children)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    pid = os.posix_spawn(argv[0], [str(a) for a in argv], os.environ,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def layer_metrics(trace):
    """Per-layer metrics of each traced request in one trace file's
    {"spans", "counters"}, as {request: {metric: value}}."""
    durations = {}
    for span in trace["spans"]:
        per_request = durations.setdefault(span["request"], {})
        per_request.setdefault(span["name"], []).append(span["duration_s"])
    out = {}
    for request, spans in durations.items():
        def total(name):
            return sum(spans.get(name, []))

        m = {name + "_s": total(name) for name in (
            "io.read_csv", "text.tokenize", "tfidf.build", "tfidf.top_phrases",
            "coarse.run", "lsh.signatures", "lsh.index_build", "core.run",
            "core.rank", "io.json")}
        fine = spans.get("fine.cluster", [])
        m["fine.sum_s"] = sum(fine)
        m["fine.max_cluster_s"] = max(fine, default=0.0)
        m["fine.critical_share"] = (m["fine.max_cluster_s"] / m["fine.sum_s"]
                                    if m["fine.sum_s"] > 0 else 0.0)
        ingest = spans.get("incremental.ingest", [])
        m["incremental.ingest_s"] = statistics.median(ingest) if ingest else 0.0
        m.update(trace["counters"].get(str(request), {}))
        out[request] = m
    return out


def median_metrics(samples):
    """Per-key median over metric dicts with the same keys (one per traced
    repetition). Counters repeat exactly, so only timings are affected."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def result_line(ledger, values, specs):
    """The benchmark's last stdout line. `specs` are BENCHMARK.json metric
    entries; every one must have a value (KeyError otherwise)."""
    metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
               for s in specs}
    return json.dumps({"correct": ledger.failed == 0,
                       "attempted": ledger.attempted,
                       "failed": ledger.failed,
                       "metrics": metrics})
