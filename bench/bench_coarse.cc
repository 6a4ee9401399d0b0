// Coarse-stage parallelism regression harness.
//
// Runs the coarse pipeline on a wide synthetic corpus — many mid-sized
// campaigns plus a large benign tail, the shape that makes the coarse
// stage (tokenize -> tf-idf -> top phrases -> graph) the bottleneck —
// once through the single-threaded reference path
// (CoarseOptions::use_serial_coarse) and then through the parallel
// path at 1/2/4/8 threads. Every parallel run MUST produce a
// result identical to the serial reference (clusters, singletons,
// per-document top phrases, edge count); any disagreement exits
// non-zero so CI fails. Emits BENCH_coarse.json with per-phase timings
// (tokenize/index/top-phrase/graph/components) for every configuration
// plus the 4-thread speedup, giving the repo a tracked trajectory for
// this path.
//
// On single-core runners the speedup reported is honest (~1x or below);
// the benchmark gates only on divergence, never on speedup.
//
// Usage: bench_coarse [--out BENCH_coarse.json] [--help]

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "coarse/coarse_clustering.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

using namespace infoshield;

// Wide corpus: lots of documents and campaigns so df accumulation and
// top-phrase selection dominate, not one cluster's fine alignment.
LabeledAds WideCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 2500;
  o.num_spam_clusters = 12;
  o.spam_cluster_size_min = 40;
  o.spam_cluster_size_max = 80;
  o.num_ht_clusters = 60;
  o.ht_cluster_size_min = 5;
  o.ht_cluster_size_max = 15;
  return TraffickingGenerator(o).Generate(/*seed=*/211);
}

struct RunOutcome {
  CoarseResult result;
  CoarseStageStats best;  // min-of-trials per phase + tokenize
  size_t threads = 0;
  bool serial = false;
};

// Coarse results carry no floats, so exact comparison is the contract.
bool SameResult(const CoarseResult& a, const CoarseResult& b) {
  return a.clusters == b.clusters && a.singletons == b.singletons &&
         a.doc_top_phrases == b.doc_top_phrases && a.num_edges == b.num_edges;
}

RunOutcome RunConfig(const std::vector<std::string>& texts, size_t threads,
                     bool serial, int trials) {
  RunOutcome out;
  out.threads = threads;
  out.serial = serial;
  CoarseOptions options;
  options.num_threads = threads;
  options.use_serial_coarse = serial;
  for (int trial = 0; trial < trials; ++trial) {
    // Rebuild the corpus from raw text each trial so tokenization is
    // measured under the same thread count as the rest of the stage.
    Corpus corpus;
    WallTimer timer;
    corpus.AddBatch(texts, serial ? 1 : threads);
    const double tokenize_seconds = timer.ElapsedSeconds();

    CoarseClustering coarse(options);
    CoarseResult result = coarse.Run(corpus);
    result.stats.tokenize_seconds = tokenize_seconds;

    const bool first = trial == 0;
    CoarseStageStats& best = out.best;
    if (first || result.stats.tokenize_seconds < best.tokenize_seconds) {
      best.tokenize_seconds = result.stats.tokenize_seconds;
    }
    if (first || result.stats.index_seconds < best.index_seconds) {
      best.index_seconds = result.stats.index_seconds;
    }
    if (first || result.stats.top_phrase_seconds < best.top_phrase_seconds) {
      best.top_phrase_seconds = result.stats.top_phrase_seconds;
    }
    if (first || result.stats.graph_seconds < best.graph_seconds) {
      best.graph_seconds = result.stats.graph_seconds;
    }
    if (first || result.stats.components_seconds < best.components_seconds) {
      best.components_seconds = result.stats.components_seconds;
    }
    best.parallel_threads = result.stats.parallel_threads;
    if (first) {
      out.result = std::move(result);
    }
  }
  return out;
}

double TotalSeconds(const CoarseStageStats& s) {
  return s.tokenize_seconds + s.total_seconds();
}

void WriteRun(JsonWriter& w, const RunOutcome& r) {
  w.BeginObject();
  w.Key("label").String(r.serial ? "serial"
                                 : "parallel_" + std::to_string(r.threads));
  w.Key("num_threads").Int(static_cast<int64_t>(r.threads));
  w.Key("use_serial_coarse").Bool(r.serial);
  w.Key("tokenize_seconds").Double(r.best.tokenize_seconds);
  w.Key("index_seconds").Double(r.best.index_seconds);
  w.Key("top_phrase_seconds").Double(r.best.top_phrase_seconds);
  w.Key("graph_seconds").Double(r.best.graph_seconds);
  w.Key("components_seconds").Double(r.best.components_seconds);
  w.Key("total_seconds").Double(TotalSeconds(r.best));
  w.Key("num_clusters").Int(static_cast<int64_t>(r.result.clusters.size()));
  w.Key("num_edges").Int(static_cast<int64_t>(r.result.num_edges));
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("out", "BENCH_coarse.json",
                  "where to write the JSON report");
  if (const std::optional<int> exit_code =
          bench::ParseBenchFlags(&flags, argc, argv, "bench_coarse")) {
    return *exit_code;
  }
  const std::string out_path = flags.GetString("out");
  constexpr int kTrials = 3;

  LabeledAds data = WideCorpus();
  std::vector<std::string> texts;
  texts.reserve(data.corpus.size());
  for (const Document& doc : data.corpus.docs()) {
    texts.push_back(doc.raw);
  }
  std::printf("corpus: %zu documents (wide: many mid-sized campaigns)\n",
              texts.size());

  // Serial reference first so the parallel runs cannot benefit from a
  // warm page cache they didn't earn.
  RunOutcome serial =
      RunConfig(texts, /*threads=*/1, /*serial=*/true, kTrials);
  std::printf(
      "serial:     total %.3fs  (tok %.3f  idx %.3f  top %.3f  graph %.3f  "
      "comp %.3f)\n",
      TotalSeconds(serial.best), serial.best.tokenize_seconds,
      serial.best.index_seconds, serial.best.top_phrase_seconds,
      serial.best.graph_seconds, serial.best.components_seconds);

  double speedup4 = 0.0;
  std::vector<RunOutcome> runs;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RunOutcome run = RunConfig(texts, threads, /*serial=*/false, kTrials);
    if (!SameResult(run.result, serial.result)) {
      std::fprintf(stderr,
                   "FAIL: parallel coarse run (num_threads=%zu) diverged "
                   "from the serial reference\n",
                   threads);
      return 1;
    }
    std::printf(
        "threads=%zu: total %.3fs  (tok %.3f  idx %.3f  top %.3f  "
        "graph %.3f  comp %.3f)\n",
        threads, TotalSeconds(run.best), run.best.tokenize_seconds,
        run.best.index_seconds, run.best.top_phrase_seconds,
        run.best.graph_seconds, run.best.components_seconds);
    if (threads == 4 && TotalSeconds(run.best) > 0.0) {
      speedup4 = TotalSeconds(serial.best) / TotalSeconds(run.best);
    }
    runs.push_back(std::move(run));
  }
  std::printf("speedup at 4 threads: %.2fx  (outputs identical: yes)\n",
              speedup4);

  bench::BenchJson bench_json("infoshield-bench-coarse/2");
  JsonWriter& w = bench_json.writer();
  w.Key("corpus_documents").Int(static_cast<int64_t>(texts.size()));
  w.Key("trials").Int(kTrials);
  w.Key("outputs_identical").Bool(true);
  w.Key("serial");
  WriteRun(w, serial);
  w.Key("parallel").BeginArray();
  for (const RunOutcome& run : runs) {
    WriteRun(w, run);
  }
  w.EndArray();
  w.Key("speedup_4_threads").Double(speedup4);
  return bench_json.Finish(out_path);
}
