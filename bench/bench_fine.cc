// Fine-stage hot-path regression harness.
//
// Runs the full pipeline twice on a skewed synthetic corpus — one
// dominant coarse cluster, the shape that makes the fine stage the
// bottleneck — once with the default (cached + incremental) costing and
// once with FineOptions::use_naive_costing. The two runs MUST render to
// byte-identical JSON (the optimization contract); any disagreement
// exits non-zero so CI fails. Emits BENCH_fine.json with both runs'
// stage seconds and hot-path counters plus the speedup, giving the
// repo a tracked trajectory for this path.
//
// Usage: bench_fine [--out BENCH_fine.json] [--help]

#include <cstdio>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "io/json_writer.h"
#include "util/flags.h"

namespace {

using namespace infoshield;

// One dominant coarse cluster: a single large near-duplicate campaign
// dwarfing everything else, plus a few small organized clusters and a
// benign tail.
LabeledAds SkewedCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 120;
  o.num_spam_clusters = 1;
  o.spam_cluster_size_min = 360;
  o.spam_cluster_size_max = 360;
  o.num_ht_clusters = 6;
  o.ht_cluster_size_min = 6;
  o.ht_cluster_size_max = 14;
  return TraffickingGenerator(o).Generate(/*seed=*/97);
}

struct RunOutcome {
  std::string json;
  double fine_seconds = 0.0;
  double coarse_seconds = 0.0;
  FineStageStats stats;
  size_t num_templates = 0;
};

RunOutcome RunOnce(const Corpus& corpus, bool naive) {
  InfoShieldOptions options;
  options.fine.use_naive_costing = naive;
  InfoShield shield(options);
  InfoShieldResult result = shield.Run(corpus);
  RunOutcome out;
  out.json = ResultToJson(result, corpus);
  out.fine_seconds = result.fine_seconds;
  out.coarse_seconds = result.coarse_seconds;
  out.stats = result.fine_stats;
  out.num_templates = result.templates.size();
  return out;
}

void WriteRun(JsonWriter& w, const char* key, const RunOutcome& r) {
  w.Key(key).BeginObject();
  w.Key("fine_seconds").Double(r.fine_seconds);
  w.Key("coarse_seconds").Double(r.coarse_seconds);
  w.Key("alignments_computed")
      .Int(static_cast<int64_t>(r.stats.alignments_computed));
  w.Key("consensus_probes")
      .Int(static_cast<int64_t>(r.stats.consensus_probes));
  w.Key("consensus_cache_hits")
      .Int(static_cast<int64_t>(r.stats.consensus_cache_hits));
  w.Key("cache_hit_rate").Double(r.stats.cache_hit_rate());
  w.Key("slot_candidates_evaluated")
      .Int(static_cast<int64_t>(r.stats.slot_candidates_evaluated));
  w.Key("num_templates").Int(static_cast<int64_t>(r.num_templates));
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("out", "BENCH_fine.json",
                  "where to write the JSON report");
  if (const std::optional<int> exit_code =
          bench::ParseBenchFlags(&flags, argc, argv, "bench_fine")) {
    return *exit_code;
  }
  const std::string out_path = flags.GetString("out");
  LabeledAds data = SkewedCorpus();
  std::printf("corpus: %zu documents (skewed: one dominant campaign)\n",
              data.corpus.size());

  // Naive first so the optimized run cannot benefit from a warm page
  // cache it didn't earn; both runs share the corpus either way.
  RunOutcome naive = RunOnce(data.corpus, /*naive=*/true);
  RunOutcome optimized = RunOnce(data.corpus, /*naive=*/false);

  if (optimized.json != naive.json) {
    std::fprintf(stderr,
                 "FAIL: optimized and naive fine-stage runs disagree "
                 "(%zu vs %zu JSON bytes)\n",
                 optimized.json.size(), naive.json.size());
    return 1;
  }

  const double speedup = optimized.fine_seconds > 0.0
                             ? naive.fine_seconds / optimized.fine_seconds
                             : 0.0;
  std::printf("naive:     fine %.3fs  alignments %zu\n", naive.fine_seconds,
              naive.stats.alignments_computed);
  std::printf("optimized: fine %.3fs  alignments %zu  cache hit rate %.2f\n",
              optimized.fine_seconds, optimized.stats.alignments_computed,
              optimized.stats.cache_hit_rate());
  std::printf("speedup: %.2fx  (outputs byte-identical: yes)\n", speedup);

  bench::BenchJson bench_json("infoshield-bench-fine/2");
  JsonWriter& w = bench_json.writer();
  w.Key("corpus_documents").Int(static_cast<int64_t>(data.corpus.size()));
  w.Key("outputs_identical").Bool(true);
  WriteRun(w, "optimized", optimized);
  WriteRun(w, "naive", naive);
  w.Key("fine_speedup").Double(speedup);
  return bench_json.Finish(out_path);
}
