// Incremental ingestion benchmark + differential oracle gate.
//
// Seeds an IncrementalInfoShield with a realistic base corpus, then
// ingests small batches in two regimes:
//   * repeat rounds: copies of one existing document, so no word is new
//     and lg V holds still;
//   * new-vocabulary rounds: the same copies plus one word no earlier
//     batch used, so lg V moves and every fine-stage cost changes.
// After EVERY batch the engine's JSON must byte-match a fresh batch
// InfoShield::Run over the concatenated corpus; any divergence exits
// non-zero so CI fails.
//
// The performance claim under test is the one DESIGN.md §15 makes: the
// per-batch alignment work (IngestStats::fine_alignments) tracks the
// claims and candidate sets a batch changes, not the corpus size, in
// both regimes — while the from-scratch baseline re-pays the whole
// corpus every time. The JSON records both so the trajectory is
// auditable; the gate is only on divergence, never on speedup
// (single-core CI runners stay honest).
//
// Usage: bench_incremental [--out BENCH_incremental.json] [--help]

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/infoshield.h"
#include "datagen/trafficking_gen.h"
#include "incremental/incremental_infoshield.h"
#include "io/json_writer.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

using namespace infoshield;

LabeledAds BaseCorpus() {
  TraffickingGenOptions o;
  o.num_benign = 800;
  o.num_spam_clusters = 6;
  o.spam_cluster_size_min = 20;
  o.spam_cluster_size_max = 40;
  o.num_ht_clusters = 20;
  o.ht_cluster_size_min = 5;
  o.ht_cluster_size_max = 12;
  return TraffickingGenerator(o).Generate(/*seed=*/409);
}

struct Round {
  IngestStats stats;
  double incremental_seconds = 0.0;
  double full_rebuild_seconds = 0.0;
};

// The oracle: fresh corpus + batch pipeline over everything so far.
std::string BatchJson(const std::vector<std::string>& texts,
                      const InfoShieldOptions& options, double* seconds) {
  WallTimer timer;
  Corpus corpus;
  corpus.AddBatch(texts, options.num_threads);
  InfoShield shield(options);
  const InfoShieldResult result = shield.Run(corpus);
  *seconds = timer.ElapsedSeconds();
  return ResultToJson(result, corpus);
}

void WriteRound(JsonWriter& w, const Round& r) {
  const IngestStats& s = r.stats;
  w.BeginObject();
  w.Key("batch_docs").Int(static_cast<int64_t>(s.batch_docs));
  w.Key("total_docs").Int(static_cast<int64_t>(s.total_docs));
  w.Key("dirty_clusters").Int(static_cast<int64_t>(s.dirty_clusters));
  w.Key("reused_clusters").Int(static_cast<int64_t>(s.reused_clusters));
  w.Key("dirty_cluster_docs").Int(static_cast<int64_t>(s.dirty_cluster_docs));
  w.Key("fine_alignments").Int(static_cast<int64_t>(s.fine_alignments));
  w.Key("graph_rebuilt").Bool(s.graph_rebuilt);
  w.Key("vocab_grew").Bool(s.vocab_grew);
  w.Key("df_seconds").Double(s.df_seconds);
  w.Key("rescore_seconds").Double(s.rescore_seconds);
  w.Key("graph_seconds").Double(s.graph_seconds);
  w.Key("fine_seconds").Double(s.fine_seconds);
  w.Key("incremental_seconds").Double(r.incremental_seconds);
  w.Key("full_rebuild_seconds").Double(r.full_rebuild_seconds);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("out", "BENCH_incremental.json",
                  "where to write the JSON report");
  if (const std::optional<int> exit_code =
          bench::ParseBenchFlags(&flags, argc, argv, "bench_incremental")) {
    return *exit_code;
  }
  const std::string out_path = flags.GetString("out");

  LabeledAds data = BaseCorpus();
  std::vector<std::string> texts;
  texts.reserve(data.corpus.size());
  for (const Document& doc : data.corpus.docs()) {
    texts.push_back(doc.raw);
  }
  std::printf("base corpus: %zu documents\n", texts.size());

  InfoShieldOptions options;
  IncrementalInfoShield engine(options);

  // Round 0: the whole base corpus in one batch (everything is dirty —
  // this is the price a cold start always pays).
  std::vector<Round> rounds;
  {
    Round r;
    WallTimer timer;
    Result<IngestStats> stats = engine.IngestBatch(texts);
    r.incremental_seconds = timer.ElapsedSeconds();
    if (!stats.ok()) {
      std::fprintf(stderr, "FAIL: base ingest: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    r.stats = *stats;
    std::string oracle = BatchJson(texts, options, &r.full_rebuild_seconds);
    if (ResultToJson(engine.result(), engine.corpus()) != oracle) {
      std::fprintf(stderr, "FAIL: base ingest diverged from batch run\n");
      return 1;
    }
    std::printf(
        "round 0 (cold): %zu docs, %zu dirty clusters, inc %.3fs vs "
        "batch %.3fs\n",
        r.stats.total_docs, r.stats.dirty_clusters, r.incremental_seconds,
        r.full_rebuild_seconds);
    rounds.push_back(r);
  }

  // Small update rounds: each ingests near-duplicates of one existing
  // benign document, touching (roughly) one coarse component while the
  // corpus keeps its full size. Repeat rounds reuse existing wording, so
  // lg V holds; new-vocabulary rounds append one never-seen word to
  // every copy, so lg V moves on every round.
  constexpr int kRounds = 6;
  constexpr int kCopies = 4;
  struct Regime {
    const char* name;
    bool new_words;
    double incremental_total = 0.0;
    double full_rebuild_total = 0.0;
    size_t alignments_total = 0;
  };
  Regime regimes[] = {{"repeat", false}, {"new_vocabulary", true}};
  int round = 0;
  for (Regime& regime : regimes) {
    for (int i = 1; i <= kRounds; ++i) {
      ++round;
      std::string text = texts[static_cast<size_t>(round) * 37];
      if (regime.new_words) text += " neologism" + std::to_string(round);
      std::vector<std::string> batch(kCopies, text);
      texts.insert(texts.end(), batch.begin(), batch.end());

      Round r;
      WallTimer timer;
      Result<IngestStats> stats = engine.IngestBatch(batch);
      r.incremental_seconds = timer.ElapsedSeconds();
      if (!stats.ok()) {
        std::fprintf(stderr, "FAIL: round %d ingest: %s\n", round,
                     stats.status().ToString().c_str());
        return 1;
      }
      r.stats = *stats;
      if (r.stats.vocab_grew != regime.new_words) {
        std::fprintf(stderr, "FAIL: round %d (%s) vocab_grew is %d\n", round,
                     regime.name, r.stats.vocab_grew ? 1 : 0);
        return 1;
      }
      std::string oracle = BatchJson(texts, options, &r.full_rebuild_seconds);
      if (ResultToJson(engine.result(), engine.corpus()) != oracle) {
        std::fprintf(stderr,
                     "FAIL: round %d (%s) diverged from the batch oracle "
                     "(%zu docs total)\n",
                     round, regime.name, texts.size());
        return 1;
      }
      std::printf(
          "round %d (%s): +%d docs -> %zu/%zu clusters dirty (%zu docs of "
          "%zu), %zu alignments, inc %.3fs vs batch %.3fs\n",
          round, regime.name, kCopies, r.stats.dirty_clusters,
          r.stats.num_coarse_clusters, r.stats.dirty_cluster_docs,
          r.stats.total_docs, r.stats.fine_alignments, r.incremental_seconds,
          r.full_rebuild_seconds);
      regime.incremental_total += r.incremental_seconds;
      regime.full_rebuild_total += r.full_rebuild_seconds;
      regime.alignments_total += r.stats.fine_alignments;
      rounds.push_back(r);
    }
  }

  auto speedup = [](const Regime& regime) {
    return regime.incremental_total > 0.0
               ? regime.full_rebuild_total / regime.incremental_total
               : 0.0;
  };
  for (const Regime& regime : regimes) {
    std::printf(
        "%s rounds: incremental %.3fs vs full rebuilds %.3fs (%.2fx), "
        "%.1f alignments per round (cold start %zu), outputs identical: "
        "yes\n",
        regime.name, regime.incremental_total, regime.full_rebuild_total,
        speedup(regime),
        static_cast<double>(regime.alignments_total) / kRounds,
        rounds[0].stats.fine_alignments);
  }

  bench::BenchJson bench_json("infoshield-bench-incremental/3");
  JsonWriter& w = bench_json.writer();
  w.Key("base_documents").Int(static_cast<int64_t>(rounds[0].stats.total_docs));
  w.Key("update_rounds").Int(kRounds);
  w.Key("docs_per_update").Int(kCopies);
  w.Key("outputs_identical").Bool(true);
  w.Key("cold_start_alignments")
      .Int(static_cast<int64_t>(rounds[0].stats.fine_alignments));
  w.Key("regimes").BeginArray();
  for (const Regime& regime : regimes) {
    w.BeginObject();
    w.Key("name").String(regime.name);
    w.Key("update_speedup").Double(speedup(regime));
    w.Key("alignments_per_round")
        .Double(static_cast<double>(regime.alignments_total) / kRounds);
    w.EndObject();
  }
  w.EndArray();
  // Round 0 is the cold start, then kRounds repeat rounds, then kRounds
  // new-vocabulary rounds.
  w.Key("rounds").BeginArray();
  for (const Round& r : rounds) {
    WriteRound(w, r);
  }
  w.EndArray();
  return bench_json.Finish(out_path);
}
