// Experiment E2 — Figure 1 (middle) / Figure 2: InfoShield runtime vs.
// number of tweets. The paper's claim (Lemma 2) is quasi-linear scaling:
// a straight line through the timing points (f(x) = 3x/400 on their
// laptop; the slope here depends on this machine, the *linearity* is the
// reproduced result).
//
// Workload: synthetic Cresci-style test-set mixes (50% genuine / 50% bot
// accounts) at increasing N, averaged over trials. The coarse column is
// broken down per phase (tf-idf index, top-phrase selection, graph) so a
// super-linear phase cannot hide inside the total. A final section
// sweeps the worker count at a fixed N to show how the parallel coarse
// and fine paths share the same quasi-linear shape per thread.
//
// Usage: bench_fig2_scalability [--out BENCH_fig2.json] [--help]
//   Prints the tables as before and writes the sweep rows, the thread
//   sweep, and the linear-fit metrics into the shared BENCH_*.json
//   envelope (schema "infoshield-bench-fig2/1", default
//   ./BENCH_fig2.json).

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/infoshield.h"
#include "datagen/twitter_gen.h"
#include "io/json_writer.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

infoshield::LabeledTweets MakeTweets(size_t target, uint64_t seed) {
  infoshield::TwitterGenOptions o;
  o.num_genuine_accounts = target / 25;
  o.num_bot_accounts = target / 25;
  return infoshield::TwitterGenerator(o).Generate(seed);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace infoshield;
  FlagParser flags;
  flags.AddString("out", "BENCH_fig2.json",
                  "where to write the JSON report");
  if (const std::optional<int> exit_code = bench::ParseBenchFlags(
          &flags, argc, argv, "bench_fig2_scalability")) {
    return *exit_code;
  }
  const std::string out_path = flags.GetString("out");
  bench::PrintHeader(
      "Fig. 2: runtime vs. #tweets (expect linear; paper: 3x/400)");

  // Tweets per account averages ~12.5, so accounts = N / 12.5.
  const std::vector<size_t> sizes = {1000, 2000,  4000,  8000,
                                     16000, 32000, 64000, 128000};
  const int kTrials = 3;

  bench::BenchJson bench_json("infoshield-bench-fig2/1");
  JsonWriter& w = bench_json.writer();
  w.Key("trials").Int(kTrials);
  w.Key("sweep").BeginArray();

  std::vector<double> xs;
  std::vector<double> ys;
  std::printf("%-10s %-10s %-10s %-8s %-8s %-8s %-10s %-10s\n", "tweets",
              "actual_n", "coarse_s", "idx_s", "top_s", "graph_s", "fine_s",
              "total_s");
  for (size_t target : sizes) {
    double total_coarse = 0;
    double total_fine = 0;
    double total_index = 0;
    double total_top = 0;
    double total_graph = 0;
    size_t actual_n = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      LabeledTweets data = MakeTweets(target, 1000 + trial);
      actual_n = data.corpus.size();

      InfoShield shield;
      InfoShieldResult r = shield.Run(data.corpus);
      total_coarse += r.coarse_seconds;
      total_fine += r.fine_seconds;
      total_index += r.coarse_stats.index_seconds;
      total_top += r.coarse_stats.top_phrase_seconds;
      total_graph += r.coarse_stats.graph_seconds;
    }
    const double coarse_s = total_coarse / kTrials;
    const double fine_s = total_fine / kTrials;
    std::printf("%-10zu %-10zu %-10.3f %-8.3f %-8.3f %-8.3f %-10.3f %-10.3f\n",
                target, actual_n, coarse_s, total_index / kTrials,
                total_top / kTrials, total_graph / kTrials, fine_s,
                coarse_s + fine_s);
    w.BeginObject();
    w.Key("target_tweets").Int(static_cast<int64_t>(target));
    w.Key("documents").Int(static_cast<int64_t>(actual_n));
    w.Key("coarse_seconds").Double(coarse_s);
    w.Key("index_seconds").Double(total_index / kTrials);
    w.Key("top_phrase_seconds").Double(total_top / kTrials);
    w.Key("graph_seconds").Double(total_graph / kTrials);
    w.Key("fine_seconds").Double(fine_s);
    w.Key("total_seconds").Double(coarse_s + fine_s);
    w.EndObject();
    xs.push_back(static_cast<double>(actual_n));
    ys.push_back(coarse_s + fine_s);
  }
  w.EndArray();

  bench::LinearFit fit = bench::FitLine(xs, ys);
  std::printf(
      "\nlinear fit: time = %.3g * N %+.3g   (R^2 = %.4f)\n"
      "paper shape: linear (their slope 3/400 s/tweet on a 2019 laptop)\n"
      "R^2 close to 1 reproduces the quasi-linearity of Lemma 2.\n",
      fit.slope, fit.intercept, fit.r_squared);

  // Thread sweep at fixed N: both stages run behind
  // InfoShieldOptions::num_threads; the coarse phase columns show where
  // the parallel pipeline spends its time as workers are added. Output is
  // byte-identical across rows (determinism_test enforces it); this
  // section only reports the cost.
  const size_t kSweepTarget = 16000;
  std::printf("\nthread sweep at %zu tweets (per-phase coarse seconds):\n",
              kSweepTarget);
  std::printf("%-8s %-10s %-8s %-8s %-8s %-10s %-10s\n", "threads",
              "coarse_s", "idx_s", "top_s", "graph_s", "fine_s", "total_s");
  w.Key("thread_sweep_tweets").Int(static_cast<int64_t>(kSweepTarget));
  w.Key("thread_sweep").BeginArray();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    double total_coarse = 0;
    double total_fine = 0;
    double total_index = 0;
    double total_top = 0;
    double total_graph = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      LabeledTweets data = MakeTweets(kSweepTarget, 2000 + trial);
      InfoShieldOptions options;
      options.num_threads = threads;
      InfoShield shield(options);
      InfoShieldResult r = shield.Run(data.corpus);
      total_coarse += r.coarse_seconds;
      total_fine += r.fine_seconds;
      total_index += r.coarse_stats.index_seconds;
      total_top += r.coarse_stats.top_phrase_seconds;
      total_graph += r.coarse_stats.graph_seconds;
    }
    std::printf("%-8zu %-10.3f %-8.3f %-8.3f %-8.3f %-10.3f %-10.3f\n",
                threads, total_coarse / kTrials, total_index / kTrials,
                total_top / kTrials, total_graph / kTrials,
                total_fine / kTrials,
                (total_coarse + total_fine) / kTrials);
    w.BeginObject();
    w.Key("threads").Int(static_cast<int64_t>(threads));
    w.Key("coarse_seconds").Double(total_coarse / kTrials);
    w.Key("index_seconds").Double(total_index / kTrials);
    w.Key("top_phrase_seconds").Double(total_top / kTrials);
    w.Key("graph_seconds").Double(total_graph / kTrials);
    w.Key("fine_seconds").Double(total_fine / kTrials);
    w.Key("total_seconds").Double((total_coarse + total_fine) / kTrials);
    w.EndObject();
  }
  w.EndArray();

  bench_json.Metrics({
      {"fit_slope_s_per_doc", fit.slope},
      {"fit_intercept_s", fit.intercept},
      {"fit_r_squared", fit.r_squared},
  });
  return bench_json.Finish(out_path);
}
