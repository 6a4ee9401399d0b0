// perfbench_driver — the benchmark's C++ half. Every invocation does one
// job and prints one JSON report on stdout; run.py starts each job in a
// fresh process so that the job's peak RSS is its own.
//
//   perfbench_driver gen    --workload W --seed N --dir D
//       Generates the workload's corpus from the seed and writes
//       D/input.csv (one "text" column, in stream order) and
//       D/truth.txt (1 = bot tweet / non-benign ad, one line per row).
//   perfbench_driver batch  --workload W --dir D --json OUT [--threads T]
//       The CLI's --json path: LoadCorpusFromCsv -> InfoShield::Run ->
//       RankTemplates -> ResultToJson + file write.
//   perfbench_driver stream --workload W --dir D --json OUT
//       IncrementalInfoShield: engine + base IngestBatch, then the
//       remaining rows in batches.
//
// batch and stream repeat for --seconds and at least --min-ops times.
// With --trace FILE every second repetition records spans around each
// call into a library module (and, for batch, also makes the per-module
// calls InfoShield::Run makes internally) plus counters, written to FILE.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "core/ranking.h"
#include "datagen/trafficking_gen.h"
#include "datagen/twitter_gen.h"
#include "eval/metrics.h"
#include "incremental/incremental_infoshield.h"
#include "io/csv.h"
#include "io/json_writer.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "mdl/cost_model.h"
#include "tfidf/tfidf_index.h"
#include "trace.h"
#include "util/flags.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace infoshield;

enum class Source { kTweets, kAds, kStreamAds };

struct Workload {
  std::string_view name;
  Source source;
  // The generator's output is cut to exactly this many documents, so
  // every seed does the same amount of work (the generators draw cluster
  // sizes at random; their parameters below overshoot by 3+ sigma).
  size_t docs;
  size_t threads;
  CoarseBackend backend;
};

// Generator parameters and rationale per workload: README.md.
constexpr Workload kWorkloads[] = {
    {"tweets-t1", Source::kTweets, 64000, 1, CoarseBackend::kTfidfGraph},
    {"ads-t4", Source::kAds, 16000, 4, CoarseBackend::kTfidfGraph},
    {"ads-lsh-t4", Source::kAds, 16000, 4, CoarseBackend::kMinhashLsh},
    {"ads-stream", Source::kStreamAds, 3300, 4, CoarseBackend::kTfidfGraph},
};

// ads-stream: the first kBaseFraction of the rows are the base corpus,
// the rest arrive in kStreamBatches batches of near-equal size (about 10
// ads each), enough that the p90 latency has 10 samples beyond it.
constexpr double kBaseFraction = 0.7;
constexpr size_t kStreamBatches = 110;

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

TwitterGenOptions TweetOptions() {
  TwitterGenOptions o;  // 50/50 genuine/bot accounts, 5-20 tweets each
  o.num_genuine_accounts = 2640;
  o.num_bot_accounts = 2640;
  return o;
}

TraffickingGenOptions AdOptions(Source source) {
  TraffickingGenOptions o;
  if (source == Source::kStreamAds) {
    o.num_benign = 1100;
    o.num_spam_clusters = 6;
    o.spam_cluster_size_min = 60;
    o.spam_cluster_size_max = 200;
    o.num_ht_clusters = 55;
    o.ht_cluster_size_min = 10;
    o.ht_cluster_size_max = 60;
    return o;
  }
  o.num_benign = 1100;
  o.num_spam_clusters = 10;
  o.spam_cluster_size_min = 200;
  o.spam_cluster_size_max = 500;
  o.num_ht_clusters = 160;
  o.ht_cluster_size_min = 20;
  o.ht_cluster_size_max = 150;
  return o;
}

InfoShieldOptions PipelineOptions(const Workload& w, size_t threads) {
  InfoShieldOptions o;
  o.num_threads = threads;
  o.coarse.backend = w.backend;
  o.coarse.num_threads = threads;
  return o;
}

std::string InputPath(const std::string& dir) { return dir + "/input.csv"; }
std::string TruthPath(const std::string& dir) { return dir + "/truth.txt"; }

// Runs `f` inside a span named `name` and returns its wall seconds. The
// untraced run takes the same timer and a null span.
template <typename F>
double Timed(Trace* trace, const char* name, F&& f) {
  ScopedSpan span(trace, name);
  WallTimer timer;
  f();
  return timer.ElapsedSeconds();
}

class Report {
 public:
  Report() { w_.Open('{'); }
  JsonOut& Key(std::string_view key) { return w_.Key(key); }
  // Prints the report; the exit code says whether the job succeeded.
  int Finish(const Status& status) {
    w_.Key("ok").Bool(status.ok());
    w_.Key("error").String(status.ok() ? "" : status.ToString());
    w_.Close('}');
    std::printf("%s\n", w_.str().c_str());
    return status.ok() ? 0 : 1;
  }

 private:
  JsonOut w_;
};

Result<std::vector<bool>> ReadTruth(const std::string& dir, size_t docs) {
  std::ifstream in(TruthPath(dir));
  std::vector<bool> truth;
  std::string line;
  while (std::getline(in, line)) truth.push_back(line == "1");
  if (truth.size() != docs) {
    return Status::InvalidArgument("truth.txt does not match input.csv");
  }
  return truth;
}

Result<double> SuspiciousF1(const std::string& dir,
                            const InfoShieldResult& result) {
  Result<std::vector<bool>> truth = ReadTruth(dir, result.doc_template.size());
  if (!truth.ok()) return truth.status();
  std::vector<bool> predicted(result.doc_template.size());
  for (size_t d = 0; d < predicted.size(); ++d) {
    predicted[d] = result.IsSuspicious(static_cast<DocId>(d));
  }
  return ComputeBinaryMetrics(predicted, *truth).f1();
}

Result<std::vector<std::string>> ReadTexts(const std::string& dir) {
  Result<CsvTable> table = ReadCsvFile(InputPath(dir));
  if (!table.ok()) return table.status();
  const int col = table->ColumnIndex("text");
  if (col < 0) return Status::InvalidArgument("input.csv has no text column");
  std::vector<std::string> texts;
  texts.reserve(table->rows.size());
  for (std::vector<std::string>& row : table->rows) {
    const size_t c = static_cast<size_t>(col);
    texts.push_back(c < row.size() ? std::move(row[c]) : std::string());
  }
  return texts;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  Report report;
  CsvTable table;
  table.header = {"text"};
  std::vector<bool> truth;
  if (w.source == Source::kTweets) {
    LabeledTweets tweets = TwitterGenerator(TweetOptions()).Generate(seed);
    for (const Document& doc : tweets.corpus.docs()) {
      table.rows.push_back({doc.raw});
    }
    truth = tweets.is_bot;
  } else {
    LabeledAds ads = TraffickingGenerator(AdOptions(w.source)).Generate(seed);
    for (const Document& doc : ads.corpus.docs()) {
      table.rows.push_back({doc.raw});
    }
    for (AdType t : ads.type) truth.push_back(t != AdType::kBenign);
  }
  if (table.rows.size() > w.docs) {
    table.rows.resize(w.docs);
    truth.resize(w.docs);
  }
  Status status = WriteCsvFile(InputPath(dir), table);
  if (status.ok()) {
    std::ofstream out(TruthPath(dir));
    for (bool t : truth) out << (t ? "1\n" : "0\n");
    if (!out) status = Status::IoError("cannot write " + TruthPath(dir));
  }
  const size_t docs = table.rows.size();
  report.Key("docs").Number(static_cast<double>(docs));
  report.Key("positives")
      .Number(static_cast<double>(
          std::count(truth.begin(), truth.end(), true)));
  report.Key("threads").Number(static_cast<double>(w.threads));
  report.Key("stream").Bool(w.source == Source::kStreamAds);
  return report.Finish(status);
}

// The per-module calls InfoShield::Run makes internally, each under its
// own span, plus counters describing their work.
void TraceModules(const Workload& w, const InfoShieldOptions& options,
                  const Corpus& corpus, Trace* trace) {
  const size_t threads = options.num_threads;
  const CoarseOptions& coarse_options = options.coarse;
  if (w.backend == CoarseBackend::kTfidfGraph) {
    TfidfIndex index;
    Timed(trace, "tfidf.build",
          [&] { index.Build(corpus, coarse_options.tfidf, threads); });
    trace->Count("tfidf.phrases", static_cast<double>(index.num_phrases()));
    Timed(trace, "tfidf.top_phrases", [&] {
      for (const Document& doc : corpus.docs()) index.TopPhrases(doc);
    });
  } else {
    const MinHashFamily family(coarse_options.minhash);
    std::vector<MinHashSignature> signatures;
    signatures.reserve(corpus.size());
    Timed(trace, "lsh.signatures", [&] {
      for (const Document& doc : corpus.docs()) {
        signatures.push_back(family.Signature(doc.tokens));
      }
    });
    LshIndex lsh(coarse_options.minhash, coarse_options.lsh);
    Timed(trace, "lsh.index_build", [&] { lsh.Build(signatures, threads); });
    const LshIndex::Stats stats = lsh.ComputeStats();
    trace->Count("lsh.buckets", static_cast<double>(stats.num_buckets));
    trace->Count("lsh.max_bucket", static_cast<double>(stats.max_bucket));
    trace->Count("lsh.candidate_pairs",
                 static_cast<double>(stats.candidate_pairs));
  }

  CoarseResult coarse;
  Timed(trace, "coarse.run",
        [&] { coarse = CoarseClustering(coarse_options).Run(corpus); });
  size_t clustered = 0;
  size_t largest = 0;
  for (const std::vector<DocId>& c : coarse.clusters) {
    clustered += c.size();
    largest = std::max(largest, c.size());
  }
  trace->Count("coarse.edges", static_cast<double>(coarse.num_edges));
  trace->Count("coarse.clusters", static_cast<double>(coarse.clusters.size()));
  trace->Count("coarse.singletons",
               static_cast<double>(coarse.singletons.size()));
  trace->Count("coarse.max_cluster_docs", static_cast<double>(largest));
  trace->Count("coarse.max_cluster_share",
               clustered == 0 ? 0.0
                              : static_cast<double>(largest) /
                                    static_cast<double>(clustered));

  const CostModel cost_model = CostModel::ForVocabulary(corpus.vocab());
  const FineClustering fine(options.fine);
  for (const std::vector<DocId>& c : coarse.clusters) {
    Timed(trace, "fine.cluster", [&] {
      fine.RunOnCluster(corpus, c, cost_model, &coarse.doc_top_phrases);
    });
  }
}

// One pass of the CLI's --json path. With a trace, LoadCorpusFromCsv is
// split into its two halves so each gets a span, and the per-module calls
// follow outside the timed path.
struct BatchOp {
  double setup_s = 0.0;
  double run_s = 0.0;
  double rank_s = 0.0;
  double json_s = 0.0;
  double e2e_s = 0.0;
  size_t json_hash = 0;
};

Status RunBatchOnce(const Workload& w, const InfoShieldOptions& options,
                    const std::string& dir, const std::string& json_path,
                    bool validate, Trace* trace, BatchOp* op,
                    double* f1) {
  Status status = Status::Ok();
  WallTimer total;
  Corpus corpus;
  if (trace == nullptr) {
    op->setup_s = Timed(trace, "io.load", [&] {
      Result<Corpus> loaded = LoadCorpusFromCsv(InputPath(dir), "text");
      if (loaded.ok()) {
        corpus = std::move(loaded).value();
      } else {
        status = loaded.status();
      }
    });
  } else {
    std::vector<std::string> texts;
    op->setup_s = Timed(trace, "io.read_csv", [&] {
      Result<std::vector<std::string>> read = ReadTexts(dir);
      if (read.ok()) {
        texts = std::move(read).value();
      } else {
        status = read.status();
      }
    });
    op->setup_s += Timed(trace, "text.tokenize",
                         [&] { corpus.AddBatch(texts, 1); });
  }
  if (!status.ok()) return status;

  InfoShieldResult result;
  op->run_s = Timed(trace, "core.run",
                    [&] { result = InfoShield(options).Run(corpus); });
  op->rank_s = Timed(trace, "core.rank", [&] {
    RankTemplates(result, corpus, CostModel::ForVocabulary(corpus.vocab()));
  });
  op->json_s = Timed(trace, "io.json", [&] {
    const std::string json = ResultToJson(result, corpus);
    status = WriteJsonFile(json_path, json);
    op->json_hash = std::hash<std::string>()(json);
  });
  op->e2e_s = total.ElapsedSeconds();
  if (!status.ok()) return status;

  if (validate) {
    INFOSHIELD_RETURN_IF_ERROR(ValidateInfoShieldResult(result, corpus));
    Result<double> score = SuspiciousF1(dir, result);
    if (!score.ok()) return score.status();
    *f1 = *score;
  }
  if (trace != nullptr) {
    trace->Count("text.docs", static_cast<double>(corpus.size()));
    trace->Count("text.vocab", static_cast<double>(corpus.vocab().size()));
    const FineStageStats& fs = result.fine_stats;
    trace->Count("fine.alignments",
                 static_cast<double>(fs.alignments_computed));
    trace->Count("fine.consensus_probes",
                 static_cast<double>(fs.consensus_probes));
    trace->Count("fine.cache_hit_rate", fs.cache_hit_rate());
    trace->Count("fine.slot_candidates",
                 static_cast<double>(fs.slot_candidates_evaluated));
    trace->Count("fine.templates",
                 static_cast<double>(result.templates.size()));
    result = InfoShieldResult();
    TraceModules(w, options, corpus, trace);
  }
  return Status::Ok();
}

// Repeats the pipeline until `seconds` have passed and `min_ops` ran. The
// first result is validated and every later one must hash to the same
// bytes; with a trace, every second run is traced.
int RunBatch(const Workload& w, const std::string& dir, size_t threads,
             const std::string& json_path, const std::string& trace_path,
             double seconds, int min_ops) {
  Report report;
  Trace trace;
  const bool tracing = !trace_path.empty();
  const InfoShieldOptions options = PipelineOptions(w, threads);
  Status status = Status::Ok();
  double f1 = 0.0;
  std::vector<BatchOp> ops;
  std::vector<int> traced, same;
  WallTimer budget;
  for (int i = 0; i < min_ops || budget.ElapsedSeconds() < seconds; ++i) {
    const bool traced_op = tracing && i % 2 == 1;
    trace.SetRequest(i);
    BatchOp op;
    status = RunBatchOnce(w, options, dir, json_path, i == 0,
                          traced_op ? &trace : nullptr, &op, &f1);
    if (!status.ok()) break;
    same.push_back(ops.empty() || op.json_hash == ops.front().json_hash);
    traced.push_back(traced_op ? 1 : 0);
    ops.push_back(op);
  }

  auto column = [&](std::string_view key, double BatchOp::*field) {
    std::vector<double> values;
    for (const BatchOp& op : ops) values.push_back(op.*field);
    report.Key(key).Numbers(values);
  };
  column("setup_s", &BatchOp::setup_s);
  column("run_s", &BatchOp::run_s);
  column("rank_s", &BatchOp::rank_s);
  column("json_s", &BatchOp::json_s);
  column("e2e_s", &BatchOp::e2e_s);
  report.Key("traced").Numbers(traced);
  report.Key("same").Numbers(same);
  report.Key("f1").Number(f1);
  if (status.ok() && tracing) {
    status = WriteJsonFile(trace_path, trace.ToJson());
  }
  return report.Finish(status);
}

// Streams the rows through IncrementalInfoShield until `seconds` have
// passed and `min_passes` ran. A pass is one set-up (engine + base
// IngestBatch) and the remaining rows in kStreamBatches batches. The first
// pass's final state is validated and every later one must hash to the
// same bytes; with a trace, every second pass is traced.
int RunStream(const Workload& w, const std::string& dir,
              const std::string& json_path, const std::string& trace_path,
              double seconds, int min_passes) {
  Report report;
  Trace trace;
  const bool tracing = !trace_path.empty();
  const InfoShieldOptions options = PipelineOptions(w, w.threads);

  Result<std::vector<std::string>> texts = ReadTexts(dir);
  if (!texts.ok()) return report.Finish(texts.status());
  const size_t base_docs =
      static_cast<size_t>(kBaseFraction * static_cast<double>(texts->size()));
  std::vector<std::vector<std::string>> batches;
  batches.emplace_back(texts->begin(), texts->begin() + base_docs);
  const size_t streamed = texts->size() - base_docs;
  for (size_t b = 0; b < kStreamBatches; ++b) {
    batches.emplace_back(
        texts->begin() + base_docs + b * streamed / kStreamBatches,
        texts->begin() + base_docs + (b + 1) * streamed / kStreamBatches);
  }

  Status status = Status::Ok();
  size_t ingests = 0, failed_ingests = 0;
  size_t first_hash = 0;
  double f1 = 0.0;
  std::vector<double> setup_s, stream_s;
  std::vector<int> traced, same;
  JsonOut& latencies = report.Key("ingest_ms").Open('[');
  WallTimer budget;
  for (int pass = 0; pass < min_passes || budget.ElapsedSeconds() < seconds;
       ++pass) {
    const bool traced_pass = tracing && pass % 2 == 1;
    Trace* t = traced_pass ? &trace : nullptr;
    trace.SetRequest(pass);
    auto ingest = [&](IncrementalInfoShield& engine, size_t b) {
      ++ingests;
      Result<IngestStats> stats = engine.IngestBatch(batches[b]);
      if (stats.ok()) return *stats;
      ++failed_ingests;
      if (status.ok()) status = stats.status();
      return IngestStats();
    };

    std::unique_ptr<IncrementalInfoShield> engine;
    setup_s.push_back(Timed(t, "incremental.setup", [&] {
      engine = std::make_unique<IncrementalInfoShield>(options);
      ingest(*engine, 0);
    }));
    size_t vocab_grew = 0, graph_rebuilt = 0, dirty_docs = 0;
    size_t dirty_clusters = 0, reused_clusters = 0;
    latencies.Open('[');
    WallTimer stream_timer;
    for (size_t b = 1; b < batches.size(); ++b) {
      IngestStats stats;
      latencies.Number(1e3 * Timed(t, "incremental.ingest",
                                   [&] { stats = ingest(*engine, b); }));
      vocab_grew += stats.vocab_grew ? 1 : 0;
      graph_rebuilt += stats.graph_rebuilt ? 1 : 0;
      dirty_docs += stats.dirty_cluster_docs;
      dirty_clusters += stats.dirty_clusters;
      reused_clusters += stats.reused_clusters;
    }
    stream_s.push_back(stream_timer.ElapsedSeconds());
    latencies.Close(']');
    if (!status.ok()) break;

    const std::string json = ResultToJson(engine->result(), engine->corpus());
    const size_t hash = std::hash<std::string>()(json);
    if (pass == 0) {
      first_hash = hash;
      status = WriteJsonFile(json_path, json);
      if (status.ok()) status = engine->ValidateInvariants();
      Result<double> score = SuspiciousF1(dir, engine->result());
      if (status.ok() && !score.ok()) status = score.status();
      f1 = score.ok() ? *score : 0.0;
      if (!status.ok()) break;
    }
    same.push_back(hash == first_hash ? 1 : 0);
    traced.push_back(traced_pass ? 1 : 0);
    if (traced_pass) {
      const double n = static_cast<double>(batches.size() - 1);
      const size_t clusters = dirty_clusters + reused_clusters;
      trace.Count("incremental.batches", n);
      trace.Count("incremental.vocab_grew_frac", vocab_grew / n);
      trace.Count("incremental.graph_rebuilt_frac", graph_rebuilt / n);
      trace.Count("incremental.dirty_cluster_docs", dirty_docs / n);
      trace.Count("incremental.reused_cluster_frac",
                  clusters == 0 ? 0.0
                                : static_cast<double>(reused_clusters) /
                                      static_cast<double>(clusters));
    }
  }
  latencies.Close(']');

  report.Key("docs").Number(static_cast<double>(texts->size()));
  report.Key("streamed_docs")
      .Number(static_cast<double>(texts->size() - base_docs));
  report.Key("ingests").Number(static_cast<double>(ingests));
  report.Key("failed_ingests").Number(static_cast<double>(failed_ingests));
  report.Key("setup_s").Numbers(setup_s);
  report.Key("stream_s").Numbers(stream_s);
  report.Key("traced").Numbers(traced);
  report.Key("same").Numbers(same);
  report.Key("f1").Number(f1);
  if (status.ok() && tracing) {
    status = WriteJsonFile(trace_path, trace.ToJson());
  }
  return report.Finish(status);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "", "workload name (see README.md)")
      .AddInt("seed", 1, "generator seed (gen)")
      .AddString("dir", "", "directory holding input.csv and truth.txt")
      .AddString("json", "", "where to write the canonical JSON result")
      .AddInt("threads", 0, "override the workload's thread count (batch)")
      .AddDouble("seconds", 0.0, "keep repeating for this long")
      .AddInt("min-ops", 1, "repeat at least this often")
      .AddString("trace", "", "trace every second repetition into this file");
  const Status parsed = flags.Parse(argc, argv);
  const Workload* w = FindWorkload(flags.GetString("workload"));
  if (!parsed.ok() || flags.positional().size() != 1 || w == nullptr ||
      flags.GetString("dir").empty()) {
    std::fprintf(stderr, "%s%s",
                 parsed.ok() ? "" : (parsed.ToString() + "\n").c_str(),
                 flags.Usage("perfbench_driver gen|batch|stream").c_str());
    return 2;
  }
  const std::string& mode = flags.positional()[0];
  const std::string& dir = flags.GetString("dir");
  const double seconds = flags.GetDouble("seconds");
  const int min_ops = static_cast<int>(flags.GetInt("min-ops"));
  if (mode == "gen") {
    return Generate(*w, static_cast<uint64_t>(flags.GetInt("seed")), dir);
  }
  if (mode == "batch") {
    const int64_t threads = flags.GetInt("threads");
    return RunBatch(*w, dir,
                    threads > 0 ? static_cast<size_t>(threads) : w->threads,
                    flags.GetString("json"), flags.GetString("trace"),
                    seconds, min_ops);
  }
  if (mode == "stream") {
    return RunStream(*w, dir, flags.GetString("json"),
                     flags.GetString("trace"), seconds, min_ops);
  }
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
