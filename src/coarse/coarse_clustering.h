// InfoShield-Coarse (paper §IV-A, Algorithm 1).
//
// Builds a bipartite document–phrase graph: an edge (d, p) exists iff p is
// one of d's top tf-idf phrases. Coarse clusters are the connected
// components of that graph; components of size one (documents sharing no
// important phrase with anyone) are eliminated.
//
// The stage is intentionally permissive — one shared important phrase is
// enough to connect two documents — because InfoShield-Fine refines and,
// if necessary, splits each coarse cluster. Quasi-linear in the input
// (Lemma 2).

#ifndef INFOSHIELD_COARSE_COARSE_CLUSTERING_H_
#define INFOSHIELD_COARSE_COARSE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "graph/bucket_run.h"
#include "graph/union_find.h"
#include "lsh/lsh_index.h"
#include "lsh/minhash.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "tfidf/tfidf_index.h"

namespace infoshield {

// Which candidate generator connects documents into coarse components.
//
//  * kTfidfGraph — the paper-faithful doc–phrase bipartite graph over
//    tf-idf top phrases (§IV-A). Quasi-linear, but the df table forces
//    a global freeze barrier and its constant is large.
//  * kMinhashLsh — shingled MinHash signatures + banded LSH buckets
//    (DESIGN.md §16). No global state, O(docs * num_hashes) candidate
//    generation; the standard sub-linear generator for near-duplicate
//    structure. Components are the connected components of the
//    "shares a band bucket" relation.
//
// Both backends build the same object: a BucketRun (graph/bucket_run.h)
// of their per-document keys — top-phrase hashes or band keys — whose
// components EmitBucketComponents emits. Downstream fine-stage code is
// untouched, and both are byte-identical across thread counts.
enum class CoarseBackend : uint8_t {
  kTfidfGraph = 0,
  kMinhashLsh = 1,
};

struct CoarseOptions {
  TfidfOptions tfidf;
  // Candidate-generation backend; tfidf/max_phrase_degree apply to
  // kTfidfGraph, minhash/lsh to kMinhashLsh (where max_phrase_degree
  // caps bucket degree instead of phrase degree — same hub guard).
  CoarseBackend backend = CoarseBackend::kTfidfGraph;
  // MinHash/LSH parameters (kMinhashLsh only). Callers surface
  // lsh.Validate(minhash) before running; Run CHECK-fails on invalid
  // combinations.
  MinHashParams minhash;
  LshParams lsh;
  // Components smaller than this are dropped (2 = eliminate singletons).
  size_t min_cluster_size = 2;
  // Safety valve against degenerate giant components: phrases connecting
  // more than this many documents are ignored as hubs (0 = no cap). The
  // paper relies on tf-idf making such phrases low-scored; the cap guards
  // pathological inputs without affecting normal runs.
  size_t max_phrase_degree = 0;
  // Worker threads for the coarse pipeline (1 = sequential, 0 = hardware
  // concurrency): the df count, per-document top-phrase selection and
  // the bucket-run sort all split the documents into contiguous chunks.
  // Output is byte-identical for any value (DESIGN.md §11).
  size_t num_threads = 1;
};

// Per-phase wall-clock breakdown and diagnostics for one coarse
// run. Deliberately not part of the canonical JSON output: runs at
// different thread counts must emit byte-identical results while
// reporting very different timings.
struct CoarseStageStats {
  // tokenize_seconds is filled by callers that build the corpus from raw
  // text (e.g. via Corpus::AddBatch) — tokenization has already happened
  // by the time CoarseClustering::Run sees the documents. The remaining
  // phases are timed by Run itself.
  double tokenize_seconds = 0.0;
  // Document-frequency accumulation (TfidfIndex::Build).
  double index_seconds = 0.0;
  // Per-document top-phrase selection.
  double top_phrase_seconds = 0.0;
  // Building the UnionFind: the bucket-run sort of the top phrases plus
  // the per-bucket unions (tf-idf), or the unions alone (LSH, whose run
  // is timed in bucket_seconds).
  double graph_seconds = 0.0;
  // Component extraction and cluster/singleton emission.
  double components_seconds = 0.0;
  // Worker count the run actually used.
  size_t parallel_threads = 1;
  // MinHash/LSH backend phases and bucket diagnostics (all 0 on the
  // tf-idf backend; index/top_phrase are 0 on the LSH backend).
  double signature_seconds = 0.0;  // MinHash signatures + band keys
  // Sorting the band keys into the bucket run
  // (LshIndex::BuildFromBandKeys) and its bucket statistics.
  double bucket_seconds = 0.0;
  size_t lsh_buckets = 0;          // distinct occupied (band, bucket) keys
  size_t lsh_max_bucket = 0;       // fullest bucket (hub diagnostic)
  size_t lsh_candidate_pairs = 0;  // sum over buckets of C(size, 2)

  double total_seconds() const {
    return index_seconds + top_phrase_seconds + signature_seconds +
           bucket_seconds + graph_seconds + components_seconds;
  }
};

struct CoarseResult {
  // Candidate clusters: lists of DocIds, deterministic order.
  std::vector<std::vector<DocId>> clusters;
  // Documents eliminated as singletons.
  std::vector<DocId> singletons;
  // Each document's kept top phrases (indexed by DocId). The fine stage
  // uses these to seed candidate sets from phrase-sharing neighbors,
  // which keeps the pipeline quasi-linear even when a coarse component
  // over-merges (the paper leans on the fine stage to split such
  // components; near-duplicates always share top phrases directly, so
  // neighbor seeding loses nothing). Under kMinhashLsh the entries are
  // the document's LSH band bucket keys instead — "shares a bucket"
  // replaces "shares a top phrase" and the fine stage's neighbor
  // seeding works unchanged.
  // analyzer: allow(race-infer) -- coarse workers fill disjoint
  // per-DocId slots fork-join; afterwards the fine stage only reads it
  // (RunOnClusters takes const*, the flagged write is that &-arg)
  std::vector<std::vector<PhraseHash>> doc_top_phrases;
  // Bipartite edge count (for diagnostics / scaling studies).
  size_t num_edges = 0;
  // Per-phase timings + backend counters (never serialized into the
  // canonical JSON).
  CoarseStageStats stats;
};

// Component extraction + canonical cluster/singleton emission into
// `result`: components below min_cluster_size spill into
// result->singletons (sorted ascending), the rest append to
// result->clusters in smallest-member order.
void EmitCoarseComponents(UnionFind& uf, const CoarseOptions& options,
                          CoarseResult* result);

// The coarse graph step shared by both backends and the incremental
// engine: unions `run`'s buckets under options.max_phrase_degree
// (UnionBuckets) and emits the components through EmitCoarseComponents,
// adding the union time to result->stats.graph_seconds and the
// emission time to components_seconds.
void EmitBucketComponents(const BucketRun& run, const CoarseOptions& options,
                          CoarseResult* result);

class CoarseClustering {
 public:
  CoarseClustering() = default;
  explicit CoarseClustering(CoarseOptions options)
      : options_(options) {}

  // Dispatches on options().backend. The tf-idf graph backend builds
  // the df index, selects every document's top phrases and sorts them
  // into a BucketRun, all across num_threads workers; kMinhashLsh goes
  // to RunLshCoarse (lsh/lsh_coarse.h). Both produce byte-identical
  // results at any thread count, equal to the doc-major edge replay the
  // tests keep as their reference (determinism_test, bench_coarse,
  // bench_lsh).
  CoarseResult Run(const Corpus& corpus) const;

  const CoarseOptions& options() const { return options_; }

 private:
  CoarseOptions options_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_COARSE_COARSE_CLUSTERING_H_
