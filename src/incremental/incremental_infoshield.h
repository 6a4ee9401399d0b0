// Incremental ingestion engine (DESIGN.md §15): fold batches of new
// documents into a live InfoShield model without re-running the whole
// pipeline, while staying byte-identical to a fresh batch run.
//
// The batch pipeline is the oracle, as the naive fine reference
// (tests/fine_reference.h) is for the fine stage: after ANY sequence of
// IngestBatch calls, ResultToJson(result(), corpus()) must byte-match a
// fresh InfoShield::Run over the concatenated corpus (incremental_test,
// the diff_incremental fuzz harness, and bench_incremental all enforce
// this). The engine accepts only the tf-idf coarse backend. That
// contract is achievable because every stage is either additive or
// cheap to replay:
//
//   df table    — document frequency is a commutative integer sum, so a
//                 batch's df run adds into the engine's every-phrase run
//                 exactly (AddDfRun, one linear merge), and the index
//                 built from a copy of it equals the batch index.
//   top phrases — idf = lg(N/df) moves for EVERY phrase when N grows,
//                 so all documents are rescored each ingest through the
//                 batch coarse stage's SelectTopPhrases. This is the
//                 cheap, embarrassingly-parallel part of the pipeline;
//                 the savings target is the fine stage below.
//   graph       — rebuilt every batch from the bucket run of all
//                 documents' top phrases (EmitBucketComponents, the
//                 batch coarse stage's own step), so the degree cap
//                 drops the same edges. The sort is O(edges log edges)
//                 and cheap next to one fine cluster; repairing only
//                 the components a batch touches is future work.
//   fine stage  — every component runs through the batch stage's
//                 FineClustering::RunOnClusters at the current lg V,
//                 with the engine's FineMemo (core/fine_memo.h). Every
//                 MDL cost carries lg V, which moves with nearly every
//                 batch, but the expensive part under those costs —
//                 alignments, POA graphs, gap-cost profiles — depends
//                 only on token sequences. The memo keeps those per
//                 (seed, document) pair and per candidate-set member
//                 list; the run reads them back and replays only the
//                 cost arithmetic, so each FineResult is bit-identical
//                 to a fresh run and no lg V step invalidates anything.
//                 Results are assembled by the batch pipeline's
//                 AssembleResult.
//
// Per-batch alignment work therefore scales with the claims and
// candidate sets the batch changes, not with the corpus
// (bench_incremental reports it as IngestStats::fine_alignments).

#ifndef INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
#define INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/fine_memo.h"
#include "core/infoshield.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "text/tokenizer.h"
#include "tfidf/df_run.h"
#include "util/status.h"

namespace infoshield {

// Per-ingest diagnostics: what the batch touched and what got reused.
// Never part of the canonical JSON — the oracle compares results, and a
// fresh batch run has no notion of reuse.
struct IngestStats {
  // Documents in this batch / in the corpus after it.
  size_t batch_docs = 0;
  size_t total_docs = 0;
  // Documents whose top-phrase set changed this ingest (new documents
  // always count; old ones only when idf movement swapped a phrase in or
  // out — a reordering alone does not count).
  size_t changed_docs = 0;
  // True on every non-empty batch: the graph is rebuilt from the bucket
  // run each time. Local repair of only the touched components is what
  // would make it false again.
  bool graph_rebuilt = false;
  // True when the batch brought new words into a non-empty corpus, so
  // lg V moved and every fine-stage cost was replayed at the new value.
  bool vocab_grew = false;
  // Coarse components after this ingest (dirty + reused == total).
  size_t num_coarse_clusters = 0;
  // A reused cluster was served from the fine memo alone: zero pairwise
  // alignments and zero MSA (POA) work, only the MDL arithmetic at the
  // current lg V. A dirty cluster computed at least one alignment.
  size_t dirty_clusters = 0;
  size_t reused_clusters = 0;
  // Documents inside the dirty clusters — the "touched-component size"
  // that per-batch cost is supposed to track.
  size_t dirty_cluster_docs = 0;
  // Alignments the fine stage actually computed this ingest: pairwise
  // (FineStageStats::alignments_computed) plus sequences added to MSA
  // graphs (msa_sequences_added), summed over clusters.
  size_t fine_alignments = 0;
  // Generation after this ingest: the number of non-empty batches.
  uint64_t generation = 0;
  // Wall-clock breakdown in seconds.
  double df_seconds = 0.0;
  double rescore_seconds = 0.0;
  double graph_seconds = 0.0;
  double fine_seconds = 0.0;

  double total_seconds() const {
    return df_seconds + rescore_seconds + graph_seconds + fine_seconds;
  }
};

class IncrementalInfoShield {
 public:
  explicit IncrementalInfoShield(InfoShieldOptions options,
                                 TokenizerOptions tokenizer_options = {});

  IncrementalInfoShield(const IncrementalInfoShield&) = delete;
  IncrementalInfoShield& operator=(const IncrementalInfoShield&) = delete;

  // Appends `texts` to the corpus and brings result() up to date, paying
  // alignment work only where the batch changed a claim or a candidate
  // set. Returns InvalidArgument (corpus unchanged) unless
  // options().coarse.backend is kTfidfGraph: the engine maintains only
  // the tf-idf graph, so any other backend would break the byte-identity
  // contract above. Returns ResourceExhausted (corpus unchanged) when the
  // batch would overflow the DocId space. An empty batch is a no-op
  // returning zeroed stats.
  Result<IngestStats> IngestBatch(const std::vector<std::string>& texts);

  // The model over everything ingested so far — byte-identical (via
  // ResultToJson) to InfoShield::Run over corpus().
  const InfoShieldResult& result() const { return result_; }
  const Corpus& corpus() const { return corpus_; }
  const InfoShieldOptions& options() const { return options_; }
  uint64_t generation() const { return generation_; }

  // Deep invariant audit (util/audit.h): the df run's keys ascend with
  // every count in [1, N], the top-phrase table covers every document,
  // the fine memo validates against the corpus, and the assembled result
  // validates against the corpus. Returns OK or an Internal status
  // listing every violation.
  Status ValidateInvariants() const;

 private:
  InfoShieldOptions options_;
  Corpus corpus_;
  // Every phrase's document frequency over the whole corpus (min_df 1:
  // a df-1 phrase can reach min_df in a later batch).
  DfRun df_run_;
  // +1 per non-empty batch.
  uint64_t generation_ = 0;

  // Per-document state, indexed by DocId.
  // analyzer: allow(race-infer) -- fine workers only read it
  // (RunOnClusters takes const*, the flagged write is that &-arg);
  // mutation happens serially between ingest phases
  std::vector<std::vector<PhraseHash>> doc_top_phrases_;

  // The fine stage's lg V-independent work from the last ingest.
  FineMemo fine_memo_;

  InfoShieldResult result_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_INCREMENTAL_INCREMENTAL_INFOSHIELD_H_
