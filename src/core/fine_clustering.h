// InfoShield-Fine (paper §IV-B, Algorithms 2–4).
//
// Operates inside one coarse cluster. Repeats until no documents remain:
//   1. Candidate Alignment — the first remaining document d1 seeds the
//      candidate set; every remaining d with C(d|d1) < C(d) joins and is
//      fused into a POA graph.
//   2. Consensus Search — dichotomous search (Algorithm 2) over the
//      support threshold h for the sub-alignment Sel(A, h) minimizing the
//      candidates' data cost. (The search also keeps the argmin of all
//      probed thresholds, so a non-unimodal cost curve can never make it
//      return something worse than the best probe.)
//   3. Slot Detection — gap positions accumulating inserted/substituted
//      words across candidates become slots when that lowers total cost
//      (Algorithm 3).
//   4. MDL acceptance — the template joins the model iff the cluster's
//      total cost C(M) + C(D|M) decreases (Algorithm 4); otherwise its
//      candidate set is noise.
//
// Parameter-free: every choice above is made by cost comparison.

#ifndef INFOSHIELD_CORE_FINE_CLUSTERING_H_
#define INFOSHIELD_CORE_FINE_CLUSTERING_H_

#include <vector>

#include "core/template.h"
#include "mdl/cost_model.h"
#include "msa/aligner.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "msa/profile_msa.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

// Which MSA implementation builds the candidate alignment (§IV-B: the
// fine stage co-works with any MSA; POA is the paper's choice).
enum class MsaBackend {
  kPoa = 0,      // partial order alignment (paper default)
  kProfile = 1,  // Barton-Sternberg-style profile alignment (ablation)
};

struct FineOptions {
  AlignmentScoring scoring;
  // Templates must describe at least this many documents (paper: "each
  // template is expected to encode at least two documents").
  size_t min_template_support = 2;
  // Ablation switch: evaluate every threshold instead of the dichotomous
  // search of Algorithm 2.
  bool exhaustive_consensus_search = false;
  MsaBackend msa_backend = MsaBackend::kPoa;
  // Escape hatch: re-align every member per consensus probe and re-encode
  // every member per candidate slot, exactly as the pre-optimization code
  // did. Output is byte-identical to the default (cached + incremental)
  // path — determinism_test enforces it — so this exists only to
  // cross-check and to measure the win (bench_fine reports both).
  bool use_naive_costing = false;
};

// Hot-path counters for one fine-stage run (summed over seeds and
// candidate sets for RunOnCluster, over clusters by the pipeline).
// Deliberately not part of the canonical JSON output: the optimized and
// naive paths must emit byte-identical results while reporting very
// different counter values.
struct FineStageStats {
  // Full Needleman-Wunsch alignments computed (pool scans + consensus
  // evaluations + any naive-path re-alignment).
  size_t alignments_computed = 0;
  // Consensus-search cost evaluations requested (distinct thresholds).
  size_t consensus_probes = 0;
  // Probes whose consensus was already evaluated under another
  // threshold — each hit saves one alignment+slot-detection pass over
  // every candidate document.
  size_t consensus_cache_hits = 0;
  // Candidate slot positions evaluated by DetectSlots.
  size_t slot_candidates_evaluated = 0;

  void MergeFrom(const FineStageStats& other);
  double cache_hit_rate() const;
};

// One discovered template and the documents it encodes.
struct TemplateCluster {
  Template tmpl;
  std::vector<DocId> members;
  // Parallel to members.
  std::vector<DocEncoding> encodings;
};

struct FineResult {
  std::vector<TemplateCluster> templates;
  // Documents no accepted template describes.
  std::vector<DocId> noise;
  // Total cost of the cluster with zero templates / with the final model.
  double cost_before = 0.0;
  double cost_after = 0.0;
  // Hot-path counters (never serialized into the canonical JSON).
  FineStageStats stats;

  // Eq. 7. 1.0 when nothing compressed.
  double relative_length() const {
    return RelativeLength(cost_after, cost_before);
  }
};

class FineClustering {
 public:
  FineClustering() = default;
  explicit FineClustering(FineOptions options) : options_(options) {}

  // Runs Algorithm 4 on the given documents (typically one coarse
  // cluster). The cost model must be built from the corpus vocabulary so
  // lg V is consistent across clusters.
  //
  // doc_top_phrases (optional, indexed by global DocId — the coarse
  // stage's CoarseResult::doc_top_phrases) restricts each seed's
  // candidate scan to documents sharing a top phrase with the seed.
  // Near-duplicates always share top phrases directly, so this changes
  // nothing for real micro-clusters while keeping the total work
  // proportional to the number of bipartite edges — the ingredient that
  // makes Lemma 2's quasi-linearity hold even when a coarse component
  // over-merges. Without it, each seed scans every remaining document.
  FineResult RunOnCluster(
      const Corpus& corpus, const std::vector<DocId>& doc_ids,
      const CostModel& cost_model,
      const std::vector<std::vector<PhraseHash>>* doc_top_phrases =
          nullptr) const;

  // RunOnCluster over many clusters with one flat fan-out across
  // num_threads workers (0 = hardware concurrency): every cluster's
  // candidate sets are claimed, then every set is fitted as its own task
  // (largest first, so one giant coarse component no longer serializes
  // the stage), then each cluster's MDL decisions replay in seed order
  // on the calling thread.
  // Result i is byte-identical to RunOnCluster(*clusters[i]) for any
  // thread count.
  std::vector<FineResult> RunOnClusters(
      const Corpus& corpus,
      const std::vector<const std::vector<DocId>*>& clusters,
      const CostModel& cost_model,
      const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
      size_t num_threads) const;

  const FineOptions& options() const { return options_; }

  // --- Exposed sub-steps (tested independently) ---

  // Everything the winning consensus-search probe already computed, so
  // the caller never re-aligns or re-detects slots for the winner.
  struct ConsensusChoice {
    // Winning consensus tokens (empty when no non-empty consensus).
    std::vector<TokenId> consensus;
    // The consensus as a template with slots already detected.
    Template tmpl;
    // Per candidate document (input order), its alignment against
    // `consensus` — valid for EncodeDocumentWithAlignment(tmpl, ...).
    std::vector<Alignment> alignments;
    // Template model cost plus the documents' base encoding cost under
    // `tmpl` (the search objective; lg t omitted — constant during the
    // search).
    double cost = 0.0;
  };

  // Algorithm 2, returning the full evaluation of the winner. Probes are
  // cached by consensus identity: distinct thresholds frequently select
  // the same sub-alignment, and each cache hit skips one
  // alignment+slot-detection pass over all candidate documents.
  ConsensusChoice SearchConsensus(
      const MsaAligner& alignment,
      const std::vector<std::vector<TokenId>>& candidate_docs,
      const CostModel& cost_model, FineStageStats* stats = nullptr) const;

  // Algorithm 2: returns the consensus token sequence minimizing
  // C(Di | Sel(A, h)) over thresholds h in [0, |Di|-1].
  std::vector<TokenId> ConsensusSearch(
      const MsaAligner& alignment,
      const std::vector<std::vector<TokenId>>& candidate_docs,
      const CostModel& cost_model) const;

  // Algorithm 3: adds slots to `tmpl` (in place) wherever they lower the
  // combined model+data cost; `alignments` are the candidates' alignments
  // against tmpl.tokens and are not invalidated by slot changes.
  void DetectSlots(Template& tmpl, const std::vector<Alignment>& alignments,
                   const CostModel& cost_model) const;

 private:
  // Algorithm 4 runs as three steps (DESIGN.md §10). A seed claims its
  // candidate set before the MDL test and never releases it, and
  // membership depends only on the seed's tokens and the fixed cost
  // model, so every candidate set is known before any accept/reject
  // decision: Claim is the sequential cursor scan, Fit is independent per
  // set, and Decide replays the accept loop in seed order.

  // One seed's candidate set: the seed, then every pool document whose
  // conditional cost under the seed beats its unencoded cost.
  struct CandidateSet {
    std::vector<DocId> members;
    // Sum of the members' UnencodedDocCost, in member order.
    double unencoded = 0.0;
  };
  struct Claims {
    std::vector<CandidateSet> sets;  // seed order
    FineStageStats stats;            // the seed-vs-pool probes
  };
  // Everything Decide needs from one fitted set; the alignment graph and
  // the member alignments are dropped inside Fit.
  struct GroupFit {
    Template tmpl;  // no tokens when the consensus search found none
    std::vector<DocEncoding> encodings;  // parallel to the set's members
    double base_sum = 0.0;
    FineStageStats stats;
  };

  Claims Claim(const Corpus& corpus, const std::vector<DocId>& doc_ids,
               const CostModel& cost_model,
               const std::vector<std::vector<PhraseHash>>* doc_top_phrases)
      const;
  bool NeedsFit(const CandidateSet& set) const {
    return set.members.size() >= options_.min_template_support;
  }
  GroupFit Fit(const Corpus& corpus, const CandidateSet& set,
               const CostModel& cost_model) const;
  // fits[i] is read only for the sets that NeedsFit.
  FineResult Decide(const Corpus& corpus, const std::vector<DocId>& doc_ids,
                    const CostModel& cost_model, Claims claims,
                    std::vector<GroupFit> fits) const;

  // Cost of a candidate consensus as it would actually be adopted:
  // template model cost plus the documents' encoding cost after slot
  // detection (the lg t term is omitted — constant during the search).
  // The naive probe path; the default path goes through
  // EvaluateCandidate so alignments are computed once per distinct
  // consensus and slot probes are incremental.
  double CandidateDataCost(const std::vector<TokenId>& consensus,
                           const std::vector<std::vector<TokenId>>& docs,
                           const CostModel& cost_model,
                           FineStageStats* stats) const;

  // Aligns every candidate document against `consensus`, detects slots
  // incrementally, and returns the populated ConsensusChoice.
  ConsensusChoice EvaluateCandidate(
      const std::vector<TokenId>& consensus,
      const std::vector<std::vector<TokenId>>& docs,
      const CostModel& cost_model, FineStageStats* stats) const;

  // Algorithm 3 via full re-encoding per probe (escape hatch) and via
  // the GapCostProfile delta algebra (default). Both mutate `tmpl`
  // identically. The incremental variant can also report each
  // document's final base encoding cost (bit-identical to
  // EncodeDocumentWithAlignment(tmpl, ...).base_cost) for free.
  void DetectSlotsNaive(Template& tmpl,
                        const std::vector<Alignment>& alignments,
                        const CostModel& cost_model,
                        FineStageStats* stats) const;
  void DetectSlotsIncremental(Template& tmpl,
                              const std::vector<Alignment>& alignments,
                              const CostModel& cost_model,
                              FineStageStats* stats,
                              std::vector<double>* final_base_costs) const;

  FineOptions options_;
};

// Deep invariant audits (util/audit.h).
//
// ValidateTemplateCluster: the template itself is well-formed, members
// are distinct valid documents, encodings run parallel to members, and
// every encoding's edit trace replays to its member's token sequence.
Status ValidateTemplateCluster(const TemplateCluster& cluster,
                               const Corpus& corpus,
                               const CostModel* cost_model = nullptr);

// ValidateFineResult: every template cluster validates, template members
// and noise exactly partition `cluster_docs`, and the costs are finite
// with cost_after <= cost_before (the model is only ever accepted when it
// compresses).
Status ValidateFineResult(const FineResult& result, const Corpus& corpus,
                          const std::vector<DocId>& cluster_docs,
                          const CostModel* cost_model = nullptr);

}  // namespace infoshield

#endif  // INFOSHIELD_CORE_FINE_CLUSTERING_H_
