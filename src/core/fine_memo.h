// Fine-stage memo (DESIGN.md §15): the parts of InfoShield-Fine that are
// pure functions of token sequences, kept across FineClustering runs.
//
// Every MDL cost the fine stage compares carries lg V, so a cluster's
// FineResult goes stale whenever the vocabulary grows. The work under
// those costs does not: a Needleman–Wunsch alignment, a POA graph's
// consensus at a threshold and a gap-cost profile depend only on the
// documents' tokens and the alignment scoring. The memo keeps exactly
// those values:
//
//   * per (seed, pool document) pair of the claim scan, the slot-free
//     encoding counts of the document against the seed;
//   * per candidate set, keyed by its member list: each probed
//     threshold's consensus, each distinct consensus's per-member
//     GapCostProfile, and the current winner's member alignments.
//
// FineClustering::RunOnClusters reads a value from the memo instead of
// computing it, and recomputes every cost, comparison, slot decision and
// MDL decision at its own lg V through the same cost functions. A
// memoized value is bit-identical to the one the call would return, so
// each FineResult is bit-identical to a run without a memo; only
// FineStageStats::alignments_computed and msa_sequences_added drop.
//
// Eviction: after a run the memo holds only what that run read or
// wrote, so its size follows the clusters of the latest run.
//
// A memo is tied to one corpus (every DocId must keep its tokens, as an
// append-only corpus does) and to one FineOptions.

#ifndef INFOSHIELD_CORE_FINE_MEMO_H_
#define INFOSHIELD_CORE_FINE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/slot_analysis.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "text/corpus.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace infoshield {

// One pool document's alignment counts under a seed's slot-free template.
struct FineMemoPair {
  DocId doc = 0;
  uint32_t alignment_length = 0;
  uint32_t unmatched = 0;
  uint32_t inserted_or_substituted = 0;

  // The slot-free EncodingSummary these counts were read from.
  EncodingSummary Summary() const;
};

// One candidate set's consensus-search work. Consensus indices are
// positions in `consensuses`; kNone marks "not probed" / "no winner".
struct FineMemoSet {
  static constexpr int32_t kNone = -1;

  // Threshold h -> consensus index, one entry per member.
  std::vector<int32_t> consensus_at;
  // Distinct consensuses in first-probe order, and parallel to them each
  // member's GapCostProfile against that consensus.
  std::vector<std::vector<TokenId>> consensuses;
  std::vector<std::vector<GapCostProfile>> profiles;
  // The consensus whose member alignments are kept, and per member the
  // op types of its alignment (the tokens replay from the consensus and
  // the member, see ReplayAlignment).
  int32_t winner = kNone;
  std::vector<std::vector<AlignOpType>> winner_ops;

  // Folds in what one run added. `delta` indexes consensuses past this
  // set's own, as the run that filled it saw them.
  void MergeFrom(FineMemoSet delta);
};

// The op types of an alignment, and the alignment rebuilt from them:
// every op takes its reference token from `a` and its document token
// from `b` in order, exactly as NeedlemanWunsch fills them.
std::vector<AlignOpType> AlignmentOpTypes(const Alignment& alignment);
Alignment ReplayAlignment(const std::vector<AlignOpType>& types,
                          const std::vector<TokenId>& a,
                          const std::vector<TokenId>& b);

class FineMemo {
 public:
  FineMemo() = default;

  bool empty() const { return seeds_.empty() && sets_.empty(); }
  // Seeds with kept pair counts, pairs over all seeds, candidate sets.
  size_t num_seeds() const { return seeds_.size(); }
  size_t num_pairs() const;
  size_t num_sets() const { return sets_.size(); }

  // The seed's pairs, ascending by doc, or nullptr.
  const std::vector<FineMemoPair>* FindSeed(DocId seed) const;
  // The set's entry, or nullptr.
  const FineMemoSet* FindSet(const std::vector<DocId>& members) const;

  // Replaces the contents with one run's reads and writes: `seeds` are
  // the run's full per-seed pair lists, `sets` pairs each fitted member
  // list with what its fit added (merged into the old entry, if any).
  void Retain(std::vector<std::pair<DocId, std::vector<FineMemoPair>>> seeds,
              std::vector<std::pair<const std::vector<DocId>*, FineMemoSet>>
                  sets);

  // Deep invariant audit (util/audit.h): every DocId is below
  // `num_docs`, pair lists ascend by doc, every set's threshold map and
  // profile table line up with its members and consensuses, and the
  // winner's ops cover every member. Returns OK or an Internal status
  // listing every violation.
  Status ValidateInvariants(size_t num_docs) const;

 private:
  struct MemberListHash {
    size_t operator()(const std::vector<DocId>& members) const;
  };

  std::unordered_map<DocId, std::vector<FineMemoPair>> seeds_;
  std::unordered_map<std::vector<DocId>, FineMemoSet, MemberListHash> sets_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_CORE_FINE_MEMO_H_
