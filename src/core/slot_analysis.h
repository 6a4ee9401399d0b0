// Slot content analysis — the paper's stated future work (§V-D2: "Work
// could be done to automatically extract and process the information
// within each slot, but this is beyond the scope of this paper").
//
// Table XI shows that slots carry consistent user-specific information
// (the second slot "if not empty, always discusses time") in messy
// formats ("until 9pm" vs "9 P.M"). This module classifies each slot of
// a template by the kind of content its fills carry, so an analyst (or a
// downstream extractor) immediately knows which slot holds the phone
// number, the price, or the schedule.

#ifndef INFOSHIELD_CORE_SLOT_ANALYSIS_H_
#define INFOSHIELD_CORE_SLOT_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/fine_clustering.h"
#include "core/template.h"
#include "mdl/cost_model.h"
#include "msa/pairwise.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {

// --- Incremental slot-cost algebra (Algorithm 3's inner loop) ---
//
// Slot detection asks, for every candidate gap g, "does enabling a slot
// at g lower the cluster's total cost?". Re-encoding every member per
// probe costs O(gaps x docs x alignment length). But a document's
// encoding summary is a pure function of per-gap edit counts that never
// change while the slot mask evolves: the alignment (and therefore which
// gap each inserted/substituted word is attributed to) is fixed before
// slot detection starts. GapCostProfile captures those invariant counts
// once per alignment — one O(length) walk — after which the summary for
// ANY slot mask is reconstructed in O(active gaps) integer arithmetic,
// making each probe O(docs) instead of O(docs x length).
//
// Exactness: the reconstruction below produces the same EncodingSummary
// integers as EncodeDocumentWithAlignment, so feeding them to
// CostModel::AlignmentCostBase yields bit-identical doubles (same
// function, same inputs, same slot order). DESIGN.md §10 derives the
// algebra; determinism_test cross-checks it against the naive reference
// in tests/fine_reference.h.
struct GapCostProfile {
  // Insert/substitute edits attributed to one gap.
  struct GapEdits {
    size_t gap = 0;
    size_t insertions = 0;
    size_t substitutions = 0;
  };

  // Matched + deleted alignment columns. These survive every slot mask
  // unchanged (a match stays a constant column; a delete stays an
  // unmatched deletion).
  size_t constant_columns = 0;
  // Deleted columns alone (the slot-mask-independent unmatched floor).
  size_t deletions = 0;
  // Gaps that accumulated at least one inserted or substituted word,
  // ascending by gap.
  std::vector<GapEdits> edits;

  // Edits at `gap`, or nullptr when the gap is edit-free. O(lg edits).
  const GapEdits* FindGap(size_t gap) const;
};

// One O(length) walk over the alignment, using Algorithm 3's gap
// attribution (the gap counter advances on matched and deleted columns).
GapCostProfile BuildGapCostProfile(const Alignment& alignment);

// Encoding summary of this alignment under the slot mask `slot_gaps`
// (ascending enabled gaps) — identical integers to what
// EncodeDocumentWithAlignment would count for the same template.
EncodingSummary SummaryForSlotMask(const GapCostProfile& profile,
                                   const std::vector<size_t>& slot_gaps);

enum class SlotContentKind : uint8_t {
  kEmpty = 0,      // no document fills this slot
  kPhone = 1,      // phone-number-like digit runs
  kPrice = 2,      // small numbers / price wording
  kTime = 3,       // schedule wording (am/pm/hours/days...)
  kUrl = 4,        // links
  kNumeric = 5,    // other mostly-numeric content
  kName = 6,       // short, capitalized-style single tokens, high variety
  kFreeText = 7,   // anything else
};

const char* SlotContentKindToString(SlotContentKind kind);

struct SlotProfile {
  // Gap position of the slot in the template.
  size_t gap = 0;
  SlotContentKind kind = SlotContentKind::kEmpty;
  // Fraction of member documents that leave the slot empty.
  double empty_fraction = 0.0;
  // Distinct fills / non-empty fills — 1.0 means every document differs.
  double distinct_fraction = 0.0;
  // Mean number of words per non-empty fill.
  double mean_words = 0.0;
  // Up to `max_examples` distinct example fills (joined words).
  std::vector<std::string> examples;
};

struct SlotAnalysisOptions {
  size_t max_examples = 5;
};

// Profiles every slot of a template cluster.
std::vector<SlotProfile> AnalyzeSlots(const TemplateCluster& cluster,
                                      const Corpus& corpus,
                                      const SlotAnalysisOptions& options = {});

// One-line-per-slot human-readable summary.
std::string RenderSlotProfiles(const std::vector<SlotProfile>& profiles);

// Deep invariant audit (util/audit.h): profiles cover exactly the
// template's enabled slot gaps in ascending order, fractions lie in
// [0, 1], mean word counts are finite and non-negative, and a kEmpty
// classification is consistent with an empty-fill slot. Returns OK or an
// Internal status listing every violation.
Status ValidateSlotProfiles(const std::vector<SlotProfile>& profiles,
                            const Template& tmpl);

namespace internal {
// Exposed for tests: classifies a bag of fill strings.
SlotContentKind ClassifyFills(const std::vector<std::string>& fills);
}  // namespace internal

}  // namespace infoshield

#endif  // INFOSHIELD_CORE_SLOT_ANALYSIS_H_
