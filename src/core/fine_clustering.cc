#include "core/fine_clustering.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/fine_memo.h"
#include "core/slot_analysis.h"
#include "mdl/universal_code.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace infoshield {

void FineStageStats::MergeFrom(const FineStageStats& other) {
  alignments_computed += other.alignments_computed;
  consensus_probes += other.consensus_probes;
  consensus_cache_hits += other.consensus_cache_hits;
  msa_sequences_added += other.msa_sequences_added;
  slot_candidates_evaluated += other.slot_candidates_evaluated;
}

double FineStageStats::cache_hit_rate() const {
  if (consensus_probes == 0) return 0.0;
  return static_cast<double>(consensus_cache_hits) /
         static_cast<double>(consensus_probes);
}

namespace {

// Total cluster cost (Definition 1) for a set of accepted templates.
// template_costs: TemplateCost per template, so the model cost below is
// CostModel::ModelCost's exact sum without re-deriving every term per
// call; encoded_base: per template, the sum of its members'
// AlignmentCostBase; num_encoded: total docs encoded.
double TotalCost(size_t num_docs, const std::vector<double>& template_costs,
                 const std::vector<double>& encoded_base, size_t num_encoded,
                 double noise_token_cost) {
  double cost = UniversalCodeLength(template_costs.size());
  for (double template_cost : template_costs) cost += template_cost;
  cost += static_cast<double>(num_docs);  // 1-bit template flag per doc
  cost += noise_token_cost;
  const double lg_t = Log2Bits(template_costs.size());
  for (double base : encoded_base) cost += base;
  cost += lg_t * static_cast<double>(num_encoded);
  return cost;
}

}  // namespace

double FineClustering::CandidateDataCost(
    const std::vector<TokenId>& consensus,
    const std::vector<std::vector<TokenId>>& docs,
    const CostModel& cost_model, FineStageStats* stats) const {
  // Evaluate the candidate the way it would actually be used: slots
  // detected, model cost included. Scoring data cost alone (a literal
  // reading of Eq. 6) systematically prefers bloated consensuses —
  // every variant branch kept as constants, paid for with cheap
  // deletions — which then fail the MDL acceptance test; the paper's
  // stated goal is total-cost minimization, so the search target is
  // C(T_i) + C(D_i | T_i) after slot detection.
  Template tmpl(consensus);
  std::vector<Alignment> alignments;
  alignments.reserve(docs.size());
  for (const auto& doc : docs) {
    alignments.push_back(NeedlemanWunsch(tmpl.tokens, doc, options_.scoring));
  }
  if (stats != nullptr) stats->alignments_computed += docs.size();
  DetectSlotsNaive(tmpl, alignments, cost_model, stats);
  double cost = cost_model.TemplateCost(tmpl.length(), tmpl.num_slots());
  for (const Alignment& a : alignments) {
    cost += EncodeDocumentWithAlignment(tmpl, a, cost_model).base_cost;
  }
  return cost;
}

std::pair<int64_t, double> FineClustering::ArgminThreshold(
    int64_t h_max, const std::function<double(int64_t)>& eval) const {
  std::unordered_map<int64_t, double> cache;
  auto cost_at = [&](int64_t h) -> double {
    h = std::clamp<int64_t>(h, 0, h_max);
    auto it = cache.find(h);
    if (it != cache.end()) return it->second;
    const double cost = eval(h);
    cache.emplace(h, cost);
    return cost;
  };

  int64_t best_h = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](int64_t h) {
    h = std::clamp<int64_t>(h, 0, h_max);
    double c = cost_at(h);
    if (c < best_cost || (c == best_cost && h < best_h)) {
      best_cost = c;
      best_h = h;
    }
  };

  if (options_.exhaustive_consensus_search) {
    for (int64_t h = 0; h <= h_max; ++h) consider(h);
  } else {
    // Dichotomous search (Algorithm 2), plus argmin over all probes.
    int64_t lo = 0;
    int64_t hi = h_max;
    while (lo < hi) {
      int64_t mid = (lo + hi) / 2;
      double left = cost_at(mid - 1);
      double right = cost_at(mid + 1);
      consider(mid - 1);
      consider(mid);
      consider(mid + 1);
      if (left <= right) {
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    consider(lo);
  }
  return {best_h, best_cost};
}

FineClustering::ConsensusChoice FineClustering::SearchConsensus(
    const MsaAligner& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model, FineStageStats* stats) const {
  auto consensus_at = [&alignment](size_t h) {
    return alignment.ConsensusAtThreshold(h);
  };
  if (options_.use_naive_costing) {
    return SearchConsensusNaive(consensus_at, candidate_docs, cost_model,
                                stats);
  }
  return SearchConsensusFrom(consensus_at, candidate_docs, cost_model, stats,
                             nullptr, nullptr);
}

// analyzer: hot
FineClustering::ConsensusChoice FineClustering::SearchConsensusFrom(
    const std::function<std::vector<TokenId>(size_t)>& consensus_at,
    const std::vector<std::vector<TokenId>>& docs, const CostModel& cm,
    FineStageStats* stats, const FineMemoSet* memo,
    FineMemoSet* delta) const {
  const size_t n = docs.size();
  CHECK_GE(n, 1u);
  if (delta != nullptr) delta->consensus_at.assign(n, FineMemoSet::kNone);
  // Consensus indices in the memo entry as this search extends it: the
  // entry's own, then the ones `delta` appends.
  const int32_t memo_size =
      memo == nullptr ? 0 : static_cast<int32_t>(memo->consensuses.size());

  // Distinct thresholds frequently select the same sub-alignment
  // (supports are integers in [0, n); near-duplicate candidate sets
  // concentrate them at the extremes), so each distinct consensus is
  // evaluated once: its member alignments, profiles and slots are
  // shared by every threshold that selects it. The map is ordered to
  // keep the code free of hash-order pitfalls; it is lookup-only.
  struct Evaluated {
    int32_t index = FineMemoSet::kNone;  // in the memo entry, when kept
    Template tmpl;
    // Member alignments, when this search computed them (a memoized
    // consensus brings only its profiles).
    std::vector<Alignment> alignments;
    double cost = 0.0;
  };
  std::map<std::vector<TokenId>, Evaluated> by_consensus;
  std::unordered_map<int64_t, const std::vector<TokenId>*> at_threshold;
  AlignmentWorkspace workspace;

  auto eval = [&](int64_t h) -> double {
    if (stats != nullptr) ++stats->consensus_probes;
    const int32_t known =
        memo == nullptr ? FineMemoSet::kNone : memo->consensus_at[h];
    std::vector<TokenId> consensus =
        known != FineMemoSet::kNone ? memo->consensuses[known]
                                    : consensus_at(static_cast<size_t>(h));
    auto found = by_consensus.find(consensus);
    if (found != by_consensus.end()) {
      if (stats != nullptr) ++stats->consensus_cache_hits;
    } else {
      Evaluated evaluated;
      evaluated.tmpl = Template(consensus);
      // The profiles: memoized, or from alignments computed here.
      int32_t index = known;
      if (index == FineMemoSet::kNone && memo != nullptr) {
        for (int32_t i = 0; i < memo_size; ++i) {
          if (memo->consensuses[i] == consensus) {
            index = i;
            break;
          }
        }
      }
      std::vector<GapCostProfile> own_profiles;
      if (index == FineMemoSet::kNone) {
        evaluated.alignments.reserve(n);
        own_profiles.reserve(n);
        for (const auto& doc : docs) {
          evaluated.alignments.push_back(NeedlemanWunsch(
              evaluated.tmpl.tokens, doc, options_.scoring, &workspace));
          own_profiles.push_back(
              BuildGapCostProfile(evaluated.alignments.back()));
        }
        if (stats != nullptr) stats->alignments_computed += n;
      }
      const std::vector<GapCostProfile>& profiles =
          index == FineMemoSet::kNone ? own_profiles : memo->profiles[index];
      std::vector<double> base_costs;
      DetectSlotsIncremental(evaluated.tmpl, profiles, cm, stats,
                             &base_costs);
      // Same accumulation order as CandidateDataCost: template cost
      // first, then per-document bases — floating-point addition is not
      // associative, and the naive path must match bit for bit.
      evaluated.cost = cm.TemplateCost(evaluated.tmpl.length(),
                                       evaluated.tmpl.num_slots());
      for (double base : base_costs) evaluated.cost += base;
      if (index == FineMemoSet::kNone && delta != nullptr) {
        index = memo_size + static_cast<int32_t>(delta->consensuses.size());
        delta->consensuses.push_back(consensus);
        delta->profiles.push_back(std::move(own_profiles));
      }
      evaluated.index = index;
      found = by_consensus.emplace(std::move(consensus), std::move(evaluated))
                  .first;
    }
    if (delta != nullptr && known == FineMemoSet::kNone) {
      delta->consensus_at[h] = found->second.index;
    }
    at_threshold.emplace(h, &found->first);
    return found->second.cost;
  };
  const int64_t best_h =
      ArgminThreshold(static_cast<int64_t>(n) - 1, eval).first;

  const std::vector<TokenId>& winner = *at_threshold.at(best_h);
  Evaluated& evaluated = by_consensus.at(winner);
  ConsensusChoice choice;
  choice.consensus = winner;
  choice.tmpl = std::move(evaluated.tmpl);
  choice.cost = evaluated.cost;
  const bool kept = memo != nullptr && memo->winner != FineMemoSet::kNone &&
                    memo->winner == evaluated.index;
  if (!evaluated.alignments.empty()) {
    choice.alignments = std::move(evaluated.alignments);
  } else if (kept) {
    choice.alignments.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      choice.alignments.push_back(
          ReplayAlignment(memo->winner_ops[i], winner, docs[i]));
    }
  } else {
    choice.alignments.reserve(n);
    for (const auto& doc : docs) {
      choice.alignments.push_back(
          NeedlemanWunsch(winner, doc, options_.scoring, &workspace));
    }
    if (stats != nullptr) stats->alignments_computed += n;
  }
  if (delta != nullptr && !kept) {
    delta->winner = evaluated.index;
    delta->winner_ops.reserve(n);
    for (const Alignment& a : choice.alignments) {
      delta->winner_ops.push_back(AlignmentOpTypes(a));
    }
  }
  return choice;
}

FineClustering::ConsensusChoice FineClustering::SearchConsensusNaive(
    const std::function<std::vector<TokenId>(size_t)>& consensus_at,
    const std::vector<std::vector<TokenId>>& docs, const CostModel& cm,
    FineStageStats* stats) const {
  const size_t n = docs.size();
  CHECK_GE(n, 1u);
  auto eval = [&](int64_t h) -> double {
    if (stats != nullptr) ++stats->consensus_probes;
    return CandidateDataCost(consensus_at(static_cast<size_t>(h)), docs, cm,
                             stats);
  };
  const auto [best_h, best_cost] =
      ArgminThreshold(static_cast<int64_t>(n) - 1, eval);
  // Rebuild the winner's template the way the pre-optimization code
  // did — re-align every member and run full slot detection once more.
  ConsensusChoice choice;
  choice.consensus = consensus_at(static_cast<size_t>(best_h));
  choice.cost = best_cost;
  choice.tmpl = Template(choice.consensus);
  choice.alignments.reserve(n);
  for (const auto& doc : docs) {
    choice.alignments.push_back(
        NeedlemanWunsch(choice.tmpl.tokens, doc, options_.scoring));
  }
  if (stats != nullptr) stats->alignments_computed += n;
  DetectSlotsNaive(choice.tmpl, choice.alignments, cm, stats);
  return choice;
}

std::vector<TokenId> FineClustering::ConsensusSearch(
    const MsaAligner& alignment,
    const std::vector<std::vector<TokenId>>& candidate_docs,
    const CostModel& cost_model) const {
  return SearchConsensus(alignment, candidate_docs, cost_model, nullptr)
      .consensus;
}

namespace {

bool ByPairDoc(const FineMemoPair& a, const FineMemoPair& b) {
  return a.doc < b.doc;
}

// The memoized counts for `doc` in a seed's pairs (nullable), or nullptr.
const FineMemoPair* FindPair(const std::vector<FineMemoPair>* pairs,
                             DocId doc) {
  if (pairs == nullptr) return nullptr;
  auto it = std::lower_bound(
      pairs->begin(), pairs->end(), doc,
      [](const FineMemoPair& p, DocId d) { return p.doc < d; });
  return it != pairs->end() && it->doc == doc ? &*it : nullptr;
}

// Candidate gaps: positions that accumulate inserted or substituted
// words across the candidate alignments (Algorithm 3's dictionary P),
// ascending.
std::vector<size_t> CandidateGaps(const std::vector<Alignment>& alignments) {
  std::vector<size_t> candidates;
  for (const Alignment& a : alignments) {
    size_t x = 0;
    for (const AlignOp& op : a.ops) {
      switch (op.type) {
        case AlignOpType::kInsert:
        case AlignOpType::kSubstitute:
          candidates.push_back(x);
          break;
        case AlignOpType::kMatch:
        case AlignOpType::kDelete:
          ++x;
          break;
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// The same gaps read off the alignments' profiles: a profile lists
// exactly the gaps its alignment inserted or substituted at.
std::vector<size_t> CandidateGaps(const std::vector<GapCostProfile>& profiles) {
  std::vector<size_t> candidates;
  for (const GapCostProfile& p : profiles) {
    for (const GapCostProfile::GapEdits& e : p.edits) {
      candidates.push_back(e.gap);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

}  // namespace

void FineClustering::DetectSlots(Template& tmpl,
                                 const std::vector<Alignment>& alignments,
                                 const CostModel& cost_model) const {
  if (options_.use_naive_costing) {
    DetectSlotsNaive(tmpl, alignments, cost_model, nullptr);
    return;
  }
  std::vector<GapCostProfile> profiles;
  profiles.reserve(alignments.size());
  for (const Alignment& a : alignments) {
    profiles.push_back(BuildGapCostProfile(a));
  }
  DetectSlotsIncremental(tmpl, profiles, cost_model, nullptr, nullptr);
}

void FineClustering::DetectSlotsNaive(Template& tmpl,
                                      const std::vector<Alignment>& alignments,
                                      const CostModel& cost_model,
                                      FineStageStats* stats) const {
  const std::vector<size_t> candidates = CandidateGaps(alignments);
  if (stats != nullptr) stats->slot_candidates_evaluated += candidates.size();

  auto data_cost = [&]() {
    double cost = 0.0;
    for (const Alignment& a : alignments) {
      cost += EncodeDocumentWithAlignment(tmpl, a, cost_model).base_cost;
    }
    return cost;
  };
  auto model_cost = [&]() {
    return cost_model.TemplateCost(tmpl.length(), tmpl.num_slots());
  };

  double current = data_cost() + model_cost();
  for (size_t gap : candidates) {
    tmpl.SetSlotAtGap(gap, true);
    double with_slot = data_cost() + model_cost();
    if (with_slot < current) {
      current = with_slot;
    } else {
      tmpl.SetSlotAtGap(gap, false);
    }
  }
}

void FineClustering::DetectSlotsIncremental(
    Template& tmpl, const std::vector<GapCostProfile>& profiles,
    const CostModel& cost_model, FineStageStats* stats,
    std::vector<double>* final_base_costs) const {
  // One O(length) walk per alignment (its profile) captures everything
  // the cost of any slot mask depends on; every probe below is pure
  // integer bookkeeping plus one AlignmentCostBase call per document
  // (see slot_analysis.h and DESIGN.md §10 for the algebra and its
  // exactness argument).
  const std::vector<size_t> candidates = CandidateGaps(profiles);
  if (stats != nullptr) stats->slot_candidates_evaluated += candidates.size();

  std::vector<size_t> enabled = tmpl.SlotGaps();
  // Matches the naive path's accumulation exactly: per-document bases
  // summed from zero in document order, then the model cost added.
  auto total_cost = [&](const std::vector<size_t>& slot_gaps) {
    double data = 0.0;
    for (const GapCostProfile& p : profiles) {
      data += cost_model.AlignmentCostBase(SummaryForSlotMask(p, slot_gaps));
    }
    return data + cost_model.TemplateCost(tmpl.length(), slot_gaps.size());
  };

  double current = total_cost(enabled);
  std::vector<size_t> trial;
  for (size_t gap : candidates) {
    trial = enabled;
    trial.insert(std::lower_bound(trial.begin(), trial.end(), gap), gap);
    const double with_slot = total_cost(trial);
    if (with_slot < current) {
      current = with_slot;
      enabled.swap(trial);
      tmpl.SetSlotAtGap(gap, true);
    }
  }
  if (final_base_costs != nullptr) {
    final_base_costs->clear();
    final_base_costs->reserve(profiles.size());
    for (const GapCostProfile& p : profiles) {
      final_base_costs->push_back(
          cost_model.AlignmentCostBase(SummaryForSlotMask(p, enabled)));
    }
  }
}

// analyzer: hot
FineClustering::Claims FineClustering::Claim(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
    const FineMemo* memo) const {
  Claims claims;
  const size_t num_docs = doc_ids.size();
  // Documents are identified by their position within the cluster, so
  // memory stays O(cluster). (phrase, position) pairs sorted by phrase:
  // a seed's neighbors are the equal ranges of its own top phrases.
  std::vector<std::pair<PhraseHash, uint32_t>> phrase_index;
  if (doc_top_phrases != nullptr) {
    size_t num_entries = 0;
    for (DocId d : doc_ids) num_entries += (*doc_top_phrases)[d].size();
    phrase_index.reserve(num_entries);
    for (size_t i = 0; i < num_docs; ++i) {
      for (PhraseHash p : (*doc_top_phrases)[doc_ids[i]]) {
        phrase_index.emplace_back(p, static_cast<uint32_t>(i));
      }
    }
    std::sort(phrase_index.begin(), phrase_index.end());
  }
  auto by_doc_id = [&](uint32_t a, uint32_t b) {
    return doc_ids[a] < doc_ids[b];
  };
  auto same_doc_id = [&](uint32_t a, uint32_t b) {
    return doc_ids[a] == doc_ids[b];
  };

  // claimed marks documents already in some candidate set. A set is
  // claimed before its MDL test and never released, whatever the test
  // decides — which is what makes the sets independent of Decide.
  std::vector<char> claimed(num_docs, 0);
  std::vector<uint32_t> pool;
  std::vector<uint32_t> members;
  AlignmentWorkspace workspace;
  const std::vector<size_t> no_slots;
  pool.reserve(num_docs);
  members.reserve(num_docs);
  claims.sets.reserve(num_docs);
  if (memo != nullptr) claims.seed_pairs.reserve(num_docs);
  for (size_t cursor = 0; cursor < num_docs; ++cursor) {
    if (claimed[cursor]) continue;
    const DocId seed = doc_ids[cursor];
    const std::vector<TokenId>& seed_tokens = corpus.doc(seed).tokens;

    // --- Candidate Alignment (§IV-B1) ---
    // The scan pool is either every unclaimed document after the seed,
    // or — when the coarse stage's top phrases are available — only the
    // seed's phrase-sharing neighbors in DocId order (see RunOnCluster's
    // doc comment).
    pool.clear();
    if (doc_top_phrases != nullptr) {
      for (PhraseHash p : (*doc_top_phrases)[seed]) {
        auto it = std::lower_bound(
            phrase_index.begin(), phrase_index.end(), p,
            [](const std::pair<PhraseHash, uint32_t>& entry, PhraseHash key) {
              return entry.first < key;
            });
        for (; it != phrase_index.end() && it->first == p; ++it) {
          if (it->second != cursor && !claimed[it->second]) {
            pool.push_back(it->second);
          }
        }
      }
      std::sort(pool.begin(), pool.end(), by_doc_id);
      pool.erase(std::unique(pool.begin(), pool.end(), same_doc_id),
                 pool.end());
    } else {
      for (size_t i = cursor + 1; i < num_docs; ++i) {
        if (!claimed[i]) pool.push_back(static_cast<uint32_t>(i));
      }
    }

    // A pool document joins when its encoding under the slot-free seed
    // template is cheaper than leaving it unencoded. The summary is the
    // one EncodeDocument(Template(seed_tokens), ...) would count, read
    // off the alignment without materializing the annotated columns, or
    // its counts from the memo.
    const std::vector<FineMemoPair>* known =
        memo == nullptr ? nullptr : memo->FindSeed(seed);
    std::vector<FineMemoPair>* record = nullptr;
    if (memo != nullptr) {
      record = &claims.seed_pairs.emplace_back(seed,
                                               std::vector<FineMemoPair>())
                    .second;
      record->reserve(pool.size());
    }
    members.clear();
    members.push_back(static_cast<uint32_t>(cursor));
    for (uint32_t i : pool) {
      const DocId doc = doc_ids[i];
      const std::vector<TokenId>& tokens = corpus.doc(doc).tokens;
      FineMemoPair counts;
      if (const FineMemoPair* hit = FindPair(known, doc); hit != nullptr) {
        counts = *hit;
      } else {
        const Alignment alignment = NeedlemanWunsch(
            seed_tokens, tokens, AlignmentScoring{}, &workspace);
        const EncodingSummary summary =
            SummaryForSlotMask(BuildGapCostProfile(alignment), no_slots);
        counts.doc = doc;
        counts.alignment_length =
            static_cast<uint32_t>(summary.alignment_length);
        counts.unmatched = static_cast<uint32_t>(summary.unmatched);
        counts.inserted_or_substituted =
            static_cast<uint32_t>(summary.inserted_or_substituted);
        ++claims.stats.alignments_computed;
      }
      if (record != nullptr) record->push_back(counts);
      if (cm.EncodedDocCost(1, counts.Summary()) <
          cm.UnencodedDocCost(tokens.size())) {
        members.push_back(i);
      }
    }
    // The pool is in DocId order whenever the cluster's is.
    if (record != nullptr &&
        !std::is_sorted(record->begin(), record->end(), ByPairDoc)) {
      std::sort(record->begin(), record->end(), ByPairDoc);
    }

    CandidateSet& set = claims.sets.emplace_back();
    set.members.reserve(members.size());
    for (uint32_t i : members) {
      set.members.push_back(doc_ids[i]);
      set.unencoded += cm.UnencodedDocCost(corpus.doc(doc_ids[i]).length());
      claimed[i] = 1;
    }
  }
  return claims;
}

std::unique_ptr<MsaAligner> FineClustering::BuildMsa(
    const std::vector<std::vector<TokenId>>& docs,
    FineStageStats* stats) const {
  std::unique_ptr<MsaAligner> graph;
  switch (options_.msa_backend) {
    case MsaBackend::kPoa:
      graph = std::make_unique<PoaGraph>(docs[0], options_.scoring);
      break;
    case MsaBackend::kProfile:
      graph = std::make_unique<ProfileMsa>(docs[0], options_.scoring);
      break;
  }
  for (size_t i = 1; i < docs.size(); ++i) graph->AddSequence(docs[i]);
  stats->msa_sequences_added += docs.size();
  return graph;
}

FineClustering::GroupFit FineClustering::Fit(const Corpus& corpus,
                                             const CandidateSet& set,
                                             const CostModel& cm,
                                             const FineMemoSet* memo,
                                             FineMemoSet* delta) const {
  GroupFit fit;
  std::vector<std::vector<TokenId>> member_docs;
  member_docs.reserve(set.members.size());
  for (DocId d : set.members) member_docs.push_back(corpus.doc(d).tokens);
  // The MSA graph is built on the first threshold the memo cannot
  // answer; a fully memoized search never builds it.
  std::unique_ptr<MsaAligner> graph;
  auto consensus_at = [&](size_t h) {
    if (graph == nullptr) graph = BuildMsa(member_docs, &fit.stats);
    return graph->ConsensusAtThreshold(h);
  };

  // --- Consensus Search (Algorithm 2) + Slot Detection (Algorithm 3) ---
  // The winning probe already aligned every member and detected slots;
  // the search hands all of it back, so nothing is recomputed.
  ConsensusChoice choice =
      options_.use_naive_costing
          ? SearchConsensusNaive(consensus_at, member_docs, cm, &fit.stats)
          : SearchConsensusFrom(consensus_at, member_docs, cm, &fit.stats,
                                memo, delta);
  if (choice.consensus.empty()) return fit;
  fit.tmpl = std::move(choice.tmpl);
  fit.encodings.reserve(choice.alignments.size());
  for (const Alignment& a : choice.alignments) {
    fit.encodings.push_back(EncodeDocumentWithAlignment(fit.tmpl, a, cm));
    fit.base_sum += fit.encodings.back().base_cost;
  }
  return fit;
}

FineResult FineClustering::Decide(const Corpus& corpus,
                                  const std::vector<DocId>& doc_ids,
                                  const CostModel& cm, Claims claims,
                                  std::vector<GroupFit> fits) const {
  FineResult result;
  result.stats = claims.stats;
  for (const GroupFit& fit : fits) result.stats.MergeFrom(fit.stats);
  const size_t num_docs = doc_ids.size();
  if (num_docs == 0) return result;

  // Cost of the cluster with zero templates.
  double all_unencoded = 0.0;
  for (DocId id : doc_ids) {
    all_unencoded += cm.UnencodedDocCost(corpus.doc(id).length());
  }
  result.cost_before = TotalCost(num_docs, {}, {}, 0, all_unencoded);

  std::vector<double> template_costs;  // accepted TemplateCost(len, slots)
  std::vector<double> encoded_base;    // per-template Σ base
  size_t num_encoded = 0;
  // Undecided documents are carried as unencoded in every total so that
  // successive totals stay comparable; as documents are claimed by a
  // template or rejected as noise, their cost moves between the pool and
  // the other terms.
  double pending_token_cost = all_unencoded;
  double noise_token_cost = 0.0;
  double best_total = result.cost_before;

  for (size_t i = 0; i < claims.sets.size(); ++i) {
    CandidateSet& set = claims.sets[i];
    // Claiming the candidate set moves its cost out of the pending pool.
    pending_token_cost -= set.unencoded;

    // Rejection keeps the total unchanged: the members' unencoded cost
    // simply moves from the pending pool to the noise term.
    auto reject_as_noise = [&]() {
      for (DocId d : set.members) result.noise.push_back(d);
      noise_token_cost += set.unencoded;
    };
    if (!NeedsFit(set) || fits[i].tmpl.tokens.empty()) {
      reject_as_noise();
      continue;
    }
    GroupFit& fit = fits[i];

    // --- MDL acceptance (Algorithm 4) ---
    template_costs.push_back(
        cm.TemplateCost(fit.tmpl.length(), fit.tmpl.num_slots()));
    encoded_base.push_back(fit.base_sum);
    const double candidate_total =
        TotalCost(num_docs, template_costs, encoded_base,
                  num_encoded + set.members.size(),
                  noise_token_cost + pending_token_cost);
    if (candidate_total < best_total) {
      best_total = candidate_total;
      num_encoded += set.members.size();
      TemplateCluster cluster;
      cluster.tmpl = std::move(fit.tmpl);
      cluster.members = std::move(set.members);
      cluster.encodings = std::move(fit.encodings);
      result.templates.push_back(std::move(cluster));
    } else {
      template_costs.pop_back();
      encoded_base.pop_back();
      reject_as_noise();
    }
  }

  result.cost_after = best_total;
  // Canonical emission order: rejected documents accumulate in seed-scan
  // order, which depends on how earlier templates carved up the cluster;
  // sorting makes the noise list (and anything downstream that prints
  // it) independent of that history.
  std::sort(result.noise.begin(), result.noise.end());
  INFOSHIELD_AUDIT_INVARIANTS(ValidateFineResult(result, corpus, doc_ids, &cm));
  return result;
}

FineResult FineClustering::RunOnCluster(
    const Corpus& corpus, const std::vector<DocId>& doc_ids,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) const {
  return std::move(
      RunOnClusters(corpus, {&doc_ids}, cm, doc_top_phrases, 1, nullptr)
          .front());
}

std::vector<FineResult> FineClustering::RunOnClusters(
    const Corpus& corpus,
    const std::vector<const std::vector<DocId>*>& clusters,
    const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases,
    size_t num_threads, FineMemo* memo) const {
  // The naive escape hatch re-aligns by design.
  if (options_.use_naive_costing) memo = nullptr;
  // Workers only read the memo; Retain below rewrites it serially.
  const FineMemo* known = memo;
  const size_t num_clusters = clusters.size();
  std::vector<Claims> claims(num_clusters);
  ThreadPool::ParallelFor(num_threads, num_clusters, [&](size_t ci) {
    claims[ci] = Claim(corpus, *clusters[ci], cm, doc_top_phrases, known);
  });

  // One task per (cluster, set) that needs a fit, largest set first: fit
  // time grows with the set, and the atomic task counter in ParallelFor
  // then packs the small sets around the large ones. Each task writes
  // only its own fits[ci][si] slot.
  std::vector<std::vector<GroupFit>> fits(num_clusters);
  std::vector<std::pair<size_t, size_t>> tasks;
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    fits[ci].resize(claims[ci].sets.size());
    for (size_t si = 0; si < claims[ci].sets.size(); ++si) {
      if (NeedsFit(claims[ci].sets[si])) tasks.emplace_back(ci, si);
    }
  }
  auto set_size = [&](const std::pair<size_t, size_t>& task) {
    return claims[task.first].sets[task.second].members.size();
  };
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&](const auto& a, const auto& b) {
                     return set_size(a) > set_size(b);
                   });
  // Task t writes only fits[ci][si] and deltas[t].
  std::vector<FineMemoSet> deltas(known == nullptr ? 0 : tasks.size());
  ThreadPool::ParallelFor(num_threads, tasks.size(), [&](size_t t) {
    const auto [ci, si] = tasks[t];
    const CandidateSet& set = claims[ci].sets[si];
    fits[ci][si] =
        known == nullptr
            ? Fit(corpus, set, cm, nullptr, nullptr)
            : Fit(corpus, set, cm, known->FindSet(set.members), &deltas[t]);
  });

  if (memo != nullptr) {
    std::vector<std::pair<DocId, std::vector<FineMemoPair>>> seeds;
    size_t num_seeds = 0;
    for (const Claims& c : claims) num_seeds += c.seed_pairs.size();
    seeds.reserve(num_seeds);
    for (Claims& c : claims) {
      for (auto& entry : c.seed_pairs) seeds.push_back(std::move(entry));
    }
    std::vector<std::pair<const std::vector<DocId>*, FineMemoSet>> sets;
    sets.reserve(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      const auto [ci, si] = tasks[t];
      sets.emplace_back(&claims[ci].sets[si].members, std::move(deltas[t]));
    }
    memo->Retain(std::move(seeds), std::move(sets));
  }

  // Decide is a few additions per set, and the largest cluster's replay
  // dominates it, so it runs on the calling thread.
  std::vector<FineResult> results;
  results.reserve(num_clusters);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    results.push_back(Decide(corpus, *clusters[ci], cm, std::move(claims[ci]),
                             std::move(fits[ci])));
  }
  return results;
}

Status ValidateTemplateCluster(const TemplateCluster& cluster,
                               const Corpus& corpus,
                               const CostModel* cost_model) {
  INFOSHIELD_RETURN_IF_ERROR(cluster.tmpl.ValidateInvariants());
  audit::Auditor a("TemplateCluster");
  a.Expect(cluster.encodings.size() == cluster.members.size(),
           StrFormat("%zu encodings for %zu members",
                     cluster.encodings.size(), cluster.members.size()));
  std::unordered_set<DocId> seen;
  for (DocId d : cluster.members) {
    a.Expect(d < corpus.size(),
             StrFormat("member %u outside the %zu-document corpus", d,
                       corpus.size()));
    a.Expect(seen.insert(d).second, StrFormat("member %u listed twice", d));
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  for (size_t i = 0; i < cluster.members.size(); ++i) {
    INFOSHIELD_RETURN_IF_ERROR(
        ValidateDocEncoding(cluster.tmpl, corpus.doc(cluster.members[i]).tokens,
                            cluster.encodings[i], cost_model));
  }
  return Status::Ok();
}

Status ValidateFineResult(const FineResult& result, const Corpus& corpus,
                          const std::vector<DocId>& cluster_docs,
                          const CostModel* cost_model) {
  for (const TemplateCluster& tc : result.templates) {
    INFOSHIELD_RETURN_IF_ERROR(
        ValidateTemplateCluster(tc, corpus, cost_model));
  }
  audit::Auditor a("FineResult");
  std::unordered_set<DocId> assigned;
  for (const TemplateCluster& tc : result.templates) {
    for (DocId d : tc.members) {
      a.Expect(assigned.insert(d).second,
               StrFormat("document %u claimed by two templates", d));
    }
  }
  for (DocId d : result.noise) {
    a.Expect(assigned.insert(d).second,
             StrFormat("noise document %u also claimed by a template", d));
  }
  std::unordered_set<DocId> expected(cluster_docs.begin(), cluster_docs.end());
  a.Expect(assigned == expected,
           StrFormat("templates + noise cover %zu documents, cluster has "
                     "%zu",
                     assigned.size(), expected.size()));
  a.Expect(std::isfinite(result.cost_before) && result.cost_before >= 0.0,
           "cost_before is negative or non-finite");
  a.Expect(std::isfinite(result.cost_after) && result.cost_after >= 0.0,
           "cost_after is negative or non-finite");
  a.Expect(result.cost_after <= result.cost_before,
           "accepted model costs more than the empty model");
  return a.Finish();
}

}  // namespace infoshield
