// The fine stage as it was written before the optimized costing path
// (DESIGN.md §10), kept as the reference the production FineClustering
// must reproduce bit for bit:
//
//  * the naive costing: every consensus-search probe re-aligns every
//    member (CandidateDataCost), and every slot candidate re-encodes
//    every member (DetectSlotsNaive);
//  * ReferenceRunOnCluster: Algorithm 4 as one sequential greedy loop,
//    with either the naive search or the production
//    FineClustering::SearchConsensus;
//  * RunNaivePipeline: the production coarse stage, the loop with naive
//    costing on every cluster, then AssembleResult.
//
// determinism_test, fine_clustering_test, the diff_fine fuzzer,
// bench_fine and bench_micro compare the production fine stage against
// it.

#ifndef INFOSHIELD_TESTS_FINE_REFERENCE_H_
#define INFOSHIELD_TESTS_FINE_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "core/infoshield.h"
#include "core/template.h"
#include "mdl/cost_model.h"
#include "mdl/universal_code.h"
#include "msa/aligner.h"
#include "msa/pairwise.h"
#include "msa/poa.h"
#include "msa/profile_msa.h"
#include "text/corpus.h"
#include "text/ngram.h"
#include "util/logging.h"
#include "util/timer.h"

namespace infoshield {
namespace reference {

// Algorithm 2's threshold search over eval(h) (dichotomous, or every
// threshold when options.exhaustive_consensus_search), evaluating each h
// at most once. Returns the argmin (smallest h on ties) and its cost. A
// copy of FineClustering's private search, so the oracle shares no code
// with the search it checks.
inline std::pair<int64_t, double> ArgminThreshold(
    const FineOptions& options, int64_t h_max,
    const std::function<double(int64_t)>& eval) {
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

  if (options.exhaustive_consensus_search) {
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

// Candidate gaps: positions that accumulate inserted or substituted
// words across the candidate alignments (Algorithm 3's dictionary P),
// ascending.
inline std::vector<size_t> CandidateGaps(
    const std::vector<Alignment>& alignments) {
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

// Algorithm 3 via full re-encoding per probe: adds slots to `tmpl` (in
// place) wherever they lower the combined model+data cost; `alignments`
// are the candidates' alignments against tmpl.tokens.
inline void DetectSlotsNaive(Template& tmpl,
                             const std::vector<Alignment>& alignments,
                             const CostModel& cost_model,
                             FineStageStats* stats) {
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

// Cost of a candidate consensus as it would actually be adopted:
// template model cost plus the documents' encoding cost after slot
// detection (the lg t term is omitted — constant during the search).
inline double CandidateDataCost(const FineOptions& options,
                                const std::vector<TokenId>& consensus,
                                const std::vector<std::vector<TokenId>>& docs,
                                const CostModel& cost_model,
                                FineStageStats* stats) {
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
    alignments.push_back(NeedlemanWunsch(tmpl.tokens, doc, options.scoring));
  }
  if (stats != nullptr) stats->alignments_computed += docs.size();
  DetectSlotsNaive(tmpl, alignments, cost_model, stats);
  double cost = cost_model.TemplateCost(tmpl.length(), tmpl.num_slots());
  for (const Alignment& a : alignments) {
    cost += EncodeDocumentWithAlignment(tmpl, a, cost_model).base_cost;
  }
  return cost;
}

// Algorithm 2 with every probe costed by CandidateDataCost, then the
// winner's template rebuilt from scratch.
inline FineClustering::ConsensusChoice SearchConsensusNaive(
    const FineOptions& options,
    const std::function<std::vector<TokenId>(size_t)>& consensus_at,
    const std::vector<std::vector<TokenId>>& docs, const CostModel& cm,
    FineStageStats* stats) {
  const size_t n = docs.size();
  CHECK_GE(n, 1u);
  auto eval = [&](int64_t h) -> double {
    if (stats != nullptr) ++stats->consensus_probes;
    return CandidateDataCost(options, consensus_at(static_cast<size_t>(h)),
                             docs, cm, stats);
  };
  const auto [best_h, best_cost] =
      ArgminThreshold(options, static_cast<int64_t>(n) - 1, eval);
  // Rebuild the winner's template the way the pre-optimization code
  // did — re-align every member and run full slot detection once more.
  FineClustering::ConsensusChoice choice;
  choice.consensus = consensus_at(static_cast<size_t>(best_h));
  choice.cost = best_cost;
  choice.tmpl = Template(choice.consensus);
  choice.alignments.reserve(n);
  for (const auto& doc : docs) {
    choice.alignments.push_back(
        NeedlemanWunsch(choice.tmpl.tokens, doc, options.scoring));
  }
  if (stats != nullptr) stats->alignments_computed += n;
  DetectSlotsNaive(choice.tmpl, choice.alignments, cm, stats);
  return choice;
}

// Which consensus search ReferenceRunOnCluster runs.
enum class Costing {
  kProduction,  // FineClustering::SearchConsensus
  kNaive,       // SearchConsensusNaive
};

// Definition 1's total cluster cost for the accepted templates' shapes.
inline double ReferenceTotalCost(
    const CostModel& cm, size_t num_docs,
    const std::vector<std::pair<size_t, size_t>>& shapes,
    const std::vector<double>& encoded_base, size_t num_encoded,
    double noise_token_cost) {
  double cost = cm.ModelCost(shapes);
  cost += static_cast<double>(num_docs);
  cost += noise_token_cost;
  const double lg_t = Log2Bits(shapes.size());
  for (double base : encoded_base) cost += base;
  cost += lg_t * static_cast<double>(num_encoded);
  return cost;
}

// Algorithm 4 as one greedy loop: each seed gathers its pool, admits
// members, fits a template and takes the MDL decision before the next
// seed starts. The production path splits that loop into a claim scan,
// independent per-set fits and an in-order MDL replay, and fans the fits
// out across clusters; it must agree with this loop field by field, cost
// bits included. With Costing::kProduction the work counters must agree
// too; the naive costing reports more alignments and slot candidates and
// no cache hits.
inline FineResult ReferenceRunOnCluster(
    const FineOptions& options, Costing costing, const Corpus& corpus,
    const std::vector<DocId>& doc_ids, const CostModel& cm,
    const std::vector<std::vector<PhraseHash>>* doc_top_phrases) {
  const FineClustering fine(options);
  FineResult result;
  const size_t num_docs = doc_ids.size();
  if (num_docs == 0) return result;

  std::unordered_map<PhraseHash, std::vector<DocId>> phrase_to_docs;
  if (doc_top_phrases != nullptr) {
    for (DocId d : doc_ids) {
      for (PhraseHash p : (*doc_top_phrases)[d]) {
        phrase_to_docs[p].push_back(d);
      }
    }
  }
  double all_unencoded = 0.0;
  for (DocId id : doc_ids) {
    all_unencoded += cm.UnencodedDocCost(corpus.doc(id).length());
  }
  result.cost_before =
      ReferenceTotalCost(cm, num_docs, {}, {}, 0, all_unencoded);

  std::unordered_map<DocId, uint32_t> local_index;
  for (size_t i = 0; i < doc_ids.size(); ++i) {
    local_index.emplace(doc_ids[i], static_cast<uint32_t>(i));
  }
  std::vector<char> claimed(doc_ids.size(), 0);
  auto is_claimed = [&](DocId d) { return claimed[local_index.at(d)] != 0; };
  std::vector<std::pair<size_t, size_t>> shapes;
  std::vector<double> encoded_base;
  size_t num_encoded = 0;
  double pending_token_cost = all_unencoded;
  double noise_token_cost = 0.0;
  double best_total = result.cost_before;

  for (size_t cursor = 0; cursor < doc_ids.size(); ++cursor) {
    const DocId seed = doc_ids[cursor];
    if (claimed[cursor]) continue;
    const std::vector<TokenId>& seed_tokens = corpus.doc(seed).tokens;

    std::vector<DocId> pool;
    if (doc_top_phrases != nullptr) {
      std::unordered_set<DocId> neighbor_set;
      for (PhraseHash p : (*doc_top_phrases)[seed]) {
        auto it = phrase_to_docs.find(p);
        if (it == phrase_to_docs.end()) continue;
        for (DocId d : it->second) {
          if (d != seed && !is_claimed(d)) neighbor_set.insert(d);
        }
      }
      // determinism: unordered gather, sorted before use on the next line.
      pool.assign(neighbor_set.begin(), neighbor_set.end());
      std::sort(pool.begin(), pool.end());
    } else {
      for (size_t i = cursor + 1; i < doc_ids.size(); ++i) {
        if (!claimed[i]) pool.push_back(doc_ids[i]);
      }
    }

    std::vector<DocId> member_ids{seed};
    std::vector<std::vector<TokenId>> member_docs{seed_tokens};
    std::unique_ptr<MsaAligner> graph;
    switch (options.msa_backend) {
      case MsaBackend::kPoa:
        graph = std::make_unique<PoaGraph>(seed_tokens, options.scoring);
        break;
      case MsaBackend::kProfile:
        graph = std::make_unique<ProfileMsa>(seed_tokens, options.scoring);
        break;
    }
    Template seed_template(seed_tokens);
    result.stats.alignments_computed += pool.size();
    for (DocId d : pool) {
      const std::vector<TokenId>& tokens = corpus.doc(d).tokens;
      DocEncoding enc = EncodeDocument(seed_template, tokens, cm);
      if (cm.EncodedDocCost(1, enc.summary) <
          cm.UnencodedDocCost(tokens.size())) {
        member_ids.push_back(d);
        member_docs.push_back(tokens);
        graph->AddSequence(tokens);
      }
    }

    double member_unencoded = 0.0;
    for (DocId d : member_ids) {
      member_unencoded += cm.UnencodedDocCost(corpus.doc(d).length());
      claimed[local_index.at(d)] = 1;
    }
    pending_token_cost -= member_unencoded;
    auto reject_as_noise = [&]() {
      for (DocId d : member_ids) result.noise.push_back(d);
      noise_token_cost += member_unencoded;
    };
    if (member_ids.size() < options.min_template_support) {
      reject_as_noise();
      continue;
    }
    FineClustering::ConsensusChoice choice =
        costing == Costing::kNaive
            ? SearchConsensusNaive(
                  options,
                  [&graph](size_t h) {
                    return graph->ConsensusAtThreshold(h);
                  },
                  member_docs, cm, &result.stats)
            : fine.SearchConsensus(*graph, member_docs, cm, &result.stats);
    if (choice.consensus.empty()) {
      reject_as_noise();
      continue;
    }
    Template tmpl = std::move(choice.tmpl);
    std::vector<DocEncoding> encodings;
    double base_sum = 0.0;
    for (const Alignment& a : choice.alignments) {
      encodings.push_back(EncodeDocumentWithAlignment(tmpl, a, cm));
      base_sum += encodings.back().base_cost;
    }
    std::vector<std::pair<size_t, size_t>> new_shapes = shapes;
    new_shapes.emplace_back(tmpl.length(), tmpl.num_slots());
    std::vector<double> new_encoded = encoded_base;
    new_encoded.push_back(base_sum);
    const double candidate_total = ReferenceTotalCost(
        cm, num_docs, new_shapes, new_encoded,
        num_encoded + member_ids.size(),
        noise_token_cost + pending_token_cost);
    if (candidate_total < best_total) {
      best_total = candidate_total;
      shapes = std::move(new_shapes);
      encoded_base = std::move(new_encoded);
      num_encoded += member_ids.size();
      TemplateCluster cluster;
      cluster.tmpl = std::move(tmpl);
      cluster.members = std::move(member_ids);
      cluster.encodings = std::move(encodings);
      result.templates.push_back(std::move(cluster));
    } else {
      reject_as_noise();
    }
  }
  result.cost_after = best_total;
  std::sort(result.noise.begin(), result.noise.end());
  return result;
}

// InfoShield::Run with the fine stage replaced by the reference: the
// production coarse stage at options.num_threads, then
// ReferenceRunOnCluster with naive costing on each cluster in order,
// merged by AssembleResult. ResultToJson of the two must be identical.
inline InfoShieldResult RunNaivePipeline(const InfoShieldOptions& options,
                                         const Corpus& corpus) {
  InfoShieldResult result;
  WallTimer timer;
  CoarseOptions coarse_options = options.coarse;
  coarse_options.num_threads = options.num_threads;
  const CoarseResult coarse = CoarseClustering(coarse_options).Run(corpus);
  result.coarse_seconds = timer.ElapsedSeconds();

  timer.Restart();
  const CostModel cost_model = CostModel::ForVocabulary(corpus.vocab());
  std::vector<FineResult> fine_results;
  fine_results.reserve(coarse.clusters.size());
  for (const std::vector<DocId>& cluster : coarse.clusters) {
    fine_results.push_back(
        ReferenceRunOnCluster(options.fine, Costing::kNaive, corpus, cluster,
                              cost_model, &coarse.doc_top_phrases));
  }
  AssembleResult(coarse, &fine_results, cost_model, corpus.size(), &result);
  result.fine_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace reference
}  // namespace infoshield

#endif  // INFOSHIELD_TESTS_FINE_REFERENCE_H_
