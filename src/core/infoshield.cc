#include "core/infoshield.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace infoshield {

size_t InfoShieldResult::num_suspicious() const {
  size_t n = 0;
  for (int64_t t : doc_template) {
    if (t >= 0) ++n;
  }
  return n;
}

void AssembleResult(const CoarseResult& coarse,
                    std::vector<FineResult>* fine_results,
                    const CostModel& cost_model, size_t num_docs,
                    InfoShieldResult* result) {
  result->doc_template.assign(num_docs, -1);
  result->num_coarse_clusters = coarse.clusters.size();
  result->num_singletons = coarse.singletons.size();
  size_t total_templates = 0;
  for (const FineResult& fr : *fine_results) {
    total_templates += fr.templates.size();
  }
  result->cluster_stats.reserve(coarse.clusters.size());
  result->templates.reserve(total_templates);
  result->template_coarse_cluster.reserve(total_templates);
  for (size_t ci = 0; ci < coarse.clusters.size(); ++ci) {
    FineResult& fr = (*fine_results)[ci];
    result->fine_stats.MergeFrom(fr.stats);

    ClusterStats stats;
    stats.coarse_cluster_index = ci;
    stats.num_docs = coarse.clusters[ci].size();
    stats.num_templates = fr.templates.size();
    stats.cost_before = fr.cost_before;
    stats.cost_after = fr.cost_after;
    stats.relative_length = fr.relative_length();
    stats.lower_bound = RelativeLengthLowerBound(
        std::max<size_t>(fr.templates.size(), 1), stats.num_docs,
        cost_model.lg_vocab());
    result->cluster_stats.push_back(stats);

    for (TemplateCluster& tc : fr.templates) {
      const int64_t template_index =
          static_cast<int64_t>(result->templates.size());
      for (DocId d : tc.members) {
        result->doc_template[d] = template_index;
      }
      result->templates.push_back(std::move(tc));
      result->template_coarse_cluster.push_back(ci);
    }
  }
}

InfoShieldResult InfoShield::Run(const Corpus& corpus) const {
  InfoShieldResult result;
  WallTimer timer;
  CoarseOptions coarse_options = options_.coarse;
  coarse_options.num_threads = options_.num_threads;
  CoarseClustering coarse(coarse_options);
  CoarseResult coarse_result = coarse.Run(corpus);
  result.coarse_seconds = timer.ElapsedSeconds();
  result.coarse_stats = coarse_result.stats;

  timer.Restart();
  const CostModel cost_model = CostModel::ForVocabulary(corpus.vocab());
  // One flat fan-out over every cluster's candidate sets (DESIGN.md
  // §10); results come back in cluster order and are merged in that
  // order, so the result is identical for any thread count.
  std::vector<const std::vector<DocId>*> clusters;
  clusters.reserve(coarse_result.clusters.size());
  for (const std::vector<DocId>& c : coarse_result.clusters) {
    clusters.push_back(&c);
  }
  std::vector<FineResult> fine_results =
      FineClustering(options_.fine)
          .RunOnClusters(corpus, clusters, cost_model,
                         &coarse_result.doc_top_phrases,
                         options_.num_threads, /*memo=*/nullptr);
  AssembleResult(coarse_result, &fine_results, cost_model, corpus.size(),
                 &result);
  result.fine_seconds = timer.ElapsedSeconds();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInfoShieldResult(result, corpus));
  return result;
}

Status ValidateInfoShieldResult(const InfoShieldResult& result,
                                const Corpus& corpus) {
  for (const TemplateCluster& tc : result.templates) {
    INFOSHIELD_RETURN_IF_ERROR(ValidateTemplateCluster(tc, corpus));
  }
  audit::Auditor a("InfoShieldResult");
  a.Expect(result.doc_template.size() == corpus.size(),
           StrFormat("doc_template has %zu labels for %zu documents",
                     result.doc_template.size(), corpus.size()));
  a.Expect(result.template_coarse_cluster.size() == result.templates.size(),
           StrFormat("template_coarse_cluster has %zu entries for %zu "
                     "templates",
                     result.template_coarse_cluster.size(),
                     result.templates.size()));
  // Labels and member lists must be exact inverses.
  size_t member_total = 0;
  for (size_t t = 0; t < result.templates.size(); ++t) {
    member_total += result.templates[t].members.size();
    for (DocId d : result.templates[t].members) {
      if (d < result.doc_template.size()) {
        a.Expect(result.doc_template[d] == static_cast<int64_t>(t),
                 StrFormat("document %u is a member of template %zu but "
                           "carries label %lld",
                           d, t,
                           static_cast<long long>(result.doc_template[d])));
      }
    }
  }
  size_t labeled = 0;
  for (size_t d = 0; d < result.doc_template.size(); ++d) {
    const int64_t label = result.doc_template[d];
    a.Expect(label >= -1 &&
                 label < static_cast<int64_t>(result.templates.size()),
             StrFormat("document %zu has out-of-range label %lld", d,
                       static_cast<long long>(label)));
    if (label >= 0) ++labeled;
  }
  a.Expect(labeled == member_total,
           StrFormat("%zu labeled documents but %zu template members",
                     labeled, member_total));
  for (const ClusterStats& s : result.cluster_stats) {
    a.Expect(std::isfinite(s.cost_before) && s.cost_before >= 0.0 &&
                 std::isfinite(s.cost_after) && s.cost_after >= 0.0,
             StrFormat("cluster %zu stats carry negative or non-finite "
                       "costs",
                       s.coarse_cluster_index));
  }
  return a.Finish();
}

}  // namespace infoshield
