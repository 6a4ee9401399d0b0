// End-to-end InfoShield pipeline: InfoShield-Coarse -> InfoShield-Fine.
//
// The final model M is the union of the template sets found in every
// coarse cluster (paper §IV-B5). Documents encoded by some template are
// "suspicious" (the binary labeling used for precision/recall in §V-A5);
// the template a document belongs to is its predicted cluster label (the
// clustering used for ARI).

#ifndef INFOSHIELD_CORE_INFOSHIELD_H_
#define INFOSHIELD_CORE_INFOSHIELD_H_

#include <cstdint>
#include <vector>

#include "coarse/coarse_clustering.h"
#include "core/fine_clustering.h"
#include "mdl/cost_model.h"
#include "text/corpus.h"
#include "util/status.h"

namespace infoshield {

struct InfoShieldOptions {
  CoarseOptions coarse;
  FineOptions fine;
  // Worker threads for both stages: the coarse pipeline (df counting,
  // per-document top-phrase selection, the bucket-run sort) and the fine
  // stage (candidate-set fits, FineClustering::RunOnClusters). Overrides
  // coarse.num_threads. 1 = sequential; 0 = hardware concurrency.
  // Results are bit-identical for any thread count: the coarse bucket
  // run is a pure function of the keys and fine clusters merge in
  // deterministic order.
  size_t num_threads = 1;
};

// Per-coarse-cluster compression statistics (drives Fig. 3).
struct ClusterStats {
  size_t coarse_cluster_index = 0;
  size_t num_docs = 0;
  size_t num_templates = 0;
  double cost_before = 0.0;
  double cost_after = 0.0;
  double relative_length = 1.0;
  // Lemma 1 bound for this cluster's (t, n).
  double lower_bound = 0.0;
};

struct InfoShieldResult {
  // All accepted templates across coarse clusters.
  std::vector<TemplateCluster> templates;
  // Coarse cluster index each template came from (parallel to templates).
  std::vector<size_t> template_coarse_cluster;
  // Stats per coarse cluster that reached the fine stage.
  std::vector<ClusterStats> cluster_stats;
  // Per document: index into `templates`, or -1 if unclustered. Documents
  // with label >= 0 are the "suspicious" set.
  std::vector<int64_t> doc_template;
  // Coarse-stage diagnostics.
  size_t num_coarse_clusters = 0;
  size_t num_singletons = 0;
  // Wall-clock breakdown in seconds.
  double coarse_seconds = 0.0;
  double fine_seconds = 0.0;
  // Fine-stage hot-path counters summed over all coarse clusters (never
  // part of the canonical JSON; see FineStageStats).
  FineStageStats fine_stats;
  // Coarse-stage per-phase timings and shard diagnostics (never part of
  // the canonical JSON; see CoarseStageStats).
  CoarseStageStats coarse_stats;

  bool IsSuspicious(DocId d) const { return doc_template[d] >= 0; }
  size_t num_suspicious() const;
};

class InfoShield {
 public:
  InfoShield() = default;
  explicit InfoShield(InfoShieldOptions options) : options_(options) {}

  InfoShieldResult Run(const Corpus& corpus) const;

  const InfoShieldOptions& options() const { return options_; }

 private:
  InfoShieldOptions options_;
};

// Merges the per-cluster fine results (parallel to coarse.clusters) into
// an empty `result` in cluster order: doc_template (one label for each
// of `num_docs` documents), the coarse counts, the cluster stats, the
// templates (moved out of `fine_results`) with their coarse cluster,
// and the summed fine_stats. InfoShield::Run and the
// incremental engine both assemble through it, so the two results agree
// field for field.
void AssembleResult(const CoarseResult& coarse,
                    std::vector<FineResult>* fine_results,
                    const CostModel& cost_model, size_t num_docs,
                    InfoShieldResult* result);

// Deep invariant audit (util/audit.h): every template cluster validates
// against the corpus, doc_template is a consistent inverse of the
// clusters' member lists (label i <=> member of templates[i]), the
// parallel template_coarse_cluster array lines up, and the per-cluster
// stats carry finite costs. Returns OK or an Internal status listing
// every violation.
Status ValidateInfoShieldResult(const InfoShieldResult& result,
                                const Corpus& corpus);

}  // namespace infoshield

#endif  // INFOSHIELD_CORE_INFOSHIELD_H_
