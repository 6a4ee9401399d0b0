// Harness (e1): differential fuzzing of the fine stage.
//
// The production fine stage (consensus-identity cache, alignment reuse,
// GapCostProfile slot probes, the claim/fit/decide fan-out) exists only
// as an optimization of the naive reference kept in
// tests/fine_reference.h. The contract is byte-identical output. This
// harness decodes fuzz bytes into a small synthetic corpus, runs
// InfoShield::Run and the reference pipeline (the same coarse stage,
// then the sequential loop with naive costing), and asserts the
// canonical JSON serializations match byte for byte; the production
// result must also pass the deep invariant auditors.

#include <cstdint>
#include <string>
#include <vector>

#include "core/infoshield.h"
#include "fine_reference.h"
#include "fuzz_util.h"
#include "io/json_writer.h"
#include "synthetic_corpus.h"
#include "text/corpus.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

using infoshield::Corpus;
using infoshield::InfoShield;
using infoshield::InfoShieldOptions;
using infoshield::InfoShieldResult;
using infoshield::MsaBackend;
using infoshield::ResultToJson;
using infoshield::Status;
using infoshield::ValidateInfoShieldResult;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  infoshield::fuzz::FuzzInput in(data, size);

  InfoShieldOptions options;
  const uint8_t option_bits = in.TakeByte();
  // Both runs get the same knobs; only the fine stage differs.
  options.fine.exhaustive_consensus_search = (option_bits & 1) != 0;
  options.fine.msa_backend =
      (option_bits & 2) != 0 ? MsaBackend::kProfile : MsaBackend::kPoa;
  if ((option_bits & 4) != 0) options.coarse.tfidf.min_ngram = 1;

  const std::vector<std::string> texts =
      infoshield::fuzz::DecodeSyntheticTexts(in, /*max_docs=*/12);
  const Corpus corpus = infoshield::fuzz::BuildSyntheticCorpus(texts);

  const InfoShieldResult optimized = InfoShield(options).Run(corpus);
  Status audit = ValidateInfoShieldResult(optimized, corpus);
  CHECK(audit.ok()) << audit.ToString();

  const InfoShieldResult naive =
      infoshield::reference::RunNaivePipeline(options, corpus);

  const std::string optimized_json = ResultToJson(optimized, corpus);
  const std::string naive_json = ResultToJson(naive, corpus);
  if (optimized_json != naive_json) {
    size_t diverge = 0;
    while (diverge < optimized_json.size() && diverge < naive_json.size() &&
           optimized_json[diverge] == naive_json[diverge]) {
      ++diverge;
    }
    CHECK(false) << "optimized and naive fine costing diverged at JSON "
                 << "byte " << diverge << " (corpus of " << texts.size()
                 << " docs, " << optimized.templates.size() << " vs "
                 << naive.templates.size() << " templates)";
  }
  return 0;
}
