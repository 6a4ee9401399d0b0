#include "core/fine_memo.h"

#include <algorithm>
#include <utility>

#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

EncodingSummary FineMemoPair::Summary() const {
  EncodingSummary s;
  s.alignment_length = alignment_length;
  s.unmatched = unmatched;
  s.inserted_or_substituted = inserted_or_substituted;
  return s;
}

void FineMemoSet::MergeFrom(FineMemoSet delta) {
  CHECK_EQ(delta.consensus_at.size(), consensus_at.size());
  for (size_t h = 0; h < consensus_at.size(); ++h) {
    if (delta.consensus_at[h] != kNone) consensus_at[h] = delta.consensus_at[h];
  }
  for (size_t i = 0; i < delta.consensuses.size(); ++i) {
    consensuses.push_back(std::move(delta.consensuses[i]));
    profiles.push_back(std::move(delta.profiles[i]));
  }
  if (delta.winner != kNone) {
    winner = delta.winner;
    winner_ops = std::move(delta.winner_ops);
  }
}

std::vector<AlignOpType> AlignmentOpTypes(const Alignment& alignment) {
  std::vector<AlignOpType> types;
  types.reserve(alignment.ops.size());
  for (const AlignOp& op : alignment.ops) types.push_back(op.type);
  return types;
}

Alignment ReplayAlignment(const std::vector<AlignOpType>& types,
                          const std::vector<TokenId>& a,
                          const std::vector<TokenId>& b) {
  Alignment out;
  out.ops.reserve(types.size());
  size_t i = 0;
  size_t j = 0;
  for (AlignOpType type : types) {
    AlignOp op;
    op.type = type;
    switch (type) {
      case AlignOpType::kMatch:
      case AlignOpType::kSubstitute:
        op.a_token = a[i++];
        op.b_token = b[j++];
        break;
      case AlignOpType::kDelete:
        op.a_token = a[i++];
        break;
      case AlignOpType::kInsert:
        op.b_token = b[j++];
        break;
    }
    out.ops.push_back(op);
  }
  CHECK(i == a.size() && j == b.size())
      << "op types do not cover the sequences they replay";
  return out;
}

size_t FineMemo::MemberListHash::operator()(
    const std::vector<DocId>& members) const {
  uint64_t h = members.size();
  for (DocId d : members) {
    h = (h ^ d) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

size_t FineMemo::num_pairs() const {
  size_t n = 0;
  // determinism: commutative integer sum.
  for (const auto& [seed, pairs] : seeds_) n += pairs.size();
  return n;
}

const std::vector<FineMemoPair>* FineMemo::FindSeed(DocId seed) const {
  auto it = seeds_.find(seed);
  return it == seeds_.end() ? nullptr : &it->second;
}

const FineMemoSet* FineMemo::FindSet(
    const std::vector<DocId>& members) const {
  auto it = sets_.find(members);
  return it == sets_.end() ? nullptr : &it->second;
}

void FineMemo::Retain(
    std::vector<std::pair<DocId, std::vector<FineMemoPair>>> seeds,
    std::vector<std::pair<const std::vector<DocId>*, FineMemoSet>> sets) {
  decltype(seeds_) next_seeds;
  next_seeds.reserve(seeds.size());
  for (auto& [seed, pairs] : seeds) {
    next_seeds.emplace(seed, std::move(pairs));
  }
  decltype(sets_) next_sets;
  next_sets.reserve(sets.size());
  for (auto& [members, delta] : sets) {
    auto node = sets_.extract(*members);
    if (node.empty()) {
      next_sets.emplace(*members, std::move(delta));
    } else {
      node.mapped().MergeFrom(std::move(delta));
      next_sets.insert(std::move(node));
    }
  }
  seeds_ = std::move(next_seeds);
  sets_ = std::move(next_sets);
}

Status FineMemo::ValidateInvariants(size_t num_docs) const {
  audit::Auditor a("FineMemo");
  // determinism: validation only; each entry is checked independently.
  for (const auto& [seed, pairs] : seeds_) {
    a.Expect(seed < num_docs,
             StrFormat("seed %u outside the %zu-document corpus", seed,
                       num_docs));
    for (size_t i = 0; i < pairs.size(); ++i) {
      const FineMemoPair& p = pairs[i];
      a.Expect(p.doc < num_docs && p.doc != seed,
               StrFormat("seed %u holds pair document %u", seed, p.doc));
      a.Expect(i == 0 || pairs[i - 1].doc < p.doc,
               StrFormat("seed %u's pairs do not ascend at %zu", seed, i));
      a.Expect(p.inserted_or_substituted <= p.unmatched &&
                   p.unmatched <= p.alignment_length,
               StrFormat("seed %u, document %u: inconsistent counts", seed,
                         p.doc));
    }
  }
  // determinism: validation only; each entry is checked independently.
  for (const auto& [members, set] : sets_) {
    for (DocId d : members) {
      a.Expect(d < num_docs,
               StrFormat("set member %u outside the %zu-document corpus", d,
                         num_docs));
    }
    const int32_t num_consensuses =
        static_cast<int32_t>(set.consensuses.size());
    a.Expect(set.consensus_at.size() == members.size(),
             StrFormat("threshold map has %zu entries for %zu members",
                       set.consensus_at.size(), members.size()));
    for (int32_t index : set.consensus_at) {
      a.Expect(index >= FineMemoSet::kNone && index < num_consensuses,
               StrFormat("threshold maps to consensus %d of %d", index,
                         num_consensuses));
    }
    a.Expect(set.profiles.size() == set.consensuses.size(),
             StrFormat("%zu profile tables for %zu consensuses",
                       set.profiles.size(), set.consensuses.size()));
    for (const std::vector<GapCostProfile>& profiles : set.profiles) {
      a.Expect(profiles.size() == members.size(),
               StrFormat("%zu profiles for %zu members", profiles.size(),
                         members.size()));
    }
    a.Expect(set.winner >= FineMemoSet::kNone && set.winner < num_consensuses,
             StrFormat("winner %d of %d consensuses", set.winner,
                       num_consensuses));
    a.Expect(set.winner_ops.size() ==
                 (set.winner == FineMemoSet::kNone ? 0 : members.size()),
             StrFormat("winner ops for %zu of %zu members",
                       set.winner_ops.size(), members.size()));
  }
  return a.Finish();
}

}  // namespace infoshield
