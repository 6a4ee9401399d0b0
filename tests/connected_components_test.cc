#include "graph/connected_components.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/union_find.h"
#include "util/random.h"

namespace infoshield {
namespace {

// The hash-map grouping ExtractComponents replaced: members by root in id
// order, small groups dropped, groups sorted by smallest member.
Components ReferenceComponents(UnionFind& uf, size_t min_component_size) {
  std::unordered_map<uint32_t, std::vector<uint32_t>> by_root;
  for (uint32_t i = 0; i < uf.num_elements(); ++i) {
    by_root[uf.Find(i)].push_back(i);
  }
  Components out;
  // determinism: the sort below fixes the group order.
  for (auto& [root, members] : by_root) {
    if (members.size() < min_component_size) continue;
    out.groups.push_back(std::move(members));
  }
  std::sort(out.groups.begin(), out.groups.end(),
            [](const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
              return a.front() < b.front();
            });
  return out;
}

TEST(ComponentsTest, MatchesHashMapReferenceOnRandomUnionFinds) {
  for (uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    Rng rng(seed);
    const size_t num_nodes = rng.NextIndex(400);
    const size_t num_edges =
        num_nodes == 0 ? 0 : rng.NextIndex(2 * num_nodes);
    UnionFind uf(num_nodes);
    for (size_t e = 0; e < num_edges; ++e) {
      uf.Union(static_cast<uint32_t>(rng.NextIndex(num_nodes)),
               static_cast<uint32_t>(rng.NextIndex(num_nodes)));
    }
    for (size_t min_size : {0u, 1u, 2u, 3u, 5u, 50u}) {
      const Components want = ReferenceComponents(uf, min_size);
      const Components got = ExtractComponents(uf, min_size);
      ASSERT_EQ(got.groups, want.groups)
          << "seed=" << seed << " min_component_size=" << min_size;
    }
  }
}

TEST(ComponentsTest, AllSingletonsKeptAtMinSizeOne) {
  UnionFind uf(3);
  Components c = ExtractComponents(uf, 1);
  EXPECT_EQ(c.size(), 3u);
}

TEST(ComponentsTest, MinSizeDropsSingletons) {
  UnionFind uf(4);
  uf.Union(0, 2);
  Components c = ExtractComponents(uf, 2);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.groups[0], (std::vector<uint32_t>{0, 2}));
}

TEST(ComponentsTest, DeterministicOrdering) {
  UnionFind uf(6);
  uf.Union(4, 5);
  uf.Union(1, 3);
  Components c = ExtractComponents(uf, 2);
  ASSERT_EQ(c.size(), 2u);
  // Components ordered by smallest member: {1,3} before {4,5}.
  EXPECT_EQ(c.groups[0], (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(c.groups[1], (std::vector<uint32_t>{4, 5}));
}

TEST(ComponentsTest, MembersAscendWithinGroup) {
  UnionFind uf(5);
  uf.Union(4, 0);
  uf.Union(2, 4);
  Components c = ExtractComponents(uf, 2);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.groups[0], (std::vector<uint32_t>{0, 2, 4}));
}

TEST(ComponentsTest, EmptyUnionFind) {
  UnionFind uf(0);
  EXPECT_EQ(ExtractComponents(uf, 1).size(), 0u);
}

TEST(ComponentsTest, InvariantUnderEdgeInsertionOrder) {
  // Connected components are a pure function of the edge *set*: union-find
  // internals (parents, ranks) may differ per insertion order, but the
  // extracted partition may not. The parallel coarse stage's
  // sort-and-union step leans on this — its edge buffers arrive in a
  // schedule-dependent order before canonical sorting, and components
  // must not care. Random graphs over random permutations, seeded so
  // failures reproduce.
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    const size_t num_nodes = 32 + rng.NextIndex(64);
    const size_t num_edges = rng.NextIndex(3 * num_nodes);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(num_edges);
    for (size_t e = 0; e < num_edges; ++e) {
      edges.emplace_back(static_cast<uint32_t>(rng.NextIndex(num_nodes)),
                         static_cast<uint32_t>(rng.NextIndex(num_nodes)));
    }

    UnionFind reference(num_nodes);
    for (const auto& [a, b] : edges) reference.Union(a, b);
    const Components expected = ExtractComponents(reference, 1);

    for (int perm = 0; perm < 16; ++perm) {
      rng.Shuffle(edges);
      UnionFind uf(num_nodes);
      for (const auto& [a, b] : edges) uf.Union(a, b);
      Components got = ExtractComponents(uf, 1);
      ASSERT_EQ(got.groups, expected.groups)
          << "seed=" << seed << " permutation=" << perm;
    }
  }
}

}  // namespace
}  // namespace infoshield
