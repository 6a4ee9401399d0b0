#include "graph/connected_components.h"

#include <cstdint>

#include "util/audit.h"

namespace infoshield {

Components ExtractComponents(UnionFind& uf, size_t min_component_size) {
  INFOSHIELD_AUDIT_INVARIANTS(uf.ValidateInvariants());
  // One pass in ascending element order: the first visit of a root is its
  // smallest member, so a kept group gets the next output slot then and
  // groups come out ordered by smallest member with no sort; members are
  // appended in id order, so each group ascends. The union-find already
  // knows each set's size, so a group is dropped or reserved up front.
  constexpr uint32_t kUnseen = UINT32_MAX;
  constexpr uint32_t kDropped = UINT32_MAX - 1;
  const size_t n = uf.num_elements();
  std::vector<uint32_t> slot_of_root(n, kUnseen);
  Components out;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t root = uf.Find(i);
    uint32_t& slot = slot_of_root[root];
    if (slot == kUnseen) {
      const uint32_t size = uf.SetSize(root);
      if (size < min_component_size) {
        slot = kDropped;
      } else {
        slot = static_cast<uint32_t>(out.groups.size());
        out.groups.emplace_back().reserve(size);
      }
    }
    if (slot != kDropped) out.groups[slot].push_back(i);
  }
  return out;
}

}  // namespace infoshield
