#include "hyperpart/algo/number_partitioning.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_set>

#include "hyperpart/util/overflow.hpp"

namespace hp {

std::optional<std::vector<PartId>> pack_items(std::vector<PackingItem> items,
                                              PartId k, Weight capacity) {
  const std::uint32_t full =
      k >= 32 ? ~0u : ((1u << k) - 1);
  std::vector<std::uint32_t> order(items.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return items[a].size > items[b].size;
            });

  // Equal-load bins are interchangeable only when no item distinguishes
  // bins by an allowed-mask restriction.
  const bool any_restricted =
      std::any_of(items.begin(), items.end(), [&](const PackingItem& it) {
        return it.allowed != 0 && (it.allowed & full) != full;
      });

  std::vector<Weight> load(k, 0);
  std::vector<PartId> bin_of(items.size(), kInvalidPart);
  std::unordered_set<std::string> failed;
  const auto key = [&](std::size_t idx) {
    std::string s;
    s.reserve(8 + k * 8);
    const auto append = [&s](Weight w) {
      s.append(reinterpret_cast<const char*>(&w), sizeof(w));
    };
    append(static_cast<Weight>(idx));
    for (const Weight w : load) append(w);
    return s;
  };

  const auto recurse = [&](auto&& self, std::size_t idx) -> bool {
    if (idx == order.size()) return true;
    const std::string state = key(idx);
    if (failed.count(state) != 0) return false;
    const PackingItem& item = items[order[idx]];
    const std::uint32_t allowed =
        item.allowed == 0 ? full : item.allowed;
    Weight previous_load = -1;
    for (PartId q = 0; q < k; ++q) {
      if (!((allowed >> q) & 1)) continue;
      if (sat_add(load[q], item.size) > capacity) continue;
      // Bins with identical load are interchangeable when nothing
      // restricts bins: try one representative.
      if (!any_restricted && load[q] == previous_load) continue;
      previous_load = load[q];
      load[q] += item.size;
      bin_of[order[idx]] = q;
      if (self(self, idx + 1)) return true;
      load[q] -= item.size;
    }
    bin_of[order[idx]] = kInvalidPart;
    failed.insert(state);
    return false;
  };
  if (!recurse(recurse, 0)) return std::nullopt;
  return bin_of;
}

Weight multiway_partition_makespan(const std::vector<Weight>& numbers,
                                   PartId k) {
  if (numbers.empty()) return 0;
  std::vector<PackingItem> items;
  Weight total = 0;
  Weight largest = 0;
  for (const Weight x : numbers) {
    items.push_back({x, 0});
    total += x;
    largest = std::max(largest, x);
  }
  Weight lo = std::max(largest, (total + k - 1) / static_cast<Weight>(k));
  Weight hi = lpt_makespan(numbers, k);
  while (lo < hi) {
    const Weight mid = lo + (hi - lo) / 2;
    if (pack_items(items, k, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

Weight lpt_makespan(const std::vector<Weight>& numbers, PartId k) {
  std::vector<Weight> sorted = numbers;
  std::sort(sorted.rbegin(), sorted.rend());
  std::vector<Weight> load(k, 0);
  for (const Weight x : sorted) {
    auto it = std::min_element(load.begin(), load.end());
    *it += x;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace hp
