#include "core/policy.hpp"

#include <memory>
#include <vector>

#include "core/fcfs_policy.hpp"
#include "core/greedy_policy.hpp"
#include "core/knapsack_policy.hpp"
#include "util/error.hpp"

namespace esched::core {

void require_permutation(std::span<const std::size_t> order, std::size_t n,
                         std::vector<std::uint8_t>& marks) {
  ESCHED_REQUIRE(order.size() == n,
                 "policy returned " + std::to_string(order.size()) +
                     " indices for a window of " + std::to_string(n));
  marks.assign(n, 0);
  for (const std::size_t idx : order) {
    ESCHED_REQUIRE(idx < n, "policy returned out-of-range index");
    ESCHED_REQUIRE(marks[idx] == 0, "policy returned duplicate index");
    marks[idx] = 1;
  }
}

std::unique_ptr<SchedulingPolicy> make_policy_by_name(
    const std::string& name) {
  if (name == "fcfs") return std::make_unique<FcfsPolicy>();
  if (name == "greedy") {
    return std::make_unique<GreedyPowerPolicy>(GreedyKey::kPowerPerNode);
  }
  if (name == "greedy-total") {
    return std::make_unique<GreedyPowerPolicy>(GreedyKey::kTotalPower);
  }
  if (name == "knapsack") return std::make_unique<KnapsackPolicy>();
  std::string known;
  for (const std::string& k : known_policy_names()) {
    if (!known.empty()) known += ", ";
    known += k;
  }
  throw Error("unknown policy name \"" + name + "\" (known: " + known + ")");
}

const std::vector<std::string>& known_policy_names() {
  static const std::vector<std::string> kNames = {"fcfs", "greedy",
                                                  "greedy-total", "knapsack"};
  return kNames;
}

}  // namespace esched::core
