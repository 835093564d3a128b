#include "exec/parallel.hpp"

namespace satdiag::exec {

ShardPlan ShardPlan::make(std::size_t num_items, std::size_t grain) {
  ShardPlan plan;
  plan.num_items = num_items;
  if (grain == 0) {
    grain = (num_items + kDefaultMaxShards - 1) / kDefaultMaxShards;
  }
  plan.grain = std::max<std::size_t>(1, grain);
  return plan;
}

}  // namespace satdiag::exec
