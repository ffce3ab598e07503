#include "runtime/plan_provider.hpp"

#include "obs/metrics.hpp"

namespace lc::runtime {

std::shared_ptr<const planner::ExecutionPlan> plan_cached(
    ResourceCache& cache, const planner::Planner& planner,
    const planner::PlanRequest& request, bool* cache_hit) {
  static obs::Counter& hits =
      obs::Registry::global().counter("planner.cache_hits");
  static obs::Counter& misses =
      obs::Registry::global().counter("planner.cache_misses");

  const std::string key = planner::cache_key(request);
  // Plans are small (the ranked list dominates); accounted at a flat
  // estimate like the octree entries.
  const std::size_t bytes = sizeof(planner::ExecutionPlan) + 8192;
  bool built = false;
  auto plan = cache.get_or_build<planner::ExecutionPlan>(
      key, bytes, [&]() -> std::shared_ptr<const planner::ExecutionPlan> {
        built = true;
        return std::make_shared<const planner::ExecutionPlan>(
            planner.plan(request));
      });
  (built ? misses : hits).add(1);
  if (cache_hit != nullptr) *cache_hit = !built;
  return plan;
}

}  // namespace lc::runtime
