// Cached planner lookups for the serving runtime: winning ExecutionPlans
// live in the same ResourceCache as FFT plans / octrees / engines, keyed by
// planner::cache_key (shape, request template, topology, device, accuracy,
// calibration, pinned knobs). A warm lookup skips candidate enumeration
// entirely — observable via the "planner.cache_hits" counter.
#pragma once

#include <memory>

#include "planner/planner.hpp"
#include "runtime/resource_cache.hpp"

namespace lc::runtime {

/// Resolve `request` to a plan through `cache`, running `planner.plan()`
/// only on a cold key. `cache_hit` (optional) reports whether the plan was
/// already resident. Increments "planner.cache_hits"/"planner.cache_misses"
/// in the global registry.
[[nodiscard]] std::shared_ptr<const planner::ExecutionPlan> plan_cached(
    ResourceCache& cache, const planner::Planner& planner,
    const planner::PlanRequest& request, bool* cache_hit = nullptr);

}  // namespace lc::runtime
