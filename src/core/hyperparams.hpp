// Hyperparameter heuristics (paper §5.4).
//
// The paper hand-tunes three knobs: the sub-domain size k (largest slab
// that fits device memory), the downsampling rate r (problem-size and
// accuracy dependent), and the batch parameter B (hundreds to tens of
// thousands of pencils, bigger helps until transform concurrency
// saturates). The execution planner (planner/planner.hpp) searches k and r;
// these helpers give it the legal k values and its starting batch, and
// bench_batch_param ablates B explicitly.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/grid.hpp"

namespace lc::core {

/// Batch heuristic: B grows with the plane size and saturates — the paper
/// sees 19.9% gains moving 512→1024 at N=256 but only 5-7% at N=2048.
[[nodiscard]] std::size_t recommended_batch(i64 n);

/// Divisors of n that are usable sub-domain sizes (2 <= k <= n), descending.
/// DomainDecomposition requires k | n, so these are the only legal k values.
[[nodiscard]] std::vector<i64> subdomain_divisors(i64 n);

}  // namespace lc::core
