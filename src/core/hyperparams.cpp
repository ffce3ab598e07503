#include "core/hyperparams.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fft/fft1d.hpp"

namespace lc::core {

std::size_t recommended_batch(i64 n) {
  const auto b = static_cast<std::size_t>(std::max<i64>(n, 1));
  return std::clamp<std::size_t>(fft::next_pow2(b), 512, 32768);
}

std::vector<i64> subdomain_divisors(i64 n) {
  LC_CHECK_ARG(n >= 2, "grid side must be >= 2");
  std::vector<i64> divs;
  for (i64 k = n; k >= 2; --k) {
    if (n % k == 0) divs.push_back(k);
  }
  return divs;
}

}  // namespace lc::core
