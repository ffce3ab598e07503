// Process-wide execution-path flags read from the environment.
//
// Every LC_* choice flag goes through env_choice(): unset picks the
// default, a listed spelling picks that value, and anything else throws
// InvalidArgument naming the variable, the bad value, and the accepted
// spellings — a silent fallback hid typos like LC_PLANNER=prob for whole
// runs. The flags sharing the helper:
//
//   LC_PLANNER=analytic|probe|off       planner mode (planner::mode_from_env)
//   LC_WIRE=off|fp32|fp16|bf16|q16      exchange payload codec (DESIGN.md §17)
#pragma once

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/check.hpp"

namespace lc {

/// Parse the choice-valued environment variable `name`: returns the index
/// of the matching spelling in `allowed` (or `fallback_index` when unset).
/// Throws InvalidArgument on an unrecognised value.
[[nodiscard]] inline std::size_t env_choice(
    const char* name, std::size_t fallback_index,
    std::initializer_list<std::string_view> allowed) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback_index;
  const std::string_view v(env);
  std::size_t i = 0;
  for (const std::string_view a : allowed) {
    if (v == a) return i;
    ++i;
  }
  std::string msg(name);
  msg += "='";
  msg += v;
  msg += "' is not a recognised value (expected one of:";
  for (const std::string_view a : allowed) {
    msg += ' ';
    msg += a;
  }
  msg += ')';
  throw InvalidArgument(msg);
}

}  // namespace lc
