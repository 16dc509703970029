// Operator-lifecycle knobs (DESIGN.md section 12), read from the
// environment with the same hardening contract as the rest of the knob
// surface: a hostile value (negative rank budget, absurd byte budget,
// unparsable number) degrades to the default exactly as if the variable
// were unset — never a clamp to an extreme.
//
//   HCHAM_WOODBURY_MAX_RANK   accumulated-delta rank past which an
//                             UpdatableOperator reports needs_rebase()
//                             (default 32, accepted range [1, 4096])
//   HCHAM_SESSION_CACHE_BYTES global SessionCache memory budget
//                             (default 256 MiB, accepted range [4 KiB, 1 TiB])
//   HCHAM_FACTOR_STORE_DIR    spill directory for evicted sessions; empty or
//                             unset disables eviction spill (plain discard)
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/env.hpp"

namespace hcham::lifecycle {

struct LifecycleConfig {
  index_t woodbury_max_rank = 32;
  std::uint64_t session_cache_bytes = 256ull << 20;
  std::string factor_store_dir;  ///< empty = no eviction spill

  /// Re-read every call (cheap), so tests and long-running services can
  /// adjust the environment between uses.
  static LifecycleConfig from_env() {
    LifecycleConfig c;
    c.woodbury_max_rank = static_cast<index_t>(
        env_long_bounded("HCHAM_WOODBURY_MAX_RANK", 32, 1, 1L << 12));
    c.session_cache_bytes = static_cast<std::uint64_t>(env_long_bounded(
        "HCHAM_SESSION_CACHE_BYTES", 256L << 20, 1L << 12, 1L << 40));
    c.factor_store_dir = env_string("HCHAM_FACTOR_STORE_DIR", "");
    return c;
  }
};

}  // namespace hcham::lifecycle
