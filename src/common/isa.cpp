#include "common/isa.hpp"

#include <cstdlib>
#include <cstring>

namespace pef {

IsaTier cpu_isa() {
#ifdef PEF_HAS_ISA_WRAPPERS
  IsaTier best = IsaTier::kPortable;
  if (__builtin_cpu_supports("avx2")) best = IsaTier::kAvx2;
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    best = IsaTier::kAvx512;
  }
  return best;
#else
  return IsaTier::kPortable;
#endif
}

IsaTier detect_isa() {
  IsaTier best = cpu_isa();
  if (const char* env = std::getenv("PEF_BATCH_ISA")) {
    IsaTier cap = best;
    for (const IsaTier tier :
         {IsaTier::kPortable, IsaTier::kAvx2, IsaTier::kAvx512}) {
      if (std::strcmp(env, to_string(tier)) == 0) cap = tier;
    }
    if (cap < best) best = cap;  // clamp only — never exceed the hardware
  }
  return best;
}

}  // namespace pef
