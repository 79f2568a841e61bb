// The tier check every ISA-tiered suite runs first.  The suites are
// registered again under PEF_BATCH_ISA=portable and avx2 (CMakeLists.txt);
// a value that names no tier would leave the kernels on the native tier
// and re-test it, so the check fails on it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/isa.hpp"

namespace pef {

/// active_isa() is the tier PEF_BATCH_ISA names, clamped to the CPU, or
/// the CPU's own tier without it.
inline void expect_active_isa_is_the_named_tier() {
  const char* env = std::getenv("PEF_BATCH_ISA");
  if (env == nullptr) {
    EXPECT_EQ(active_isa(), cpu_isa());
    return;
  }
  const struct {
    const char* name;
    IsaTier tier;
  } kTiers[] = {{"portable", IsaTier::kPortable},
                {"avx2", IsaTier::kAvx2},
                {"avx512", IsaTier::kAvx512}};
  for (const auto& named : kTiers) {
    if (std::strcmp(env, named.name) == 0) {
      EXPECT_EQ(active_isa(), std::min(named.tier, cpu_isa()));
      return;
    }
  }
  ADD_FAILURE() << "PEF_BATCH_ISA=" << env
                << " names no tier (portable, avx2 or avx512)";
}

}  // namespace pef
