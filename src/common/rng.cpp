#include "common/rng.hpp"

namespace pef {

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Multiply-shift with a rejection loop to remove modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

}  // namespace pef
