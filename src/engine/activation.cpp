#include "engine/activation.hpp"

namespace pef {

std::optional<ExecutionModel> parse_execution_model(const std::string& name) {
  if (name == "fsync") return ExecutionModel::kFsync;
  if (name == "ssync") return ExecutionModel::kSsync;
  if (name == "async") return ExecutionModel::kAsync;
  return std::nullopt;
}

void Activation::fill(Time t, std::uint32_t k, ActivationMask& mask) {
  switch (kind) {
    case ActivationKind::kFull:
      mask.assign(k, 1);
      return;
    case ActivationKind::kRoundRobin:
      mask.assign(k, 0);
      mask[t % k] = 1;
      return;
    case ActivationKind::kBernoulli: {
      mask.assign(k, 0);
      bool any = false;
      for (std::uint32_t i = 0; i < k; ++i) {
        mask[i] = rng.next_bool(p) ? 1 : 0;
        any = any || mask[i] != 0;
      }
      if (!any) mask[rng.next_below(k)] = 1;
      return;
    }
  }
}

}  // namespace pef
