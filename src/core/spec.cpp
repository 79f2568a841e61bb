#include "core/spec.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "adversary/adaptive_missing_edge.hpp"
#include "adversary/confinement.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/computability.hpp"
#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/markov_schedule.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/placements.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// Topology

const char* to_string(Topology topology) {
  switch (topology) {
    case Topology::kRing:
      return "ring";
    case Topology::kChain:
      return "chain";
  }
  PEF_CHECK_MSG(false, "unknown topology");
  return "?";
}

std::optional<Topology> parse_topology(const std::string& name) {
  if (name == "ring") return Topology::kRing;
  if (name == "chain") return Topology::kChain;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// The registry

const std::vector<AdversaryKindInfo>& adversary_registry() {
  // Field order: kind, name, description, params.
  static const std::vector<AdversaryKindInfo> registry = {
      {AdversaryKind::kStatic, "static",
       "every edge present at every round", {}},
      {AdversaryKind::kBernoulli, "bernoulli",
       "iid edge presence with probability p",
       {{"p", 0.5, "per-edge presence probability"}}},
      {AdversaryKind::kPeriodic, "periodic",
       "rotating public-transport pattern: present iff t mod period < duty",
       {{"period", 5, "pattern period (rounds)"},
        {"duty", 3, "present rounds per period"}}},
      {AdversaryKind::kTInterval, "t-interval",
       "at most one absent edge, redrawn every T rounds",
       {{"interval", 4, "rounds between redraws (T)"}}},
      {AdversaryKind::kBoundedAbsence, "bounded-absence",
       "random absences of at most A consecutive rounds per edge",
       {{"max_absence", 6, "longest absence run (A)"},
        {"max_presence", 8, "longest presence run"}}},
      {AdversaryKind::kEventualMissing, "eventual-missing",
       "one seed-chosen edge vanishes forever (forces sentinels)", {}},
      {AdversaryKind::kAdaptiveMissing, "adaptive-missing",
       "waits for a seed-chosen trigger round, then kills the edge most "
       "robots point at", {}},
      {AdversaryKind::kMarkov, "markov",
       "per-edge two-state Markov chain (fail / recover)",
       {{"p_fail", 0.2, "present -> absent transition probability"},
        {"p_recover", 0.4, "absent -> present transition probability"}}},
      {AdversaryKind::kGreedyBlocker, "greedy-blocker",
       "legality-capped blocker: removes the edge ahead of each robot for "
       "up to A rounds",
       {{"max_absence", 6, "legality cap per edge (A)"}}},
      {AdversaryKind::kCage, "cage",
       "confinement window of `width` nodes around `anchor` (Theorem 4.1 "
       "style)",
       {{"anchor", 0, "first node of the window"},
        {"width", 0, "window width; 0 = min(k + 1, n - 1)"}}},
      {AdversaryKind::kProof, "proof",
       "staged lower-bound adversary of Theorems 4.1 / 5.1",
       {{"anchor", 0, "first node of the window"},
        {"width", 0, "window width; 0 = min(k + 1, n - 1)"},
        {"patience", 64, "rounds per stage before tightening"}}},
  };
  return registry;
}

const AdversaryKindInfo& adversary_kind_info(AdversaryKind kind) {
  for (const AdversaryKindInfo& info : adversary_registry()) {
    if (info.kind == kind) return info;
  }
  PEF_CHECK_MSG(false, "adversary kind missing from registry");
  return adversary_registry().front();
}

std::optional<AdversaryKind> parse_adversary_kind(const std::string& name) {
  for (const AdversaryKindInfo& info : adversary_registry()) {
    if (name == info.name) return info.kind;
  }
  return std::nullopt;
}

std::string known_adversary_kinds() {
  std::string out;
  for (const AdversaryKindInfo& info : adversary_registry()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

// ---------------------------------------------------------------------------
// AdversaryConfig

namespace {

const AdversaryParamInfo* find_param_info(const AdversaryKindInfo& info,
                                          const std::string& name) {
  for (const AdversaryParamInfo& param : info.params) {
    if (name == param.name) return &param;
  }
  return nullptr;
}

std::string declared_params(const AdversaryKindInfo& info) {
  if (info.params.empty()) return "none";
  std::string out;
  for (const AdversaryParamInfo& param : info.params) {
    if (!out.empty()) out += ", ";
    out += param.name;
  }
  return out;
}

/// Positive-integer param cast used by every count/round-valued parameter.
std::uint64_t int_param(const AdversaryConfig& config, const char* name) {
  return static_cast<std::uint64_t>(config.param(name));
}

/// The cage/proof window width at ring size `nodes` with `robots` robots:
/// the "width" param, or min(k + 1, n - 1) when it is 0.
std::uint32_t window_width(const AdversaryConfig& config, std::uint32_t robots,
                           std::uint32_t nodes) {
  const auto width = static_cast<std::uint32_t>(int_param(config, "width"));
  return width != 0 ? width : std::min(robots + 1, nodes - 1);
}

}  // namespace

double AdversaryConfig::param(const std::string& name) const {
  const AdversaryKindInfo& info = adversary_kind_info(kind);
  PEF_CHECK_MSG(find_param_info(info, name) != nullptr,
                "adversary param not declared by this kind");
  for (const AdversaryParam& override : params) {
    if (override.name == name) return override.value;
  }
  return find_param_info(info, name)->default_value;
}

AdversaryConfig& AdversaryConfig::set(const std::string& name, double value) {
  const AdversaryKindInfo& info = adversary_kind_info(kind);
  PEF_CHECK_MSG(find_param_info(info, name) != nullptr,
                "adversary param not declared by this kind");
  for (AdversaryParam& override : params) {
    if (override.name == name) {
      override.value = value;
      return *this;
    }
  }
  params.push_back({name, value});
  return *this;
}

bool AdversaryConfig::operator==(const AdversaryConfig& other) const {
  if (kind != other.kind) return false;
  for (const AdversaryParamInfo& info : adversary_kind_info(kind).params) {
    if (param(info.name) != other.param(info.name)) return false;
  }
  return true;
}

AdversaryConfig adversary_config(AdversaryKind kind) { return {kind, {}}; }

AdversaryConfig adversary_config(
    AdversaryKind kind, std::initializer_list<AdversaryParam> overrides) {
  AdversaryConfig config{kind, {}};
  for (const AdversaryParam& override : overrides) {
    config.set(override.name, override.value);
  }
  return config;
}

std::string adversary_display_name(const AdversaryConfig& config) {
  switch (config.kind) {
    case AdversaryKind::kStatic:
      return "static";
    case AdversaryKind::kBernoulli:
      return "bernoulli(p=" + format_double(config.param("p"), 1) + ")";
    case AdversaryKind::kPeriodic:
      return "periodic(" + std::to_string(int_param(config, "duty")) + "/" +
             std::to_string(int_param(config, "period")) + ")";
    case AdversaryKind::kTInterval:
      return "t-interval(T=" + std::to_string(int_param(config, "interval")) +
             ")";
    case AdversaryKind::kBoundedAbsence:
      return "bounded-absence(A=" +
             std::to_string(int_param(config, "max_absence")) + ")";
    case AdversaryKind::kEventualMissing:
      return "eventual-missing";
    case AdversaryKind::kAdaptiveMissing:
      return "adaptive-missing";
    case AdversaryKind::kMarkov:
      return "markov(f=" + format_double(config.param("p_fail"), 2) + ",r=" +
             format_double(config.param("p_recover"), 2) + ")";
    case AdversaryKind::kGreedyBlocker:
      return "greedy-blocker(A=" +
             std::to_string(int_param(config, "max_absence")) + ")";
    case AdversaryKind::kCage: {
      const auto width = int_param(config, "width");
      return width == 0 ? "cage" : "cage(w=" + std::to_string(width) + ")";
    }
    case AdversaryKind::kProof: {
      const auto width = int_param(config, "width");
      return width == 0 ? "proof" : "proof(w=" + std::to_string(width) + ")";
    }
  }
  PEF_CHECK_MSG(false, "unknown adversary kind");
  return "?";
}

namespace {

/// Restricts an adaptive adversary to the chain: whatever E_t the inner
/// adversary picks, the cut edge is erased.  (Oblivious adversaries never
/// reach this wrapper — their schedule is rewrapped in ChainSchedule so the
/// batched word-plane path survives.)
class ChainAdversary final : public Adversary {
 public:
  ChainAdversary(AdversaryPtr inner, EdgeId cut)
      : inner_(std::move(inner)), cut_(cut) {}

  [[nodiscard]] const Ring& ring() const override { return inner_->ring(); }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override {
    inner_->choose_edges_into(t, gamma, activated, out);
    out.erase(cut_);
  }
  [[nodiscard]] std::string name() const override {
    return "chain(" + inner_->name() + ")";
  }

 private:
  AdversaryPtr inner_;
  EdgeId cut_;
};

AdversaryPtr apply_topology(AdversaryPtr adversary, Topology topology) {
  if (topology == Topology::kRing) return adversary;
  if (const auto* oblivious =
          dynamic_cast<const ObliviousAdversary*>(adversary.get())) {
    return make_oblivious(ChainSchedule::cut_last(oblivious->schedule()));
  }
  const EdgeId cut =
      static_cast<EdgeId>(adversary->ring().edge_count() - 1);
  return std::make_unique<ChainAdversary>(std::move(adversary), cut);
}

AdversaryPtr resolve_ring_adversary(const AdversaryConfig& config,
                                    const Ring& ring, std::uint64_t seed,
                                    std::uint32_t robots) {
  switch (config.kind) {
    case AdversaryKind::kStatic:
      return make_oblivious(std::make_shared<StaticSchedule>(ring));
    case AdversaryKind::kBernoulli:
      return make_oblivious(std::make_shared<BernoulliSchedule>(
          ring, config.param("p"), seed));
    case AdversaryKind::kPeriodic:
      return make_oblivious(
          std::make_shared<PeriodicSchedule>(PeriodicSchedule::rotating(
              ring, static_cast<std::uint32_t>(int_param(config, "period")),
              static_cast<std::uint32_t>(int_param(config, "duty")))));
    case AdversaryKind::kTInterval:
      return make_oblivious(std::make_shared<TIntervalConnectedSchedule>(
          ring, int_param(config, "interval"), seed));
    case AdversaryKind::kBoundedAbsence:
      return make_oblivious(std::make_shared<BoundedAbsenceSchedule>(
          ring, int_param(config, "max_absence"),
          int_param(config, "max_presence"), seed));
    case AdversaryKind::kEventualMissing: {
      // The doomed edge and the vanish time depend on the seed so a battery
      // covers different geometries.  (Stream tag unchanged since the
      // battery's introduction: sweep baselines pin these draws.)
      Xoshiro256 rng(derive_seed(seed, 0xe1de));
      const EdgeId edge =
          static_cast<EdgeId>(rng.next_below(ring.edge_count()));
      const Time vanish = 2 + rng.next_below(4 * ring.node_count());
      return make_oblivious(std::make_shared<EventualMissingEdgeSchedule>(
          std::make_shared<StaticSchedule>(ring), edge, vanish));
    }
    case AdversaryKind::kAdaptiveMissing: {
      Xoshiro256 rng(derive_seed(seed, 0xada));
      const Time trigger = 2 + rng.next_below(4 * ring.node_count());
      return std::make_unique<AdaptiveMissingEdgeAdversary>(ring, trigger);
    }
    case AdversaryKind::kMarkov:
      return make_oblivious(std::make_shared<MarkovSchedule>(
          ring, config.param("p_fail"), config.param("p_recover"), seed));
    case AdversaryKind::kGreedyBlocker:
      return std::make_unique<GreedyBlockerAdversary>(
          ring, int_param(config, "max_absence"));
    case AdversaryKind::kCage:
      return std::make_unique<ConfinementAdversary>(
          ring, static_cast<NodeId>(int_param(config, "anchor")),
          window_width(config, robots, ring.node_count()));
    case AdversaryKind::kProof:
      return std::make_unique<StagedProofAdversary>(
          ring, static_cast<NodeId>(int_param(config, "anchor")),
          window_width(config, robots, ring.node_count()),
          int_param(config, "patience"));
  }
  PEF_CHECK_MSG(false, "unknown adversary kind");
  return nullptr;
}

}  // namespace

AdversaryPtr adversary_from_config(const AdversaryConfig& config,
                                   const Ring& ring, std::uint64_t seed,
                                   std::uint32_t robots, Topology topology) {
  return apply_topology(resolve_ring_adversary(config, ring, seed, robots),
                        topology);
}

namespace {

/// A number for an error message.  JSON has no NaN or infinity, so
/// format_number prints those as null; a message names them.
std::string format_value(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return JsonWriter::format_number(v);
}

/// True iff `v` is a probability.  Written so that NaN fails it.
bool is_probability(double v) { return v >= 0.0 && v <= 1.0; }

/// `adversary "<kind>": `, the head of every message about one adversary.
std::string adversary_prefix(const AdversaryConfig& config) {
  return "adversary \"" + std::string(adversary_kind_info(config.kind).name) +
         "\": ";
}

std::optional<std::string> check_probability(const AdversaryConfig& config,
                                             const char* name) {
  const double v = config.param(name);
  if (!is_probability(v)) {
    return adversary_prefix(config) + "param \"" + name +
           "\" must be in [0, 1] (got " + format_value(v) + ")";
  }
  return std::nullopt;
}

// The largest value an integer param's destination holds: std::uint32_t
// for node ids, window widths and periodic patterns; for round counts
// (Time), 2^53, up to which a double holds every integer exactly.
constexpr double kMaxU32Param = 4294967295.0;
constexpr double kMaxTimeParam = 9007199254740992.0;

/// An integer param in [min, max].  Written so that NaN and infinities
/// fail it.
std::optional<std::string> check_int(const AdversaryConfig& config,
                                     const char* name, double min, double max,
                                     const char* what) {
  const double v = config.param(name);
  if (v >= min && v <= max && v == std::floor(v)) return std::nullopt;
  return adversary_prefix(config) + "param \"" + name + "\" must be a " +
         what + " integer no greater than " + format_value(max) + " (got " +
         format_value(v) + ")";
}

std::optional<std::string> check_positive_int(const AdversaryConfig& config,
                                              const char* name, double max) {
  return check_int(config, name, 1.0, max, "positive");
}

std::optional<std::string> check_nonnegative_int(const AdversaryConfig& config,
                                                 const char* name, double max) {
  return check_int(config, name, 0.0, max, "non-negative");
}

/// The cage and proof adversaries confine the robots to a window of nodes.
bool has_window(const AdversaryConfig& config) {
  return config.kind == AdversaryKind::kCage ||
         config.kind == AdversaryKind::kProof;
}

/// A cage/proof window that exists at ring size `nodes` with `robots`
/// robots: the anchor is a node and the width is in [2, n), as the
/// adversaries' constructors require.  Call after validate_adversary.
std::optional<std::string> check_window(const AdversaryConfig& config,
                                        std::uint32_t nodes,
                                        std::uint32_t robots) {
  if (!has_window(config)) return std::nullopt;
  const std::string param = adversary_prefix(config) + "param ";
  const std::string at_n = " at ring size n=" + std::to_string(nodes) + ")";
  const std::uint64_t anchor = int_param(config, "anchor");
  if (anchor >= nodes) {
    return param + "\"anchor\" must be a node, below n (got " +
           std::to_string(anchor) + at_n;
  }
  const std::uint32_t width = window_width(config, robots, nodes);
  if (width < 2 || width >= nodes) {
    const std::string got =
        int_param(config, "width") != 0
            ? std::to_string(width)
            : "0, so min(k + 1, n - 1) = " + std::to_string(width) +
                  " with k=" + std::to_string(robots) + ",";
    return param + "\"width\" must be in [2, n) (got " + got + at_n;
  }
  return std::nullopt;
}

/// Every robot of spread_placements(n, k), the placements of scenarios and
/// of sweeps without random placements, starts inside the cage/proof
/// window: the adversaries abort on a robot outside it.  Call after
/// check_window.
std::optional<std::string> check_spread_placements(
    const AdversaryConfig& config, std::uint32_t nodes, std::uint32_t robots) {
  if (!has_window(config)) return std::nullopt;
  const auto anchor = static_cast<std::uint32_t>(int_param(config, "anchor"));
  const std::uint32_t width = window_width(config, robots, nodes);
  const std::vector<RobotPlacement> placements =
      spread_placements(Ring(nodes), robots);
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const NodeId node = placements[i].node;
    if ((std::uint64_t{node} + nodes - anchor) % nodes < width) continue;
    return adversary_prefix(config) + "robot " + std::to_string(i) +
           " starts on node " + std::to_string(node) +
           ", outside its window, nodes " + std::to_string(anchor) + ".." +
           std::to_string((std::uint64_t{anchor} + width - 1) % nodes) +
           " clockwise (anchor " + std::to_string(anchor) + ", width " +
           std::to_string(width) + " at ring size n=" +
           std::to_string(nodes) + " with k=" + std::to_string(robots) + ")";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> validate_adversary(const AdversaryConfig& config) {
  switch (config.kind) {
    case AdversaryKind::kStatic:
    case AdversaryKind::kEventualMissing:
    case AdversaryKind::kAdaptiveMissing:
      return std::nullopt;
    case AdversaryKind::kBernoulli:
      return check_probability(config, "p");
    case AdversaryKind::kPeriodic: {
      if (auto err = check_positive_int(config, "period", kMaxU32Param)) {
        return err;
      }
      if (auto err = check_positive_int(config, "duty", kMaxU32Param)) {
        return err;
      }
      if (config.param("duty") > config.param("period")) {
        return std::string("adversary \"periodic\": \"duty\" must be <= "
                           "\"period\" (an edge cannot be present more than "
                           "period rounds per period)");
      }
      return std::nullopt;
    }
    case AdversaryKind::kTInterval:
      return check_positive_int(config, "interval", kMaxTimeParam);
    case AdversaryKind::kBoundedAbsence: {
      if (auto err =
              check_positive_int(config, "max_absence", kMaxTimeParam)) {
        return err;
      }
      return check_positive_int(config, "max_presence", kMaxTimeParam);
    }
    case AdversaryKind::kMarkov: {
      if (auto err = check_probability(config, "p_fail")) return err;
      // An absent edge that never recovers is not recurrent, and
      // MarkovSchedule refuses it.
      const double recover = config.param("p_recover");
      if (!(recover > 0.0 && recover <= 1.0)) {
        return adversary_prefix(config) +
               "param \"p_recover\" must be in (0, 1] (got " +
               format_value(recover) + ")";
      }
      return std::nullopt;
    }
    case AdversaryKind::kGreedyBlocker:
      return check_positive_int(config, "max_absence", kMaxTimeParam);
    case AdversaryKind::kCage: {
      if (auto err = check_nonnegative_int(config, "anchor", kMaxU32Param)) {
        return err;
      }
      return check_nonnegative_int(config, "width", kMaxU32Param);
    }
    case AdversaryKind::kProof: {
      if (auto err = check_nonnegative_int(config, "anchor", kMaxU32Param)) {
        return err;
      }
      if (auto err = check_nonnegative_int(config, "width", kMaxU32Param)) {
        return err;
      }
      return check_positive_int(config, "patience", kMaxTimeParam);
    }
  }
  return "unknown adversary kind";
}

std::vector<AdversaryConfig> standard_battery_configs() {
  return {adversary_config(AdversaryKind::kStatic),
          adversary_config(AdversaryKind::kBernoulli, {{"p", 0.1}}),
          adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
          adversary_config(AdversaryKind::kBernoulli, {{"p", 0.9}}),
          adversary_config(AdversaryKind::kPeriodic,
                           {{"period", 5}, {"duty", 3}}),
          adversary_config(AdversaryKind::kTInterval, {{"interval", 4}}),
          adversary_config(AdversaryKind::kBoundedAbsence,
                           {{"max_absence", 6}}),
          adversary_config(AdversaryKind::kEventualMissing),
          adversary_config(AdversaryKind::kAdaptiveMissing)};
}

// ---------------------------------------------------------------------------
// JSON

namespace {

/// Members of the (already opened) adversary object.
void adversary_config_members(JsonWriter& json,
                              const AdversaryConfig& config) {
  const AdversaryKindInfo& info = adversary_kind_info(config.kind);
  json.field("kind", info.name);
  json.begin_object("params");
  for (const AdversaryParamInfo& param : info.params) {
    json.field(param.name, config.param(param.name));
  }
  json.end_object();
}

}  // namespace

void adversary_config_to_json(JsonWriter& json,
                              const AdversaryConfig& config) {
  json.begin_object();
  adversary_config_members(json, config);
  json.end_object();
}

void adversary_config_to_json(JsonWriter& json, const std::string& key,
                              const AdversaryConfig& config) {
  json.begin_object(key);
  adversary_config_members(json, config);
  json.end_object();
}

std::optional<AdversaryConfig> adversary_config_from_json(
    const JsonValue& value, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("an adversary must be an object like "
                "{\"kind\": \"bernoulli\", \"params\": {\"p\": 0.5}}");
  }
  const JsonValue* kind_value = value.find("kind");
  if (kind_value == nullptr || !kind_value->is_string()) {
    return fail("adversary needs a string \"kind\" (known kinds: " +
                known_adversary_kinds() + ")");
  }
  const auto kind = parse_adversary_kind(kind_value->string_value);
  if (!kind) {
    return fail("unknown adversary kind \"" + kind_value->string_value +
                "\" (known kinds: " + known_adversary_kinds() + ")");
  }
  AdversaryConfig config = adversary_config(*kind);
  const AdversaryKindInfo& info = adversary_kind_info(*kind);
  for (const auto& [key, member] : value.members) {
    if (key == "kind") continue;
    if (key != "params") {
      return fail("unknown key \"" + key +
                  "\" in adversary (keys: kind, params)");
    }
    if (!member.is_object()) {
      return fail("adversary \"params\" must be an object of numbers");
    }
    for (const auto& [name, param] : member.members) {
      if (find_param_info(info, name) == nullptr) {
        return fail("adversary \"" + std::string(info.name) +
                    "\": unknown param \"" + name + "\" (params: " +
                    declared_params(info) + ")");
      }
      if (!param.is_number()) {
        return fail("adversary \"" + std::string(info.name) + "\": param \"" +
                    name + "\" must be a number");
      }
      config.set(name, param.number_value);
    }
  }
  return config;
}

namespace {

// -- shared field readers with actionable messages --------------------------

bool read_u32(const JsonValue& value, const char* what, std::uint32_t& out,
              std::string* error) {
  if (!value.is_number() || !value.is_uint ||
      value.uint_value > 0xffffffffull) {
    if (error != nullptr) {
      *error = std::string(what) + " must be a non-negative 32-bit integer";
    }
    return false;
  }
  out = static_cast<std::uint32_t>(value.uint_value);
  return true;
}

bool read_u64(const JsonValue& value, const char* what, std::uint64_t& out,
              std::string* error) {
  if (!value.is_number() || !value.is_uint) {
    if (error != nullptr) {
      *error = std::string(what) + " must be a non-negative integer";
    }
    return false;
  }
  out = value.uint_value;
  return true;
}

bool read_double(const JsonValue& value, const char* what, double& out,
                 std::string* error) {
  if (!value.is_number()) {
    if (error != nullptr) *error = std::string(what) + " must be a number";
    return false;
  }
  out = value.number_value;
  return true;
}

bool read_bool(const JsonValue& value, const char* what, bool& out,
               std::string* error) {
  if (!value.is_bool()) {
    if (error != nullptr) {
      *error = std::string(what) + " must be true or false";
    }
    return false;
  }
  out = value.bool_value;
  return true;
}

bool read_string(const JsonValue& value, const char* what, std::string& out,
                 std::string* error) {
  if (!value.is_string()) {
    if (error != nullptr) *error = std::string(what) + " must be a string";
    return false;
  }
  out = value.string_value;
  return true;
}

bool read_model(const JsonValue& value, const char* what, ExecutionModel& out,
                std::string* error) {
  std::string name;
  if (!read_string(value, what, name, error)) return false;
  const auto model = parse_execution_model(name);
  if (!model) {
    if (error != nullptr) {
      *error = std::string(what) + ": unknown execution model \"" + name +
               "\" (known: fsync, ssync, async)";
    }
    return false;
  }
  out = *model;
  return true;
}

bool read_topology(const JsonValue& value, const char* what, Topology& out,
                   std::string* error) {
  std::string name;
  if (!read_string(value, what, name, error)) return false;
  const auto topology = parse_topology(name);
  if (!topology) {
    if (error != nullptr) {
      *error = std::string(what) + ": unknown topology \"" + name +
               "\" (known: ring, chain)";
    }
    return false;
  }
  out = *topology;
  return true;
}

std::string known_algorithms() {
  std::string out;
  for (const std::string& name : algorithm_names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

bool algorithm_known(const std::string& name) {
  const auto names = algorithm_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

void models_to_json(JsonWriter& json, const char* key,
                    const std::vector<ExecutionModel>& models) {
  json.begin_array(key);
  for (const ExecutionModel model : models) json.element(to_string(model));
  json.end_array();
}

}  // namespace

// ---------------------------------------------------------------------------
// ScenarioSpec

bool ScenarioSpec::operator==(const ScenarioSpec& other) const {
  return nodes == other.nodes && robots == other.robots &&
         topology == other.topology && algorithm == other.algorithm &&
         adversary == other.adversary && model == other.model &&
         activation_p == other.activation_p && horizon == other.horizon &&
         seed == other.seed;
}

std::string ScenarioSpec::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.field("nodes", nodes);
  json.field("robots", robots);
  json.field("topology", to_string(topology));
  json.field("algorithm", algorithm);
  adversary_config_to_json(json, "adversary", adversary);
  json.field("model", to_string(model));
  json.field("activation_p", activation_p);
  json.field("horizon", horizon);
  json.field("seed", seed);
  json.end_object();
  return json.str();
}

std::optional<std::string> ScenarioSpec::validate() const {
  if (nodes < 2) return std::string("\"nodes\" must be >= 2");
  if (robots < 1) return std::string("\"robots\" must be >= 1");
  if (robots >= nodes) {
    return "need robots < nodes (k=" + std::to_string(robots) + " >= n=" +
           std::to_string(nodes) +
           " cannot be well-initiated: some node would start towered)";
  }
  if (horizon < 1) return std::string("\"horizon\" must be >= 1");
  if (!is_probability(activation_p)) {
    return "\"activation_p\" must be in [0, 1] (got " +
           format_value(activation_p) + ")";
  }
  if (!algorithm.empty() && !algorithm_known(algorithm)) {
    return "unknown algorithm \"" + algorithm + "\" (known: " +
           known_algorithms() + "; empty = paper's recommendation)";
  }
  if (auto err = validate_adversary(adversary)) return err;
  if (auto err = check_window(adversary, nodes, robots)) return err;
  return check_spread_placements(adversary, nodes, robots);
}

std::optional<ScenarioSpec> scenario_spec_from_json(const JsonValue& value,
                                                    std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("a scenario spec must be a JSON object");
  }
  ScenarioSpec spec;
  for (const auto& [key, member] : value.members) {
    if (key == "nodes") {
      if (!read_u32(member, "\"nodes\"", spec.nodes, error)) {
        return std::nullopt;
      }
    } else if (key == "robots") {
      if (!read_u32(member, "\"robots\"", spec.robots, error)) {
        return std::nullopt;
      }
    } else if (key == "topology") {
      if (!read_topology(member, "\"topology\"", spec.topology, error)) {
        return std::nullopt;
      }
    } else if (key == "algorithm") {
      if (!read_string(member, "\"algorithm\"", spec.algorithm, error)) {
        return std::nullopt;
      }
    } else if (key == "adversary") {
      auto adversary = adversary_config_from_json(member, error);
      if (!adversary) return std::nullopt;
      spec.adversary = *adversary;
    } else if (key == "model") {
      if (!read_model(member, "\"model\"", spec.model, error)) {
        return std::nullopt;
      }
    } else if (key == "activation_p") {
      if (!read_double(member, "\"activation_p\"", spec.activation_p, error)) {
        return std::nullopt;
      }
    } else if (key == "horizon") {
      if (!read_u64(member, "\"horizon\"", spec.horizon, error)) {
        return std::nullopt;
      }
    } else if (key == "seed") {
      if (!read_u64(member, "\"seed\"", spec.seed, error)) {
        return std::nullopt;
      }
    } else {
      return fail("unknown key \"" + key +
                  "\" in scenario spec (keys: nodes, robots, topology, "
                  "algorithm, adversary, model, activation_p, horizon, "
                  "seed)");
    }
  }
  if (auto invalid = spec.validate()) return fail(*invalid);
  return spec;
}

std::optional<ScenarioSpec> parse_scenario_spec(const std::string& json,
                                                std::string* error) {
  const auto document = parse_json(json, error);
  if (!document) return std::nullopt;
  return scenario_spec_from_json(*document, error);
}

std::string resolved_algorithm(const ScenarioSpec& spec) {
  if (!spec.algorithm.empty()) return spec.algorithm;
  std::string algorithm =
      computability::recommended_algorithm(spec.robots, spec.nodes);
  if (algorithm.empty()) {
    // Impossible / out-of-model pair: run the closest paper algorithm so
    // the caller can watch the failure mode.
    algorithm = spec.robots >= 3   ? "pef3+"
                : spec.robots == 2 ? "pef2"
                                   : "pef1";
  }
  return algorithm;
}

// ---------------------------------------------------------------------------
// SweepSpec

bool SweepSpec::operator==(const SweepSpec& other) const {
  return algorithms == other.algorithms && adversaries == other.adversaries &&
         models == other.models && topology == other.topology &&
         ring_sizes == other.ring_sizes &&
         robot_counts == other.robot_counts && seeds == other.seeds &&
         activation_p == other.activation_p && horizon == other.horizon &&
         horizon_per_node == other.horizon_per_node &&
         random_placements == other.random_placements &&
         batch_seeds == other.batch_seeds && max_batch == other.max_batch &&
         fast_forward == other.fast_forward;
}

std::string SweepSpec::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.begin_array("algorithms");
  for (const std::string& name : algorithms) json.element(name);
  json.end_array();
  json.begin_array("adversaries");
  for (const AdversaryConfig& config : adversaries) {
    adversary_config_to_json(json, config);
  }
  json.end_array();
  models_to_json(json, "models", models);
  json.field("topology", to_string(topology));
  json.begin_array("ring_sizes");
  for (const std::uint32_t n : ring_sizes) {
    json.element(static_cast<std::uint64_t>(n));
  }
  json.end_array();
  json.begin_array("robot_counts");
  for (const std::uint32_t k : robot_counts) {
    json.element(static_cast<std::uint64_t>(k));
  }
  json.end_array();
  json.begin_array("seeds");
  for (const std::uint64_t seed : seeds) json.element(seed);
  json.end_array();
  json.field("activation_p", activation_p);
  json.field("horizon", horizon);
  json.field("horizon_per_node", horizon_per_node);
  json.field("random_placements", random_placements);
  json.field("batch_seeds", batch_seeds);
  json.field("max_batch", max_batch);
  json.field("fast_forward", fast_forward);
  json.end_object();
  return json.str();
}

std::optional<std::string> SweepSpec::validate() const {
  if (algorithms.empty()) {
    return std::string("\"algorithms\" must name at least one algorithm");
  }
  for (const std::string& name : algorithms) {
    if (!algorithm_known(name)) {
      return "unknown algorithm \"" + name + "\" (known: " +
             known_algorithms() + ")";
    }
  }
  if (adversaries.empty()) {
    return std::string("\"adversaries\" must hold at least one adversary");
  }
  for (const AdversaryConfig& config : adversaries) {
    if (auto err = validate_adversary(config)) return err;
  }
  if (models.empty()) {
    return std::string("\"models\" must hold at least one execution model");
  }
  if (ring_sizes.empty()) {
    return std::string("\"ring_sizes\" must hold at least one ring size");
  }
  if (robot_counts.empty()) {
    return std::string("\"robot_counts\" must hold at least one robot count");
  }
  if (seeds.empty()) {
    return std::string("\"seeds\" must hold at least one seed");
  }
  if (horizon == 0 && horizon_per_node == 0) {
    return std::string(
        "one of \"horizon\" / \"horizon_per_node\" must be nonzero");
  }
  if (horizon == 0) {
    for (const std::uint32_t n : ring_sizes) {
      if (n != 0 && horizon_per_node > kTimeInfinity / n) {
        return "\"horizon_per_node\" (" + std::to_string(horizon_per_node) +
               ") times ring size " + std::to_string(n) +
               " overflows a 64-bit round count";
      }
    }
  }
  if (!is_probability(activation_p)) {
    return "\"activation_p\" must be in [0, 1] (got " +
           format_value(activation_p) + ")";
  }
  // Every cell's window must exist and hold its robots.  Cells are the
  // (n, k) pairs with 0 < k < n; enumerate_cells skips the rest.
  for (const AdversaryConfig& config : adversaries) {
    for (const std::uint32_t n : ring_sizes) {
      for (const std::uint32_t k : robot_counts) {
        if (k == 0 || k >= n) continue;
        if (auto err = check_window(config, n, k)) return err;
        if (random_placements) continue;
        if (auto err = check_spread_placements(config, n, k)) return err;
      }
    }
    // Whether a random placement lands inside the window depends on the
    // seed, so such a sweep would run or abort by chance.
    if (random_placements && has_window(config)) {
      return adversary_prefix(config) +
             "needs \"random_placements\": false (a random placement may "
             "start a robot outside its window)";
    }
  }
  return std::nullopt;
}

std::optional<SweepSpec> sweep_spec_from_json(const JsonValue& value,
                                              std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("a sweep spec must be a JSON object");
  }
  SweepSpec spec;
  for (const auto& [key, member] : value.members) {
    if (key == "algorithms") {
      if (!member.is_array()) {
        return fail("\"algorithms\" must be an array of algorithm names");
      }
      spec.algorithms.clear();
      for (const JsonValue& item : member.items) {
        std::string name;
        if (!read_string(item, "every \"algorithms\" entry", name, error)) {
          return std::nullopt;
        }
        spec.algorithms.push_back(std::move(name));
      }
    } else if (key == "adversaries") {
      if (!member.is_array()) {
        return fail("\"adversaries\" must be an array of adversary objects");
      }
      spec.adversaries.clear();
      for (const JsonValue& item : member.items) {
        auto config = adversary_config_from_json(item, error);
        if (!config) return std::nullopt;
        spec.adversaries.push_back(*config);
      }
    } else if (key == "models") {
      if (!member.is_array()) {
        return fail("\"models\" must be an array of "
                    "\"fsync\" / \"ssync\" / \"async\"");
      }
      spec.models.clear();
      for (const JsonValue& item : member.items) {
        ExecutionModel model = ExecutionModel::kFsync;
        if (!read_model(item, "every \"models\" entry", model, error)) {
          return std::nullopt;
        }
        spec.models.push_back(model);
      }
    } else if (key == "topology") {
      if (!read_topology(member, "\"topology\"", spec.topology, error)) {
        return std::nullopt;
      }
    } else if (key == "ring_sizes") {
      if (!member.is_array()) {
        return fail("\"ring_sizes\" must be an array of integers");
      }
      spec.ring_sizes.clear();
      for (const JsonValue& item : member.items) {
        std::uint32_t n = 0;
        if (!read_u32(item, "every \"ring_sizes\" entry", n, error)) {
          return std::nullopt;
        }
        spec.ring_sizes.push_back(n);
      }
    } else if (key == "robot_counts") {
      if (!member.is_array()) {
        return fail("\"robot_counts\" must be an array of integers");
      }
      spec.robot_counts.clear();
      for (const JsonValue& item : member.items) {
        std::uint32_t k = 0;
        if (!read_u32(item, "every \"robot_counts\" entry", k, error)) {
          return std::nullopt;
        }
        spec.robot_counts.push_back(k);
      }
    } else if (key == "seeds") {
      if (!member.is_array()) {
        return fail("\"seeds\" must be an array of integers");
      }
      spec.seeds.clear();
      for (const JsonValue& item : member.items) {
        std::uint64_t seed = 0;
        if (!read_u64(item, "every \"seeds\" entry", seed, error)) {
          return std::nullopt;
        }
        spec.seeds.push_back(seed);
      }
    } else if (key == "activation_p") {
      if (!read_double(member, "\"activation_p\"", spec.activation_p, error)) {
        return std::nullopt;
      }
    } else if (key == "horizon") {
      if (!read_u64(member, "\"horizon\"", spec.horizon, error)) {
        return std::nullopt;
      }
    } else if (key == "horizon_per_node") {
      if (!read_u64(member, "\"horizon_per_node\"", spec.horizon_per_node,
                    error)) {
        return std::nullopt;
      }
    } else if (key == "random_placements") {
      if (!read_bool(member, "\"random_placements\"", spec.random_placements,
                     error)) {
        return std::nullopt;
      }
    } else if (key == "batch_seeds") {
      if (!read_bool(member, "\"batch_seeds\"", spec.batch_seeds, error)) {
        return std::nullopt;
      }
    } else if (key == "max_batch") {
      if (!read_u32(member, "\"max_batch\"", spec.max_batch, error)) {
        return std::nullopt;
      }
    } else if (key == "fast_forward") {
      if (!read_bool(member, "\"fast_forward\"", spec.fast_forward, error)) {
        return std::nullopt;
      }
    } else {
      return fail("unknown key \"" + key +
                  "\" in sweep spec (keys: algorithms, adversaries, models, "
                  "topology, ring_sizes, robot_counts, seeds, activation_p, "
                  "horizon, horizon_per_node, random_placements, "
                  "batch_seeds, max_batch, fast_forward)");
    }
  }
  if (auto invalid = spec.validate()) return fail(*invalid);
  return spec;
}

std::optional<SweepSpec> parse_sweep_spec(const std::string& json,
                                          std::string* error) {
  const auto document = parse_json(json, error);
  if (!document) return std::nullopt;
  return sweep_spec_from_json(*document, error);
}

}  // namespace pef
