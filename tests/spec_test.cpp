// Tests for the declarative scenario/sweep spec API (core/spec.hpp) and the
// JSON parser underneath it (common/json.hpp): parse∘serialize must be the
// identity, bad input must fail with actionable messages, and the adversary
// registry must agree with the historical battery factories.
#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "orchestrator/ledger.hpp"

namespace pef {
namespace {

// ---------------------------------------------------------------------------
// JsonValue / parse_json

TEST(JsonParseTest, ParsesScalarsExactly) {
  std::string error;
  const auto doc = parse_json(
      R"({"a": 1, "b": -2.5, "c": true, "d": null, "e": "x\n", )"
      R"("big": 17454410316023251831})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_TRUE(doc->find("a")->is_uint);
  EXPECT_EQ(doc->find("a")->uint_value, 1u);
  EXPECT_FALSE(doc->find("b")->is_uint);
  EXPECT_DOUBLE_EQ(doc->find("b")->number_value, -2.5);
  EXPECT_TRUE(doc->find("c")->bool_value);
  EXPECT_TRUE(doc->find("d")->is_null());
  EXPECT_EQ(doc->find("e")->string_value, "x\n");
  // Above 2^53: doubles round, uint_value must not.
  EXPECT_TRUE(doc->find("big")->is_uint);
  EXPECT_EQ(doc->find("big")->uint_value, 17454410316023251831ull);
}

TEST(JsonParseTest, PreservesMemberOrderAndNesting) {
  std::string error;
  const auto doc =
      parse_json(R"({"z": [1, {"k": [true]}], "a": {}})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->members.size(), 2u);
  EXPECT_EQ(doc->members[0].first, "z");
  EXPECT_EQ(doc->members[1].first, "a");
  const JsonValue& z = doc->members[0].second;
  ASSERT_TRUE(z.is_array());
  ASSERT_EQ(z.items.size(), 2u);
  EXPECT_TRUE(z.items[1].find("k")->items[0].bool_value);
}

TEST(JsonParseTest, ErrorsCarryLineAndColumn) {
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": 1,\n  \"b\" 2}", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("':'"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("[1, 2", &error).has_value());
  EXPECT_NE(error.find("unterminated array"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  EXPECT_FALSE(parse_json("{\"a\": nul}", &error).has_value());
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter writer;
  writer.begin_object();
  writer.field("name", "quote\" and \\ and\ttab");
  writer.field("pi", 3.25);
  writer.begin_array("xs");
  writer.element(std::uint64_t{18446744073709551615ull});
  writer.end_array();
  writer.end_object();
  std::string error;
  const auto doc = parse_json(writer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("name")->string_value, "quote\" and \\ and\ttab");
  EXPECT_DOUBLE_EQ(doc->find("pi")->number_value, 3.25);
  EXPECT_EQ(doc->find("xs")->items[0].uint_value, 18446744073709551615ull);
}

// ---------------------------------------------------------------------------
// The adversary registry

TEST(AdversaryRegistryTest, NamesRoundTripThroughTheRegistry) {
  for (const AdversaryKindInfo& info : adversary_registry()) {
    const auto kind = parse_adversary_kind(info.name);
    ASSERT_TRUE(kind.has_value()) << info.name;
    EXPECT_EQ(*kind, info.kind);
    EXPECT_STREQ(adversary_kind_info(info.kind).name, info.name);
  }
  EXPECT_FALSE(parse_adversary_kind("no-such-family").has_value());
}

TEST(AdversaryRegistryTest, DisplayNamesMatchTheHistoricalBatteryNames) {
  // The sweep baseline JSON pins these strings; the registry is now their
  // single source of truth.
  EXPECT_EQ(adversary_display_name(adversary_config(AdversaryKind::kStatic)),
            "static");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}})),
            "bernoulli(p=0.5)");
  EXPECT_EQ(adversary_display_name(adversary_config(
                AdversaryKind::kPeriodic, {{"period", 5}, {"duty", 3}})),
            "periodic(3/5)");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kTInterval)),
            "t-interval(T=4)");
  EXPECT_EQ(adversary_display_name(
                adversary_config(AdversaryKind::kBoundedAbsence)),
            "bounded-absence(A=6)");
  const auto battery = standard_battery_configs();
  const auto factories = standard_battery();
  ASSERT_EQ(battery.size(), factories.size());
  for (std::size_t i = 0; i < battery.size(); ++i) {
    EXPECT_EQ(adversary_display_name(battery[i]), factories[i].name);
  }
}

TEST(AdversaryRegistryTest, ConfigMatchesFactoryDraws) {
  // adversary_from_config must reproduce the historical factories exactly:
  // same schedule family, same seed derivation, same edge sets.
  const Ring ring(9);
  const Configuration gamma(
      ring, {{0, LocalDirection::kRight, Chirality(true)},
             {3, LocalDirection::kLeft, Chirality(true)},
             {6, LocalDirection::kRight, Chirality(false)}});
  const ActivationMask all(3, 1);
  for (const AdversaryConfig& config : standard_battery_configs()) {
    const AdversarySpec factory = spec_from_config(config);
    AdversaryPtr a = adversary_from_config(config, ring, 42);
    AdversaryPtr b = factory.make(ring, 42);
    for (Time t = 0; t < 64; ++t) {
      const EdgeSet ea = a->choose_edges(t, gamma, all);
      const EdgeSet eb = b->choose_edges(t, gamma, all);
      for (EdgeId e = 0; e < ring.edge_count(); ++e) {
        ASSERT_EQ(ea.contains(e), eb.contains(e))
            << adversary_display_name(config) << " diverged at t=" << t
            << " edge " << e;
      }
    }
  }
}

TEST(AdversaryRegistryTest, EveryKindOverwritesStaleEdges) {
  // choose_edges_into is each adversary's only fill, and the engines hand
  // it the scratch set that still holds E_{t-1}: a fill into a full set and
  // one into an empty set must agree.  Three robots step around nodes 0..3,
  // inside the cage and proof windows.
  const Ring ring(9);
  const ActivationMask all(3, 1);
  for (const AdversaryKindInfo& info : adversary_registry()) {
    for (const Topology topology : {Topology::kRing, Topology::kChain}) {
      const AdversaryConfig config = adversary_config(info.kind);
      AdversaryPtr on_full = adversary_from_config(config, ring, 42, 3,
                                                   topology);
      AdversaryPtr on_empty = adversary_from_config(config, ring, 42, 3,
                                                    topology);
      EdgeSet full(ring.edge_count());
      EdgeSet empty(ring.edge_count());
      for (Time t = 0; t < 64; ++t) {
        const NodeId shift = t % 2;
        const Configuration gamma(
            ring, {{shift, LocalDirection::kRight, Chirality(true)},
                   {shift + 1, LocalDirection::kLeft, Chirality(true)},
                   {shift + 2, LocalDirection::kRight, Chirality(false)}});
        full.fill();
        empty.clear();
        on_full->choose_edges_into(t, gamma, all, full);
        on_empty->choose_edges_into(t, gamma, all, empty);
        ASSERT_EQ(full, empty) << info.name << " on a " << to_string(topology)
                               << " at t=" << t;
      }
    }
  }
}

TEST(AdversaryConfigTest, ParamResolutionAndEquality) {
  AdversaryConfig config = adversary_config(AdversaryKind::kBernoulli);
  EXPECT_DOUBLE_EQ(config.param("p"), 0.5);  // registry default
  config.set("p", 0.9);
  EXPECT_DOUBLE_EQ(config.param("p"), 0.9);
  // Explicit default == absent default.
  EXPECT_EQ(adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
            adversary_config(AdversaryKind::kBernoulli));
  EXPECT_FALSE(adversary_config(AdversaryKind::kBernoulli, {{"p", 0.9}}) ==
               adversary_config(AdversaryKind::kBernoulli));
}

TEST(AdversaryConfigTest, ValidationExplainsWhatIsWrong) {
  const auto err = validate_adversary(
      adversary_config(AdversaryKind::kBernoulli, {{"p", 1.5}}));
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"p\""), std::string::npos) << *err;
  EXPECT_NE(err->find("[0, 1]"), std::string::npos) << *err;

  const auto duty = validate_adversary(adversary_config(
      AdversaryKind::kPeriodic, {{"period", 3}, {"duty", 5}}));
  ASSERT_TRUE(duty.has_value());
  EXPECT_NE(duty->find("duty"), std::string::npos) << *duty;

  // NaN fails every ordered compare, so a `v < 0 || v > 1` range test
  // would pass it; the value is named as nan, not as JSON's null.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [kind, name] :
       {std::pair{AdversaryKind::kBernoulli, "p"},
        std::pair{AdversaryKind::kMarkov, "p_fail"},
        std::pair{AdversaryKind::kMarkov, "p_recover"}}) {
    const auto bad = validate_adversary(adversary_config(kind, {{name, nan}}));
    ASSERT_TRUE(bad.has_value()) << name;
    EXPECT_NE(bad->find("\"" + std::string(name) + "\""), std::string::npos)
        << *bad;
    EXPECT_NE(bad->find("(got nan)"), std::string::npos) << *bad;
  }

  // A markov edge must recover: MarkovSchedule's constructor refuses
  // p_recover <= 0, so validate() names the param instead of the run
  // aborting.
  for (const auto& [recover, got] :
       {std::pair{0.0, "(got 0)"}, std::pair{-0.25, "(got -0.25)"}}) {
    const auto bad = validate_adversary(
        adversary_config(AdversaryKind::kMarkov, {{"p_recover", recover}}));
    ASSERT_TRUE(bad.has_value()) << recover;
    EXPECT_NE(bad->find("\"p_recover\" must be in (0, 1]"), std::string::npos)
        << *bad;
    EXPECT_NE(bad->find(got), std::string::npos) << *bad;
  }
  EXPECT_FALSE(validate_adversary(adversary_config(AdversaryKind::kMarkov,
                                                   {{"p_recover", 1e-9}}))
                   .has_value());
  EXPECT_FALSE(validate_adversary(adversary_config(AdversaryKind::kMarkov,
                                                   {{"p_fail", 0.0}}))
                   .has_value());

  // Integer params must fit their destination: std::uint32_t for periodic
  // patterns, node ids and widths, 2^53 for round counts.  A period of 2^32
  // would narrow to 0, and 2^32 + 5 to 5.
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [kind, name, value, got] :
       {std::tuple{AdversaryKind::kPeriodic, "period", 4294967296.0,
                   "(got 4294967296)"},
        std::tuple{AdversaryKind::kPeriodic, "period", 4294967301.0,
                   "(got 4294967301)"},
        std::tuple{AdversaryKind::kPeriodic, "period", inf, "(got inf)"},
        std::tuple{AdversaryKind::kPeriodic, "duty", 4294967296.0,
                   "(got 4294967296)"},
        std::tuple{AdversaryKind::kCage, "anchor", 4294967296.0,
                   "(got 4294967296)"},
        std::tuple{AdversaryKind::kProof, "width", 4294967296.0,
                   "(got 4294967296)"},
        std::tuple{AdversaryKind::kTInterval, "interval", 1e300,
                   "(got 1e+300)"},
        std::tuple{AdversaryKind::kTInterval, "interval", 9007199254740994.0,
                   "(got 9007199254740994)"},
        std::tuple{AdversaryKind::kBoundedAbsence, "max_presence", inf,
                   "(got inf)"},
        std::tuple{AdversaryKind::kGreedyBlocker, "max_absence", -inf,
                   "(got -inf)"},
        std::tuple{AdversaryKind::kProof, "patience", 1e19,
                   "(got 1e+19)"}}) {
    const auto bad =
        validate_adversary(adversary_config(kind, {{name, value}}));
    ASSERT_TRUE(bad.has_value()) << name << " = " << value;
    EXPECT_NE(bad->find("\"" + std::string(name) + "\""), std::string::npos)
        << *bad;
    EXPECT_NE(bad->find(got), std::string::npos) << *bad;
  }
  // The largest value each destination holds is still accepted.
  EXPECT_FALSE(validate_adversary(
                   adversary_config(AdversaryKind::kPeriodic,
                                    {{"period", 4294967295.0},
                                     {"duty", 4294967295.0}}))
                   .has_value());
  EXPECT_FALSE(validate_adversary(
                   adversary_config(AdversaryKind::kTInterval,
                                    {{"interval", 9007199254740992.0}}))
                   .has_value());
}

// ---------------------------------------------------------------------------
// ScenarioSpec JSON

TEST(ScenarioSpecTest, JsonRoundTripIsIdentity) {
  ScenarioSpec spec;
  spec.nodes = 12;
  spec.robots = 4;
  spec.algorithm = "pef3+";
  spec.adversary = adversary_config(AdversaryKind::kBernoulli, {{"p", 0.7}});
  spec.model = ExecutionModel::kSsync;
  spec.activation_p = 0.25;
  spec.horizon = 1234;
  spec.seed = 17454410316023251831ull;  // > 2^53: must stay exact

  std::string error;
  const auto parsed = parse_scenario_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
  // serialize ∘ parse ∘ serialize is byte-stable.
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(ScenarioSpecTest, DefaultsRoundTripToo) {
  const ScenarioSpec spec;
  std::string error;
  const auto parsed = parse_scenario_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
}

TEST(ScenarioSpecTest, BadInputGetsActionableErrors) {
  std::string error;

  EXPECT_FALSE(parse_scenario_spec("[1,2]", &error).has_value());
  EXPECT_NE(error.find("JSON object"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(R"({"robotz": 3})", &error).has_value());
  EXPECT_NE(error.find("robotz"), std::string::npos) << error;
  EXPECT_NE(error.find("robots"), std::string::npos) << error;  // key list

  EXPECT_FALSE(
      parse_scenario_spec(R"({"nodes": "ten"})", &error).has_value());
  EXPECT_NE(error.find("\"nodes\""), std::string::npos) << error;
  EXPECT_NE(error.find("integer"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(
                   R"({"adversary": {"kind": "bernouli"}})", &error)
                   .has_value());
  EXPECT_NE(error.find("bernouli"), std::string::npos) << error;
  EXPECT_NE(error.find("bernoulli"), std::string::npos) << error;  // kinds

  EXPECT_FALSE(
      parse_scenario_spec(
          R"({"adversary": {"kind": "bernoulli", "params": {"q": 1}}})",
          &error)
          .has_value());
  EXPECT_NE(error.find("\"q\""), std::string::npos) << error;
  EXPECT_NE(error.find("params: p"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_scenario_spec(R"({"algorithm": "pef9"})", &error).has_value());
  EXPECT_NE(error.find("pef9"), std::string::npos) << error;
  EXPECT_NE(error.find("pef3+"), std::string::npos) << error;  // known list

  EXPECT_FALSE(parse_scenario_spec(R"({"nodes": 3, "robots": 5})", &error)
                   .has_value());
  EXPECT_NE(error.find("robots < nodes"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario_spec(R"({"model": "sync"})", &error)
                   .has_value());
  EXPECT_NE(error.find("fsync"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, ValidateRefusesNanActivationProbability) {
  ScenarioSpec spec;
  spec.model = ExecutionModel::kSsync;
  spec.activation_p = std::numeric_limits<double>::quiet_NaN();
  const auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"activation_p\""), std::string::npos) << *err;
  EXPECT_NE(err->find("(got nan)"), std::string::npos) << *err;
}

TEST(ScenarioSpecTest, ValidateRefusesAPeriodTooLargeForItsPattern) {
  std::string error;
  EXPECT_FALSE(parse_scenario_spec(
                   R"({"adversary": {"kind": "periodic",)"
                   R"( "params": {"period": 4294967296, "duty": 3}}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("\"period\""), std::string::npos) << error;
  EXPECT_NE(error.find("(got 4294967296)"), std::string::npos) << error;

  ScenarioSpec spec;
  spec.adversary = adversary_config(AdversaryKind::kPeriodic,
                                    {{"period", 4294967301.0}, {"duty", 3}});
  const auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("(got 4294967301)"), std::string::npos) << *err;
}

/// True iff `message` names `param`, mentions `got` and ring size n.
bool names_window_param(const std::optional<std::string>& message,
                        const std::string& param, const std::string& got,
                        std::uint32_t n) {
  return message.has_value() &&
         message->find("\"" + param + "\"") != std::string::npos &&
         message->find("(got " + got) != std::string::npos &&
         message->find("ring size n=" + std::to_string(n)) !=
             std::string::npos;
}

TEST(ScenarioSpecTest, ValidateRefusesWindowsThatCannotExist) {
  // The cage and proof adversaries confine robots to a window of `width`
  // nodes from `anchor`; their constructors abort unless the anchor is a
  // node and 2 <= width < n.
  for (const AdversaryKind kind : {AdversaryKind::kCage,
                                   AdversaryKind::kProof}) {
    SCOPED_TRACE(adversary_kind_info(kind).name);
    ScenarioSpec spec;
    spec.nodes = 6;
    spec.robots = 3;
    for (const double anchor : {100.0, 6.0}) {
      spec.adversary = adversary_config(kind, {{"anchor", anchor}});
      const auto err = spec.validate();
      EXPECT_TRUE(names_window_param(
          err, "anchor", std::to_string(static_cast<int>(anchor)), 6))
          << err.value_or("accepted");
    }
    for (const double width : {1.0, 6.0}) {
      spec.adversary = adversary_config(kind, {{"width", width}});
      const auto err = spec.validate();
      EXPECT_TRUE(names_window_param(
          err, "width", std::to_string(static_cast<int>(width)), 6))
          << err.value_or("accepted");
    }
    // The largest anchor and width are accepted.  Two spread robots, on
    // nodes 0 and 3, start inside that window.
    spec.robots = 2;
    spec.adversary = adversary_config(kind, {{"anchor", 5}, {"width", 5}});
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();

    // The default width min(k + 1, n - 1) is 1 at n = 2 and 2 at n = 3.
    spec.adversary = adversary_config(kind);
    spec.nodes = 2;
    spec.robots = 1;
    const auto err = spec.validate();
    EXPECT_TRUE(names_window_param(err, "width", "0", 2))
        << err.value_or("accepted");
    spec.nodes = 3;
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();
  }

  std::string error;
  EXPECT_FALSE(parse_scenario_spec(
                   R"({"nodes": 6, "robots": 3, "adversary": {"kind":)"
                   R"( "cage", "params": {"anchor": 100}}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("ring size n=6"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, ValidateRefusesRobotsOutsideTheWindow) {
  // Scenarios spread k robots on nodes floor(i * n / k); the cage and the
  // proof adversary abort on a robot outside their window.
  for (const AdversaryKind kind : {AdversaryKind::kCage,
                                   AdversaryKind::kProof}) {
    SCOPED_TRACE(adversary_kind_info(kind).name);
    ScenarioSpec spec;
    spec.nodes = 10;
    spec.robots = 3;  // nodes 0, 3 and 6; the default window is 0..3
    spec.adversary = adversary_config(kind);
    auto err = spec.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("robot 2 starts on node 6, outside its window, nodes "
                        "0..3 clockwise (anchor 0, width 4 at ring size n=10 "
                        "with k=3)"),
              std::string::npos)
        << *err;

    // A window that wraps past node n - 1.
    spec.robots = 2;  // nodes 0 and 5
    spec.adversary = adversary_config(kind, {{"anchor", 8}, {"width", 4}});
    err = spec.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("robot 1 starts on node 5, outside its window, nodes "
                        "8..1 clockwise"),
              std::string::npos)
        << *err;
    spec.adversary = adversary_config(kind, {{"anchor", 5}, {"width", 6}});
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();

    // One robot always starts on node 0, inside the default window.
    spec.robots = 1;
    spec.adversary = adversary_config(kind);
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();
  }
}

TEST(ScenarioSpecTest, EveryAcceptedWindowSpecRuns) {
  // A cage or proof scenario that validate() accepts runs to its horizon:
  // a robot outside the window would abort this process.
  std::uint32_t runs = 0;
  for (const AdversaryKind kind : {AdversaryKind::kCage,
                                   AdversaryKind::kProof}) {
    for (std::uint32_t n = 3; n <= 8; ++n) {
      for (std::uint32_t k = 1; k < n; ++k) {
        for (const double anchor : {0.0, 1.0, n - 1.0}) {
          for (const double width : {0.0, 2.0, n - 1.0}) {
            for (const ExecutionModel model :
                 {ExecutionModel::kFsync, ExecutionModel::kSsync,
                  ExecutionModel::kAsync}) {
              ScenarioSpec spec;
              spec.nodes = n;
              spec.robots = k;
              spec.adversary = adversary_config(
                  kind, {{"anchor", anchor}, {"width", width}});
              spec.model = model;
              spec.horizon = 60;
              if (spec.validate().has_value()) continue;
              EXPECT_EQ(run_scenario(spec).horizon, 60u);
              ++runs;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(runs, 400u);
}

TEST(ScenarioSpecTest, RunScenarioExecutesTheSpec) {
  ScenarioSpec spec;
  spec.nodes = 6;
  spec.robots = 3;
  spec.algorithm = "pef3+";
  spec.adversary = adversary_config(AdversaryKind::kStatic);
  spec.horizon = 300;
  spec.seed = 5;
  const RunResult result = run_scenario(spec);
  EXPECT_EQ(result.algorithm_name, "pef3+");
  EXPECT_EQ(result.adversary_name, "static");
  EXPECT_TRUE(result.perpetual);
  EXPECT_TRUE(result.adversary_legal);

  // Resolution: empty algorithm -> the paper's recommendation.
  spec.algorithm.clear();
  EXPECT_EQ(resolved_algorithm(spec), "pef3+");
}

// ---------------------------------------------------------------------------
// SweepSpec JSON

SweepSpec sample_sweep() {
  SweepSpec spec;
  spec.algorithms = {"pef3+", "bounce"};
  spec.adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
      adversary_config(AdversaryKind::kProof, {{"patience", 32}})};
  spec.models = {ExecutionModel::kFsync, ExecutionModel::kAsync};
  // The proof adversary's default window holds every spread robot here.
  spec.ring_sizes = {4, 5};
  spec.robot_counts = {3};
  spec.seeds = {1, 2, 17454410316023251831ull};
  spec.activation_p = 0.75;
  spec.horizon = 400;
  spec.random_placements = false;
  spec.max_batch = 16;
  return spec;
}

TEST(SweepSpecTest, JsonRoundTripIsIdentity) {
  const SweepSpec spec = sample_sweep();
  std::string error;
  const auto parsed = parse_sweep_spec(spec.to_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, spec);
  EXPECT_EQ(parsed->to_json(), spec.to_json());
}

TEST(SweepSpecTest, BadInputGetsActionableErrors) {
  std::string error;

  EXPECT_FALSE(parse_sweep_spec(R"({"algorithms": []})", &error).has_value());
  EXPECT_NE(error.find("algorithms"), std::string::npos) << error;

  EXPECT_FALSE(
      parse_sweep_spec(R"({"algorithms": ["pef3+"], "adversaries": [],)"
                       R"( "ring_sizes": [6], "robot_counts": [3],)"
                       R"( "seeds": [1]})",
                       &error)
          .has_value());
  EXPECT_NE(error.find("adversaries"), std::string::npos) << error;

  EXPECT_FALSE(parse_sweep_spec(R"({"ring_sizes": 6})", &error).has_value());
  EXPECT_NE(error.find("array"), std::string::npos) << error;

  EXPECT_FALSE(parse_sweep_spec(R"({"max_batc": 4})", &error).has_value());
  EXPECT_NE(error.find("max_batc"), std::string::npos) << error;
  EXPECT_NE(error.find("max_batch"), std::string::npos) << error;
}

TEST(SweepSpecTest, ValidateRefusesNanActivationProbability) {
  SweepSpec spec = sample_sweep();
  ASSERT_FALSE(spec.validate().has_value());
  spec.activation_p = std::numeric_limits<double>::quiet_NaN();
  const auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"activation_p\""), std::string::npos) << *err;
  EXPECT_NE(err->find("(got nan)"), std::string::npos) << *err;
}

TEST(SweepSpecTest, ValidateRefusesAnIntervalNoRoundCountHolds) {
  SweepSpec spec = sample_sweep();
  spec.adversaries.push_back(
      adversary_config(AdversaryKind::kTInterval, {{"interval", 1e300}}));
  const auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"interval\""), std::string::npos) << *err;
  EXPECT_NE(err->find("(got 1e+300)"), std::string::npos) << *err;
}

TEST(SweepSpecTest, ValidateRefusesAHorizonPerNodeProductThatOverflows) {
  // 2^62 rounds per node times n = 4 wraps to a zero horizon.
  SweepSpec spec = sample_sweep();
  spec.horizon = 0;
  spec.horizon_per_node = Time{1} << 62;
  spec.ring_sizes = {4};
  auto err = spec.validate();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("\"horizon_per_node\""), std::string::npos) << *err;
  EXPECT_NE(err->find("4611686018427387904"), std::string::npos) << *err;
  EXPECT_NE(err->find("ring size 4"), std::string::npos) << *err;

  // Every listed ring size counts, not only the first; the largest
  // product that fits is accepted.
  spec.ring_sizes = {3, 4};
  spec.horizon_per_node = kTimeInfinity / 4 + 1;
  EXPECT_TRUE(spec.validate().has_value());
  spec.horizon_per_node = kTimeInfinity / 4;
  EXPECT_FALSE(spec.validate().has_value());
  // A fixed horizon never multiplies.
  spec.horizon = 400;
  spec.horizon_per_node = kTimeInfinity;
  EXPECT_FALSE(spec.validate().has_value());

  std::string error;
  EXPECT_FALSE(
      parse_sweep_spec(R"({"algorithms": ["pef3+"], "adversaries":)"
                       R"( [{"kind": "static", "params": {}}],)"
                       R"( "ring_sizes": [4], "robot_counts": [3],)"
                       R"( "seeds": [1], "horizon": 0,)"
                       R"( "horizon_per_node": 4611686018427387904})",
                       &error)
          .has_value());
  EXPECT_NE(error.find("overflows"), std::string::npos) << error;
}

TEST(SweepSpecTest, ValidateRefusesWindowsThatCannotExist) {
  // Every ring size with a cell (0 < k < n) must hold the window.
  SweepSpec spec = sample_sweep();
  spec.ring_sizes = {6, 10};
  spec.robot_counts = {3};
  for (const AdversaryKind kind : {AdversaryKind::kCage,
                                   AdversaryKind::kProof}) {
    SCOPED_TRACE(adversary_kind_info(kind).name);
    spec.adversaries = {adversary_config(AdversaryKind::kStatic),
                        adversary_config(kind, {{"anchor", 6}})};
    auto err = spec.validate();
    EXPECT_TRUE(names_window_param(err, "anchor", "6", 6))
        << err.value_or("accepted");
    spec.adversaries = {adversary_config(kind, {{"width", 6}})};
    err = spec.validate();
    EXPECT_TRUE(names_window_param(err, "width", "6", 6))
        << err.value_or("accepted");
    spec.adversaries = {adversary_config(kind, {{"width", 1}})};
    err = spec.validate();
    EXPECT_TRUE(names_window_param(err, "width", "1", 6))
        << err.value_or("accepted");
    // The largest anchor and width the smallest ring holds are accepted.
    // One spread robot, on node 0, starts inside both windows.
    spec.ring_sizes = {6, 7};
    spec.robot_counts = {1};
    spec.adversaries = {adversary_config(kind, {{"anchor", 5}, {"width", 5}})};
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();

    // n = 2 has no cell at k = 3, so its default width of 1 is never
    // built; a k = 1 cell builds it.  At n = 4 the default window, nodes
    // 0..2, holds the three spread robots.
    spec.adversaries = {adversary_config(kind)};
    spec.ring_sizes = {2, 4};
    spec.robot_counts = {3};
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();
    spec.robot_counts = {1, 3};
    err = spec.validate();
    EXPECT_TRUE(names_window_param(err, "width", "0", 2))
        << err.value_or("accepted");
    spec.ring_sizes = {6, 10};
    spec.robot_counts = {3};
  }
}

TEST(SweepSpecTest, ValidateRefusesRobotsOutsideTheWindow) {
  for (const AdversaryKind kind : {AdversaryKind::kCage,
                                   AdversaryKind::kProof}) {
    SCOPED_TRACE(adversary_kind_info(kind).name);
    SweepSpec spec = sample_sweep();
    spec.adversaries = {adversary_config(AdversaryKind::kStatic),
                        adversary_config(kind)};
    // Spread placements: every cell's robots must start in its window.
    // At n = 6 the three robots stand on nodes 0, 2 and 4.
    spec.ring_sizes = {4, 5, 6};
    auto err = spec.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("robot 2 starts on node 4, outside its window, nodes "
                        "0..3 clockwise (anchor 0, width 4 at ring size n=6 "
                        "with k=3)"),
              std::string::npos)
        << *err;
    spec.ring_sizes = {4, 5};
    EXPECT_FALSE(spec.validate().has_value()) << *spec.validate();

    // Random placements may land outside any window, depending on the seed.
    spec.random_placements = true;
    err = spec.validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("needs \"random_placements\": false"),
              std::string::npos)
        << *err;
  }
}

TEST(SweepSpecTest, CanonicalJsonIsTheStableCacheKey) {
  // pef_serve keys its result cache by the canonical single-line spec JSON,
  // so syntactic variants of the same spec — reordered keys, whitespace,
  // comments-by-way-of-formatting — MUST canonicalize to byte-identical
  // strings, or identical work stops coalescing and cache hits vanish.
  const std::string canonical_order = R"({
    "algorithms": ["pef3+"],
    "adversaries": [{"kind": "static", "params": {}}],
    "models": ["fsync"],
    "topology": "chain",
    "ring_sizes": [8],
    "robot_counts": [3],
    "seeds": [7],
    "horizon": 100
  })";
  const std::string reordered_and_squeezed =
      R"({"seeds":[7],"horizon":100,"robot_counts":[3],"ring_sizes":[8],)"
      R"("topology":"chain","models":["fsync"],)"
      R"("adversaries":[{"params":{},"kind":"static"}],)"
      R"("algorithms":["pef3+"]})";

  std::string error;
  const auto first = parse_sweep_spec(canonical_order, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto second = parse_sweep_spec(reordered_and_squeezed, &error);
  ASSERT_TRUE(second.has_value()) << error;

  EXPECT_EQ(first->to_json(), second->to_json());
  // Canonicalization is idempotent: parse∘serialize of the canonical form
  // is the identity, so a key never drifts across round trips.
  const auto reparsed = parse_sweep_spec(first->to_json(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->to_json(), first->to_json());

  // The content hash of the canonical key follows the orchestrator's
  // ledger spec-hash convention (fnv1a64 of the canonical JSON) — one hash
  // identity for "same sweep" across the ledger and the serve cache.
  EXPECT_EQ(fnv1a64(first->to_json()), fnv1a64(second->to_json()));
  EXPECT_NE(fnv1a64(first->to_json()), fnv1a64(std::string()));
}

TEST(SweepSpecTest, CheckedInExampleSpecsParseAndValidate) {
  // Every spec file shipped under examples/specs/ must stay loadable.
  for (const char* name :
       {"sweep_small.json", "sweep_models.json", "sweep_chain_small.json"}) {
    std::ifstream file(std::string(PEF_SPEC_DIR) + "/" + name);
    ASSERT_TRUE(file.good()) << name;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    std::string error;
    const auto spec = parse_sweep_spec(buffer.str(), &error);
    EXPECT_TRUE(spec.has_value()) << name << ": " << error;
  }
  std::ifstream file(std::string(PEF_SPEC_DIR) +
                     "/scenario_eventual_missing.json");
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string error;
  const auto scenario = parse_scenario_spec(buffer.str(), &error);
  EXPECT_TRUE(scenario.has_value()) << error;
}

// ---------------------------------------------------------------------------
// Accepted specs that cannot run: the tools exit with a status, never abort

/// Runs `argv` in a child whose address space is capped at `cap` bytes
/// (set between fork and exec), stdout discarded and stderr into `err`;
/// returns the wait status.
int run_capped(const std::vector<std::string>& argv, rlim_t cap,
               std::string& err) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    const rlimit limit{cap, cap};
    setrlimit(RLIMIT_AS, &limit);
    dup2(pipe_fds[1], STDERR_FILENO);
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(pipe_fds[0], buffer, sizeof buffer)) > 0) {
    err.append(buffer, static_cast<std::size_t>(got));
  }
  close(pipe_fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(AcceptedSpecTest, ToolsExitWhenARingIsTooLargeToAllocate) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer's shadow mapping cannot start under the "
                  "address-space cap";
#endif
  // validate() accepts a 2^31-node ring; its first vector alone asks for
  // 8 GB, so never run these without the cap.
  constexpr rlim_t kCap = rlim_t{2} << 30;
  constexpr int kRunFailedExit = 3;  // named in both tools' --help
  const std::string bin = PEF_BIN_DIR;
  const std::string spec_path = testing::TempDir() + "huge_ring_sweep.json";
  std::ofstream(spec_path)
      << R"({"algorithms": ["pef3+"], "adversaries": [{"kind": "static"}], )"
      << R"("models": ["fsync"], "ring_sizes": [2147483648], )"
      << R"("robot_counts": [3], "seeds": [1], "horizon": 10})";
  const std::vector<std::string> run = {bin + "/pef_run", "--nodes",
                                        "2147483648", "--robots", "3",
                                        "--horizon", "10"};
  std::vector<std::string> batch = run;
  batch.insert(batch.end(), {"--batch", "4"});
  const struct {
    std::vector<std::string> argv;
    std::string tool;
  } cases[] = {
      {run, "pef_run"},
      {batch, "pef_run"},
      {{bin + "/pef_sweep", "--spec", spec_path, "--threads", "1"},
       "pef_sweep"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.argv.back());
    std::string err;
    const int status = run_capped(c.argv, kCap, err);
    ASSERT_TRUE(WIFEXITED(status)) << "signal " << WTERMSIG(status) << ": "
                                   << err;
    EXPECT_EQ(WEXITSTATUS(status), kRunFailedExit) << err;
    EXPECT_EQ(err.rfind(c.tool + ": ", 0), 0u) << err;
  }
}

}  // namespace
}  // namespace pef
