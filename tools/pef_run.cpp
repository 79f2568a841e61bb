// pef_run — the command-line front end to the whole library.
//
//   pef_run --nodes 10 --robots 3 --algorithm pef3+
//           --adversary eventual-missing --horizon 5000 --seed 1 --render
//   pef_run --spec scenario.json [flag overrides] [--print-spec]
//
// The scenario surface (ring, robots, algorithm, adversary, model, horizon,
// seed) is exactly a ScenarioSpec (core/spec.hpp): --spec loads one as the
// defaults, explicit flags override it, and --print-spec writes the
// resolved spec back out as JSON — so any CLI invocation can be saved and
// replayed (also by run_scenario() and pef_sweep).  The adversary list in
// --help and the --adversary parser are both generated from the adversary
// registry, the single source of truth for names/params/defaults.
//
// The execution model is a flag: --model fsync|ssync|async selects the
// activation model (SSYNC/ASYNC run under seeded Bernoulli activation /
// phase scheduling; the adversary is the same in every model).
// Runs execute on the unified Engine (engine/engine.hpp), or under --batch
// on BatchEngine; the reference simulators are the test suites' oracle,
// not a CLI choice.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/mobility.hpp"
#include "analysis/render.hpp"
#include "analysis/towers.hpp"
#include "common/args.hpp"
#include "common/table.hpp"
#include "core/computability.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/placements.hpp"

namespace pef {
namespace {

/// The exit status of a run that threw.
constexpr int kRunFailedExit = 3;

void print_help(const char* program) {
  std::cout
      << "usage: " << program << " [flags]\n\n"
      << "  --spec FILE      load a ScenarioSpec JSON as the defaults\n"
      << "                   (explicit flags below override it; \"-\" reads\n"
      << "                   the spec from stdin)\n"
      << "  --print-spec     print the resolved scenario as spec JSON and\n"
      << "                   exit (replay with --spec or pef_sweep)\n"
      << "  --nodes N        ring size (default 10)\n"
      << "  --robots K       robot count (default 3)\n"
      << "  --topology G     ring | chain (default ring; a chain is the\n"
      << "                   ring with edge n-1 never present)\n"
      << "  --algorithm A    pef3+ | pef2 | pef1 | keep-direction | bounce\n"
      << "                   | random-walk | oscillating | pef3+-no-rule2\n"
      << "                   | pef3+-no-rule3 (default: paper's choice)\n"
      << "  --adversary X    adversary family (default eventual-missing):\n";
  for (const AdversaryKindInfo& info : adversary_registry()) {
    std::cout << "                     " << info.name;
    if (!info.params.empty()) {
      std::cout << " (";
      bool first = true;
      for (const AdversaryParamInfo& param : info.params) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << param.name << "="
                  << JsonWriter::format_number(param.default_value);
      }
      std::cout << ")";
    }
    std::cout << "\n                       " << info.description << "\n";
  }
  std::cout
      << "  --horizon T      rounds to simulate (default 5000)\n"
      << "  --batch B|auto   Monte-Carlo mode: run B seeds (seed..seed+B-1)\n"
      << "                   of the scenario and print a per-seed summary\n"
      << "                   table + aggregate throughput.  The engine is\n"
      << "                   chosen adaptively: below the calibrated\n"
      << "                   break-even width the seeds run on solo Engines\n"
      << "                   (so --batch 1 is never slower than the plain\n"
      << "                   run), above it on ONE replica-batched\n"
      << "                   BatchEngine; the footer reports which\n"
      << "                   (engine=solo|batch).  \"auto\" picks the\n"
      << "                   calibrated preferred width for the scenario.\n"
      << "                   Omit the flag for the single traced run below\n"
      << "                   (incompatible with --render)\n"
      << "  --fast-forward   detect per-seed periodicity and extrapolate\n"
      << "                   the remaining rounds in closed form\n"
      << "                   (Monte-Carlo mode only; engages on eligible\n"
      << "                   deterministic seeds, results bit-identical)\n"
      << "  --threads N      intra-cell worker threads for the batched\n"
      << "                   engine (default 1; 0 = one per physical core;\n"
      << "                   results are bit-identical at any value)\n"
      << "  --model M        fsync | ssync | async (default fsync; ssync\n"
      << "                   and async use seeded Bernoulli activation /\n"
      << "                   phase scheduling, see --activation-p)\n"
      << "  --activation-p X per-robot activation / phase-advance\n"
      << "                   probability for ssync / async (default 0.5)\n"
      << "  --seed S         RNG seed (default 1)\n"
      << "  --p X            presence probability for bernoulli (0.5)\n"
      << "  --render         print an ASCII strip of the execution\n"
      << "  --render-lines L max strip lines (default 40)\n"
      << "  --help           this text\n\n"
      << "exit status: 0 perpetual exploration (every seed with --batch),\n"
      << "  1 not, 2 usage error or refused scenario, " << kRunFailedExit
      << " the run failed\n"
      << "  (e.g. out of memory)\n";
}

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.has("--help")) {
    print_help(argv[0]);
    return 0;
  }

  // The scenario defaults: a --spec file when given, else the historical
  // CLI defaults.  Explicit flags override either.
  ScenarioSpec spec;
  spec.adversary = adversary_config(AdversaryKind::kEventualMissing);
  const std::string spec_path = args.get_string("--spec", "");
  if (!spec_path.empty()) {
    std::string error;
    const auto document = parse_json_input(spec_path, &error);
    if (!document) {
      std::cerr << error << "\n";
      return 2;
    }
    const auto parsed = scenario_spec_from_json(*document, &error);
    if (!parsed) {
      std::cerr << spec_path << ": " << error << "\n";
      return 2;
    }
    spec = *parsed;
  }

  const auto nodes = args.get_u32("--nodes", spec.nodes);
  const auto robots = args.get_u32("--robots", spec.robots);
  const auto topology_name =
      args.get_string("--topology", to_string(spec.topology));
  std::string algorithm = args.get_string("--algorithm", spec.algorithm);
  const std::string default_adversary =
      adversary_kind_info(spec.adversary.kind).name;
  const auto adversary_name =
      args.get_string("--adversary", default_adversary);
  const auto horizon = args.get_u64("--horizon", spec.horizon);
  const bool batch_given = args.has("--batch");
  const std::string batch_arg = args.get_string("--batch", "1");
  const bool fast_forward = args.has("--fast-forward");
  const auto threads = args.get_u32("--threads", 1);
  const auto model_name =
      args.get_string("--model", to_string(spec.model));
  const bool activation_p_given = args.has("--activation-p");
  const auto activation_p =
      args.get_double("--activation-p", spec.activation_p);
  const auto seed = args.get_u64("--seed", spec.seed);
  const bool p_given = args.has("--p");
  const auto p = args.get_double("--p", 0.5);
  const bool print_spec = args.has("--print-spec");
  const bool render = args.has("--render");
  const auto render_lines = args.get_u64("--render-lines", 40);
  args.check_unused();
  if (robots == 0 || nodes < 2 || robots >= nodes) {
    std::cerr << "need 1 <= robots < nodes and nodes >= 2\n";
    return 2;
  }
  const std::optional<ExecutionModel> model = parse_execution_model(model_name);
  if (!model) {
    std::cerr << "--model must be fsync, ssync or async\n";
    return 2;
  }
  const std::optional<Topology> topology = parse_topology(topology_name);
  if (!topology) {
    std::cerr << "--topology must be ring or chain\n";
    return 2;
  }
  if (activation_p_given && *model == ExecutionModel::kFsync) {
    std::cerr << "--activation-p applies only to --model ssync|async (FSYNC "
                 "activates every robot every round)\n";
    return 2;
  }
  bool batch_auto = false;
  std::uint32_t batch = 1;
  if (batch_given) {
    if (batch_arg == "auto") {
      batch_auto = true;
    } else {
      char* end = nullptr;
      const unsigned long value = std::strtoul(batch_arg.c_str(), &end, 10);
      if (end == batch_arg.c_str() || *end != '\0' || value == 0 ||
          value > (1u << 20)) {
        std::cerr << "--batch must be a positive replica count or \"auto\"\n";
        return 2;
      }
      batch = static_cast<std::uint32_t>(value);
    }
  }
  if (batch_given && render) {
    std::cerr << "--render needs a single traced run (drop --batch)\n";
    return 2;
  }
  if (threads != 1 && !batch_given) {
    std::cerr << "--threads applies to --batch runs (the traced single run "
                 "is inherently serial)\n";
    return 2;
  }
  if (fast_forward && !batch_given) {
    std::cerr << "--fast-forward applies to --batch runs (the traced single "
                 "run must replay every round)\n";
    return 2;
  }

  // Resolve the adversary through the registry (the same table --help is
  // generated from).  An --adversary flag naming a different family than
  // the spec resets that family's params to its registry defaults.
  const auto kind = parse_adversary_kind(adversary_name);
  if (!kind) {
    std::cerr << "unknown adversary \"" << adversary_name
              << "\" (known: " << known_adversary_kinds() << ")\n";
    return 2;
  }
  AdversaryConfig adversary_cfg = spec.adversary.kind == *kind
                                      ? spec.adversary
                                      : adversary_config(*kind);
  if (p_given) {
    if (*kind != AdversaryKind::kBernoulli) {
      std::cerr << "--p applies only to --adversary bernoulli (other "
                   "families take their params from --spec)\n";
      return 2;
    }
    adversary_cfg.set("p", p);
  }

  // The resolved, replayable scenario.
  spec.nodes = nodes;
  spec.robots = robots;
  spec.topology = *topology;
  spec.algorithm = algorithm;
  spec.adversary = adversary_cfg;
  spec.model = *model;
  spec.activation_p = activation_p;
  spec.horizon = horizon;
  spec.seed = seed;
  if (const auto invalid = spec.validate()) {
    std::cerr << *invalid << "\n";
    return 2;
  }
  if (print_spec) {
    std::cout << spec.to_json() << "\n";
    return 0;
  }

  if (algorithm.empty()) algorithm = resolved_algorithm(spec);

  const Ring ring(nodes);
  const auto make_adversary = [&](std::uint64_t s) {
    return adversary_from_config(adversary_cfg, ring, s, robots,
                                 spec.topology);
  };

  if (batch_given) {
    // Monte-Carlo mode.  The engine is chosen by the calibrated break-even
    // model: narrow seed counts run solo Engines (the batch's plane setup
    // and per-round passes only amortize past the break-even width), wide
    // ones run ONE BatchEngine advancing all seeds in lock-step.  A horizon
    // too long for a batch lane's 32-bit visit stamps runs solo too.
    // Either way the per-seed results are bit-identical (differentially
    // tested).
    if (batch_auto) batch = preferred_batch_width(*model, nodes, robots);
    const bool use_batch =
        plan_batch(*model, nodes, robots, batch, batch).use_batch() &&
        batch_horizon_fits(horizon);

    std::vector<EngineStats> seed_stats(batch);
    std::vector<CoverageReport> seed_coverage(batch);
    std::vector<Time> seed_simulated(batch, 0);  // 0 = ran plain
    const char* engine_used = use_batch ? "batch" : "solo";
    const auto start = std::chrono::steady_clock::now();
    if (use_batch) {
      std::vector<BatchReplica> replicas(batch);
      for (std::uint32_t b = 0; b < batch; ++b) {
        const std::uint64_t s = seed + b;
        BatchReplica& replica = replicas[b];
        replica.algorithm = make_algorithm(algorithm, s);
        replica.placements = spread_placements(ring, robots);
        replica.horizon = horizon;
        wire_standard_replica(replica, *model, make_adversary(s),
                              activation_p, s);
      }
      BatchEngineOptions options;
      options.threads = threads;
      options.fast_forward.enabled = fast_forward;
      BatchEngine batch_engine(ring, *model, std::move(replicas), options);
      batch_engine.run_all();
      for (std::uint32_t b = 0; b < batch; ++b) {
        seed_stats[b] = batch_engine.stats(b);
        seed_coverage[b] = batch_engine.coverage_report(b);
        if (batch_engine.fast_forwarded(b)) {
          seed_simulated[b] = batch_engine.rounds_simulated(b);
        }
      }
    } else {
      for (std::uint32_t b = 0; b < batch; ++b) {
        const std::uint64_t s = seed + b;
        EngineOptions options;
        options.fast_forward.enabled = fast_forward;
        Engine solo = make_standard_engine(
            ring, *model, make_algorithm(algorithm, s), make_adversary(s),
            spread_placements(ring, robots), activation_p, s, options);
        solo.run(horizon);
        seed_stats[b] = solo.stats();
        seed_coverage[b] = solo.coverage_report();
        if (solo.fast_forwarded()) {
          seed_simulated[b] = solo.rounds_simulated();
        }
      }
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    std::cout << "pef_run: n=" << nodes << " k=" << robots << " algorithm="
              << algorithm << " adversary=" << adversary_name
              << " horizon=" << horizon << " model=" << to_string(*model)
              << " batch=" << batch << " seeds=[" << seed << ", "
              << seed + batch - 1 << "]\n\n";

    TextTable table({"seed", "visited", "cover time", "perpetual",
                     "max revisit gap", "moves", "tower rounds"});
    bool all_perpetual = true;
    for (std::uint32_t b = 0; b < batch; ++b) {
      const EngineStats& stats = seed_stats[b];
      const CoverageReport& coverage = seed_coverage[b];
      const bool perpetual = coverage.perpetual(nodes);
      all_perpetual = all_perpetual && perpetual;
      table.add_row({std::to_string(seed + b),
                     std::to_string(coverage.visited_node_count) + "/" +
                         std::to_string(nodes),
                     coverage.cover_time ? std::to_string(*coverage.cover_time)
                                         : "never",
                     format_bool(perpetual),
                     std::to_string(coverage.max_revisit_gap),
                     std::to_string(stats.total_moves),
                     std::to_string(stats.tower_rounds)});
    }
    table.print(std::cout);
    // Per-model aggregate throughput: SSYNC counts rounds and ASYNC ticks,
    // so the model tag keeps cross-model batches comparable at a glance.
    // engine= names which path actually ran (the adaptive choice above).
    std::cout << "\naggregate [" << to_string(*model) << "]: "
              << static_cast<std::uint64_t>(
                     static_cast<double>(horizon) * batch / secs)
              << " replica-" << (*model == ExecutionModel::kAsync
                                     ? "ticks"
                                     : "rounds")
              << "/sec over B=" << batch << " (" << secs << " s)"
              << " engine=" << engine_used << "\n";
    if (fast_forward) {
      std::uint32_t engaged = 0;
      std::uint64_t simulated = 0;
      for (std::uint32_t b = 0; b < batch; ++b) {
        if (seed_simulated[b] != 0) {
          ++engaged;
          simulated += seed_simulated[b];
        } else {
          simulated += horizon;
        }
      }
      std::cout << "fast-forward: " << engaged << "/" << batch
                << " seeds cycled, " << simulated << " of "
                << static_cast<std::uint64_t>(horizon) * batch
                << " rounds simulated\n";
    }
    return all_perpetual ? 0 : 1;
  }

  EngineOptions engine_options;
  engine_options.record_trace = true;  // the report is all trace analysis
  Engine engine = make_standard_engine(
      ring, *model, make_algorithm(algorithm, seed), make_adversary(seed),
      spread_placements(ring, robots), activation_p, seed, engine_options);
  engine.run(horizon);
  const Trace& trace = engine.trace();

  std::cout << "pef_run: n=" << nodes << " k=" << robots << " algorithm="
            << algorithm << " adversary=" << adversary_name
            << " horizon=" << horizon << " seed=" << seed
            << " model=" << to_string(*model) << "\n"
            << "TABLE 1 prediction: "
            << computability::to_string(
                   computability::classify(robots, nodes))
            << " (" << computability::supporting_theorem(robots, nodes)
            << ")\n\n";

  if (render) {
    RenderOptions options;
    options.max_lines = render_lines;
    render_trace(std::cout, trace, options);
    std::cout << "\n";
  }

  const auto coverage = analyze_coverage(trace);
  const auto towers = analyze_towers(trace);
  const auto mobility = analyze_mobility(trace);
  const auto audit = audit_connectivity(ring, trace.edge_history(),
                                        horizon / 4);

  TextTable table({"metric", "value"});
  table.add_row({"nodes visited", std::to_string(coverage.visited_node_count) +
                                      "/" + std::to_string(nodes)});
  table.add_row({"cover time", coverage.cover_time
                                   ? std::to_string(*coverage.cover_time)
                                   : "never"});
  table.add_row({"max revisit gap", std::to_string(coverage.max_revisit_gap)});
  table.add_row(
      {"perpetual exploration", format_bool(coverage.perpetual(nodes))});
  table.add_row({"tower formations",
                 std::to_string(towers.tower_formation_count)});
  table.add_row({"max tower size", std::to_string(towers.max_tower_size)});
  table.add_row({"lemma 3.4 (towers <= 2)",
                 format_bool(towers.lemma_3_4_holds)});
  table.add_row({"lemma 3.3 (opposite dirs)",
                 format_bool(towers.lemma_3_3_holds)});
  table.add_row({"total moves", std::to_string(mobility.total_moves)});
  table.add_row({"busiest robot",
                 "r" + std::to_string(mobility.busiest()) + " (" +
                     std::to_string(
                         mobility.robots[mobility.busiest()].moves) +
                     " moves)"});
  table.add_row({"idlest robot",
                 "r" + std::to_string(mobility.idlest()) + " (" +
                     std::to_string(mobility.robots[mobility.idlest()].moves) +
                     " moves)"});
  table.add_row({"adversary legal (c-o-t)",
                 format_bool(audit.connected_over_time)});
  table.add_row({"suspected missing edges",
                 std::to_string(audit.suspected_missing.size())});
  table.print(std::cout);

  return coverage.perpetual(nodes) ? 0 : 1;
}

}  // namespace
}  // namespace pef

// A scenario validate() accepts can still fail to run — a ring too large
// to allocate — and exits with its own status and message, not an abort.
int main(int argc, char** argv) {
  try {
    return pef::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "pef_run: " << error.what() << "\n";
    return pef::kRunFailedExit;
  }
}
