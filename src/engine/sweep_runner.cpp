#include "engine/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <iterator>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>

#include "algorithms/registry.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "engine/topology.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

/// Flat description of one grid cell, precomputed so workers index into an
/// immutable task list.
struct CellTask {
  std::size_t algorithm_index = 0;
  std::size_t adversary_index = 0;
  std::size_t model_index = 0;
  std::uint32_t nodes = 0;
  std::uint32_t robots = 0;
  std::uint64_t seed = 0;
};

std::vector<CellTask> enumerate_cells(const SweepSpec& spec) {
  std::vector<CellTask> tasks;
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    for (std::size_t d = 0; d < spec.adversaries.size(); ++d) {
      for (std::size_t m = 0; m < spec.models.size(); ++m) {
        for (const std::uint32_t n : spec.ring_sizes) {
          for (const std::uint32_t k : spec.robot_counts) {
            if (k == 0 || k >= n) continue;  // not well-initiated
            for (const std::uint64_t seed : spec.seeds) {
              tasks.push_back({a, d, m, n, k, seed});
            }
          }
        }
      }
    }
  }
  return tasks;
}

/// Pre-resolved per-spec context shared by every worker: display names are
/// pure functions of the spec, resolved once.
struct SweepContext {
  const SweepSpec& spec;
  std::vector<std::string> adversary_names;
  /// Intra-cell worker threads handed to each BatchEngine (1 = serial; the
  /// sweep's own pool already covers the inter-cell axis, so this only
  /// helps sweeps whose grid is narrower than the machine).
  std::uint32_t engine_threads = 1;
};

SweepContext make_context(const SweepSpec& spec) {
  SweepContext context{spec, {}, 1};
  context.adversary_names.reserve(spec.adversaries.size());
  for (const AdversaryConfig& config : spec.adversaries) {
    context.adversary_names.push_back(adversary_display_name(config));
  }
  return context;
}

void fill_coordinates(const SweepContext& context, const CellTask& task,
                      SweepCell& cell) {
  cell.algorithm = context.spec.algorithms[task.algorithm_index];
  cell.adversary = context.adversary_names[task.adversary_index];
  cell.model = context.spec.models[task.model_index];
  cell.nodes = task.nodes;
  cell.robots = task.robots;
  cell.seed = task.seed;
  cell.effective_seed =
      effective_seed(task.seed, task.algorithm_index, task.adversary_index,
                     task.nodes, task.robots, task.model_index);
  cell.horizon = context.spec.horizon_for(task.nodes);
}

void fill_metrics(const EngineStats& stats, const CoverageReport& coverage,
                  SweepCell& cell) {
  cell.perpetual = coverage.perpetual(cell.nodes);
  cell.covered = coverage.cover_time.has_value();
  cell.cover_time = coverage.cover_time.value_or(0);
  cell.max_revisit_gap = coverage.max_revisit_gap;
  cell.tower_rounds = stats.tower_rounds;
  cell.tower_formations = stats.tower_formations;
  cell.total_moves = stats.total_moves;
}

std::vector<RobotPlacement> placements_for(const SweepSpec& spec,
                                           const Ring& ring,
                                           std::uint32_t robots,
                                           std::uint64_t eff_seed) {
  return spec.random_placements
             ? random_placements(ring, robots, derive_seed(eff_seed, 0x91ace))
             : spread_placements(ring, robots);
}

SweepCell run_cell(const SweepContext& context, const CellTask& task) {
  const SweepSpec& spec = context.spec;
  SweepCell cell;
  fill_coordinates(context, task, cell);

  const Ring ring(task.nodes);
  const std::vector<RobotPlacement> placements =
      placements_for(spec, ring, task.robots, cell.effective_seed);

  AlgorithmPtr algorithm = make_algorithm(cell.algorithm, cell.effective_seed);
  AdversaryPtr adversary =
      adversary_from_config(spec.adversaries[task.adversary_index], ring,
                            cell.effective_seed, task.robots, spec.topology);

  EngineOptions options;
  options.fast_forward.enabled = spec.fast_forward;

  const auto start = std::chrono::steady_clock::now();
  Engine engine = make_standard_engine(
      ring, cell.model, std::move(algorithm), std::move(adversary),
      placements, spec.activation_p, cell.effective_seed, options);
  engine.run(cell.horizon);
  const auto stop = std::chrono::steady_clock::now();

  fill_metrics(engine.stats(), engine.coverage_report(), cell);
  if (engine.fast_forwarded()) {
    cell.rounds_covered = cell.horizon;
    cell.rounds_simulated = engine.rounds_simulated();
  }
  cell.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  return cell;
}

/// Run `count` consecutive same-scenario tasks (differing only in seed) as
/// one BatchEngine of per-seed replicas.  `cells` points at the group's
/// output slots.
void run_batched(const SweepContext& context, const CellTask* tasks,
                 std::uint32_t count, SweepCell* cells) {
  const SweepSpec& spec = context.spec;
  const Ring ring(tasks[0].nodes);
  const ExecutionModel model = spec.models[tasks[0].model_index];

  std::vector<BatchReplica> replicas(count);
  for (std::uint32_t b = 0; b < count; ++b) {
    SweepCell& cell = cells[b];
    fill_coordinates(context, tasks[b], cell);
    BatchReplica& replica = replicas[b];
    replica.algorithm = make_algorithm(cell.algorithm, cell.effective_seed);
    replica.placements =
        placements_for(spec, ring, cell.robots, cell.effective_seed);
    replica.horizon = cell.horizon;
    wire_standard_replica(
        replica, model,
        adversary_from_config(spec.adversaries[tasks[b].adversary_index],
                              ring, cell.effective_seed, cell.robots,
                              spec.topology),
        spec.activation_p, cell.effective_seed);
  }

  const auto start = std::chrono::steady_clock::now();
  BatchEngineOptions options;
  options.threads = context.engine_threads;
  options.fast_forward.enabled = spec.fast_forward;
  BatchEngine engine(ring, model, std::move(replicas), options);
  engine.run_all();
  const auto stop = std::chrono::steady_clock::now();
  const double wall =
      std::chrono::duration<double>(stop - start).count() / count;

  for (std::uint32_t b = 0; b < count; ++b) {
    fill_metrics(engine.stats(b), engine.coverage_report(b), cells[b]);
    cells[b].wall_seconds = wall;
    if (engine.fast_forwarded(b)) {
      cells[b].rounds_covered = cells[b].horizon;
      cells[b].rounds_simulated = engine.rounds_simulated(b);
    }
  }
}

/// A maximal run of tasks sharing every coordinate but the seed.
struct CellGroup {
  std::size_t first = 0;
  std::uint32_t count = 0;
  double predicted_cost = 0;  // arbitrary units; see predicted_cost()
};

/// Cost of a robot-round under `model` relative to FSYNC.  Measured on a
/// 4-vCPU AVX-512 KVM guest (gcc 12, Release): CPU time of pef_sweep
/// --threads 1, pinned to one core, on each perfbench sweep grid cut to one
/// model, median of 21 runs.  SSYNC read 1.16× / 1.30× / 1.45× FSYNC
/// (models-mc, wide-batch at 64 seeds, the serve grid at 256 seeds) and
/// ASYNC 1.20× / 1.46× / 1.56×; the factors are the middle values.
double model_cost_factor(ExecutionModel model) {
  switch (model) {
    case ExecutionModel::kFsync:
      return 1.0;
    case ExecutionModel::kSsync:
      return 1.3;
    case ExecutionModel::kAsync:
      return 1.45;
  }
  return 1.0;
}

/// What the spec fixes about a group's cost: cells × horizon × (k + edge
/// words per row) × model factor.  Only the order of these values matters.
/// A fast-forwarded cell stops at its first repeated state, a round the
/// spec does not fix, so a fast_forward sweep predicts nothing and keeps
/// grid order: on perfbench's longhorizon-ff grid the formula ran the
/// fifth heaviest group (periodic, n = 64) third from last, and the sweep
/// took 4–8% longer than in grid order.
double predicted_cost(const SweepSpec& spec, const CellTask& head,
                      std::uint32_t cells) {
  if (spec.fast_forward) return 0;
  return static_cast<double>(cells) *
         static_cast<double>(spec.horizon_for(head.nodes)) *
         (head.robots + edge_word_count(head.nodes)) *
         model_cost_factor(spec.models[head.model_index]);
}

/// The run plan: the task subrange [begin, end) cut into seed groups, the
/// longest predicted first (LPT; ties keep grid order).  Shard boundaries
/// may split a seed group across shards; that only affects batch
/// composition, and per-cell results are bit-identical at any batch size.
std::vector<CellGroup> plan_groups(const SweepSpec& spec,
                                   const std::vector<CellTask>& tasks,
                                   std::size_t begin, std::size_t end) {
  std::vector<CellGroup> groups;
  for (std::size_t i = begin; i < end;) {
    std::size_t j = i + 1;
    while (j < end &&
           tasks[j].algorithm_index == tasks[i].algorithm_index &&
           tasks[j].adversary_index == tasks[i].adversary_index &&
           tasks[j].model_index == tasks[i].model_index &&
           tasks[j].nodes == tasks[i].nodes &&
           tasks[j].robots == tasks[i].robots) {
      ++j;
    }
    const auto count = static_cast<std::uint32_t>(j - i);
    groups.push_back({i, count, predicted_cost(spec, tasks[i], count)});
    i = j;
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const CellGroup& a, const CellGroup& b) {
                     return a.predicted_cost > b.predicted_cost;
                   });
  return groups;
}

void run_group(const SweepContext& context,
               const std::vector<CellTask>& tasks, const CellGroup& group,
               SweepCell* cells) {
  // The calibrated break-even model decides both whether to batch at all
  // and how wide: a narrow seed group (or an explicit max_batch below
  // break-even) routes back to solo Engines, which are strictly faster
  // there, and so does a horizon too long for a batch lane's 32-bit visit
  // stamps.  Either route yields byte-identical cells.
  const SweepSpec& spec = context.spec;
  const CellTask& head = tasks[group.first];
  const BatchPlan plan =
      plan_batch(spec.models[head.model_index], head.nodes, head.robots,
                 group.count, spec.max_batch);
  if (!spec.batch_seeds || !plan.use_batch() ||
      !batch_horizon_fits(spec.horizon_for(head.nodes))) {
    for (std::uint32_t b = 0; b < group.count; ++b) {
      cells[b] = run_cell(context, tasks[group.first + b]);
    }
    return;
  }
  for (std::uint32_t off = 0; off < group.count; off += plan.width) {
    const std::uint32_t count = std::min(plan.width, group.count - off);
    run_batched(context, tasks.data() + group.first + off, count,
                cells + off);
  }
}

}  // namespace

std::uint64_t count_sweep_cells(const SweepSpec& spec) {
  std::uint64_t pairs = 0;
  for (const std::uint32_t n : spec.ring_sizes) {
    for (const std::uint32_t k : spec.robot_counts) {
      if (k != 0 && k < n) ++pairs;  // same skip rule as enumerate_cells
    }
  }
  return pairs * spec.algorithms.size() * spec.adversaries.size() *
         spec.models.size() * spec.seeds.size();
}

std::uint64_t effective_seed(std::uint64_t grid_seed,
                             std::size_t algorithm_index,
                             std::size_t adversary_index, std::uint32_t nodes,
                             std::uint32_t robots, std::size_t model_index) {
  // model_index 0 leaves the stream unchanged, so FSYNC-only grids (and
  // every pre-model-axis grid) keep their historical per-cell seeds.
  return derive_seed(grid_seed, algorithm_index,
                     (static_cast<std::uint64_t>(adversary_index) << 32) |
                         nodes,
                     (static_cast<std::uint64_t>(model_index) << 32) |
                         robots);
}

std::uint64_t SweepResult::total_rounds() const {
  std::uint64_t total = 0;
  for (const SweepCell& cell : cells) total += cell.horizon;
  return total;
}

void sweep_cell_to_json(JsonWriter& json, const SweepCell& cell) {
  json.begin_object();
  json.field("algorithm", cell.algorithm);
  json.field("adversary", cell.adversary);
  json.field("model", to_string(cell.model));
  json.field("n", cell.nodes);
  json.field("k", cell.robots);
  json.field("seed", cell.seed);
  json.field("effective_seed", cell.effective_seed);
  json.field("horizon", cell.horizon);
  json.field("perpetual", cell.perpetual);
  if (cell.covered) {
    json.field("cover_time", cell.cover_time);
  } else {
    json.null_field("cover_time");
  }
  json.field("max_revisit_gap", cell.max_revisit_gap);
  json.field("tower_rounds", cell.tower_rounds);
  json.field("tower_formations", cell.tower_formations);
  json.field("total_moves", cell.total_moves);
  // Present only when the cycle detector engaged: plain cells keep the
  // historical shape byte-for-byte.
  if (cell.rounds_simulated != 0) {
    json.field("rounds_covered", cell.rounds_covered);
    json.field("rounds_simulated", cell.rounds_simulated);
  }
  json.end_object();
}

std::optional<SweepCell> sweep_cell_from_json(const JsonValue& value,
                                              std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = "sweep cell: " + message;
    return std::nullopt;
  };
  if (!value.is_object()) return fail("must be an object");
  SweepCell cell;
  // Every field sweep_cell_to_json writes is required exactly once; a
  // truncated or hand-edited cell must be an error, never a default.
  // The trailing fast-forward pair is optional (emitted only for engaged
  // cells) but still each-at-most-once and only together.
  const char* const kFields[] = {
      "algorithm", "adversary", "model", "n", "k", "seed", "effective_seed",
      "horizon", "perpetual", "cover_time", "max_revisit_gap",
      "tower_rounds", "tower_formations", "total_moves",
      "rounds_covered", "rounds_simulated"};
  constexpr std::size_t kFieldCount = std::size(kFields);
  constexpr std::size_t kRequiredCount = kFieldCount - 2;
  bool seen[kFieldCount] = {};
  const auto mark = [&seen, &kFields](const std::string& key) {
    for (std::size_t f = 0; f < kFieldCount; ++f) {
      if (key == kFields[f]) {
        const bool duplicate = seen[f];
        seen[f] = true;
        return !duplicate;
      }
    }
    return false;
  };
  for (const auto& [key, member] : value.members) {
    if (!mark(key)) {
      return fail("unexpected or duplicate key \"" + key + "\"");
    }
    if (key == "algorithm" && member.is_string()) {
      cell.algorithm = member.string_value;
    } else if (key == "adversary" && member.is_string()) {
      cell.adversary = member.string_value;
    } else if (key == "model" && member.is_string()) {
      const auto model = parse_execution_model(member.string_value);
      if (!model) {
        return fail("unknown model \"" + member.string_value + "\"");
      }
      cell.model = *model;
    } else if (key == "n" && member.is_uint) {
      cell.nodes = static_cast<std::uint32_t>(member.uint_value);
    } else if (key == "k" && member.is_uint) {
      cell.robots = static_cast<std::uint32_t>(member.uint_value);
    } else if (key == "seed" && member.is_uint) {
      cell.seed = member.uint_value;
    } else if (key == "effective_seed" && member.is_uint) {
      cell.effective_seed = member.uint_value;
    } else if (key == "horizon" && member.is_uint) {
      cell.horizon = member.uint_value;
    } else if (key == "perpetual" && member.is_bool()) {
      cell.perpetual = member.bool_value;
    } else if (key == "cover_time" &&
               (member.is_null() || member.is_uint)) {
      cell.covered = !member.is_null();
      cell.cover_time = member.is_null() ? 0 : member.uint_value;
    } else if (key == "max_revisit_gap" && member.is_uint) {
      cell.max_revisit_gap = member.uint_value;
    } else if (key == "tower_rounds" && member.is_uint) {
      cell.tower_rounds = member.uint_value;
    } else if (key == "tower_formations" && member.is_uint) {
      cell.tower_formations = member.uint_value;
    } else if (key == "total_moves" && member.is_uint) {
      cell.total_moves = member.uint_value;
    } else if (key == "rounds_covered" && member.is_uint) {
      cell.rounds_covered = member.uint_value;
    } else if (key == "rounds_simulated" && member.is_uint) {
      cell.rounds_simulated = member.uint_value;
    } else {
      return fail("mistyped value for key \"" + key + "\"");
    }
  }
  for (std::size_t f = 0; f < kRequiredCount; ++f) {
    if (!seen[f]) {
      return fail("missing field \"" + std::string(kFields[f]) +
                  "\" (is this a pef_sweep cell?)");
    }
  }
  if (seen[kRequiredCount] != seen[kRequiredCount + 1]) {
    return fail(
        "\"rounds_covered\" and \"rounds_simulated\" must appear together");
  }
  if (seen[kRequiredCount] && cell.rounds_simulated == 0) {
    return fail("\"rounds_simulated\" must be nonzero when present");
  }
  return cell;
}

namespace {

void cells_to_json(JsonWriter& json, const std::vector<SweepCell>& cells) {
  json.begin_array("cells");
  for (const SweepCell& cell : cells) sweep_cell_to_json(json, cell);
  json.end_array();
}

}  // namespace

std::string SweepResult::to_json() const {
  PEF_CHECK_MSG(first_cell == 0 && total_cells == cells.size(),
                "partial (sharded) result: write with to_shard_json() and "
                "stitch with merge_sweep_shards()");
  JsonWriter json;
  json.begin_object();
  json.field("cell_count", static_cast<std::uint64_t>(cells.size()));
  cells_to_json(json, cells);
  json.end_object();
  return json.str();
}

std::string SweepResult::to_shard_json() const {
  JsonWriter json;
  json.begin_object();
  json.field("spec", spec_json);
  json.field("shard_index", shard.index);
  json.field("shard_count", shard.count);
  json.field("first_cell", first_cell);
  json.field("total_cells", total_cells);
  json.field("cell_count", static_cast<std::uint64_t>(cells.size()));
  cells_to_json(json, cells);
  json.end_object();
  return json.str();
}

namespace {

/// One parsed + envelope-checked shard file, tagged with the name used in
/// error messages (the caller's file path when given).
struct ParsedShard {
  std::string name;
  std::string spec_json;
  std::uint32_t index = 0;
  std::uint32_t count = 0;
  std::uint64_t first_cell = 0;
  std::uint64_t total_cells = 0;
  std::vector<SweepCell> cells;
};

/// Parse every shard document and validate the partition is coherent:
/// consistent envelopes, no duplicate indices, no out-of-range indices,
/// every slice exactly where the partition formula puts it.  Missing
/// shards are NOT an error here — they land in `missing` (sorted) for the
/// caller to treat as fatal (strict merge) or degrade on (partial merge).
/// On success `shards` comes back sorted by shard index.
bool parse_shard_partition(const std::vector<std::string>& shard_jsons,
                           const std::vector<std::string>* shard_names,
                           std::vector<ParsedShard>& shards,
                           std::vector<std::uint32_t>& missing,
                           std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const auto name_of = [shard_names](std::size_t i) {
    return shard_names != nullptr && i < shard_names->size()
               ? (*shard_names)[i]
               : "shard file " + std::to_string(i);
  };

  for (std::size_t i = 0; i < shard_jsons.size(); ++i) {
    const std::string where = name_of(i);
    std::string parse_error;
    const auto document = parse_json(shard_jsons[i], &parse_error);
    if (!document) return fail(where + ": " + parse_error);
    ParsedShard shard;
    shard.name = where;
    const JsonValue* spec = document->find("spec");
    const JsonValue* index = document->find("shard_index");
    const JsonValue* count = document->find("shard_count");
    const JsonValue* first = document->find("first_cell");
    const JsonValue* total = document->find("total_cells");
    const JsonValue* cells = document->find("cells");
    if (spec == nullptr || !spec->is_string() || index == nullptr ||
        !index->is_uint || count == nullptr || !count->is_uint ||
        first == nullptr || !first->is_uint || total == nullptr ||
        !total->is_uint || cells == nullptr || !cells->is_array()) {
      return fail(where +
                  ": not a pef_sweep shard file (needs spec, shard_index, "
                  "shard_count, first_cell, total_cells, cells — full "
                  "outputs need no merging)");
    }
    shard.spec_json = spec->string_value;
    shard.index = static_cast<std::uint32_t>(index->uint_value);
    shard.count = static_cast<std::uint32_t>(count->uint_value);
    shard.first_cell = first->uint_value;
    shard.total_cells = total->uint_value;
    for (const JsonValue& item : cells->items) {
      auto cell = sweep_cell_from_json(item, &parse_error);
      if (!cell) return fail(where + ": " + parse_error);
      shard.cells.push_back(std::move(*cell));
    }
    shards.push_back(std::move(shard));
  }

  if (shards.empty()) return fail("no shard files given");
  const std::uint32_t expected_count = shards.front().count;
  const std::uint64_t expected_total = shards.front().total_cells;
  const std::string& expected_spec = shards.front().spec_json;
  if (expected_count == 0) {
    return fail(shards.front().name + ": shard_count 0 is not a partition");
  }

  // Envelope consistency and duplicates, with the offending FILES named —
  // "shard 3 is broken" is useless when five machines each produced a
  // shard3.json.
  std::vector<std::string> covered_by(expected_count);
  for (const ParsedShard& shard : shards) {
    if (shard.spec_json != expected_spec) {
      return fail(shard.name + ": belongs to a different sweep than " +
                  shards.front().name + " (embedded specs differ)");
    }
    if (shard.count != expected_count || shard.total_cells != expected_total) {
      return fail(shard.name + ": belongs to a different partition than " +
                  shards.front().name + " (" + std::to_string(shard.count) +
                  " shards / " + std::to_string(shard.total_cells) +
                  " cells vs " + std::to_string(expected_count) +
                  " shards / " + std::to_string(expected_total) + " cells)");
    }
    if (shard.index >= expected_count) {
      return fail(shard.name + ": shard index " +
                  std::to_string(shard.index) + " out of range for a " +
                  std::to_string(expected_count) + "-shard partition");
    }
    // The slice must sit exactly where run(spec, {index, count}) puts it;
    // anything else is a corrupted or hand-edited file.
    const std::uint64_t lo = expected_total * shard.index / expected_count;
    const std::uint64_t hi =
        expected_total * (shard.index + 1) / expected_count;
    if (shard.first_cell != lo || shard.cells.size() != hi - lo) {
      return fail(shard.name + ": shard " + std::to_string(shard.index) +
                  " should cover cells " + std::to_string(lo) + ".." +
                  std::to_string(hi) + " but holds " +
                  std::to_string(shard.cells.size()) + " cells from " +
                  std::to_string(shard.first_cell));
    }
    std::string& owner = covered_by[shard.index];
    if (!owner.empty()) {
      return fail("duplicate shard index " + std::to_string(shard.index) +
                  ": given by both " + owner + " and " + shard.name);
    }
    owner = shard.name;
  }

  for (std::uint32_t i = 0; i < expected_count; ++i) {
    if (covered_by[i].empty()) missing.push_back(i);
  }
  std::sort(shards.begin(), shards.end(),
            [](const ParsedShard& a, const ParsedShard& b) {
              return a.index < b.index;
            });
  return true;
}

}  // namespace

std::optional<ShardMerge> merge_sweep_shards_partial(
    const std::vector<std::string>& shard_jsons, std::string* error,
    const std::vector<std::string>* shard_names) {
  std::vector<ParsedShard> shards;
  std::vector<std::uint32_t> missing;
  if (!parse_shard_partition(shard_jsons, shard_names, shards, missing,
                             error)) {
    return std::nullopt;
  }

  ShardMerge merge;
  merge.missing_shards = missing;
  merge.complete = missing.empty();
  if (merge.complete) {
    SweepResult merged;
    merged.total_cells = shards.front().total_cells;
    for (const ParsedShard& shard : shards) {
      merged.cells.insert(merged.cells.end(), shard.cells.begin(),
                          shard.cells.end());
    }
    merge.json = merged.to_json();
    return merge;
  }

  // Degraded document: the full cell list in grid order with an explicit
  // null per missing cell — cell id == array index survives degradation,
  // so downstream analysis can use what exists and see what doesn't.
  const std::uint64_t total = shards.front().total_cells;
  std::uint64_t present = 0;
  for (const ParsedShard& shard : shards) present += shard.cells.size();
  JsonWriter json;
  json.begin_object();
  json.field("partial", true);
  json.field("cell_count", present);
  json.field("total_cells", total);
  json.begin_array("missing_shards");
  for (const std::uint32_t index : missing) {
    json.element(static_cast<std::uint64_t>(index));
  }
  json.end_array();
  json.begin_array("cells");
  std::size_t next_shard = 0;
  std::uint64_t cell = 0;
  while (cell < total) {
    if (next_shard < shards.size() &&
        shards[next_shard].first_cell == cell) {
      for (const SweepCell& item : shards[next_shard].cells) {
        sweep_cell_to_json(json, item);
      }
      cell += shards[next_shard].cells.size();
      ++next_shard;
    } else {
      json.element_null();
      ++cell;
    }
  }
  json.end_array();
  json.end_object();
  merge.json = json.str();
  return merge;
}

std::optional<std::string> merge_sweep_shards(
    const std::vector<std::string>& shard_jsons, std::string* error,
    std::vector<std::uint32_t>* missing_shards,
    const std::vector<std::string>* shard_names) {
  if (missing_shards != nullptr) missing_shards->clear();
  const auto merge =
      merge_sweep_shards_partial(shard_jsons, error, shard_names);
  if (!merge) return std::nullopt;
  if (!merge->complete) {
    if (missing_shards != nullptr) *missing_shards = merge->missing_shards;
    std::string missing_list;
    for (const std::uint32_t index : merge->missing_shards) {
      if (!missing_list.empty()) missing_list += ", ";
      missing_list += std::to_string(index);
    }
    const std::uint32_t count = static_cast<std::uint32_t>(
        merge->missing_shards.size() + shard_jsons.size());
    if (error != nullptr) {
      *error = "need all " + std::to_string(count) + " shards to merge, got " +
               std::to_string(shard_jsons.size()) + " (missing shard" +
               (merge->missing_shards.size() == 1 ? "" : "s") + " " +
               missing_list + " of " + std::to_string(count) + ")";
    }
    return std::nullopt;
  }
  return merge->json;
}

SweepRunner::SweepRunner(std::uint32_t threads, std::uint32_t engine_threads)
    : threads_(threads), engine_threads_(engine_threads) {
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
  if (engine_threads_ == 0) {
    engine_threads_ = HwTopology::detect().physical_cores;
  }
}

SweepResult SweepRunner::run(const SweepSpec& spec, SweepShard shard,
                             const ProgressFn& progress,
                             const CancelFn& cancel) const {
  const auto invalid = spec.validate();
  PEF_CHECK_MSG(!invalid.has_value(), "invalid sweep spec");
  PEF_CHECK_MSG(shard.count >= 1 && shard.index < shard.count,
                "shard must be index/count with index < count");

  const std::vector<CellTask> tasks = enumerate_cells(spec);
  // The shard's contiguous cell slice; cell coordinates (and thus results)
  // are independent of the slicing.
  const std::size_t lo = tasks.size() * shard.index / shard.count;
  const std::size_t hi = tasks.size() * (shard.index + 1) / shard.count;
  const std::vector<CellGroup> groups = plan_groups(spec, tasks, lo, hi);
  SweepContext context = make_context(spec);
  context.engine_threads = engine_threads_;

  // Workers: the requested count, capped by the hardware and by the group
  // count.  The calling thread is one of them.
  std::uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  const auto workers = static_cast<std::uint32_t>(std::max<std::size_t>(
      1, std::min<std::size_t>({threads_, hardware, groups.size()})));

  SweepResult result;
  result.shard = shard;
  result.first_cell = lo;
  result.total_cells = tasks.size();
  result.spec_json = spec.to_json();
  result.cells.resize(hi - lo);
  // Groups index cells by absolute cell id; the result vector holds the
  // shard's slice, so slot(group) rebases onto it.
  const auto slot = [&result, lo](const CellGroup& group) {
    return result.cells.data() + (group.first - lo);
  };

  // Cells completed so far (for the progress observer only; results never
  // depend on it).
  std::atomic<std::uint64_t> done{0};
  const auto run_one = [&](const CellGroup& group) {
    const auto group_start = std::chrono::steady_clock::now();
    run_group(context, tasks, group, slot(group));
    if (progress) {
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - group_start)
                              .count();
      const std::uint64_t finished =
          done.fetch_add(group.count, std::memory_order_relaxed) +
          group.count;
      progress(finished, hi - lo, secs);
    }
  };

  // Cancellation is polled between groups only: a group in flight always
  // finishes, so every completed cell is whole and bit-identical to an
  // uncancelled run's.
  std::atomic<bool> stop_requested{false};
  const auto should_stop = [&] {
    if (stop_requested.load(std::memory_order_relaxed)) return true;
    if (cancel && cancel()) {
      stop_requested.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // Workers take the planned groups one at a time, in plan order.  A worker
  // that throws stops the others at their next group; the first exception
  // is rethrown once all of them have joined.
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    try {
      for (std::size_t g = cursor.fetch_add(1, std::memory_order_relaxed);
           g < groups.size() && !should_stop();
           g = cursor.fetch_add(1, std::memory_order_relaxed)) {
        run_one(groups[g]);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      stop_requested.store(true, std::memory_order_relaxed);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::uint32_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // The system refused a thread: the workers already started and the
    // calling thread share the groups.
  }
  result.threads = static_cast<std::uint32_t>(pool.size()) + 1;
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  result.cancelled = stop_requested.load(std::memory_order_relaxed);
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace pef
