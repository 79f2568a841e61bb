// SweepRunner — the multi-core Monte-Carlo sweep harness.
//
// A sweep is described by a data-only SweepSpec (core/spec.hpp): the
// cartesian grid (algorithm × adversary × model × n × k × seed); each grid
// cell is one independent engine run.  Cells that differ ONLY in seed are
// one scenario run many times — exactly BatchEngine's shape — so the runner
// dispatches each such seed group to one replica batch (per-seed results
// stay bit-identical to solo Engine runs; the differential tests pin this)
// instead of constructing a fresh Engine per seed.  The run plan predicts
// each seed group's cost from what the spec fixes (cells × horizon ×
// (k + edge words per row) × a measured per-model factor) and hands the
// groups out longest predicted first (a fast_forward sweep keeps grid
// order), one per fetch from an atomic cursor.
// Workers are the requested count capped by the hardware threads and the
// group count; the calling thread is one of them, so a 1-worker run starts
// no thread.  Scheduling moves only wall time — the *results* cannot depend
// on it:
//
//   * every cell derives its own RNG stream deterministically from its grid
//     coordinates (see effective_seed below), never from thread identity,
//     wall clock or execution order;
//   * results land in a preallocated slot indexed by cell id, so the output
//     vector (and hence the JSON) is byte-identical at 1 and N threads,
//     batched or not.
//
// Because a cell's results are a pure function of the spec and its cell
// index, a sweep also shards across PROCESSES: run(spec, {i, N}) executes
// only the i-th contiguous slice of the cell list, to_shard_json() wraps
// that slice with its coordinates, and merge_sweep_shards() concatenates N
// such slices back into JSON byte-identical to the unsharded run
// (tools/pef_sweep.cpp is the CLI; tests/sweep_shard_test.cpp pins the
// equality against the golden baseline).
//
// Per-cell wall-times are measured for throughput reporting but deliberately
// kept out of the deterministic JSON (batched cells report their share of
// the batch wall-time).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/experiment.hpp"

namespace pef {

/// One fully-run grid cell.
struct SweepCell {
  // Grid coordinates.
  std::string algorithm;
  std::string adversary;
  ExecutionModel model = ExecutionModel::kFsync;
  std::uint32_t nodes = 0;
  std::uint32_t robots = 0;
  std::uint64_t seed = 0;           // the grid seed entry
  std::uint64_t effective_seed = 0; // derived per-cell stream seed
  Time horizon = 0;

  // Deterministic metrics (in the JSON).
  bool perpetual = false;
  bool covered = false;
  Time cover_time = 0;  // valid iff covered
  Time max_revisit_gap = 0;
  Time tower_rounds = 0;
  std::uint64_t tower_formations = 0;
  std::uint64_t total_moves = 0;

  // Fast-forward telemetry, nonzero only when the cycle detector engaged on
  // this cell (spec.fast_forward on an eligible deterministic cell):
  // rounds_covered is the span the statistics describe (== horizon) and
  // rounds_simulated the rounds actually stepped.  Serialized only when
  // engaged so plain sweeps stay byte-identical to pre-fast-forward output.
  Time rounds_covered = 0;
  Time rounds_simulated = 0;

  // Timing (excluded from the deterministic JSON).
  double wall_seconds = 0;
  [[nodiscard]] double rounds_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(horizon) / wall_seconds : 0;
  }
};

/// Append one cell as a JSON object — the single definition of the per-cell
/// JSON shape, shared by full results, shard files and the shard merge.
void sweep_cell_to_json(JsonWriter& json, const SweepCell& cell);

/// Invert sweep_cell_to_json (for the shard merge).  Strict: every field
/// required, unknown keys rejected.
[[nodiscard]] std::optional<SweepCell> sweep_cell_from_json(
    const JsonValue& value, std::string* error);

/// A contiguous slice of the sweep's cell list: shard `index` of `count`
/// runs cells [floor(index*C/count), floor((index+1)*C/count)).  The
/// default is the whole sweep.
struct SweepShard {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
};

struct SweepResult {
  std::vector<SweepCell> cells;  // grid order, independent of thread count
  /// Which slice of the grid `cells` covers (first_cell == 0 and
  /// total_cells == cells.size() for an unsharded run).
  std::uint64_t first_cell = 0;
  std::uint64_t total_cells = 0;
  SweepShard shard;
  /// Canonical JSON of the spec that was run; embedded in shard files so
  /// merge_sweep_shards can refuse to stitch shards of different sweeps.
  std::string spec_json;

  double wall_seconds = 0;
  /// Workers the run started, the calling thread among them: the requested
  /// count capped by the hardware threads and the seed-group count, so 1
  /// for an inline run.
  std::uint32_t threads = 0;

  /// True when a cancel callback stopped the run between seed groups.  The
  /// result is then partial (un-run cells keep default values) and must not
  /// be serialized with to_json()/to_shard_json().
  bool cancelled = false;

  [[nodiscard]] std::uint64_t total_rounds() const;
  [[nodiscard]] double rounds_per_sec() const {
    return wall_seconds > 0
               ? static_cast<double>(total_rounds()) / wall_seconds
               : 0;
  }

  /// Machine-readable per-cell results.  Contains only deterministic fields:
  /// byte-identical for identical specs regardless of thread count.  Aborts
  /// on a partial (sharded) result — write those with to_shard_json().
  [[nodiscard]] std::string to_json() const;

  /// Shard output: the same deterministic cells plus the shard coordinates
  /// merge_sweep_shards() needs to stitch slices back together.
  [[nodiscard]] std::string to_shard_json() const;
};

/// Merge the outputs of N shard runs (each a to_shard_json() document, in
/// any order) into the unsharded to_json() document — byte-identical to
/// running the whole spec in one process.  Returns nullopt (with an
/// actionable message) on missing/duplicate/inconsistent shards.
///
/// When `missing_shards` is non-null it receives the indices of the
/// partition (0..shard_count-1, taken from the given shards' envelopes)
/// that no given file covers — the retry list a shard launcher needs to
/// re-run exactly the lost work (pef_sweep --merge surfaces it as the
/// "missing_shards" JSON field).  Cleared on success.
///
/// When `shard_names` is non-null (parallel to `shard_jsons`, e.g. file
/// paths) error messages name the offending inputs; otherwise they say
/// "shard file <position>".
[[nodiscard]] std::optional<std::string> merge_sweep_shards(
    const std::vector<std::string>& shard_jsons, std::string* error,
    std::vector<std::uint32_t>* missing_shards = nullptr,
    const std::vector<std::string>* shard_names = nullptr);

/// A merge that tolerates missing shards (pef_sweep --merge
/// --allow-partial, and the orchestrator's graceful degradation).
struct ShardMerge {
  /// True when every shard of the partition was present — `json` is then
  /// exactly the merge_sweep_shards() document.
  bool complete = false;
  /// Complete: the canonical unsharded document.  Partial: the documented
  /// degraded shape —
  ///   {"partial": true, "cell_count": P, "total_cells": T,
  ///    "missing_shards": [..], "cells": [...]}
  /// where "cells" has exactly T entries in grid order and every cell of a
  /// missing shard is an explicit `null` (so cell index == array index
  /// survives degradation), and P counts the non-null cells.
  std::string json;
  std::vector<std::uint32_t> missing_shards;  // empty iff complete
};

/// Like merge_sweep_shards() but missing shards degrade the output instead
/// of failing it.  Inconsistent input is still a hard error (nullopt):
/// duplicate shard indices, shards of different sweeps (mismatched spec),
/// disagreeing partition envelopes, out-of-range indices, and slices that
/// do not sit where the partition formula puts them — all named by file.
[[nodiscard]] std::optional<ShardMerge> merge_sweep_shards_partial(
    const std::vector<std::string>& shard_jsons, std::string* error,
    const std::vector<std::string>* shard_names = nullptr);

/// Number of grid cells the spec enumerates (k >= n pairs are skipped) —
/// the progress denominator a serving layer can report before running.
[[nodiscard]] std::uint64_t count_sweep_cells(const SweepSpec& spec);

/// The per-cell stream seed: mixes the grid seed entry with every coordinate
/// index so distinct cells never share an RNG stream, and a cell's stream is
/// a pure function of its coordinates (thread-count independent).
[[nodiscard]] std::uint64_t effective_seed(std::uint64_t grid_seed,
                                           std::size_t algorithm_index,
                                           std::size_t adversary_index,
                                           std::uint32_t nodes,
                                           std::uint32_t robots,
                                           std::size_t model_index = 0);

class SweepRunner {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency().
  /// `engine_threads` is the intra-cell worker count handed to each
  /// BatchEngine (1 = serial batches, 0 = one per physical core); results
  /// are bit-identical at any value — it only matters when the grid is
  /// narrower than the machine.
  explicit SweepRunner(std::uint32_t threads = 0,
                       std::uint32_t engine_threads = 1);

  [[nodiscard]] std::uint32_t threads() const { return threads_; }
  [[nodiscard]] std::uint32_t engine_threads() const {
    return engine_threads_;
  }

  /// Progress observer: invoked after each completed seed group with the
  /// cumulative number of finished cells, the shard's cell total, and the
  /// wall seconds the group just took.  Called from worker threads, the
  /// calling thread among them (under no lock), so implementations must be
  /// thread-safe; `done` is monotone per call site but calls may interleave
  /// out of order across groups, so a caller reporting it keeps the maximum.
  using ProgressFn = std::function<void(
      std::uint64_t done, std::uint64_t total, double group_wall_seconds)>;

  /// Cooperative cancellation: polled between seed groups (never inside an
  /// engine run, so cells finish whole).  Return true to stop the sweep —
  /// the result comes back with `cancelled` set.  Called from worker
  /// threads; must be thread-safe (an atomic flag read is the intended
  /// shape).
  using CancelFn = std::function<bool()>;

  /// Run the spec's cells — all of them, or one contiguous shard.  Blocks
  /// until done.  Aborts on specs that fail validate().  An exception from
  /// a cell stops every worker at its next group and is rethrown here once
  /// they have all joined.  The progress observer is purely informational:
  /// results are byte-identical with or without it.
  [[nodiscard]] SweepResult run(const SweepSpec& spec, SweepShard shard = {},
                                const ProgressFn& progress = nullptr,
                                const CancelFn& cancel = nullptr) const;

 private:
  std::uint32_t threads_;
  std::uint32_t engine_threads_;
};

}  // namespace pef
