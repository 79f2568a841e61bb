// bench_scaling — throughput of the engines that run the paper's
// reproductions at scale, written to BENCH_scaling.json:
//
//   * head-to-head: the reference Simulator vs the unified Engine at
//     n=4096, k=64, static schedule, no trace (fast_engine_speedup);
//   * batch throughput, per execution model: BatchEngine aggregate
//     replica-rounds/sec vs per-seed Engines at n=1024, k=16 (FSYNC at B in
//     {1, 4, 16, 64, 256}; SSYNC/ASYNC, under Bernoulli activation, at B in
//     {1, 16, 256}), and whether every replica's stats match its solo
//     Engine's;
//   * intra-cell threads: one B=256 FSYNC batch on 1 vs up to 4 workers;
//   * cycle fast-forward: one 1e6-round deterministic cell, plain vs the
//     periodicity detector;
//   * SweepRunner on a fixed grid, 1 thread vs 4, with a byte-identity
//     check of the two JSON outputs.
//
// The bench only measures.  bench/gates.json holds the bar each summary
// key must clear and why; bench/check_gates.py judges runs against it
// (CI's bench-smoke job: five --smoke runs, each numeric row on their
// median).  --smoke shrinks every series to CI-sized parameters.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/sweep_runner.hpp"
#include "engine/topology.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

/// Set by --smoke in main.
bool smoke_mode = false;

// ---------------------------------------------------------------------------
// Head-to-head: the reference Simulator vs the production Engine.

double measure_simulator_rps(std::uint32_t n, std::uint32_t k, Time rounds) {
  const Ring ring(n);
  SimulatorOptions options;
  options.record_trace = false;
  Simulator sim(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, k), options);
  const auto start = std::chrono::steady_clock::now();
  sim.run(rounds);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return static_cast<double>(rounds) / secs;
}

double measure_engine_rps(std::uint32_t n, std::uint32_t k, Time rounds) {
  const Ring ring(n);
  Engine engine(ring, make_algorithm("pef3+"),
                make_oblivious(std::make_shared<StaticSchedule>(ring)),
                spread_placements(ring, k));
  const auto start = std::chrono::steady_clock::now();
  engine.run(rounds);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return static_cast<double>(rounds) / secs;
}

SweepSpec scaling_grid() {
  SweepSpec spec;
  spec.algorithms = {"pef3+", "bounce", "keep-direction"};
  spec.adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
      adversary_config(AdversaryKind::kBoundedAbsence, {{"max_absence", 6}})};
  spec.ring_sizes = {16, 64};
  spec.robot_counts = {3, 8};
  spec.seeds = {1, 2, 3, 4};
  spec.horizon = 4000;
  return spec;
}

void head_to_head(BenchReport& report) {
  const std::uint32_t kNodes = smoke_mode ? 512 : 4096;
  const std::uint32_t kRobots = smoke_mode ? 16 : 64;
  const Time kSimRounds = smoke_mode ? 2000 : 4000;
  const Time kFastRounds = smoke_mode ? 10000 : 40000;

  std::cout << "\n=== Head to head: Simulator vs Engine (n=" << kNodes
            << ", k=" << kRobots << ", static schedule, no trace) ===\n";
  const double sim_rps = measure_simulator_rps(kNodes, kRobots, kSimRounds);
  // Best of 5: a single sample on a loaded box can swing ~20-30%.
  double engine_rps = 0;
  for (int rep = 0; rep < 5; ++rep) {
    engine_rps =
        std::max(engine_rps, measure_engine_rps(kNodes, kRobots, kFastRounds));
  }
  const double speedup = engine_rps / sim_rps;
  std::cout << "Simulator: " << static_cast<std::uint64_t>(sim_rps)
            << " rounds/sec\n"
            << "Engine:    " << static_cast<std::uint64_t>(engine_rps)
            << " rounds/sec (" << speedup << "x vs Simulator)\n";

  report.add_rounds(kSimRounds + 5 * kFastRounds);
  report.add_cell()
      .param("series", "head-to-head")
      .param("n", std::uint64_t{kNodes})
      .param("k", std::uint64_t{kRobots})
      .param("schedule", "static")
      .metric("simulator_rounds_per_sec", sim_rps)
      .metric("fast_engine_rounds_per_sec", engine_rps)
      .metric("speedup", speedup);
  report.summary("fast_engine_speedup", speedup);
}

// ---------------------------------------------------------------------------
// Batch throughput: BatchEngine vs per-seed Engines, on ALL THREE models.
// FSYNC exercises the fused AllFull pass; SSYNC/ASYNC exercise the batched
// round prologue (devirtualized Bernoulli activation kernels over the mask
// word planes, schedule-filled edge rows, no mirrors) against solo Engines
// paying the per-replica virtual prologue.

constexpr double kBatchActivationP = 0.5;  // the SweepSpec / CLI default

/// The shared replica scenario of the batch series: pef3+ kernel, static
/// schedule, per-seed random placements, standard model wiring (the same
/// wiring SweepRunner and pef_run --batch use).
BatchReplica batch_replica(const Ring& ring, ExecutionModel model,
                           std::uint32_t robots, std::uint64_t seed,
                           Time rounds) {
  BatchReplica replica;
  replica.algorithm = make_algorithm("pef3+", seed);
  replica.placements = random_placements(ring, robots, seed);
  replica.horizon = rounds;
  wire_standard_replica(replica, model,
                        make_oblivious(std::make_shared<StaticSchedule>(ring)),
                        kBatchActivationP, seed);
  return replica;
}

/// One solo Engine of the same scenario (the per-seed baseline and the
/// bit-identity twin); returns its stats.
EngineStats run_solo_engine(const Ring& ring, ExecutionModel model,
                            std::uint32_t robots, std::uint64_t seed,
                            Time rounds) {
  Engine engine = make_standard_engine(
      ring, model, make_algorithm("pef3+", seed),
      make_oblivious(std::make_shared<StaticSchedule>(ring)),
      random_placements(ring, robots, seed), kBatchActivationP, seed);
  engine.run(rounds);
  return engine.stats();
}

double measure_per_seed_rps(const Ring& ring, ExecutionModel model,
                            std::uint32_t robots, std::uint32_t batch,
                            Time rounds) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t b = 0; b < batch; ++b) {
    run_solo_engine(ring, model, robots, b + 1, rounds);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return static_cast<double>(rounds) * batch / secs;
}

double measure_batch_rps(const Ring& ring, ExecutionModel model,
                         std::uint32_t robots, std::uint32_t batch,
                         Time rounds, bool* bit_identical,
                         std::uint32_t threads = 1) {
  std::vector<BatchReplica> replicas;
  replicas.reserve(batch);
  for (std::uint32_t b = 0; b < batch; ++b) {
    replicas.push_back(batch_replica(ring, model, robots, b + 1, rounds));
  }
  const auto start = std::chrono::steady_clock::now();
  BatchEngineOptions options;
  options.threads = threads;
  BatchEngine engine(ring, model, std::move(replicas), options);
  engine.run_all();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (bit_identical != nullptr) {
    // Spot-check the bit-identity contract (the full pin is
    // tests/batch_engine_test.cpp): every replica's stats must equal its
    // solo Engine twin's.
    for (std::uint32_t b = 0; b < batch && *bit_identical; ++b) {
      const EngineStats e = run_solo_engine(ring, model, robots, b + 1, rounds);
      const EngineStats& a = engine.stats(b);
      *bit_identical = a.rounds == e.rounds &&
                       a.total_moves == e.total_moves &&
                       a.tower_rounds == e.tower_rounds &&
                       a.visited_node_count == e.visited_node_count &&
                       a.cover_time == e.cover_time;
    }
  }
  return static_cast<double>(rounds) * batch / secs;
}

void batch_throughput(BenchReport& report) {
  const std::uint32_t kRobots = 16;
  const Time kRounds = smoke_mode ? 10000 : 40000;
  constexpr int kReps = 3;

  bool all_identical = true;
  double fsync_speedup_at_16 = 0;
  double ssync_speedup_at_16 = 0;
  double async_speedup_at_16 = 0;
  double fsync_speedup_at_64 = 0;
  double fsync_speedup_at_256 = 0;
  double fsync_batch_rps_at_64 = 0;
  double fsync_batch_rps_at_256 = 0;
  for (const ExecutionModel model :
       {ExecutionModel::kFsync, ExecutionModel::kSsync,
        ExecutionModel::kAsync}) {
    // FSYNC keeps its historical B sweep plus the wide B=256 point (the
    // cache-tiled regime); the non-FSYNC series bracket the B=16 and B=256
    // points (their per-seed baselines are slower, so the full sweep would
    // dominate the bench's wall time).
    const std::vector<std::uint32_t> batches =
        model == ExecutionModel::kFsync
            ? (smoke_mode ? std::vector<std::uint32_t>{1, 16, 64, 256}
                          : std::vector<std::uint32_t>{1, 4, 16, 64, 256})
            : (smoke_mode ? std::vector<std::uint32_t>{1, 16}
                          : std::vector<std::uint32_t>{1, 16, 256});
    std::cout << "\n=== Batch throughput [" << to_string(model)
              << "]: BatchEngine vs per-seed Engines (k=" << kRobots
              << ", pef3+ kernel, static schedule"
              << (model == ExecutionModel::kFsync
                      ? ""
                      : ", Bernoulli(p=0.5) activation")
              << ", aggregate replica-rounds/sec) ===\n";
    for (const std::uint32_t batch : batches) {
      // B=64 and B=256 run at n=1024 even under --smoke: only there do 256
      // lanes' visit rows outgrow the tile budget, so only there does the
      // B=256 point run tiled (at n=256 one tile holds every lane).
      const std::uint32_t nodes = smoke_mode && batch < 64 ? 256 : 1024;
      const Ring ring(nodes);
      double per_seed_rps = 0;
      double batch_rps = 0;
      bool bit_identical = true;
      for (int rep = 0; rep < kReps; ++rep) {
        per_seed_rps = std::max(
            per_seed_rps,
            measure_per_seed_rps(ring, model, kRobots, batch, kRounds));
        batch_rps = std::max(
            batch_rps,
            measure_batch_rps(ring, model, kRobots, batch, kRounds,
                              rep == 0 ? &bit_identical : nullptr));
      }
      const double speedup = batch_rps / per_seed_rps;
      if (batch == 16) {
        switch (model) {
          case ExecutionModel::kFsync:
            fsync_speedup_at_16 = speedup;
            break;
          case ExecutionModel::kSsync:
            ssync_speedup_at_16 = speedup;
            break;
          case ExecutionModel::kAsync:
            async_speedup_at_16 = speedup;
            break;
        }
      }
      if (model == ExecutionModel::kFsync && batch == 64) {
        fsync_speedup_at_64 = speedup;
        fsync_batch_rps_at_64 = batch_rps;
      }
      if (model == ExecutionModel::kFsync && batch == 256) {
        fsync_speedup_at_256 = speedup;
        fsync_batch_rps_at_256 = batch_rps;
      }
      all_identical = all_identical && bit_identical;
      std::cout << "B=" << batch << " (n=" << nodes << "): per-seed "
                << static_cast<std::uint64_t>(per_seed_rps)
                << " rounds/sec, batch "
                << static_cast<std::uint64_t>(batch_rps) << " rounds/sec ("
                << speedup << "x, stats identical: "
                << (bit_identical ? "yes" : "NO") << ")\n";
      report.add_rounds(2 * kReps * kRounds * batch);
      report.add_cell()
          .param("series", "batch-throughput")
          .param("model", to_string(model))
          .param("n", std::uint64_t{nodes})
          .param("k", std::uint64_t{kRobots})
          .param("batch", std::uint64_t{batch})
          .metric("per_seed_rounds_per_sec", per_seed_rps)
          .metric("batch_rounds_per_sec", batch_rps)
          .metric("batch_speedup_over_per_seed", speedup)
          .metric("stats_identical", bit_identical);
    }
  }
  report.summary("batch_speedup_over_per_seed", fsync_speedup_at_16);
  report.summary("batch_speedup_ssync", ssync_speedup_at_16);
  report.summary("batch_speedup_async", async_speedup_at_16);
  report.summary("batch_stats_identical", all_identical);
  report.summary("batch_speedup_b64", fsync_speedup_at_64);
  report.summary("batch_speedup_b256", fsync_speedup_at_256);
  // Both points run the same solo baseline (n=1024, k=16), so B=256 holds
  // B=64's speedup iff it holds B=64's batch rate; comparing the rates
  // keeps that baseline's drift out of the ratio (the per-seed rate of the
  // two points differed by up to 1.6x within one run on a shared host).
  report.summary("batch_b256_over_b64",
                 fsync_batch_rps_at_256 / fsync_batch_rps_at_64);
}

// ---------------------------------------------------------------------------
// Intra-cell thread scaling: one wide FSYNC batch, replica blocks split
// across a pinned WorkerTeam of up to 4 threads (at least 2, so the
// identity check runs a team even on one core).

void intra_cell_threads(BenchReport& report) {
  const std::uint32_t kNodes = smoke_mode ? 256 : 1024;
  const std::uint32_t kRobots = 16;
  const std::uint32_t kBatch = 256;
  const Time kRounds = smoke_mode ? 4000 : 20000;
  constexpr int kReps = 3;

  const HwTopology& topo = HwTopology::detect();
  const std::uint32_t team = std::min<std::uint32_t>(
      4, std::max<std::uint32_t>(2, topo.physical_cores));

  std::cout << "\n=== Intra-cell thread scaling [fsync]: one B=" << kBatch
            << " batch, 1 vs " << team << " worker threads (n=" << kNodes
            << ", k=" << kRobots << ", " << topo.physical_cores
            << " physical cores) ===\n";

  const Ring ring(kNodes);
  double serial_rps = 0;
  double threaded_rps = 0;
  bool identical = true;
  for (int rep = 0; rep < kReps; ++rep) {
    serial_rps = std::max(
        serial_rps, measure_batch_rps(ring, ExecutionModel::kFsync, kRobots,
                                      kBatch, kRounds, nullptr, 1));
    threaded_rps = std::max(
        threaded_rps,
        measure_batch_rps(ring, ExecutionModel::kFsync, kRobots, kBatch,
                          kRounds, rep == 0 ? &identical : nullptr, team));
  }
  const double scaling = serial_rps > 0 ? threaded_rps / serial_rps : 0;
  std::cout << "1 thread:  " << static_cast<std::uint64_t>(serial_rps)
            << " replica-rounds/sec\n"
            << team << " threads: "
            << static_cast<std::uint64_t>(threaded_rps)
            << " replica-rounds/sec (" << scaling
            << "x; stats identical to serial: " << (identical ? "yes" : "NO")
            << ")\n";

  report.add_rounds(2 * kReps * kRounds * kBatch);
  report.add_cell()
      .param("series", "intra-cell-threads")
      .param("model", "fsync")
      .param("n", std::uint64_t{kNodes})
      .param("k", std::uint64_t{kRobots})
      .param("batch", std::uint64_t{kBatch})
      .param("threads", std::uint64_t{team})
      .param("physical_cores", std::uint64_t{topo.physical_cores})
      .metric("serial_rounds_per_sec", serial_rps)
      .metric("threaded_rounds_per_sec", threaded_rps)
      .metric("thread_scaling", scaling)
      .metric("stats_identical", identical);
  report.summary("intra_cell_thread_scaling", scaling);
  report.summary("intra_cell_threads_identical", identical);
}

// ---------------------------------------------------------------------------
// Cycle fast-forward: one long-horizon deterministic FSYNC cell, plain vs
// the cycle detector: every statistic must match, and the wall-clock ratio
// is the point of the feature (O(period) instead of O(horizon)).  The
// horizon stays at 1e6 even under --smoke: the plain run is milliseconds,
// and a shorter one would shrink the ratio being measured.

void cycle_fastforward(BenchReport& report) {
  std::cout << "\n=== Cycle fast-forward (plain vs detector, 1e6-round "
               "cell) ===\n";
  const std::uint32_t kNodes = 16;
  const std::uint32_t kRobots = 3;
  const Time kHorizon = 1'000'000;
  const Ring ring(kNodes);
  const auto build = [&](bool fast_forward) {
    EngineOptions options;
    options.fast_forward.enabled = fast_forward;
    return Engine(ring, make_algorithm("pef3+", 7),
                  std::make_unique<ObliviousAdversary>(
                      std::make_shared<PeriodicSchedule>(
                          PeriodicSchedule::rotating(ring, 3, 2))),
                  spread_placements(ring, kRobots), options);
  };

  // min-of-3 walls: the fast-forwarded run is microseconds, so single
  // samples are all noise.
  constexpr int kReps = 3;
  double plain_wall = 1e100;
  double ff_wall = 1e100;
  EngineStats a, b;
  CoverageReport ca, cb;
  Time rounds_simulated = 0;
  Time detected_period = 0;
  bool engaged = false;
  for (int rep = 0; rep < kReps; ++rep) {
    Engine plain = build(false);
    auto start = std::chrono::steady_clock::now();
    plain.run(kHorizon);
    plain_wall = std::min(
        plain_wall, std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    b = plain.stats();
    cb = plain.coverage_report();

    Engine ff = build(true);
    start = std::chrono::steady_clock::now();
    ff.run(kHorizon);
    ff_wall = std::min(ff_wall, std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
    a = ff.stats();
    ca = ff.coverage_report();
    rounds_simulated = ff.rounds_simulated();
    detected_period = ff.detected_period();
    engaged = ff.fast_forwarded();
  }
  const bool identical =
      a.rounds == b.rounds && a.total_moves == b.total_moves &&
      a.tower_rounds == b.tower_rounds &&
      a.tower_formations == b.tower_formations &&
      a.visited_node_count == b.visited_node_count &&
      a.cover_time == b.cover_time && ca.visit_counts == cb.visit_counts &&
      ca.max_revisit_gap == cb.max_revisit_gap &&
      ca.max_closed_gap == cb.max_closed_gap;
  const double speedup = ff_wall > 0 ? plain_wall / ff_wall : 0;

  std::cout << "plain:        " << plain_wall << " s (" << kHorizon
            << " rounds)\n"
            << "fast-forward: " << ff_wall << " s (" << rounds_simulated
            << " rounds simulated, period " << detected_period << ")\n"
            << "speedup: " << speedup << "x\n"
            << "bit-identical stats: " << (identical ? "yes" : "NO") << "\n";

  report.add_rounds(kReps * (kHorizon + rounds_simulated));
  report.add_cell()
      .param("series", "cycle-fastforward")
      .param("n", std::uint64_t{kNodes})
      .param("k", std::uint64_t{kRobots})
      .param("horizon", static_cast<std::uint64_t>(kHorizon))
      .metric("plain_wall_seconds", plain_wall)
      .metric("fastforward_wall_seconds", ff_wall)
      .metric("rounds_simulated", static_cast<std::uint64_t>(rounds_simulated))
      .metric("detected_period", static_cast<std::uint64_t>(detected_period))
      .metric("speedup", speedup)
      .metric("bit_identical", identical);
  report.summary("fastforward_speedup", speedup);
  report.summary("fastforward_bit_identical", identical);
  report.summary("fastforward_engaged", engaged);
}

void sweep_scaling(BenchReport& report) {
  std::cout << "\n=== SweepRunner thread scaling (same grid, 1 vs 4 "
               "threads) ===\n";
  SweepSpec spec = scaling_grid();
  // The grid's 36 seed groups keep 4 workers busy at either horizon, so
  // the smoke run's bit-identity check compares a pooled run with a serial
  // one too; the full horizon makes the wall-time ratio meaningful.
  // Single-core boxes clamp to one worker and the ratio hovers at 1.0 by
  // construction.
  spec.horizon = smoke_mode ? 1000 : 20000;
  const SweepResult serial = SweepRunner(1).run(spec);
  const SweepResult parallel = SweepRunner(4).run(spec);
  const bool identical = serial.to_json() == parallel.to_json();
  const double ratio = serial.wall_seconds > 0
                           ? parallel.wall_seconds / serial.wall_seconds
                           : 0;
  std::cout << "cells: " << serial.cells.size() << "\n"
            << "1 thread:  " << serial.wall_seconds << " s ("
            << static_cast<std::uint64_t>(serial.rounds_per_sec())
            << " rounds/sec)\n"
            << "4 threads: " << parallel.wall_seconds << " s on "
            << parallel.threads << " workers ("
            << static_cast<std::uint64_t>(parallel.rounds_per_sec())
            << " rounds/sec)\n"
            << "wall-time ratio: " << ratio << "\n"
            << "bit-identical JSON: " << (identical ? "yes" : "NO") << "\n";

  report.add_rounds(serial.total_rounds() + parallel.total_rounds());
  std::uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  report.add_cell()
      .param("series", "sweep-thread-scaling")
      .param("cells", static_cast<std::uint64_t>(serial.cells.size()))
      .param("hardware_threads", std::uint64_t{hardware})
      .param("parallel_workers", std::uint64_t{parallel.threads})
      .metric("serial_wall_seconds", serial.wall_seconds)
      .metric("parallel_wall_seconds", parallel.wall_seconds)
      .metric("parallel_over_serial", ratio)
      .metric("json_bit_identical", identical);
  report.summary("sweep_json_bit_identical", identical);
}

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  pef::ArgParser args(argc, argv);
  pef::smoke_mode = args.has("--smoke");
  args.check_unused();

  pef::BenchReport report("scaling");
  pef::head_to_head(report);
  pef::batch_throughput(report);
  pef::intra_cell_threads(report);
  pef::cycle_fastforward(report);
  pef::sweep_scaling(report);
  return report.write() ? 0 : 2;
}
