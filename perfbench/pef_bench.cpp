// pef_bench — the in-process half of the end-to-end benchmark.
//
// perfbench/run.py times the real binaries (pef_sweep, pef_serve,
// pef_client) from outside; this program links the same libpef.a and does
// the parts that need the library's public API:
//
//   pef_bench fingerprint
//       nproc, physical cores and the batch ISA tier, as one JSON line.
//   pef_bench reference --spec FILE --out FILE
//       the reference bytes: SweepRunner(1 thread).run(spec).to_json().
//   pef_bench replay --spec FILE --threads T --spans FILE --cache-dir DIR
//       the traced per-layer replay of one spec (see replay() below).
//   pef_bench serve-load --socket PATH --hot A,B,.. --fresh FILE
//                        --fresh-base N --seconds S --seed N --trace 0|1
//                        --out FILE [--spans FILE]
//       closed-loop load on a running pef_serve through serve::Client.
//
// Spans are recorded from here, around calls into each layer, kept in
// memory and written out when the command ends.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.hpp"
#include "common/args.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/spec.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/sweep_runner.hpp"
#include "engine/topology.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"

#ifndef PEF_BENCH_COMPILER
#define PEF_BENCH_COMPILER "unknown"
#endif

namespace pef::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

[[noreturn]] void die(const std::string& message) {
  std::cerr << "pef_bench: " << message << "\n";
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::string error;
  auto text = read_text_input(path, &error);
  if (!text) die(error);
  return *text;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out.good()) die("cannot write " + path);
}

SweepSpec parse_spec(const std::string& text) {
  std::string error;
  auto spec = parse_sweep_spec(text, &error);
  if (!spec) die("spec: " + error);
  if (const auto invalid = spec->validate()) die("spec: " + *invalid);
  return *spec;
}

std::string reference_json(const SweepSpec& spec) {
  return SweepRunner(1).run(spec).to_json();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  double start = 0;  // seconds since the tracer was created
  double end = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Thread-safe in-memory span log.  A tracer made with record = false reads
/// no clock and keeps nothing (its spans last 0 s): the baseline against
/// which the tracing overhead is measured.
class Tracer {
 public:
  explicit Tracer(bool record = true) : record_(record) {}

  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t request) {
    if (!record_) return -1;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Close span `id`; returns its duration.
  double close(std::int64_t id) {
    if (id < 0) return 0;
    const double now = elapsed();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = now;
    return span.end - span.start;
  }

  /// Self time per span name: duration minus the time its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double own = spans_[i].end - spans_[i].start - child[i];
      self[spans_[i].name] += std::max(0.0, own);
    }
    return self;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json;
    json.begin_array();
    for (const Span& span : spans_) {
      json.begin_object();
      json.field("name", span.name);
      json.field("start", span.start);
      json.field("end", span.end);
      json.field("parent", static_cast<std::int64_t>(span.parent));
      json.field("request", span.request);
      json.end_object();
    }
    json.end_array();
    write_file(path, json.str());
  }

 private:
  [[nodiscard]] double elapsed() const {
    return seconds_between(epoch_, Clock::now());
  }

  const bool record_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// One span, closed by finish() or at scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent = -1,
        std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Scope() { finish(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double finish() {
    if (!done_) {
      seconds_ = tracer_.close(id_);
      done_ = true;
    }
    return seconds_;
  }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  bool done_ = false;
  double seconds_ = 0;
};

/// Metric name -> value, printed as one JSON object.
using Metrics = std::vector<std::pair<std::string, double>>;

std::string metrics_json(const Metrics& metrics) {
  JsonWriter json;
  json.begin_object();
  for (const auto& [name, value] : metrics) json.field(name, value);
  json.end_object();
  return json.str();
}

// ---------------------------------------------------------------------------
// fingerprint

/// The batch ISA tier BatchEngine selects: the widest the CPU supports,
/// clamped by PEF_BATCH_ISA (the engine does not export its choice, so
/// this repeats its rule).
const char* batch_isa_tier() {
  int tier = 0;
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  if (__builtin_cpu_supports("avx2")) tier = 1;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    tier = 2;
  }
  if (const char* env = std::getenv("PEF_BATCH_ISA")) {
    int cap = tier;
    if (std::strcmp(env, "portable") == 0) cap = 0;
    if (std::strcmp(env, "avx2") == 0) cap = 1;
    if (std::strcmp(env, "avx512") == 0) cap = 2;
    tier = std::min(tier, cap);
  }
#endif
  static const char* const kNames[] = {"portable", "avx2", "avx512"};
  return kNames[tier];
}

int fingerprint() {
  JsonWriter json;
  json.begin_object();
  json.field("nproc", std::thread::hardware_concurrency());
  json.field("physical_cores", HwTopology::detect().physical_cores);
  json.field("batch_isa", batch_isa_tier());
  json.field("compiler", PEF_BENCH_COMPILER);
  json.end_object();
  std::cout << json.str() << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// replay
//
// Re-executes one spec through the public entry points SweepRunner uses —
// effective_seed, plan_batch, adversary_from_config, wire_standard_replica,
// Engine and BatchEngine — one seed group at a time on one thread, timing
// each call.  The replayed cells must serialize byte-identically to
// SweepRunner::run on the same spec, or the replay does not measure the
// program and the command fails.

struct Task {
  std::size_t algorithm = 0;
  std::size_t adversary = 0;
  std::size_t model = 0;
  std::uint32_t nodes = 0;
  std::uint32_t robots = 0;
  std::uint64_t seed = 0;
};

/// Grid cells in SweepRunner's order (k >= n pairs skipped).
std::vector<Task> enumerate_tasks(const SweepSpec& spec) {
  std::vector<Task> tasks;
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    for (std::size_t d = 0; d < spec.adversaries.size(); ++d) {
      for (std::size_t m = 0; m < spec.models.size(); ++m) {
        for (const std::uint32_t n : spec.ring_sizes) {
          for (const std::uint32_t k : spec.robot_counts) {
            if (k == 0 || k >= n) continue;
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

bool same_group(const Task& a, const Task& b) {
  return a.algorithm == b.algorithm && a.adversary == b.adversary &&
         a.model == b.model && a.nodes == b.nodes && a.robots == b.robots;
}

const char* adversary_kind_name(const SweepSpec& spec, const Task& task) {
  return adversary_kind_info(spec.adversaries[task.adversary].kind).name;
}

SweepCell cell_coordinates(const SweepSpec& spec, const Task& task) {
  SweepCell cell;
  cell.algorithm = spec.algorithms[task.algorithm];
  cell.adversary = adversary_display_name(spec.adversaries[task.adversary]);
  cell.model = spec.models[task.model];
  cell.nodes = task.nodes;
  cell.robots = task.robots;
  cell.seed = task.seed;
  cell.effective_seed = effective_seed(task.seed, task.algorithm,
                                       task.adversary, task.nodes,
                                       task.robots, task.model);
  cell.horizon = spec.horizon_for(task.nodes);
  return cell;
}

void cell_metrics(const EngineStats& stats, const CoverageReport& coverage,
                  SweepCell& cell) {
  cell.perpetual = coverage.perpetual(cell.nodes);
  cell.covered = coverage.cover_time.has_value();
  cell.cover_time = coverage.cover_time.value_or(0);
  cell.max_revisit_gap = coverage.max_revisit_gap;
  cell.tower_rounds = stats.tower_rounds;
  cell.tower_formations = stats.tower_formations;
  cell.total_moves = stats.total_moves;
}

std::vector<RobotPlacement> cell_placements(const SweepSpec& spec,
                                            const Ring& ring,
                                            const SweepCell& cell) {
  return spec.random_placements
             ? random_placements(ring, cell.robots,
                                 derive_seed(cell.effective_seed, 0x91ace))
             : spread_placements(ring, cell.robots);
}

struct ReplayTotals {
  std::uint64_t engine_cells = 0;
  double engine_construct_s = 0;
  double engine_run_s = 0;
  std::uint64_t batch_groups = 0;
  std::uint64_t batch_replicas = 0;
  double batch_construct_s = 0;
  double batch_run_s = 0;
  std::uint64_t batch_replica_rounds = 0;  // rounds actually stepped
  std::map<std::string, double> adversary_run_s;  // by adversary kind
  std::uint64_t ff_cells = 0;
  std::uint64_t ff_covered = 0;
  std::uint64_t ff_simulated = 0;
  std::uint64_t ff_max_period = 0;

  void count_ff(bool engaged, Time covered, Time simulated, Time period) {
    if (!engaged) return;
    ++ff_cells;
    ff_covered += covered;
    ff_simulated += simulated;
    ff_max_period = std::max<std::uint64_t>(ff_max_period, period);
  }
};

AdversaryPtr make_adversary(Tracer& tracer, std::int64_t parent,
                            const SweepSpec& spec, const Task& task,
                            const Ring& ring, const SweepCell& cell) {
  Scope span(tracer, "adversary.make", parent);
  return adversary_from_config(spec.adversaries[task.adversary], ring,
                               cell.effective_seed, task.robots,
                               spec.topology);
}

SweepCell replay_solo(Tracer& tracer, std::int64_t parent,
                      const SweepSpec& spec, const Task& task,
                      ReplayTotals& totals) {
  SweepCell cell = cell_coordinates(spec, task);
  const Ring ring(task.nodes);
  const auto placements = cell_placements(spec, ring, cell);
  AlgorithmPtr algorithm = make_algorithm(cell.algorithm, cell.effective_seed);
  AdversaryPtr adversary =
      make_adversary(tracer, parent, spec, task, ring, cell);
  EngineOptions options;
  options.fast_forward.enabled = spec.fast_forward;

  Scope construct(tracer, "engine.construct", parent);
  std::optional<Engine> engine;
  switch (cell.model) {
    case ExecutionModel::kFsync:
      engine.emplace(ring, std::move(algorithm), std::move(adversary),
                     placements, options);
      break;
    case ExecutionModel::kSsync:
      engine.emplace(
          ring, std::move(algorithm),
          std::make_unique<SsyncFromFsyncAdversary>(std::move(adversary)),
          standard_ssync_activation(spec.activation_p, cell.effective_seed),
          placements, options);
      break;
    case ExecutionModel::kAsync:
      engine.emplace(
          ring, std::move(algorithm),
          std::make_unique<SsyncFromFsyncAdversary>(std::move(adversary)),
          standard_async_phases(spec.activation_p, cell.effective_seed),
          placements, options);
      break;
  }
  const double construct_s = construct.finish();
  Scope run(tracer, "engine.run", parent);
  engine->run(cell.horizon);
  const double run_s = run.finish();

  cell_metrics(engine->stats(), engine->coverage_report(), cell);
  if (engine->fast_forwarded()) {
    cell.rounds_covered = cell.horizon;
    cell.rounds_simulated = engine->rounds_simulated();
  }
  totals.count_ff(engine->fast_forwarded(), cell.horizon,
                  engine->rounds_simulated(), engine->detected_period());
  ++totals.engine_cells;
  totals.engine_construct_s += construct_s;
  totals.engine_run_s += run_s;
  totals.adversary_run_s[adversary_kind_name(spec, task)] +=
      construct_s + run_s;
  return cell;
}

void replay_batch(Tracer& tracer, std::int64_t parent, const SweepSpec& spec,
                  const Task* tasks, std::uint32_t count, SweepCell* cells,
                  ReplayTotals& totals) {
  const Ring ring(tasks[0].nodes);
  const ExecutionModel model = spec.models[tasks[0].model];
  std::vector<BatchReplica> replicas(count);
  for (std::uint32_t b = 0; b < count; ++b) {
    SweepCell& cell = cells[b];
    cell = cell_coordinates(spec, tasks[b]);
    BatchReplica& replica = replicas[b];
    replica.algorithm = make_algorithm(cell.algorithm, cell.effective_seed);
    replica.placements = cell_placements(spec, ring, cell);
    replica.horizon = cell.horizon;
    wire_standard_replica(
        replica, model,
        make_adversary(tracer, parent, spec, tasks[b], ring, cell),
        spec.activation_p, cell.effective_seed);
  }

  Scope construct(tracer, "batch_engine.construct", parent);
  BatchEngineOptions options;
  options.fast_forward.enabled = spec.fast_forward;
  BatchEngine engine(ring, model, std::move(replicas), options);
  const double construct_s = construct.finish();
  Scope run(tracer, "batch_engine.run", parent);
  engine.run_all();
  const double run_s = run.finish();

  for (std::uint32_t b = 0; b < count; ++b) {
    SweepCell& cell = cells[b];
    cell_metrics(engine.stats(b), engine.coverage_report(b), cell);
    if (engine.fast_forwarded(b)) {
      cell.rounds_covered = cell.horizon;
      cell.rounds_simulated = engine.rounds_simulated(b);
    }
    totals.count_ff(engine.fast_forwarded(b), cell.horizon,
                    engine.rounds_simulated(b), engine.detected_period(b));
    totals.batch_replica_rounds += engine.rounds_simulated(b);
  }
  ++totals.batch_groups;
  totals.batch_replicas += count;
  totals.batch_construct_s += construct_s;
  totals.batch_run_s += run_s;
  totals.adversary_run_s[adversary_kind_name(spec, tasks[0])] +=
      construct_s + run_s;
}

/// Every cell of `spec`, replayed seed group by seed group.
std::vector<SweepCell> replay_cells(Tracer& tracer, const SweepSpec& spec,
                                    const std::vector<Task>& tasks,
                                    ReplayTotals& totals) {
  Scope root(tracer, "replay");
  std::vector<std::uint8_t> has_kernel(spec.algorithms.size());
  for (std::size_t a = 0; a < spec.algorithms.size(); ++a) {
    has_kernel[a] = make_algorithm(spec.algorithms[a], 0)->kernel() ? 1 : 0;
  }
  std::vector<SweepCell> cells(tasks.size());
  for (std::size_t first = 0; first < tasks.size();) {
    std::size_t end = first + 1;
    while (end < tasks.size() && same_group(tasks[first], tasks[end])) ++end;
    const auto count = static_cast<std::uint32_t>(end - first);
    const Task& head = tasks[first];
    Scope group(tracer, "replay.group", root.id());

    const bool batchable =
        spec.batch_seeds && count > 1 && has_kernel[head.algorithm] != 0;
    const BatchPlan plan =
        batchable ? plan_batch(spec.models[head.model], head.nodes,
                               head.robots, count, spec.max_batch)
                  : BatchPlan{};
    if (plan.use_batch()) {
      for (std::uint32_t off = 0; off < count; off += plan.width) {
        const std::uint32_t width = std::min(plan.width, count - off);
        replay_batch(tracer, group.id(), spec, &tasks[first + off], width,
                     &cells[first + off], totals);
      }
    } else {
      for (std::size_t i = first; i < end; ++i) {
        cells[i] = replay_solo(tracer, group.id(), spec, tasks[i], totals);
      }
    }
    first = end;
  }
  return cells;
}

/// Replay EdgeSchedule::edges_into_words over each bernoulli / t-interval /
/// periodic cell's (n, seed, horizon) — the rounds the engine actually
/// stepped when the cycle layer skipped the rest.
struct EdgeFill {
  double seconds = 0;
  double edge_rounds = 0;
};

/// Written with the filled words so the fill loop cannot be elided.
volatile std::uint64_t g_edge_sink = 0;

std::map<std::string, EdgeFill> replay_edges(
    Tracer& tracer, const SweepSpec& spec, const std::vector<Task>& tasks,
    const std::vector<SweepCell>& cells) {
  Scope root(tracer, "edges");
  std::map<std::string, EdgeFill> fills;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const AdversaryKind kind = spec.adversaries[task.adversary].kind;
    if (kind != AdversaryKind::kBernoulli &&
        kind != AdversaryKind::kTInterval &&
        kind != AdversaryKind::kPeriodic) {
      continue;
    }
    const SweepCell& cell = cells[i];
    const Ring ring(task.nodes);
    const AdversaryPtr adversary =
        make_adversary(tracer, root.id(), spec, task, ring, cell);
    const auto* oblivious =
        dynamic_cast<const ObliviousAdversary*>(adversary.get());
    if (oblivious == nullptr) continue;
    const EdgeSchedule& schedule = *oblivious->schedule();
    const Time rounds =
        cell.rounds_simulated != 0 ? cell.rounds_simulated : cell.horizon;
    std::vector<std::uint64_t> words(edge_word_count(ring.edge_count()));

    Scope fill(tracer, "edges.fill", root.id());
    for (Time t = 0; t < rounds; ++t) {
      schedule.edges_into_words(t, words.data());
      sink += words[t % words.size()];
    }
    EdgeFill& total = fills[adversary_kind_info(kind).name];
    total.seconds += fill.finish();
    total.edge_rounds +=
        static_cast<double>(rounds) * static_cast<double>(ring.edge_count());
  }
  g_edge_sink = sink;
  return fills;
}

/// Each in-process measurement of replay() is taken this many times.
constexpr std::uint32_t kRepeat = 3;

int replay(ArgParser& args) {
  const std::string spec_path = args.get_string("--spec", "");
  const std::uint32_t threads = args.get_u32("--threads", 4);
  const std::string spans_path = args.get_string("--spans", "");
  const std::string cache_dir = args.get_string("--cache-dir", "");
  args.check_unused();
  if (spec_path.empty() || cache_dir.empty()) {
    die("replay needs --spec and --cache-dir");
  }
  const std::string text = read_file(spec_path);
  Tracer tracer;
  const SweepRunner runner(threads);

  // The request in process: parse, run, serialize.
  std::vector<double> parse_s;
  std::vector<double> to_json_s;
  std::string sweep_json;
  std::mutex progress_mutex;
  std::map<std::thread::id, double> busy_by_thread;
  std::uint64_t groups = 0;
  double max_group_s = 0;
  double run_s = 0;
  for (std::uint32_t r = 0; r < kRepeat; ++r) {
    busy_by_thread.clear();
    groups = 0;
    max_group_s = 0;
    const auto progress = [&](std::uint64_t, std::uint64_t, double secs) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      busy_by_thread[std::this_thread::get_id()] += secs;
      ++groups;
      max_group_s = std::max(max_group_s, secs);
    };
    Scope request(tracer, "request", -1, r + 1);
    std::optional<SweepSpec> spec;
    {
      Scope span(tracer, "spec.parse", request.id(), r + 1);
      spec = parse_spec(text);
      parse_s.push_back(span.finish());
    }
    SweepResult result;
    {
      Scope span(tracer, "sweep_runner.run", request.id(), r + 1);
      result = runner.run(*spec, {}, progress);
      run_s = span.finish();
    }
    {
      Scope span(tracer, "json.to_json", request.id(), r + 1);
      sweep_json = result.to_json();
      to_json_s.push_back(span.finish());
    }
  }

  // The per-layer replay, with spans recorded and with a tracer that
  // records nothing, in alternation: the difference of their medians is the
  // tracing overhead.  The first traced replay's spans, totals and cells are
  // the ones reported.
  const SweepSpec spec = parse_spec(text);
  const std::vector<Task> tasks = enumerate_tasks(spec);
  ReplayTotals totals;
  SweepResult replayed;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (std::uint32_t r = 0; r < kRepeat; ++r) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (r % 2 == 1);
      const bool kept = traced && traced_s.empty();
      Tracer discarded(traced);
      ReplayTotals discarded_totals;
      const auto start = Clock::now();
      auto cells = replay_cells(kept ? tracer : discarded, spec, tasks,
                                kept ? totals : discarded_totals);
      (traced ? traced_s : untraced_s)
          .push_back(seconds_between(start, Clock::now()));
      if (kept) replayed.cells = std::move(cells);
    }
  }
  replayed.total_cells = replayed.cells.size();
  const bool identical = replayed.to_json() == sweep_json;
  const auto fills = replay_edges(tracer, spec, tasks, replayed.cells);

  // ResultCache with a persistence directory, keyed like the daemon keys
  // it (canonical spec JSON), valued with this spec's result bytes.
  std::vector<double> insert_s;
  std::vector<double> lookup_s;
  {
    Scope root(tracer, "cache");
    serve::ResultCache cache(256ull << 20, cache_dir);
    const std::string key = spec.to_json();
    constexpr int kEntries = 16;
    for (int i = 0; i < kEntries; ++i) {
      Scope span(tracer, "cache.insert", root.id());
      cache.insert(key + " #" + std::to_string(i), sweep_json);
      insert_s.push_back(span.finish());
    }
    for (int i = 0; i < kEntries; ++i) {
      Scope span(tracer, "cache.lookup", root.id());
      const auto hit = cache.lookup(key + " #" + std::to_string(i));
      lookup_s.push_back(span.finish());
      if (!hit || *hit != sweep_json) die("result cache lost an entry");
    }
  }

  double busy_s = 0;
  double busiest_s = 0;
  for (const auto& [id, secs] : busy_by_thread) {
    busy_s += secs;
    busiest_s = std::max(busiest_s, secs);
  }
  const auto self = tracer.self_seconds();
  const auto self_of = [&self](std::initializer_list<const char*> names) {
    double total = 0;
    for (const char* name : names) {
      if (const auto it = self.find(name); it != self.end()) {
        total += it->second;
      }
    }
    return total;
  };
  const auto edge = [&fills](const char* kind) {
    const auto it = fills.find(kind);
    return it == fills.end() ? EdgeFill{} : it->second;
  };
  const double untraced = median(untraced_s);
  const double traced = median(traced_s);

  Metrics metrics;
  for (const char* kind : {"bernoulli", "t-interval", "periodic"}) {
    const EdgeFill fill = edge(kind);
    const std::string prefix = std::string("edges.") + kind;
    metrics.emplace_back(prefix + ".fill_ns_per_edge_round",
                         fill.edge_rounds > 0
                             ? fill.seconds * 1e9 / fill.edge_rounds
                             : 0);
    metrics.emplace_back(prefix + ".fill_s", fill.seconds);
  }
  for (const char* kind : {"static", "bernoulli", "t-interval", "periodic",
                           "greedy-blocker", "eventual-missing"}) {
    const auto it = totals.adversary_run_s.find(kind);
    metrics.emplace_back(std::string("adversary.") + kind + ".run_s",
                         it == totals.adversary_run_s.end() ? 0 : it->second);
  }
  metrics.emplace_back("sweep_runner.run_s", run_s);
  metrics.emplace_back("sweep_runner.groups", static_cast<double>(groups));
  metrics.emplace_back("sweep_runner.workers_used",
                       static_cast<double>(busy_by_thread.size()));
  metrics.emplace_back("sweep_runner.busy_frac",
                       run_s > 0 ? busy_s / (run_s * runner.threads()) : 0);
  metrics.emplace_back("sweep_runner.max_group_s", max_group_s);
  metrics.emplace_back("sweep_runner.idle_tail_s", run_s - busiest_s);
  metrics.emplace_back("engine.cells", static_cast<double>(totals.engine_cells));
  metrics.emplace_back("engine.construct_s", totals.engine_construct_s);
  metrics.emplace_back("engine.run_s", totals.engine_run_s);
  metrics.emplace_back("batch_engine.groups",
                       static_cast<double>(totals.batch_groups));
  metrics.emplace_back(
      "batch_engine.mean_width",
      totals.batch_groups > 0 ? static_cast<double>(totals.batch_replicas) /
                                    static_cast<double>(totals.batch_groups)
                              : 0);
  metrics.emplace_back("batch_engine.construct_s", totals.batch_construct_s);
  metrics.emplace_back("batch_engine.run_s", totals.batch_run_s);
  metrics.emplace_back(
      "batch_engine.replica_rounds_per_s",
      totals.batch_run_s > 0
          ? static_cast<double>(totals.batch_replica_rounds) /
                totals.batch_run_s
          : 0);
  metrics.emplace_back("cycle.engaged_cells",
                       static_cast<double>(totals.ff_cells));
  metrics.emplace_back("cycle.rounds_covered",
                       static_cast<double>(totals.ff_covered));
  metrics.emplace_back("cycle.rounds_simulated",
                       static_cast<double>(totals.ff_simulated));
  metrics.emplace_back(
      "cycle.sim_ratio",
      totals.ff_covered > 0 ? static_cast<double>(totals.ff_simulated) /
                                  static_cast<double>(totals.ff_covered)
                            : 0);
  metrics.emplace_back("cycle.max_period",
                       static_cast<double>(totals.ff_max_period));
  metrics.emplace_back("spec.parse_s", median(parse_s));
  metrics.emplace_back("json.to_json_s", median(to_json_s));
  metrics.emplace_back("json.result_bytes",
                       static_cast<double>(sweep_json.size()));
  metrics.emplace_back("cache.insert_s", median(insert_s));
  metrics.emplace_back("cache.lookup_s", median(lookup_s));
  metrics.emplace_back("self.spec_s", self_of({"spec.parse"}));
  metrics.emplace_back("self.sweep_runner_s", self_of({"sweep_runner.run"}));
  metrics.emplace_back("self.json_s", self_of({"json.to_json"}));
  metrics.emplace_back("self.adversary_s", self_of({"adversary.make"}));
  metrics.emplace_back("self.engine_s",
                       self_of({"engine.construct", "engine.run"}));
  metrics.emplace_back("self.batch_engine_s",
                       self_of({"batch_engine.construct", "batch_engine.run"}));
  metrics.emplace_back("self.dynamic_graph_s", self_of({"edges.fill"}));
  metrics.emplace_back("self.replay_setup_s", self_of({"replay.group"}));
  metrics.emplace_back("self.cache_s",
                       self_of({"cache.insert", "cache.lookup"}));
  metrics.emplace_back("trace.overhead_s", traced - untraced);
  metrics.emplace_back("trace.overhead_frac",
                       untraced > 0 ? (traced - untraced) / untraced : 0);
  metrics.emplace_back("trace.spans", static_cast<double>(tracer.size()));
  metrics.emplace_back("replay.cells", static_cast<double>(tasks.size()));
  metrics.emplace_back("replay.identical", identical ? 1 : 0);

  if (!spans_path.empty()) tracer.write(spans_path);
  std::cout << metrics_json(metrics) << "\n";
  if (!identical) {
    std::cerr << "pef_bench: replayed cells differ from SweepRunner::run\n";
    return 3;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve-load
//
// kConnections (C) connections, each a closed loop.  Two of every three
// requests of connection c (j % 3 != 0) are fresh specs — the i-th has seeds
// fresh_base + 2(iC + c) and +1, so every one is a cache miss — and every
// third is a seeded pick from the hot set (warmed before the window, so a
// cache hit).  An even split would put the median on the edge between the
// hit and miss latency clusters, where it jumps from run to run.  Hot
// results are checked against their references as they arrive; fresh ones
// after the window, against SweepRunner(1) references computed then.

/// Closed-loop serve::Client connections: one per core of a 4-core host.
constexpr std::uint32_t kConnections = 4;

struct Sample {
  double latency_s = 0;
  bool hit = false;
  bool ok = true;
  // Traced conversations only.
  double ack_s = 0;
  double first_event_s = 0;
  double transfer_s = 0;
};

struct FreshResult {
  std::size_t sample = 0;
  std::string spec_text;
  std::string bytes;
};

struct ConnectionLog {
  std::vector<Sample> samples;
  std::vector<FreshResult> fresh;
  std::string error;
};

/// The submit conversation frame by frame (what Client::submit_and_stream
/// does), with a span per phase.
std::optional<std::string> converse_traced(serve::Client& client,
                                           const std::string& spec_text,
                                           Tracer& tracer,
                                           std::uint64_t request,
                                           Sample& sample,
                                           std::string* error) {
  const auto fail = [error](const std::string& message) {
    *error = message;
    return std::nullopt;
  };
  JsonWriter submit;
  submit.begin_object();
  submit.field("op", "submit");
  submit.field("spec_text", spec_text);
  submit.end_object();

  Scope root(tracer, "serve.request", -1, request);
  std::optional<std::string> frame;
  {
    Scope span(tracer, "serve.ack", root.id(), request);
    if (!client.send_frame(submit.str(), error)) return std::nullopt;
    frame = client.read_frame_payload(error);
    sample.ack_s = span.finish();
  }
  if (!frame) return fail("no ack: " + *error);
  const auto ack = parse_json(*frame, error);
  const JsonValue* ok = ack ? ack->find("ok") : nullptr;
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value) {
    return fail("submission refused: " + *frame);
  }
  const JsonValue* cached = ack->find("cached");
  sample.hit = cached != nullptr && cached->is_bool() && cached->bool_value;
  {
    Scope span(tracer, "serve.first_event", root.id(), request);
    frame = client.read_frame_payload(error);
    sample.first_event_s = span.finish();
  }
  {
    Scope span(tracer, "serve.stream", root.id(), request);
    for (;;) {
      if (!frame) return fail("stream ended: " + *error);
      const auto event = parse_json(*frame, error);
      const JsonValue* kind = event ? event->find("event") : nullptr;
      if (kind == nullptr || !kind->is_string()) {
        return fail("unexpected frame: " + *frame);
      }
      if (kind->string_value == "result") break;
      frame = client.read_frame_payload(error);
    }
  }
  Scope span(tracer, "serve.result_transfer", root.id(), request);
  auto result = client.read_frame_payload(error);
  sample.transfer_s = span.finish();
  if (!result) return fail("no result frame: " + *error);
  return result;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < list.size()) {
    const auto comma = list.find(',', start);
    const auto end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

int serve_load(ArgParser& args) {
  const std::string socket = args.get_string("--socket", "");
  const auto hot_paths = split_commas(args.get_string("--hot", ""));
  const std::string fresh_path = args.get_string("--fresh", "");
  const std::uint64_t fresh_base = args.get_u64("--fresh-base", 1);
  const double seconds = args.get_double("--seconds", 10);
  const std::uint64_t seed = args.get_u64("--seed", 1);
  const bool traced = args.get_u32("--trace", 0) != 0;
  const std::string out_path = args.get_string("--out", "");
  const std::string spans_path = args.get_string("--spans", "");
  args.check_unused();
  if (socket.empty() || hot_paths.empty() || fresh_path.empty() ||
      out_path.empty()) {
    die("serve-load needs --socket, --hot, --fresh, --out");
  }

  // Set-up (untimed): hot references, then one submission of each hot spec
  // so the window sees them as cache hits.
  std::vector<std::string> hot_specs;
  std::vector<std::string> hot_refs;
  for (const std::string& path : hot_paths) {
    hot_specs.push_back(read_file(path));
    hot_refs.push_back(reference_json(parse_spec(hot_specs.back())));
  }
  const std::string fresh_template = read_file(fresh_path);
  const auto placeholder = fresh_template.find("@SEEDS@");
  if (placeholder == std::string::npos) die("--fresh lacks @SEEDS@");
  const auto fresh_spec = [&](std::uint32_t c, std::uint64_t j) {
    const std::uint64_t first = fresh_base + 2 * (j * kConnections + c);
    std::string text = fresh_template;
    text.replace(placeholder, 7,
                 std::to_string(first) + ", " + std::to_string(first + 1));
    return text;
  };
  std::uint64_t setup_failures = 0;
  {
    serve::Client client;
    std::string error;
    if (!client.connect_unix(socket, 10.0, &error)) die(error);
    for (std::size_t h = 0; h < hot_specs.size(); ++h) {
      const auto bytes =
          client.submit_and_stream(hot_specs[h], nullptr, nullptr, nullptr,
                                   &error);
      if (!bytes || *bytes != hot_refs[h]) ++setup_failures;
    }
  }

  Tracer tracer;
  std::vector<ConnectionLog> logs(kConnections);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto run_connection = [&](std::uint32_t c) {
    ConnectionLog& log = logs[c];
    serve::Client client;
    if (!client.connect_unix(socket, 10.0, &log.error)) return;
    SplitMix64 picks(derive_seed(seed, c));
    for (std::uint64_t j = 0; Clock::now() < deadline; ++j) {
      const bool fresh = j % 3 != 0;
      const std::size_t hot = fresh ? 0 : picks.next() % hot_specs.size();
      const std::string text =
          fresh ? fresh_spec(c, 2 * (j / 3) + j % 3 - 1) : hot_specs[hot];
      Sample sample;
      std::string error;
      const auto begin = Clock::now();
      std::optional<std::string> bytes;
      if (traced) {
        bytes = converse_traced(client, text, tracer,
                                (std::uint64_t{c} << 32) | j, sample, &error);
      } else {
        bytes = client.submit_and_stream(text, nullptr, &sample.hit, nullptr,
                                         &error);
      }
      sample.latency_s = seconds_between(begin, Clock::now());
      if (!bytes) {
        sample.ok = false;
        if (log.error.empty()) log.error = error;
        log.samples.push_back(sample);
        // A broken conversation leaves the connection out of frame sync.
        if (!client.connect_unix(socket, 10.0, &error)) return;
        continue;
      }
      if (fresh) {
        log.fresh.push_back({log.samples.size(), text, std::move(*bytes)});
      } else {
        sample.ok = *bytes == hot_refs[hot];
      }
      log.samples.push_back(sample);
    }
  };
  {
    std::vector<std::thread> pool;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
      pool.emplace_back(run_connection, c);
    }
    for (std::thread& t : pool) t.join();
  }
  const double window_s = seconds_between(start, Clock::now());

  // Check every fresh result against its reference, after the window.
  std::atomic<std::size_t> cursor{0};
  std::vector<FreshResult*> fresh;
  for (ConnectionLog& log : logs) {
    for (FreshResult& result : log.fresh) fresh.push_back(&result);
  }
  std::vector<std::uint8_t> fresh_ok(fresh.size(), 0);
  {
    const auto verify = [&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < fresh.size();) {
        fresh_ok[i] = reference_json(parse_spec(fresh[i]->spec_text)) ==
                              fresh[i]->bytes
                          ? 1
                          : 0;
      }
    };
    std::vector<std::thread> pool;
    const std::uint32_t workers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    for (std::uint32_t w = 0; w < workers; ++w) pool.emplace_back(verify);
    for (std::thread& t : pool) t.join();
  }
  {
    std::size_t i = 0;
    for (ConnectionLog& log : logs) {
      for (const FreshResult& result : log.fresh) {
        log.samples[result.sample].ok = fresh_ok[i++] != 0;
      }
    }
  }

  // Daemon counters.
  std::optional<JsonValue> stats;
  {
    serve::Client client;
    std::string error;
    if (client.connect_unix(socket, 10.0, &error)) {
      stats = client.request("{\"op\":\"stats\"}", &error);
    }
  }
  const auto stat = [&stats](const char* name) -> double {
    const JsonValue* group = stats ? stats->find("stats") : nullptr;
    const JsonValue* value = group ? group->find(name) : nullptr;
    return value != nullptr && value->is_uint
               ? static_cast<double>(value->uint_value)
               : 0;
  };

  JsonWriter json;
  json.begin_object();
  json.field("window_s", window_s);
  json.field("setup_failures", setup_failures);
  std::string first_error;
  for (const char* key : {"hit", "miss"}) {
    json.begin_array(std::string(key) + "_latencies");
    for (const ConnectionLog& log : logs) {
      for (const Sample& sample : log.samples) {
        if (sample.ok && sample.hit == (key[0] == 'h')) {
          json.element(sample.latency_s);
        }
      }
    }
    json.end_array();
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> ack_s;
  std::vector<double> first_event_s;
  std::vector<double> transfer_s;
  for (const ConnectionLog& log : logs) {
    if (first_error.empty()) first_error = log.error;
    for (const Sample& sample : log.samples) {
      ++attempted;
      if (!sample.ok) ++failed;
      ack_s.push_back(sample.ack_s);
      first_event_s.push_back(sample.first_event_s);
      transfer_s.push_back(sample.transfer_s);
    }
  }
  json.field("attempted", attempted);
  json.field("failed", failed);
  json.field("error", first_error);
  json.begin_object("layers");
  json.field("serve.ack_s", median(ack_s));
  json.field("serve.first_event_s", median(first_event_s));
  json.field("serve.result_transfer_s", median(transfer_s));
  for (const char* name : {"cache_hits", "cache_misses", "coalesced",
                           "cells_computed", "rejected"}) {
    json.field(std::string("serve.") + name, stat(name));
  }
  // Per request: the window's total grows with its length and connections.
  double self_serve = 0;
  for (const auto& [name, secs] : tracer.self_seconds()) self_serve += secs;
  json.field("self.serve_s",
             attempted > 0 ? self_serve / static_cast<double>(attempted) : 0);
  json.field("trace.spans", static_cast<std::uint64_t>(tracer.size()));
  json.end_object();
  json.end_object();
  write_file(out_path, json.str());
  if (!spans_path.empty()) tracer.write(spans_path);
  return 0;
}

int reference(ArgParser& args) {
  const std::string spec_path = args.get_string("--spec", "");
  const std::string out_path = args.get_string("--out", "");
  args.check_unused();
  if (spec_path.empty() || out_path.empty()) {
    die("reference needs --spec and --out");
  }
  write_file(out_path, reference_json(parse_spec(read_file(spec_path))));
  return 0;
}

}  // namespace
}  // namespace pef::bench

int main(int argc, char** argv) {
  using namespace pef::bench;
  const std::string command = argc > 1 ? argv[1] : "";
  pef::ArgParser args(argc - 1, argv + 1);
  if (command == "fingerprint") return fingerprint();
  if (command == "reference") return reference(args);
  if (command == "replay") return replay(args);
  if (command == "serve-load") return serve_load(args);
  std::cerr << "usage: pef_bench fingerprint | reference | replay | "
               "serve-load (see the header of perfbench/pef_bench.cpp)\n";
  return 2;
}
