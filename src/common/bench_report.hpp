// Standardized machine-readable bench output.
//
// Every bench_* emits one BENCH_<name>.json next to its pretty tables so the
// performance and correctness trajectory is tracked across PRs in a uniform
// shape: a list of cells (each = one parameter point with its metrics) plus
// overall wall-time and throughput.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace pef {

class BenchReport {
 public:
  /// `name` without the BENCH_/.json decoration, e.g. "scaling".
  explicit BenchReport(std::string name);

  /// One parameter point.  `params` are (key, value) strings identifying the
  /// cell; metrics are added on the returned handle.
  class Cell {
   public:
    Cell& param(const std::string& key, const std::string& value);
    Cell& param(const std::string& key, std::uint64_t value);
    Cell& param(const std::string& key, double value);
    Cell& metric(const std::string& key, double value);
    Cell& metric(const std::string& key, std::uint64_t value);
    Cell& metric(const std::string& key, bool value);

   private:
    friend class BenchReport;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::pair<std::string, std::string>> metrics_;  // pre-encoded
  };

  Cell& add_cell();

  /// Top-level free-form metrics (e.g. the Simulator-vs-FastEngine speedup).
  void summary(const std::string& key, double value);
  void summary(const std::string& key, std::uint64_t value);
  void summary(const std::string& key, const std::string& value);
  void summary(const std::string& key, bool value);

  /// Total rounds simulated by the bench (drives rounds_per_sec).
  void add_rounds(std::uint64_t rounds) { total_rounds_ += rounds; }

  /// Writes BENCH_<name>.json into the working directory; prints a one-line
  /// confirmation to stdout.  Wall-time is measured from construction.  A
  /// "fingerprint" object names the machine and build: hardware threads,
  /// physical cores, batch ISA tier, compiler, build type and git SHA.
  /// Returns false, after naming the path on stderr, when the file cannot
  /// be opened or written; a bench then exits 2.
  [[nodiscard]] bool write() const;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Cell> cells_;
  std::vector<std::pair<std::string, std::string>> summary_;  // pre-encoded
  std::uint64_t total_rounds_ = 0;
};

}  // namespace pef
