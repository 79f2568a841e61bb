#include "common/bench_report.hpp"

#include <fstream>
#include <iostream>
#include <thread>

#include "common/isa.hpp"
#include "engine/topology.hpp"

// CMakeLists.txt sets both for this file; a build without them says so.
#ifndef PEF_BUILD_TYPE
#define PEF_BUILD_TYPE "unknown"
#endif
#ifndef PEF_GIT_SHA
#define PEF_GIT_SHA "none"
#endif

namespace pef {
namespace {

std::string encode_string(const std::string& value) {
  return "\"" + JsonWriter::escape(value) + "\"";
}

/// The machine and build a report comes from, as one JSON object with
/// perfbench's fingerprint keys: hardware threads, physical cores, the
/// batch ISA tier the kernels run (PEF_BATCH_ISA honoured), compiler,
/// build type and the git SHA CMake read at configure time ("none"
/// outside a checkout).
std::string fingerprint() {
#if defined(__clang__) || !defined(__GNUC__)
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"physical_cores\":" +
         std::to_string(HwTopology::detect().physical_cores) +
         ",\"batch_isa\":" + encode_string(to_string(active_isa())) +
         ",\"compiler\":" + encode_string(compiler) +
         ",\"build_type\":" + encode_string(PEF_BUILD_TYPE) +
         ",\"git_sha\":" + encode_string(PEF_GIT_SHA) + "}";
}

}  // namespace

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

BenchReport::Cell& BenchReport::Cell::param(const std::string& key,
                                            const std::string& value) {
  params_.emplace_back(key, encode_string(value));
  return *this;
}

BenchReport::Cell& BenchReport::Cell::param(const std::string& key,
                                            std::uint64_t value) {
  params_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchReport::Cell& BenchReport::Cell::param(const std::string& key,
                                            double value) {
  params_.emplace_back(key, JsonWriter::format_number(value));
  return *this;
}

BenchReport::Cell& BenchReport::Cell::metric(const std::string& key,
                                             double value) {
  metrics_.emplace_back(key, JsonWriter::format_number(value));
  return *this;
}

BenchReport::Cell& BenchReport::Cell::metric(const std::string& key,
                                             std::uint64_t value) {
  metrics_.emplace_back(key, std::to_string(value));
  return *this;
}

BenchReport::Cell& BenchReport::Cell::metric(const std::string& key,
                                             bool value) {
  metrics_.emplace_back(key, value ? "true" : "false");
  return *this;
}

BenchReport::Cell& BenchReport::add_cell() {
  cells_.emplace_back();
  return cells_.back();
}

void BenchReport::summary(const std::string& key, double value) {
  summary_.emplace_back(key, JsonWriter::format_number(value));
}

void BenchReport::summary(const std::string& key, std::uint64_t value) {
  summary_.emplace_back(key, std::to_string(value));
}

void BenchReport::summary(const std::string& key, const std::string& value) {
  summary_.emplace_back(key, encode_string(value));
}

void BenchReport::summary(const std::string& key, bool value) {
  summary_.emplace_back(key, value ? "true" : "false");
}

bool BenchReport::write() const {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();

  std::string out = "{\"bench\":" + encode_string(name_);
  out += ",\"fingerprint\":" + fingerprint();
  out += ",\"wall_seconds\":" + JsonWriter::format_number(wall);
  out += ",\"total_rounds\":" + std::to_string(total_rounds_);
  out += ",\"rounds_per_sec\":" +
         JsonWriter::format_number(
             wall > 0 ? static_cast<double>(total_rounds_) / wall : 0);
  for (const auto& [key, value] : summary_) {
    out += "," + encode_string(key) + ":" + value;
  }
  out += ",\"cells\":[";
  bool first_cell = true;
  for (const Cell& cell : cells_) {
    if (!first_cell) out += ",";
    first_cell = false;
    out += "{\"params\":{";
    bool first = true;
    for (const auto& [key, value] : cell.params_) {
      if (!first) out += ",";
      first = false;
      out += encode_string(key) + ":" + value;
    }
    out += "},\"metrics\":{";
    first = true;
    for (const auto& [key, value] : cell.metrics_) {
      if (!first) out += ",";
      first = false;
      out += encode_string(key) + ":" + value;
    }
    out += "}}";
  }
  out += "]}";

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream file(path);
  file << out << '\n';
  file.close();
  if (!file) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "\n[" << path << " written]\n";
  return true;
}

}  // namespace pef
