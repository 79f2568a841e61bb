// Tests for BenchReport: the BENCH_<name>.json shape bench/check_gates.py
// reads, and a write that fails loudly instead of losing the file.
#include "common/bench_report.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/json.hpp"

namespace pef {
namespace {

namespace fs = std::filesystem;

/// Runs each test inside a fresh scratch directory: write() targets the
/// working directory.
class BenchReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = fs::current_path();
    dir_ = ::testing::TempDir() + "pef_bench_report_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    fs::current_path(dir_);
  }
  void TearDown() override {
    fs::current_path(previous_);
    fs::remove_all(dir_);
  }

  fs::path previous_;
  std::string dir_;
};

TEST_F(BenchReportTest, WritesTheShapeTheGateCheckerReads) {
  BenchReport report("shape");
  report.add_rounds(1000);
  report.summary("speedup", 2.5);
  report.summary("count", std::uint64_t{7});
  report.summary("label", std::string("wide"));
  report.summary("identical", true);
  report.add_cell()
      .param("series", "batch-throughput")
      .param("n", std::uint64_t{1024})
      .metric("rounds_per_sec", 1.5e6)
      .metric("stats_identical", false);
  ASSERT_TRUE(report.write());

  std::string error;
  const auto doc = parse_json_file("BENCH_shape.json", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("bench")->string_value, "shape");

  const JsonValue* fingerprint = doc->find("fingerprint");
  ASSERT_NE(fingerprint, nullptr);
  for (const char* key : {"nproc", "physical_cores"}) {
    ASSERT_NE(fingerprint->find(key), nullptr) << key;
    EXPECT_TRUE(fingerprint->find(key)->is_uint) << key;
  }
  for (const char* key : {"batch_isa", "compiler", "build_type", "git_sha"}) {
    ASSERT_NE(fingerprint->find(key), nullptr) << key;
    EXPECT_TRUE(fingerprint->find(key)->is_string()) << key;
  }

  for (const char* key : {"wall_seconds", "rounds_per_sec"}) {
    ASSERT_NE(doc->find(key), nullptr) << key;
    EXPECT_TRUE(doc->find(key)->is_number()) << key;
  }
  EXPECT_EQ(doc->find("total_rounds")->uint_value, 1000u);
  EXPECT_DOUBLE_EQ(doc->find("speedup")->number_value, 2.5);
  EXPECT_EQ(doc->find("count")->uint_value, 7u);
  EXPECT_EQ(doc->find("label")->string_value, "wide");
  ASSERT_TRUE(doc->find("identical")->is_bool());
  EXPECT_TRUE(doc->find("identical")->bool_value);

  const JsonValue* cells = doc->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 1u);
  const JsonValue& cell = cells->items[0];
  EXPECT_EQ(cell.find("params")->find("series")->string_value,
            "batch-throughput");
  EXPECT_EQ(cell.find("params")->find("n")->uint_value, 1024u);
  EXPECT_DOUBLE_EQ(cell.find("metrics")->find("rounds_per_sec")->number_value,
                   1.5e6);
  ASSERT_TRUE(cell.find("metrics")->find("stats_identical")->is_bool());
  EXPECT_FALSE(cell.find("metrics")->find("stats_identical")->bool_value);
}

TEST_F(BenchReportTest, WriteFailsWhenTheFileCannotBeOpened) {
  // A directory at the report's path cannot be opened for writing, even by
  // root.
  fs::create_directory("BENCH_blocked.json");
  const BenchReport report("blocked");
  EXPECT_FALSE(report.write());
  EXPECT_TRUE(fs::is_directory("BENCH_blocked.json"));
}

}  // namespace
}  // namespace pef
