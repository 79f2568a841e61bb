// pef_sweep — run a declarative SweepSpec, optionally as one shard of a
// process-level (or machine-level) partition.
//
//   pef_sweep --spec sweep.json                     # whole sweep -> JSON
//   pef_sweep --spec sweep.json --shard 0/2 --out shard0.json
//   pef_sweep --spec sweep.json --shard 1/2 --out shard1.json
//   pef_sweep --merge shard0.json,shard1.json       # == the unsharded JSON
//
// Every cell's results are a pure function of the spec and the cell's grid
// coordinates (see engine/sweep_runner.hpp), so shard workers need nothing
// but the spec file and their index: the merged output is byte-identical to
// the unsharded run — and to running every shard on a different machine.
// `--shard i/N` runs the i-th contiguous slice of the cell list;
// `--merge` stitches the N shard files back into the canonical sweep JSON
// (tests/sweep_shard_test.cpp and the CI sharded-sweep smoke step pin the
// byte equality against the golden baseline).
//
// JSON goes to --out (or stdout); the human-readable run summary goes to
// stderr so piping stdout stays clean.
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "engine/sweep_runner.hpp"
#include "orchestrator/fault.hpp"

namespace pef {
namespace {

/// The exit status of a sweep that threw.
constexpr int kRunFailedExit = 3;

void print_help(const char* program) {
  std::cout
      << "usage: " << program << " --spec FILE [flags]\n"
      << "       " << program << " --merge A.json,B.json,... [--out FILE]\n\n"
      << "  --spec FILE      SweepSpec JSON describing the sweep grid\n"
      << "                   (see examples/specs/ and README \"Scenario\n"
      << "                   specs\"; \"-\" reads the spec from stdin)\n"
      << "  --shard I/N      run only shard I of N (0-based contiguous\n"
      << "                   slice of the cell list) and write a shard\n"
      << "                   file; N shard files --merge into exactly the\n"
      << "                   unsharded output\n"
      << "  --merge LIST     comma-separated shard files to stitch into\n"
      << "                   the canonical sweep JSON (any order); on\n"
      << "                   missing/unreadable shards, exits non-zero and\n"
      << "                   writes a {\"merge_failed\", \"missing_shards\"}\n"
      << "                   report naming the shard indices to re-run\n"
      << "  --allow-partial  with --merge: when shards are missing, write\n"
      << "                   the degraded document instead of the failure\n"
      << "                   report — {\"partial\": true, ...} with one\n"
      << "                   explicit null per missing cell, so cell id ==\n"
      << "                   array index survives — still exiting non-zero\n"
      << "                   and reporting missing_shards on stderr\n"
      << "  --out FILE       write the JSON here instead of stdout\n"
      << "  --threads T      worker threads (default: hardware)\n"
      << "  --engine-threads N\n"
      << "                   intra-cell worker threads per BatchEngine\n"
      << "                   (default 1; 0 = one per physical core; only\n"
      << "                   useful when the grid is narrower than the\n"
      << "                   machine — results are bit-identical either\n"
      << "                   way)\n"
      << "  --validate       parse + validate the spec, print the resolved\n"
      << "                   canonical JSON, run nothing\n"
      << "  --help           this text\n\n"
      << "exit status: 0 done, 1 incomplete merge or unwritable output,\n"
      << "  2 usage error or invalid spec, " << kRunFailedExit
      << " the sweep failed (e.g. out of\n"
      << "  memory)\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

int emit(const std::string& json, const std::string& out_path) {
  if (out_path.empty()) {
    std::cout << json << "\n";
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out.is_open()) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json << "\n";
  return out.good() ? 0 : 1;
}

/// "I/N" with 0 <= I < N.
bool parse_shard(const std::string& text, SweepShard& shard) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return false;
  try {
    const unsigned long index = std::stoul(text.substr(0, slash));
    const unsigned long count = std::stoul(text.substr(slash + 1));
    if (count == 0 || index >= count) return false;
    shard.index = static_cast<std::uint32_t>(index);
    shard.count = static_cast<std::uint32_t>(count);
    return true;
  } catch (...) {
    return false;
  }
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const auto comma = list.find(',', start);
    const auto end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.has("--help")) {
    print_help(argv[0]);
    return 0;
  }

  const std::string spec_path = args.get_string("--spec", "");
  const std::string shard_text = args.get_string("--shard", "");
  const std::string merge_list = args.get_string("--merge", "");
  const std::string out_path = args.get_string("--out", "");
  const auto threads = args.get_u32("--threads", 0);
  const auto engine_threads = args.get_u32("--engine-threads", 1);
  const bool validate_only = args.has("--validate");
  const bool allow_partial = args.has("--allow-partial");
  args.check_unused();

  if (allow_partial && merge_list.empty()) {
    std::cerr << "--allow-partial only makes sense with --merge\n";
    return 2;
  }

  if (!merge_list.empty()) {
    if (!spec_path.empty() || !shard_text.empty() || validate_only) {
      std::cerr << "--merge takes only shard files (and --out)\n";
      return 2;
    }
    const std::vector<std::string> paths = split_commas(merge_list);
    std::vector<std::string> shard_jsons;
    std::vector<std::string> shard_names;
    std::vector<std::string> unreadable;
    for (const std::string& path : paths) {
      std::string content;
      if (!read_file(path, content)) {
        // A lost shard file is the normal failure mode of a multi-machine
        // sweep: keep going with what is readable so the merge can report
        // exactly which shard INDICES need re-running.
        unreadable.push_back(path);
        continue;
      }
      shard_jsons.push_back(std::move(content));
      shard_names.push_back(path);
    }
    std::string error;
    const auto merge = shard_jsons.empty()
                           ? std::nullopt
                           : merge_sweep_shards_partial(shard_jsons, &error,
                                                        &shard_names);
    const std::vector<std::uint32_t> missing =
        merge ? merge->missing_shards : std::vector<std::uint32_t>{};
    if (shard_jsons.empty()) {
      // Without a single readable shard envelope the partition size N is
      // unknown, so no index list can be produced — say so explicitly
      // instead of shipping an empty missing_shards that reads as "nothing
      // to re-run".
      error =
          "no readable shard files (shard count unknown — re-run every "
          "shard of the partition)";
    } else if (merge && !merge->complete && !allow_partial) {
      std::string missing_list;
      for (const std::uint32_t index : missing) {
        if (!missing_list.empty()) missing_list += ", ";
        missing_list += std::to_string(index);
      }
      error = "missing shard" + std::string(missing.size() == 1 ? "" : "s") +
              " " + missing_list + " (re-run them, or --allow-partial for "
              "a degraded merge)";
    }

    const bool complete = merge && merge->complete && unreadable.empty();
    if (complete) {
      std::cerr << "merged " << paths.size() << " shards\n";
      return emit(merge->json, out_path);
    }
    if (allow_partial && merge) {
      // Degraded-but-usable: the partial document (explicit nulls for the
      // cells of missing shards) goes to --out; the non-zero exit and the
      // stderr report keep the degradation impossible to miss.
      std::cerr << "partial merge: " << missing.size() << " missing shard"
                << (missing.size() == 1 ? "" : "s");
      if (!missing.empty()) {
        std::cerr << " {";
        for (std::size_t i = 0; i < missing.size(); ++i) {
          std::cerr << (i == 0 ? "" : ", ") << missing[i];
        }
        std::cerr << "}";
      }
      std::cerr << "\n";
      for (const std::string& path : unreadable) {
        std::cerr << "  unreadable: " << path << "\n";
      }
      emit(merge->json, out_path);
      return 1;
    }
    {
      // Structured failure report instead of a bare error: the
      // missing_shards indices are the exact `--shard I/N` re-runs a
      // launcher needs to repair the sweep (ROADMAP: shard-retry
      // bookkeeping).
      JsonWriter json;
      json.begin_object();
      json.field("merge_failed", true);
      json.field("error", error.empty() ? "unreadable shard files" : error);
      json.begin_array("missing_shards");
      for (const std::uint32_t index : missing) {
        json.element(static_cast<std::uint64_t>(index));
      }
      json.end_array();
      json.begin_array("unreadable_files");
      for (const std::string& path : unreadable) json.element(path);
      json.end_array();
      json.end_object();
      std::cerr << "merge failed: "
                << (error.empty() ? "unreadable shard files" : error) << "\n";
      for (const std::string& path : unreadable) {
        std::cerr << "  unreadable: " << path << "\n";
      }
      if (!missing.empty()) {
        std::cerr << "  re-run with --shard I/N for I in {";
        for (std::size_t i = 0; i < missing.size(); ++i) {
          std::cerr << (i == 0 ? "" : ", ") << missing[i];
        }
        std::cerr << "}\n";
      }
      emit(json.str(), out_path);
      return 1;
    }
  }

  if (spec_path.empty()) {
    std::cerr << "need --spec FILE (or --merge; see --help)\n";
    return 2;
  }
  std::string error;
  const auto document = parse_json_input(spec_path, &error);
  if (!document) {
    std::cerr << error << "\n";
    return 2;
  }
  const auto spec = sweep_spec_from_json(*document, &error);
  if (!spec) {
    std::cerr << spec_path << ": " << error << "\n";
    return 2;
  }
  if (validate_only) {
    std::cerr << spec_path << ": valid\n";
    return emit(spec->to_json(), out_path);
  }

  // Any explicit --shard (even 0/1) writes the shard envelope, so generic
  // "run N shards, merge" scripts work unchanged at N=1.
  const bool sharded = !shard_text.empty();
  SweepShard shard;
  if (sharded && !parse_shard(shard_text, shard)) {
    std::cerr << "--shard must be I/N with 0 <= I < N (got \"" << shard_text
              << "\")\n";
    return 2;
  }

  // Deterministic chaos (PEF_FAULT_SPEC, see orchestrator/fault.hpp): this
  // worker may be fated to die before writing, hang until a supervision
  // timeout kills it, or corrupt its output below — the orchestrator's
  // recovery paths are tested against real worker processes, not mocks.
  const FaultAction fault = fault_action_from_env(shard.index);
  if (fault == FaultAction::kCrash) {
    std::cerr << "fault injection: crash before write\n";
    _exit(kFaultCrashExitCode);
  }
  if (fault == FaultAction::kHang) {
    std::cerr << "fault injection: hanging\n";
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }

  const SweepRunner runner(threads, engine_threads);
  const SweepResult result = runner.run(*spec, shard);
  std::cerr << "pef_sweep: " << result.cells.size() << " cells";
  if (sharded) {
    std::cerr << " (shard " << shard.index << "/" << shard.count << ", cells "
              << result.first_cell << ".."
              << result.first_cell + result.cells.size() << " of "
              << result.total_cells << ")";
  }
  std::cerr << ", " << result.threads << " threads, "
            << static_cast<std::uint64_t>(result.rounds_per_sec())
            << " rounds/sec (" << result.wall_seconds << " s)\n";

  std::string json = sharded ? result.to_shard_json() : result.to_json();
  if (fault == FaultAction::kCorruptOutput) {
    // Truncated output with a clean exit 0 — the failure only OUTPUT
    // validation can catch.
    std::cerr << "fault injection: corrupting output\n";
    json.resize(json.size() / 2);
  } else if (fault == FaultAction::kSilentCorrupt) {
    // Simulated bit-flip: still valid shard JSON for the right sweep, but
    // one metric digit is wrong — undetectable by validation, caught only
    // when an NMR vote compares byte-identical replicas.
    std::cerr << "fault injection: silently corrupting a metric\n";
    const auto pos = json.rfind("\"total_moves\":");
    if (pos != std::string::npos) {
      const auto digit = json.find_first_of("0123456789", pos);
      if (digit != std::string::npos) {
        json[digit] = json[digit] == '9' ? '1' : json[digit] + 1;
      }
    }
  }
  return emit(json, out_path);
}

}  // namespace
}  // namespace pef

// A spec validate() accepts can still fail to run — a ring too large to
// allocate — and exits with its own status and message, not an abort.
int main(int argc, char** argv) {
  try {
    return pef::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "pef_sweep: " << error.what() << "\n";
    return pef::kRunFailedExit;
  }
}
