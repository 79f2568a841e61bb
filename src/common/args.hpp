// Tiny command-line argument parser for the CLI tool and the examples.
//
//   ArgParser args(argc, argv);
//   const auto n = args.get_u32("--nodes", 10);
//   const auto algo = args.get_string("--algorithm", "pef3+");
//   if (args.has("--help")) { ... }
//   args.check_unused();   // reject typos
//
// Accepts both "--key value" and "--key=value" forms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pef {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Flag presence (also marks it used).
  [[nodiscard]] bool has(const std::string& key);

  /// Typed getters with defaults; exit(2) naming the flag on a malformed
  /// value.  The integer getters take decimal digits only and refuse a
  /// value their type cannot hold.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback);
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback);
  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback);
  [[nodiscard]] double get_double(const std::string& key, double fallback);

  /// Keys that were provided but never consumed (useful to reject typos).
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Reject typos loudly: if any flag was provided but never consumed,
  /// print each one to stderr and exit(2).  Call after the last get_*/has.
  void check_unused() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  struct Entry {
    std::string key;
    std::optional<std::string> value;
    bool used = false;
  };

  /// The entry of flag `key`, marked used, or nullptr when it is absent.
  /// A flag given more than once exits 2 naming it.
  [[nodiscard]] Entry* find(const std::string& key);
  [[nodiscard]] std::optional<std::string> raw(const std::string& key);

  std::string program_;
  std::vector<Entry> entries_;
};

}  // namespace pef
