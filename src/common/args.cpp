#include "common/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pef {
namespace {

/// The value of flag `key` as an unsigned integer of at most `max`; any
/// other value exits 2 naming the flag.  Decimal digits only: strtoull
/// alone would skip leading blanks and take a sign, turning "-1" into
/// 2^64 - 1.
std::uint64_t parse_unsigned(const std::string& key, const std::string& value,
                             std::uint64_t max) {
  if (value.empty()) {
    std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
    std::exit(2);
  }
  if (value.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "flag %s: '%s' is not an unsigned integer\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno == ERANGE || parsed > max) {
    std::fprintf(stderr, "flag %s: %s is out of range (at most %llu)\n",
                 key.c_str(), value.c_str(),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return parsed;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n",
                   token.c_str());
      std::exit(2);
    }
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      entries_.push_back(
          Entry{token.substr(0, eq), token.substr(eq + 1), false});
      continue;
    }
    // "--key value" when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      entries_.push_back(Entry{token, std::string(argv[i + 1]), false});
      ++i;
    } else {
      entries_.push_back(Entry{token, std::nullopt, false});
    }
  }
}

ArgParser::Entry* ArgParser::find(const std::string& key) {
  Entry* found = nullptr;
  for (Entry& e : entries_) {
    if (e.key != key) continue;
    if (found != nullptr) {
      std::fprintf(stderr, "flag %s given more than once\n", key.c_str());
      std::exit(2);
    }
    found = &e;
  }
  if (found != nullptr) found->used = true;
  return found;
}

bool ArgParser::has(const std::string& key) { return find(key) != nullptr; }

std::optional<std::string> ArgParser::raw(const std::string& key) {
  const Entry* const e = find(key);
  return e != nullptr ? e->value : std::nullopt;
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& fallback) {
  const auto v = raw(key);
  if (!v) return fallback;
  if (!v->empty()) return *v;
  std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
  std::exit(2);
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) {
  const auto v = raw(key);
  if (!v) return fallback;
  return parse_unsigned(key, *v, std::numeric_limits<std::uint64_t>::max());
}

std::uint32_t ArgParser::get_u32(const std::string& key,
                                 std::uint32_t fallback) {
  const auto v = raw(key);
  if (!v) return fallback;
  return static_cast<std::uint32_t>(
      parse_unsigned(key, *v, std::numeric_limits<std::uint32_t>::max()));
}

double ArgParser::get_double(const std::string& key, double fallback) {
  const auto v = raw(key);
  if (!v || v->empty()) {
    if (!v) return fallback;
    std::fprintf(stderr, "flag %s needs a value\n", key.c_str());
    std::exit(2);
  }
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "flag %s: '%s' is not a number\n", key.c_str(),
                 v->c_str());
    std::exit(2);
  }
  return parsed;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (!e.used) out.push_back(e.key);
  }
  return out;
}

void ArgParser::check_unused() const {
  const std::vector<std::string> stray = unused();
  if (stray.empty()) return;
  for (const std::string& key : stray) {
    std::fprintf(stderr, "unknown flag %s (see --help)\n", key.c_str());
  }
  std::exit(2);
}

}  // namespace pef
