#include "util/args.hpp"

#include <charconv>
#include <cstring>

namespace logp::util {

std::optional<int> parse_int(const char* s) {
  const char* end = s + std::strlen(s);
  int v = 0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end || ptr == s) return std::nullopt;
  return v;
}

std::optional<std::string> take_value_flag(int& argc, char** argv,
                                           const char* name,
                                           bool (*accept)(const char*)) {
  const std::size_t len = std::strlen(name);
  const auto ok = [accept](const char* v) {
    return *v != '\0' && (accept == nullptr || accept(v));
  };
  std::optional<std::string> value;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, name, len) == 0) {
      if (arg[len] == '=' && ok(arg + len + 1)) {
        value = arg + len + 1;
        continue;
      }
      if (arg[len] == '\0' && i + 1 < argc && ok(argv[i + 1])) {
        value = argv[++i];
        continue;
      }
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

bool take_switch(int& argc, char** argv, const char* name) {
  bool present = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0)
      present = true;
    else
      argv[out++] = argv[i];
  }
  argc = out;
  return present;
}

}  // namespace logp::util
