// Command-line flag scanning shared by exp's *_from_args helpers and
// obs::obs_from_args. Scanning consumes the flags it recognises from argv
// and leaves everything else, so a binary's exp::reject_unknown_flags call
// turns a leftover into exit 2 with usage.
#pragma once

#include <optional>
#include <string>

namespace logp::util {

/// Strict base-10 int: the whole of `s` is an optional '-' and digits, in
/// range. Anything else ("", "abc", "4x", " 4", "+4") is nullopt.
std::optional<int> parse_int(const char* s);

/// Removes every `name VALUE` / `name=VALUE` occurrence from argv and
/// returns the last VALUE, or nullopt when none was removed. An occurrence
/// whose VALUE is empty or missing, or that `accept` (when given) rejects,
/// stays in argv whole.
std::optional<std::string> take_value_flag(int& argc, char** argv,
                                           const char* name,
                                           bool (*accept)(const char*) =
                                               nullptr);

/// Removes every valueless `name` from argv; returns whether there was one.
bool take_switch(int& argc, char** argv, const char* name);

}  // namespace logp::util
