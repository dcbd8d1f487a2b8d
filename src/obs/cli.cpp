#include "obs/cli.hpp"

#include <cstring>

namespace logp::obs {

namespace {

/// Matches `--name VALUE` or `--name=VALUE`; advances i past a consumed
/// value argument.
bool value_flag(const char* name, int argc, char** argv, int& i,
                std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(argv[i], name, len) != 0) return false;
  if (argv[i][len] == '=') {
    *out = argv[i] + len + 1;
    return true;
  }
  if (argv[i][len] == '\0' && i + 1 < argc) {
    *out = argv[++i];
    return true;
  }
  return false;
}

}  // namespace

ObsFlags obs_from_args(int& argc, char** argv, unsigned honoured) {
  ObsFlags flags;
  const auto on = [honoured](unsigned bit) { return (honoured & bit) != 0; };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (on(kTraceFlag) && std::strcmp(argv[i], "--trace") == 0) {
      flags.trace = true;
    } else if (on(kProfileFlag) && std::strcmp(argv[i], "--profile") == 0) {
      flags.profile = true;
    } else if (on(kTraceJsonFlag) &&
               value_flag("--trace-json", argc, argv, i, &flags.trace_json)) {
    } else if (on(kMetricsCsvFlag) && value_flag("--metrics-csv", argc, argv,
                                                 i, &flags.metrics_csv)) {
    } else if (on(kCriticalPathFlag) &&
               value_flag("--critical-path", argc, argv, i,
                          &flags.critical_path)) {
    } else if (on(kWhatifFlag) &&
               value_flag("--whatif", argc, argv, i, &flags.whatif)) {
    } else if (on(kLinksCsvFlag) &&
               value_flag("--links-csv", argc, argv, i, &flags.links_csv)) {
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return flags;
}

void write_file(const std::string& path, const std::string& content,
                std::ostream& err) {
  std::ofstream f(path, std::ios::binary);
  LOGP_CHECK_MSG(static_cast<bool>(f), "cannot open " << path << " for write");
  f << content;
  LOGP_CHECK_MSG(static_cast<bool>(f), "short write to " << path);
  err << "[obs] wrote " << path << " (" << content.size() << " bytes)\n";
}

}  // namespace logp::obs
