#include "obs/cli.hpp"

#include "util/args.hpp"

namespace logp::obs {

ObsFlags obs_from_args(int& argc, char** argv, unsigned honoured) {
  ObsFlags flags;
  const auto on = [honoured](unsigned bit) { return (honoured & bit) != 0; };
  if (on(kTraceFlag)) flags.trace = util::take_switch(argc, argv, "--trace");
  if (on(kProfileFlag))
    flags.profile = util::take_switch(argc, argv, "--profile");
  const auto value = [&](unsigned bit, const char* name, std::string* out) {
    if (!on(bit)) return;
    if (auto v = util::take_value_flag(argc, argv, name)) *out = std::move(*v);
  };
  value(kTraceJsonFlag, "--trace-json", &flags.trace_json);
  value(kMetricsCsvFlag, "--metrics-csv", &flags.metrics_csv);
  value(kCriticalPathFlag, "--critical-path", &flags.critical_path);
  value(kWhatifFlag, "--whatif", &flags.whatif);
  value(kLinksCsvFlag, "--links-csv", &flags.links_csv);
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
