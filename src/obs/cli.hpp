// Uniform observability CLI flags for the figure/table bench binaries:
//
//   --trace              print the exemplar run's activity-interval CSV
//   --profile            print the exemplar run's LogP signature table
//                        (packet-level: its per-link telemetry table)
//   --trace-json FILE    write a Chrome trace (chrome://tracing / Perfetto)
//   --metrics-csv FILE   dump the metrics registry attached to the run
//   --critical-path FILE write the critical-path artifact (.csv = chain
//                        table, otherwise JSON; obs/critical_path.hpp)
//   --whatif SPEC        print predicted finish under scaled parameters,
//                        e.g. "L=0.5x,o=2x" (obs/whatif.hpp)
//   --links-csv FILE     dump the per-link telemetry CSV (utilization-ranked
//                        rows with the drops/retransmits/reroutes series;
//                        tools/trace_summary.py renders it)
//
// All default off, so default output stays byte-identical (CI diffs it).
// Each bench passes obs_from_args the subset it honours; like
// exp::threads_from_args, parsing consumes those flags from argv and
// leaves every other one there, so the bench's exp::reject_unknown_flags
// call rejects an obs flag it would ignore with exit 2 and its usage.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "obs/profiler.hpp"
#include "obs/whatif.hpp"
#include "trace/timeline.hpp"
#include "util/check.hpp"

namespace logp::obs {

/// One bit per flag above, so a bench can name the subset it honours.
enum ObsFlagBits : unsigned {
  kTraceFlag = 1u << 0,         ///< --trace
  kProfileFlag = 1u << 1,       ///< --profile
  kTraceJsonFlag = 1u << 2,     ///< --trace-json FILE
  kMetricsCsvFlag = 1u << 3,    ///< --metrics-csv FILE
  kCriticalPathFlag = 1u << 4,  ///< --critical-path FILE
  kWhatifFlag = 1u << 5,        ///< --whatif SPEC
  kLinksCsvFlag = 1u << 6,      ///< --links-csv FILE
  /// Everything emit_machine_obs serves when the exemplar run records
  /// intervals and has a MetricsRegistry and a CritPathRecorder attached.
  kMachineFlags = kTraceFlag | kProfileFlag | kTraceJsonFlag |
                  kMetricsCsvFlag | kCriticalPathFlag | kWhatifFlag,
  /// Everything emit_packet_obs serves.
  kPacketFlags = kProfileFlag | kTraceJsonFlag | kMetricsCsvFlag |
                 kLinksCsvFlag,
};

struct ObsFlags {
  bool trace = false;
  bool profile = false;
  std::string trace_json;     ///< output path; empty = off
  std::string metrics_csv;    ///< output path; empty = off
  std::string critical_path;  ///< output path; empty = off
  std::string whatif;         ///< "L=0.5x,o=2x,..." spec; empty = off
  std::string links_csv;      ///< output path; empty = off (packet-level)

  bool any() const {
    return trace || profile || !trace_json.empty() || !metrics_csv.empty() ||
           !links_csv.empty() || wants_critpath();
  }
  /// True when the exemplar run should record intervals.
  bool wants_trace() const { return trace || !trace_json.empty(); }
  /// True when the exemplar run needs a CritPathRecorder attached.
  bool wants_critpath() const {
    return !critical_path.empty() || !whatif.empty();
  }
};

/// Consumes the flags named in `honoured` (ObsFlagBits) from argv,
/// threads_from_args-style. Obs flags outside `honoured`, and value flags
/// whose value is empty or missing (util::take_value_flag), stay in argv for
/// exp::reject_unknown_flags.
ObsFlags obs_from_args(int& argc, char** argv, unsigned honoured);

/// Writes `content` to `path`, reporting the write on `err` (benches keep
/// stdout byte-deterministic for CI diffs; file notices go to stderr).
void write_file(const std::string& path, const std::string& content,
                std::ostream& err = std::cerr);

/// Emits everything the flags ask for from one finished machine run.
/// --metrics-csv needs `metrics`, and --critical-path / --whatif need `cp`,
/// the recorder the caller attached when flags.wants_critpath(); a bench
/// that passes neither must not honour those flags. When present, the
/// recorder's analysis also overlays the Chrome trace.
/// Header-only so logp_obs does not link logp_sim.
inline void emit_machine_obs(const ObsFlags& flags, const sim::Machine& m,
                             const std::string& label, std::ostream& out,
                             const MetricsRegistry* metrics = nullptr,
                             const CritPathRecorder* cp = nullptr) {
  if (flags.profile) {
    const LogPProfile prof = profile_machine(m);
    prof.check_invariant();
    out << '\n' << "-- " << label << " --\n" << prof.render_table();
  }
  if (flags.trace) {
    LOGP_CHECK_MSG(m.recorder().enabled(),
                   "--trace requires the run to record (record_trace)");
    out << '\n' << "-- " << label << ": activity intervals --\n"
        << trace::render_csv(m.recorder());
  }
  CritPathReport rep;
  if (cp != nullptr && !cp->empty() &&
      (flags.wants_critpath() || !flags.trace_json.empty()))
    rep = analyze_critical_path(*cp);
  if (!flags.trace_json.empty()) {
    LOGP_CHECK_MSG(m.recorder().enabled(),
                   "--trace-json requires the run to record (record_trace)");
    ChromeTraceWriter w;
    w.add_intervals(m.recorder(), m.params().P, label);
    if (!rep.empty()) w.add_critical_path(rep);
    write_file(flags.trace_json, w.str());
  }
  if (!flags.metrics_csv.empty()) {
    LOGP_CHECK_MSG(metrics != nullptr,
                   "--metrics-csv requires a registry-attached run");
    write_file(flags.metrics_csv, metrics->to_csv());
  }
  if (!flags.critical_path.empty()) {
    LOGP_CHECK_MSG(cp != nullptr,
                   "--critical-path requires a recorder-attached run");
    const bool csv = flags.critical_path.size() >= 4 &&
                     flags.critical_path.compare(
                         flags.critical_path.size() - 4, 4, ".csv") == 0;
    write_file(flags.critical_path,
               csv ? critpath_csv(rep) : critpath_json(rep));
  }
  if (!flags.whatif.empty()) {
    LOGP_CHECK_MSG(cp != nullptr, "--whatif requires a recorder-attached run");
    std::string err;
    const auto spec = parse_whatif(flags.whatif, &err);
    LOGP_CHECK_MSG(spec.has_value(), "--whatif: " << err);
    out << '\n' << "-- " << label << ": what-if --\n"
        << whatif_table({whatif(*cp, *spec)});
  }
}

/// Emits the packet-level subset from one finished run_packet_sim call:
///   --profile      per-link telemetry table (top 10 by utilization)
///   --trace-json   Chrome trace with the sampled in-flight counter track
///                  (plus cumulative retransmits when the run was faulted)
///   --metrics-csv  the engine-introspection registry (net.wheel.*,
///                  net.kernel.*, net.sort.*, net.heap.spills)
///   --links-csv    full per-link telemetry CSV (12 columns ending
///                  drops,retransmits,reroutes — the fault-path series)
/// The caller attaches `tel` / `metrics` to the exemplar's PacketSimConfig
/// and runs it; both sinks are single-owner, so benches re-run one exemplar
/// scenario serially rather than instrumenting a parallel sweep.
inline void emit_packet_obs(const ObsFlags& flags, const NetTelemetry& tel,
                            const MetricsRegistry& metrics,
                            const std::string& label, std::ostream& out) {
  if (flags.profile)
    out << '\n' << "-- " << label << ": link telemetry (top 10) --\n"
        << tel.render_links_table(10)
        << "max utilization " << tel.max_utilization() << ", total queue wait "
        << tel.total_queue_wait() << " cyc, max backlog " << tel.max_backlog()
        << "\n";
  if (!flags.trace_json.empty()) {
    ChromeTraceWriter w;
    w.add_counter("in_flight", tel.in_flight);
    if (!tel.retransmits.empty()) w.add_counter("retransmits", tel.retransmits);
    write_file(flags.trace_json, w.str());
  }
  if (!flags.metrics_csv.empty()) write_file(flags.metrics_csv, metrics.to_csv());
  if (!flags.links_csv.empty()) write_file(flags.links_csv, tel.to_csv());
}

}  // namespace logp::obs
