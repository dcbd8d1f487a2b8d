// Metrics registry: named counters, gauges and fixed-bucket histograms with
// near-zero cost when unused.
//
// Ownership model (this is what makes the hot path lock-free): a
// MetricsRegistry belongs to exactly one simulation — each Machine/Scheduler
// or sweep grid point attaches its own registry (or none). Updates are plain
// non-atomic integer operations on pointers resolved once at registration
// time; there is no lock, no hash lookup and no atomic on any hot path.
// Sharing one registry between concurrently running experiments is a bug,
// exactly like sharing one Machine.
//
// Off-switch, same philosophy as trace::Recorder::enabled(): instrumented
// code holds nullable metric pointers and updates through them behind a
// null check, a single predictable branch when no registry is attached.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace logp::obs {

/// Monotonic event count. Plain increments: one owner, no atomics.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written level plus its high-water mark.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_ = v;
    if (v > max_) max_ = v;
  }
  /// Raises the high-water mark without changing the level.
  void observe_max(std::int64_t v) {
    if (v > max_) max_ = v;
  }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Fixed-bucket histogram over [lo, hi); out-of-range samples clamp into the
/// edge bins (util::Histogram semantics). Tracks count/min/max/sum alongside.
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::size_t bins)
      : histo_(lo, hi, bins), lo_(lo), hi_(hi) {}

  void observe(double x) {
    histo_.add(x);
    stat_.add(x);
  }

  std::int64_t count() const { return histo_.total(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  double sum() const { return stat_.sum(); }
  double quantile(double q) const { return histo_.quantile(q); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  const std::vector<std::int64_t>& bins() const { return histo_.bins(); }

 private:
  util::Histogram histo_;
  util::RunningStat stat_;
  double lo_, hi_;
};

/// Name -> metric registry. Registration (cold) hands back a stable pointer;
/// re-registering a name returns the same metric. Dumps are sorted by name,
/// so output is deterministic regardless of registration order.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// (lo, hi, bins) are fixed by the first registration of `name`.
  FixedHistogram* histogram(const std::string& name, double lo, double hi,
                            std::size_t bins);

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  bool empty() const { return size() == 0; }

  /// CSV schema (one row per metric, header included):
  ///   name,type,value,max,p50,p95
  /// type is counter|gauge|histogram; value is the count for counters and
  /// histograms and the final level for gauges; max is the gauge high-water
  /// or histogram max (empty for counters); p50/p95 are histogram-only.
  void render_csv(std::ostream& os) const;
  std::string to_csv() const;

  /// {"counters":{name:value},"gauges":{name:{"value":v,"max":m}},
  ///  "histograms":{name:{"count":..,"min":..,"max":..,"sum":..,
  ///                      "lo":..,"hi":..,"bins":[..]}}}
  void render_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  template <typename T>
  using Named = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

  Named<Counter> counters_;
  Named<Gauge> gauges_;
  Named<FixedHistogram> histograms_;
};

}  // namespace logp::obs
