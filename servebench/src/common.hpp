// Shared pieces of the serving benchmark: clocks, percentiles, the metric
// sink, the span recorder, and the workload definitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/server.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The highest percentile at or below p99 that still has at least ten
/// samples beyond it; the median when the sample is too small for that.
double tail_quantile(std::size_t samples);

/// Ordered (name, value, unit) list printed as the final JSON line.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  std::string json() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// One timed interval recorded from the benchmark's side of a layer call.
/// Times are seconds from the recorder's origin.
struct Span {
  const char* name;
  double start;
  double end;
  std::int64_t parent;  ///< index into the recorder, -1 for a root
  std::int64_t request; ///< request id, -1 when not request-scoped
};

/// In-memory span recorder; spans are written out only when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  Clock::time_point origin() const { return origin_; }
  double at(Clock::time_point t) const { return seconds_since(origin_, t); }
  double now() const { return at(Clock::now()); }
  std::int64_t add(const char* name, double start, double end,
                   std::int64_t parent = -1, std::int64_t request = -1);
  /// Sets the end of a span opened before its children were recorded.
  void close(std::int64_t span, double end) {
    spans_[static_cast<std::size_t>(span)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span: its duration minus the part of it that its
  /// children cover.
  std::vector<double> self_times() const;
  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Embedding scale of the requests that exercise the fused kernel's exp
/// overflow (Eq. 1 without max subtraction).
inline constexpr float kScaledBy = 8.0f;

/// A named traffic mix. Rates and limits are absolute and fixed here; the
/// same numbers are recorded in BENCHMARK.json.
struct Workload {
  std::string name;
  bool open_loop = true;
  double rate_rps = 0.0;           ///< open loop: Poisson arrival rate
  std::int64_t min_len = 0;        ///< request length range, tokens
  std::int64_t max_len = 0;
  std::int64_t window_cores = 64;  ///< attention band width (2w)
  bool mixed_classes = false;      ///< 50/50 interactive/bulk traffic
  swat::Priority priority = swat::Priority::kInteractive;  ///< single class
  int scale_every = 0;  ///< every k-th request scaled by kScaledBy; 0 = none
  double limit_s = 0.0;       ///< latency limit (interactive deadline)
  double bulk_limit_s = 0.0;  ///< latency limit for bulk requests
  bool send_deadline = false; ///< pass limit_s to the server as deadline
  std::int64_t oracle_samples = 0;  ///< served outputs checked bit-exactly
  std::int64_t replay_batches = 24; ///< observed batches replayed when traced
  int setups = 5;                   ///< set-ups per run; the median is reported
  swat::ServerOptions options;

  swat::model::EncoderConfig config() const;
  /// Latency limit the benchmark judges a request of class `p` against.
  double limit_for(swat::Priority p) const {
    return p == swat::Priority::kBulk && mixed_classes ? bulk_limit_s
                                                       : limit_s;
  }
};

/// The workload named `name`; throws std::invalid_argument for others.
Workload workload_by_name(const std::string& name);

}  // namespace bench
