// Load generation against swat::Server's public API: deterministic inputs
// from the seed, open- and closed-loop windows, warm-up, the ledger
// reconciliation and the bit-exact oracle check.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace bench {

/// Every input of one run, as a pure function of (workload, seed). Request
/// embeddings are row slices of one seeded pool of N(0,1) rows, so a
/// request is built in microseconds right before it is sent.
class RequestSource {
 public:
  /// `seconds` sizes the open-loop schedule: round(rate * seconds)
  /// requests, arrival times drawn as a Poisson process conditioned on
  /// that count (sorted uniforms), lengths stratified over the range.
  RequestSource(const Workload& w, std::uint64_t seed, double seconds);

  /// Open loop: number of scheduled requests. Closed loop: unbounded.
  std::int64_t scheduled() const {
    return static_cast<std::int64_t>(send_at_.size());
  }
  double send_at(std::int64_t i) const {
    return send_at_[static_cast<std::size_t>(i)];
  }
  std::int64_t length(std::int64_t i) const;
  swat::Priority priority(std::int64_t i) const;
  bool scaled(std::int64_t i) const;
  swat::InferenceRequest make(std::int64_t i) const;
  /// Deadline sent with a request of class `p`, in seconds; 0 for none.
  double make_deadline(swat::Priority p) const;
  /// An unscaled input of `len` rows (warm-up and replay traffic).
  swat::MatrixF rows(std::int64_t len, std::uint64_t salt) const;

 private:
  const Workload& w_;
  std::uint64_t seed_;
  std::int64_t d_model_;
  swat::MatrixF pool_;
  std::vector<double> send_at_;
  std::vector<std::int64_t> lengths_;  ///< open loop only
};

enum class Kind { kServed, kShed, kDeadlineShed, kFailed };

/// What happened to one request of the measured window. Times are seconds
/// from the window origin.
struct Outcome {
  std::int64_t id = 0;
  swat::Priority cls = swat::Priority::kInteractive;
  std::int64_t tokens = 0;
  bool scaled = false;
  double deadline = 0.0;  ///< deadline sent with the request, 0 for none
  Kind kind = Kind::kFailed;
  double send_at = 0.0;     ///< scheduled send time
  double submit_at = 0.0;   ///< submit() entered
  double submit_end = 0.0;  ///< submit() returned
  double got_at = 0.0;      ///< collector observed the resolved ticket
  double queue_delay = 0.0;
  double turnaround = 0.0;
  std::int64_t batch_index = -1;

  /// Served requests resolve at admission + turnaround (stamped by the
  /// server); admission happens inside submit(), so submit_at bounds it
  /// from below. Admission refusals resolve inside submit(); other
  /// rejections by the time the collector saw them.
  double resolved_at() const {
    switch (kind) {
      case Kind::kServed: return submit_at + turnaround;
      case Kind::kShed: return submit_end;
      default: return got_at;
    }
  }
  /// Scheduled send time to ticket resolution.
  double latency() const { return resolved_at() - send_at; }
};

struct Window {
  std::vector<Outcome> outcomes;
  double makespan = 0.0;
  swat::ServerStats before;  ///< ledger after warm-up
  swat::ServerStats after;   ///< ledger after the window drained
  std::map<std::int64_t, swat::MatrixF> sampled;  ///< id -> served output
};

/// Constructs the workload's server and warms it: one request per length
/// bucket per replica, so every plan the window needs is minted.
std::unique_ptr<swat::Server> make_ready_server(const Workload& w,
                                                const RequestSource& src);

/// Runs the measured window against `server`. With a tracer, records one
/// span tree per request.
Window run_window(swat::Server& server, const Workload& w,
                  const RequestSource& src, double seconds, Tracer* tracer);

/// Compares the benchmark's per-class counts with the ServerStats delta and
/// the server's conservation law. Appends one line per disagreement.
bool ledger_balanced(const Window& win, std::vector<std::string>& problems);

/// Re-runs every sampled request through a fresh Encoder::forward and
/// requires a bit-identical output. Returns the number of mismatches.
std::int64_t oracle_mismatches(const Workload& w, const RequestSource& src,
                               const Window& win);

}  // namespace bench
