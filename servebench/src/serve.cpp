#include "serve.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

namespace bench {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return mix(mix(mix(seed) ^ a) ^ (b * 0x2545f4914f6cdd1dULL));
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Fisher-Yates permutation of [0, n) from one hash stream.
std::vector<std::int64_t> permutation(std::int64_t n, std::uint64_t seed,
                                      std::uint64_t salt) {
  std::vector<std::int64_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(
        hash(seed, salt, static_cast<std::uint64_t>(i)) %
        static_cast<std::uint64_t>(i + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

constexpr std::uint64_t kWarmupId = std::uint64_t{1} << 40;

}  // namespace

RequestSource::RequestSource(const Workload& w, std::uint64_t seed,
                             double seconds)
    : w_(w), seed_(seed), d_model_(w.config().d_model) {
  const std::int64_t pool_rows = std::max<std::int64_t>(8192, 2 * w.max_len);
  pool_ = swat::MatrixF(pool_rows, d_model_);
  float* p = pool_.data();
  const std::size_t n = static_cast<std::size_t>(pool_rows * d_model_);
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    // Box-Muller over one hash stream: N(0, 1) embeddings.
    const double u1 = std::max(unit(hash(seed, 1, i)), 1e-300);
    const double u2 = unit(hash(seed, 2, i));
    const double r = std::sqrt(-2.0 * std::log(u1));
    p[i] = static_cast<float>(r * std::cos(2.0 * M_PI * u2));
    p[i + 1] = static_cast<float>(r * std::sin(2.0 * M_PI * u2));
  }
  if (!w.open_loop) return;
  const auto count = static_cast<std::int64_t>(std::llround(w.rate_rps * seconds));
  // Exponential inter-arrival gaps, one per stratum of the distribution in
  // seeded order: a Poisson stream whose gap mix is the same on every
  // seed, so seeds reorder bursts instead of adding or removing them.
  const std::vector<std::int64_t> gap_strata = permutation(count, seed, 3);
  send_at_.resize(static_cast<std::size_t>(count));
  double t = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const double u =
        (static_cast<double>(gap_strata[static_cast<std::size_t>(i)]) +
         unit(hash(seed, 10, static_cast<std::uint64_t>(i)))) /
        static_cast<double>(count);
    send_at_[static_cast<std::size_t>(i)] = t;
    t += -std::log1p(-u) / w.rate_rps;
  }
  // One length per stratum of the range, in seeded order, so every run
  // offers the same token volume and the same length mix.
  const std::vector<std::int64_t> strata = permutation(count, seed, 4);
  const double span = static_cast<double>(w.max_len - w.min_len + 1);
  lengths_.resize(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const double u = unit(hash(seed, 5, static_cast<std::uint64_t>(i)));
    lengths_[static_cast<std::size_t>(i)] =
        w.min_len + static_cast<std::int64_t>(
                        span * (static_cast<double>(strata[static_cast<std::size_t>(i)]) + u) /
                        static_cast<double>(count));
  }
}

std::int64_t RequestSource::length(std::int64_t i) const {
  if (w_.open_loop) return lengths_[static_cast<std::size_t>(i)];
  // Closed loop: blocks of scale_every documents; the unscaled ones cover
  // one stratum each, the scaled one takes any length.
  const std::int64_t block = w_.scale_every > 0 ? w_.scale_every : 8;
  const std::int64_t strata = w_.scale_every > 0 ? block - 1 : block;
  const std::int64_t b = i / block;
  const std::int64_t pos = i % block;
  const double span = static_cast<double>(w_.max_len - w_.min_len + 1);
  const double u = unit(hash(seed_, 6, static_cast<std::uint64_t>(i)));
  if (pos >= strata) {
    return w_.min_len + static_cast<std::int64_t>(span * u);
  }
  const std::vector<std::int64_t> perm =
      permutation(strata, seed_, 7 + static_cast<std::uint64_t>(b) * 8);
  return w_.min_len +
         static_cast<std::int64_t>(
             span * (static_cast<double>(perm[static_cast<std::size_t>(pos)]) + u) /
             static_cast<double>(strata));
}

swat::Priority RequestSource::priority(std::int64_t i) const {
  if (!w_.mixed_classes) return w_.priority;
  // Each consecutive pair holds one request of each class, order seeded.
  const std::uint64_t flip = hash(seed_, 8, static_cast<std::uint64_t>(i / 2)) & 1;
  return ((static_cast<std::uint64_t>(i) & 1) ^ flip) ? swat::Priority::kBulk
                                                      : swat::Priority::kInteractive;
}

bool RequestSource::scaled(std::int64_t i) const {
  return w_.scale_every > 0 && i % w_.scale_every == w_.scale_every - 1;
}

swat::MatrixF RequestSource::rows(std::int64_t len, std::uint64_t salt) const {
  const std::int64_t room = pool_.rows() - len + 1;
  const auto first = static_cast<std::int64_t>(
      hash(seed_, 9, salt) % static_cast<std::uint64_t>(room));
  swat::MatrixF out(len, d_model_);
  std::memcpy(out.data(), pool_.data() + first * d_model_,
              static_cast<std::size_t>(len * d_model_) * sizeof(float));
  return out;
}

swat::InferenceRequest RequestSource::make(std::int64_t i) const {
  swat::InferenceRequest req;
  req.id = static_cast<std::uint64_t>(i);
  req.input = rows(length(i), static_cast<std::uint64_t>(i));
  if (scaled(i)) {
    for (float& x : req.input.flat()) x *= kScaledBy;
  }
  req.priority = priority(i);
  req.deadline = swat::Seconds{make_deadline(req.priority)};
  return req;
}

double RequestSource::make_deadline(swat::Priority p) const {
  return w_.send_deadline && p == swat::Priority::kInteractive ? w_.limit_s : 0.0;
}

std::unique_ptr<swat::Server> make_ready_server(const Workload& w,
                                                const RequestSource& src) {
  auto server = std::make_unique<swat::Server>(w.config(), w.options);
  // One request per plan shape class the workload's lengths touch, once
  // per replica. Copies of a class are staggered so the first is already
  // executing when the next is dispatched, which sends it to an idle
  // replica instead of into the same batch.
  const std::int64_t bw = w.options.batching.bucket_width;
  std::uint64_t salt = kWarmupId;
  for (std::int64_t c = (w.min_len + bw - 1) / bw; c <= (w.max_len + bw - 1) / bw;
       ++c) {
    const std::int64_t len = std::max(w.min_len, (c - 1) * bw + 1);
    std::vector<swat::Server::Ticket> tickets;
    for (std::size_t r = 0; r < w.options.num_replicas; ++r) {
      if (r) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      swat::InferenceRequest req;
      req.id = salt;
      req.input = src.rows(len, salt++);
      tickets.push_back(server->submit(std::move(req)));
    }
    for (auto& t : tickets) (void)t.get();
  }
  server->drain();
  return server;
}

namespace {

struct Sent {
  std::int64_t id;
  swat::Server::Ticket ticket;
  double submit_at;
  double submit_end;
};

/// Resolves one ticket into its outcome (blocking) and records its spans.
class Collector {
 public:
  Collector(const Workload& w, const RequestSource& src, Window& win,
            Clock::time_point origin, Tracer* tracer, std::int64_t stride)
      : w_(w), src_(src), win_(win), origin_(origin), tracer_(tracer),
        stride_(stride) {
    if (tracer_) base_ = seconds_since(tracer_->origin(), origin_);
  }

  void collect(Sent& s) {
    Outcome o;
    o.id = s.id;
    o.cls = src_.priority(s.id);
    o.tokens = src_.length(s.id);
    o.scaled = src_.scaled(s.id);
    o.deadline = src_.make_deadline(o.cls);
    o.send_at = w_.open_loop ? src_.send_at(s.id) : s.submit_at;
    o.submit_at = s.submit_at;
    o.submit_end = s.submit_end;
    try {
      swat::RequestResult r = s.ticket.get();
      o.got_at = seconds_since(origin_, Clock::now());
      o.kind = Kind::kServed;
      o.queue_delay = r.counters.queue_delay.value;
      o.turnaround = r.counters.turnaround.value;
      o.batch_index = r.counters.batch_index;
      if (s.id % stride_ == 0 &&
          static_cast<std::int64_t>(win_.sampled.size()) < w_.oracle_samples) {
        win_.sampled.emplace(s.id, std::move(r.output));
      }
    } catch (const swat::DeadlineExceeded&) {
      o.got_at = seconds_since(origin_, Clock::now());
      o.kind = Kind::kDeadlineShed;
    } catch (const std::exception& e) {
      o.got_at = seconds_since(origin_, Clock::now());
      // Admission refusals are the only errors raised inside submit().
      o.kind = std::strncmp(e.what(), "Server::submit:", 15) == 0 ? Kind::kShed
                                                                  : Kind::kFailed;
    }
    if (tracer_) trace(o);
    win_.outcomes.push_back(o);
  }

 private:
  void trace(const Outcome& o) {
    const double b = base_;
    const std::int64_t root =
        tracer_->add("request", b + o.send_at, b + o.resolved_at(), -1, o.id);
    tracer_->add("generator.lag", b + o.send_at, b + o.submit_at, root, o.id);
    tracer_->add("server.submit", b + o.submit_at, b + o.submit_end, root, o.id);
    if (o.kind == Kind::kServed) {
      const double start = std::max(o.submit_end, o.submit_at + o.queue_delay);
      tracer_->add("server.queue", b + o.submit_end, b + start, root, o.id);
      tracer_->add("engine.batch", b + start, b + o.resolved_at(), root, o.id);
    } else if (o.resolved_at() > o.submit_end) {
      // Rejected after admission: the benchmark only knows the rejection
      // had happened by the time it collected the ticket.
      tracer_->add("server.rejected", b + o.submit_end, b + o.resolved_at(), root,
                   o.id);
    }
  }

  const Workload& w_;
  const RequestSource& src_;
  Window& win_;
  Clock::time_point origin_;
  Tracer* tracer_;
  std::int64_t stride_;
  double base_ = 0.0;
};

}  // namespace

Window run_window(swat::Server& server, const Workload& w,
                  const RequestSource& src, double seconds, Tracer* tracer) {
  Window win;
  win.before = server.stats();
  if (w.open_loop) {
    const std::int64_t n = src.scheduled();
    const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
    Collector collector(w, src, win, origin,
                        tracer, std::max<std::int64_t>(1, n / std::max<std::int64_t>(1, w.oracle_samples)));
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Sent> sent;  // guarded by mutex
    bool done = false;      // guarded by mutex
    std::exception_ptr send_error;
    std::jthread sender([&] {
      try {
        for (std::int64_t i = 0; i < n; ++i) {
          swat::InferenceRequest req = src.make(i);
          std::this_thread::sleep_until(
              origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(src.send_at(i))));
          const double a = seconds_since(origin, Clock::now());
          swat::Server::Ticket ticket = server.submit(std::move(req));
          const double b = seconds_since(origin, Clock::now());
          std::lock_guard lock(mutex);
          sent.push_back({i, std::move(ticket), a, b});
          cv.notify_one();
        }
      } catch (...) {
        send_error = std::current_exception();
      }
      std::lock_guard lock(mutex);
      done = true;
      cv.notify_one();
    });
    for (;;) {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return done || !sent.empty(); });
      if (sent.empty()) break;
      Sent s = std::move(sent.front());
      sent.pop_front();
      lock.unlock();
      collector.collect(s);
    }
    sender.join();
    if (send_error) std::rethrow_exception(send_error);
  } else {
    const Clock::time_point origin = Clock::now();
    Collector collector(w, src, win, origin, tracer, 1);
    const std::int64_t block = w.scale_every > 0 ? w.scale_every : 8;
    for (std::int64_t i = 0;; ++i) {
      // Whole blocks only, so every run sends the same document mix.
      if (i % block == 0 && seconds_since(origin, Clock::now()) >= seconds) break;
      swat::InferenceRequest req = src.make(i);
      const double a = seconds_since(origin, Clock::now());
      swat::Server::Ticket ticket = server.submit(std::move(req));
      const double b = seconds_since(origin, Clock::now());
      Sent s{i, std::move(ticket), a, b};
      collector.collect(s);
    }
  }
  server.drain();
  win.after = server.stats();
  for (const Outcome& o : win.outcomes) {
    win.makespan = std::max(win.makespan, std::max(o.resolved_at(), o.submit_end));
  }
  return win;
}

bool ledger_balanced(const Window& win, std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  for (std::size_t c = 0; c < swat::kPriorityClasses; ++c) {
    const auto p = static_cast<swat::Priority>(c);
    swat::ClassStats mine;
    for (const Outcome& o : win.outcomes) {
      if (o.cls != p) continue;
      ++mine.submitted;
      switch (o.kind) {
        case Kind::kServed:
          ++mine.served;
          if (o.deadline > 0.0 && o.turnaround > o.deadline) ++mine.deadline_missed;
          break;
        case Kind::kShed: ++mine.shed; break;
        case Kind::kDeadlineShed: ++mine.deadline_shed; break;
        case Kind::kFailed: ++mine.failed; break;
      }
    }
    const swat::ClassStats& a = win.after.of(p);
    const swat::ClassStats& b = win.before.of(p);
    const auto check = [&](const char* field, std::int64_t bench,
                           std::int64_t server) {
      if (bench != server) {
        problems.push_back(std::string("ledger: ") + swat::to_string(p) + "." +
                           field + " benchmark " + std::to_string(bench) +
                           " != server " + std::to_string(server));
      }
    };
    check("submitted", mine.submitted, a.submitted - b.submitted);
    check("served", mine.served, a.served - b.served);
    check("shed", mine.shed, a.shed - b.shed);
    check("deadline_shed", mine.deadline_shed, a.deadline_shed - b.deadline_shed);
    check("failed", mine.failed, a.failed - b.failed);
    check("deadline_missed", mine.deadline_missed, a.deadline_missed - b.deadline_missed);
    const std::int64_t resolved = a.served + a.shed + a.deadline_shed + a.failed;
    if (a.submitted != resolved) {
      problems.push_back(std::string("ledger: ") + swat::to_string(p) + " submitted " +
                         std::to_string(a.submitted) +
                         " != served + shed + deadline_shed + failed " +
                         std::to_string(resolved));
    }
  }
  if (win.after.queue_depth != 0) {
    problems.push_back("ledger: queue not empty after drain (" +
                       std::to_string(win.after.queue_depth) + ")");
  }
  // A served request's server-stamped turnaround must end no later than the
  // moment the benchmark saw its ticket resolved.
  for (const Outcome& o : win.outcomes) {
    if (o.kind == Kind::kServed &&
        (o.resolved_at() > o.got_at + 1e-3 || o.queue_delay > o.turnaround)) {
      problems.push_back("timing: request " + std::to_string(o.id) +
                         " resolved after it was observed");
      break;
    }
  }
  return problems.size() == before;
}

std::int64_t oracle_mismatches(const Workload& w, const RequestSource& src,
                               const Window& win) {
  const swat::model::Encoder encoder(w.config());
  std::int64_t bad = 0;
  for (const auto& [id, output] : win.sampled) {
    try {
      if (!(encoder.forward(src.make(id).input) == output)) ++bad;
    } catch (const std::exception&) {
      ++bad;  // served by the server, rejected by the oracle
    }
  }
  return bad;
}

}  // namespace bench
