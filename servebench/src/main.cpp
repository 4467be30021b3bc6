// servebench — end-to-end and per-layer serving benchmark for swat::Server.
//
//   servebench --workload <chat_short|longdoc|mixed_overload> --seed <n>
//              --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it runs the workload twice for seconds/2
// each, untraced and then traced, reports the difference as the tracing
// overhead, replays a sample of the traced window's batch shapes through
// the executor, the engine and each encoder stage, and reports the
// per-layer metrics. Both modes check a sample of served outputs bit for
// bit against Encoder::forward and reconcile their own per-class counts
// with ServerStats; a mismatch prints "correct": false and exits 1.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "serve.hpp"

namespace {

using namespace bench;

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// End-to-end view of one window.
struct Summary {
  std::int64_t attempted = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_shed = 0;
  std::int64_t failed = 0;
  std::int64_t good = 0;  ///< served within the class's latency limit
  std::int64_t served_tokens = 0;
  std::vector<double> latency_ms;
  std::vector<double> class_latency_ms[swat::kPriorityClasses];
  std::vector<double> lag_ms;
  double makespan = 0.0;

  double throughput() const { return served_tokens / makespan; }
  double goodput() const { return good / makespan; }
};

Summary summarize(const Workload& w, const Window& win) {
  Summary s;
  s.makespan = win.makespan;
  for (const Outcome& o : win.outcomes) {
    ++s.attempted;
    s.lag_ms.push_back((o.submit_at - o.send_at) * 1e3);
    switch (o.kind) {
      case Kind::kServed: ++s.served; break;
      case Kind::kShed: ++s.shed; continue;
      case Kind::kDeadlineShed: ++s.deadline_shed; continue;
      case Kind::kFailed: ++s.failed; continue;
    }
    const double ms = o.latency() * 1e3;
    s.latency_ms.push_back(ms);
    s.class_latency_ms[static_cast<std::size_t>(o.cls)].push_back(ms);
    s.served_tokens += o.tokens;
    if (o.latency() <= w.limit_for(o.cls)) ++s.good;
  }
  return s;
}

/// A percentile with its sample count, for the human-readable report.
struct Pct {
  double value;
  double q;
  std::size_t n;
};

Pct tail(const std::vector<double>& v) {
  const double q = tail_quantile(v.size());
  return {percentile(v, q), q, v.size()};
}
Pct mid(const std::vector<double>& v) { return {median(v), 0.5, v.size()}; }

/// A class's latencies, or every served request's when the workload sends
/// no request of that class.
const std::vector<double>& class_or_all(const Summary& s, swat::Priority p) {
  const auto& v = s.class_latency_ms[static_cast<std::size_t>(p)];
  return v.empty() ? s.latency_ms : v;
}

struct Checks {
  std::vector<std::string> problems;
  std::int64_t wrong = 0;

  void run(const Workload& w, const RequestSource& src, const Window& win) {
    ledger_balanced(win, problems);
    const std::int64_t bad = oracle_mismatches(w, src, win);
    wrong += bad;
    std::printf("# oracle: %zu sampled outputs vs Encoder::forward, %lld mismatched\n",
                win.sampled.size(), static_cast<long long>(bad));
    if (win.sampled.empty()) problems.push_back("oracle: no served output was sampled");
    if (bad) problems.push_back("oracle: served output differs from Encoder::forward");
  }
  bool ok() const { return problems.empty(); }
  void print() const {
    std::printf("# ledger + oracle: %s\n", ok() ? "balanced, bit-identical" : "FAILED");
    for (const auto& p : problems) std::printf("#   %s\n", p.c_str());
  }
};

/// Reports whether Encoder::forward rejects the first failed scaled input
/// too, i.e. whether the failure is the known kernel defect rather than a
/// serving-layer fault.
void probe_known_defect(const Workload& w, const RequestSource& src,
                        const Window& win) {
  for (const Outcome& o : win.outcomes) {
    if (o.kind != Kind::kFailed || !o.scaled) continue;
    bool oracle_throws = false;
    try {
      (void)swat::model::Encoder(w.config()).forward(src.make(o.id).input);
    } catch (const std::exception&) {
      oracle_throws = true;
    }
    std::printf("# known defect: x%.0f-scaled request %lld failed; "
                "Encoder::forward %s it too\n",
                static_cast<double>(kScaledBy), static_cast<long long>(o.id),
                oracle_throws ? "rejects" : "serves");
    return;
  }
}

void emit(const Metrics& m, bool correct, std::int64_t attempted,
          std::int64_t failed) {
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

int run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  const RequestSource src(w, seed, seconds);
  // Set-up is repeated and its median reported; the last server serves.
  std::vector<double> setup;
  std::unique_ptr<swat::Server> server;
  for (int i = 0; i < w.setups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = make_ready_server(w, src);
    setup.push_back(seconds_since(t0, Clock::now()));
  }
  const Window win = run_window(*server, w, src, seconds, nullptr);
  const double rss = peak_rss_mib();
  server.reset();

  Checks checks;
  checks.run(w, src, win);
  probe_known_defect(w, src, win);
  const Summary s = summarize(w, win);
  const std::int64_t failed = s.failed + checks.wrong;

  std::printf("# %s seed=%llu: attempted=%lld served=%lld shed=%lld "
              "deadline_shed=%lld failed=%lld makespan=%.3fs\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(s.attempted), static_cast<long long>(s.served),
              static_cast<long long>(s.shed), static_cast<long long>(s.deadline_shed),
              static_cast<long long>(s.failed), s.makespan);
  const Pct p50 = mid(s.latency_ms);
  const Pct p99 = tail(s.latency_ms);
  const Pct inter = tail(class_or_all(s, swat::Priority::kInteractive));
  const Pct bulk = mid(class_or_all(s, swat::Priority::kBulk));
  const Pct lag = tail(s.lag_ms);
  Metrics m;
  m.add("setup_s", median(setup), "s");
  m.add("latency_p50_ms", p50.value, "ms");
  m.add("latency_p99_ms", p99.value, "ms");
  m.add("interactive_p99_ms", inter.value, "ms");
  m.add("bulk_p50_ms", bulk.value, "ms");
  m.add("throughput_tok_s", s.throughput(), "tok/s");
  m.add("goodput_rps", s.goodput(), "1/s");
  m.add("ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(s.attempted), "frac");
  m.add("peak_rss_mib", rss, "MiB");

  // Human-readable report: every metric with its unit; percentiles with
  // the quantile actually taken and the sample count behind it.
  std::printf("# latency: scheduled send time -> ticket resolution, served requests\n");
  const std::map<std::string, Pct> pcts = {{"latency_p50_ms", p50}, {"latency_p99_ms", p99},
                                           {"interactive_p99_ms", inter}, {"bulk_p50_ms", bulk}};
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-22s %14.4f %-6s", name.c_str(), vu.first, vu.second.c_str());
    if (const auto it = pcts.find(name); it != pcts.end()) {
      std::printf("  (p%.1f of n=%zu)", it->second.q * 100.0, it->second.n);
    }
    std::printf("\n");
  }
  std::printf("  %-22s %14.4f %-6s  (p%.1f of n=%zu)\n", "generator.lag_ms_p99", lag.value,
              "ms", lag.q * 100.0, lag.n);
  checks.print();
  emit(m, checks.ok(), s.attempted, failed);
  return checks.ok() ? 0 : 1;
}

/// One served batch as the benchmark saw it: its members' lengths (in
/// request order) and its execution time (turnaround - queue_delay, the
/// same for every member).
struct ObservedBatch {
  std::vector<std::int64_t> lengths;
  double exec_s = 0.0;

  swat::BatchPlanEntry entry() const {
    swat::BatchPlanEntry e;
    e.offsets.push_back(0);
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      e.request_indices.push_back(i);
      e.offsets.push_back(e.offsets.back() + lengths[i]);
    }
    return e;
  }
};

/// Served requests grouped by batch_index, in batch order.
std::vector<ObservedBatch> observed_batches(const Window& win) {
  std::map<std::int64_t, ObservedBatch> by;
  for (const Outcome& o : win.outcomes) {
    if (o.kind != Kind::kServed) continue;
    ObservedBatch& b = by[o.batch_index];
    b.lengths.push_back(o.tokens);  // outcomes are in request order
    b.exec_s = o.turnaround - o.queue_delay;
  }
  std::vector<ObservedBatch> out;
  for (auto& [index, batch] : by) out.push_back(std::move(batch));
  return out;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& trace_out) {
  const HostRoofline host = measure_host();
  const double fanout_us = pool_fanout_us_p50();
  const double half = seconds / 2.0;
  const RequestSource src(w, seed, half);
  const swat::model::EncoderConfig cfg = w.config();

  Summary untraced;
  {
    auto server = make_ready_server(w, src);
    untraced = summarize(w, run_window(*server, w, src, half, nullptr));
  }
  Tracer tracer(Clock::now());
  auto server = make_ready_server(w, src);
  const Window win = run_window(*server, w, src, half, &tracer);
  const std::size_t plans = server->plan_count();
  const double arena_mib =
      static_cast<double>(server->plan_arena_floats()) * sizeof(float) / (1 << 20);
  server.reset();
  const Summary s = summarize(w, win);

  Checks checks;
  checks.run(w, src, win);

  const std::vector<ObservedBatch> batches = observed_batches(win);
  std::vector<double> reqs_per_batch, tokens_per_batch, ratio, abs_log_err;
  const swat::BatchCostModel cost(cfg);
  for (const ObservedBatch& b : batches) {
    const swat::BatchPlanEntry entry = b.entry();
    reqs_per_batch.push_back(static_cast<double>(entry.requests()));
    tokens_per_batch.push_back(static_cast<double>(entry.rows()));
    const double r = b.exec_s / cost.predict(entry).value;
    ratio.push_back(r);
    abs_log_err.push_back(std::fabs(std::log(r)));
  }
  // An evenly spaced sample of the observed batch shapes is replayed.
  std::vector<std::vector<std::int64_t>> sample;
  const std::size_t take = std::min(static_cast<std::size_t>(w.replay_batches), batches.size());
  for (std::size_t i = 0; i < take; ++i) {
    sample.push_back(batches[i * batches.size() / take].lengths);
  }
  const Replay replay = replay_batches(w, src, sample, &tracer);

  // ---- per-layer metrics
  Metrics m;
  m.add("host.peak_gflops", host.peak_gflops, "GFLOP/s");
  m.add("host.stream_gbs", host.stream_gbs, "GB/s");
  m.add("generator.lag_ms_p99", tail(s.lag_ms).value, "ms");
  m.add("latency.samples", static_cast<double>(s.latency_ms.size()), "count");
  m.add("latency.tail_quantile", tail_quantile(s.latency_ms.size()), "frac");

  std::vector<double> submit_us, queue_ms;
  for (const Outcome& o : win.outcomes) {
    submit_us.push_back((o.submit_end - o.submit_at) * 1e6);
    if (o.kind == Kind::kServed) queue_ms.push_back(o.queue_delay * 1e3);
  }
  m.add("server.submit_us_p50", median(submit_us), "us");
  m.add("server.submit_us_p99", tail(submit_us).value, "us");
  m.add("server.queue_wait_ms_p50", median(queue_ms), "ms");
  m.add("server.queue_wait_ms_p99", tail(queue_ms).value, "ms");
  swat::ClassStats delta;
  for (std::size_t c = 0; c < swat::kPriorityClasses; ++c) {
    const auto& a = win.after.per_class[c];
    const auto& b = win.before.per_class[c];
    delta.shed += a.shed - b.shed;
    delta.deadline_shed += a.deadline_shed - b.deadline_shed;
    delta.deadline_missed += a.deadline_missed - b.deadline_missed;
    delta.failed += a.failed - b.failed;
  }
  m.add("server.shed", static_cast<double>(delta.shed), "count");
  m.add("server.deadline_shed", static_cast<double>(delta.deadline_shed), "count");
  m.add("server.deadline_missed", static_cast<double>(delta.deadline_missed), "count");
  m.add("server.failed", static_cast<double>(delta.failed), "count");
  m.add("server.watchdog_stalls",
        static_cast<double>(win.after.watchdog_stalls - win.before.watchdog_stalls), "count");

  m.add("batcher.batches", static_cast<double>(batches.size()), "count");
  m.add("batcher.requests_per_batch_p50", median(reqs_per_batch), "count");
  m.add("batcher.requests_per_batch_mean", mean(reqs_per_batch), "count");
  m.add("batcher.tokens_per_batch_p50", median(tokens_per_batch), "count");
  m.add("cost_model.ratio_p50", median(ratio), "ratio");
  m.add("cost_model.abs_log_err_p50", median(abs_log_err), "ratio");

  std::int64_t stolen = 0, served_total = 0, served_max = 0;
  for (std::size_t r = 0; r < win.after.replicas.size(); ++r) {
    const auto& a = win.after.replicas[r];
    const auto& b = win.before.replicas[r];
    stolen += a.batches_stolen - b.batches_stolen;
    const std::int64_t served = a.served() - b.served();
    served_total += served;
    served_max = std::max(served_max, served);
  }
  m.add("replica.batches_stolen", static_cast<double>(stolen), "count");
  m.add("replica.served_share_max",
        served_total ? static_cast<double>(served_max) / served_total : 0.0, "frac");

  double run_total = 0.0;
  for (const double t : replay.run_s) run_total += t;
  std::vector<double> overhead_ms;
  for (std::size_t i = 0; i < replay.run_s.size(); ++i) {
    overhead_ms.push_back((replay.execute_s[i] - replay.run_s[i]) * 1e3);
  }
  m.add("engine.run_ms_per_ktok",
        replay.tokens ? run_total * 1e3 / (replay.tokens / 1e3) : 0.0, "ms/ktok");
  m.add("engine.executor_overhead_ms", median(overhead_ms), "ms");
  m.add("engine.plans", static_cast<double>(plans), "count");
  m.add("engine.arena_mib", arena_mib, "MiB");

  const auto roof = [&](double flops, double bytes, double secs) {
    if (secs <= 0.0 || bytes <= 0.0) return 0.0;
    const double attainable =
        std::min(host.peak_gflops, flops / bytes * host.stream_gbs);
    return flops / secs / 1e9 / attainable;
  };
  double stage_total = 0.0;
  const double replayed = std::max<double>(1.0, static_cast<double>(replay.batches));
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    const StageTotals& st = replay.stages[i];
    const std::string p = std::string("stage.") + kStages[i];
    stage_total += st.seconds;
    m.add(p + ".ms", st.seconds * 1e3 / replayed, "ms");
    m.add(p + ".share", run_total > 0 ? st.seconds / run_total : 0.0, "frac");
    m.add(p + ".gflops", st.seconds > 0 ? st.flops / st.seconds / 1e9 : 0.0, "GFLOP/s");
    m.add(p + ".gbs", st.seconds > 0 ? st.bytes / st.seconds / 1e9 : 0.0, "GB/s");
    m.add(p + ".frac_roofline", roof(st.flops, st.bytes, st.seconds), "frac");
  }
  m.add("stage.unexplained.share",
        run_total > 0 ? (run_total - stage_total) / run_total : 0.0, "frac");

  const auto sum = [&](std::initializer_list<std::size_t> ids, auto field) {
    double v = 0.0;
    for (const std::size_t i : ids) v += replay.stages[i].*field;
    return v;
  };
  const StageTotals& att = replay.stages[1];
  m.add("attention.gflops", att.seconds > 0 ? att.flops / att.seconds / 1e9 : 0.0, "GFLOP/s");
  m.add("attention.kv_gbs", att.seconds > 0 ? replay.kv_bytes / att.seconds / 1e9 : 0.0, "GB/s");
  m.add("attention.frac_roofline", roof(att.flops, att.bytes, att.seconds), "frac");
  const double proj_s = sum({0, 2}, &StageTotals::seconds);
  const double ffn_s = sum({4, 5}, &StageTotals::seconds);
  m.add("gemm.proj_gflops", proj_s > 0 ? sum({0, 2}, &StageTotals::flops) / proj_s / 1e9 : 0.0,
        "GFLOP/s");
  m.add("gemm.ffn_gflops", ffn_s > 0 ? sum({4, 5}, &StageTotals::flops) / ffn_s / 1e9 : 0.0,
        "GFLOP/s");
  m.add("gemm.frac_roofline",
        roof(sum({0, 2, 4, 5}, &StageTotals::flops), sum({0, 2, 4, 5}, &StageTotals::bytes),
             proj_s + ffn_s),
        "frac");
  const double ln_s = sum({3, 6}, &StageTotals::seconds);
  m.add("layer_norm.gbs", ln_s > 0 ? sum({3, 6}, &StageTotals::bytes) / ln_s / 1e9 : 0.0,
        "GB/s");
  m.add("pool.fanout_us_p50", fanout_us, "us");

  // Self time per span name, averaged over that name's spans.
  {
    const std::vector<double> self = tracer.self_times();
    std::map<std::string, std::pair<double, std::int64_t>> by;
    for (std::size_t i = 0; i < self.size(); ++i) {
      auto& [total, count] = by[tracer.spans()[i].name];
      total += self[i];
      ++count;
    }
    for (const char* name : {"request", "generator.lag", "server.submit", "server.queue",
                             "engine.batch", "server.rejected", "replay.batch", "executor.execute",
                             "engine.run", "stage.replay"}) {
      const auto it = by.find(name);
      const double v = it == by.end() ? 0.0 : it->second.first / it->second.second;
      m.add(std::string("self.") + name + ".ms", v * 1e3, "ms");
    }
  }
  m.add("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  m.add("trace.overhead.latency_p50_frac",
        median(s.latency_ms) / median(untraced.latency_ms) - 1.0, "frac");
  m.add("trace.overhead.throughput_frac", s.throughput() / untraced.throughput() - 1.0,
        "frac");

  std::printf("# %s seed=%llu traced window %.1fs: attempted=%lld served=%lld; "
              "replayed %lld batches (%lld tokens)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), half,
              static_cast<long long>(s.attempted), static_cast<long long>(s.served),
              static_cast<long long>(replay.batches), static_cast<long long>(replay.tokens));
  std::printf("# stage FLOPs come from attn::analyze_layer (LayerNorm: 8 per element); "
              "stage bytes are computed from tensor sizes, not measured\n");
  std::printf("# untraced vs traced: latency_p50 %.3f vs %.3f ms, throughput %.1f vs %.1f tok/s\n",
              median(untraced.latency_ms), median(s.latency_ms), untraced.throughput(),
              s.throughput());
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-36s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  if (!trace_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(trace_out).parent_path(), ec);
    if (tracer.write(trace_out)) {
      std::printf("# spans written to %s\n", trace_out.c_str());
    } else {
      std::printf("# could not write spans to %s\n", trace_out.c_str());
    }
  }
  checks.print();
  emit(m, checks.ok(), s.attempted, s.failed + checks.wrong);
  return checks.ok() ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("--workload, --seconds > 0 and --trace 0|1 are required");
  }
  try {
    const Workload w = workload_by_name(workload);
    return trace ? run_traced(w, seed, seconds, trace_out)
                 : run_end_to_end(w, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
