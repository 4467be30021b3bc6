// Per-layer measurements made from the benchmark's side of each layer's
// public functions: the host roofline, the thread-pool fork-join cost, and
// a replay of observed batch shapes through BatchExecutor::execute,
// Engine::run and the encoder's stage kernels one by one.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "serve.hpp"

namespace bench {

struct HostRoofline {
  double peak_gflops = 0.0;  ///< multiply-add throughput, all pool threads
  double stream_gbs = 0.0;   ///< triad bandwidth, all pool threads
};

/// Measured once per run, with the same compiler flags and thread pool
/// the encoder kernels use.
HostRoofline measure_host();

/// Median wall time of an empty parallel_for over one chunk per thread.
double pool_fanout_us_p50();

/// The encoder stages in execution order, as EncoderLayer runs them.
inline constexpr std::array<const char*, 7> kStages = {
    "qkv", "attention", "out_proj", "ln1", "ffn_expand", "ffn_contract", "ln2"};

struct StageTotals {
  double seconds = 0.0;
  double flops = 0.0;  ///< from attn::analyze_layer (LayerNorm: 8 per element)
  double bytes = 0.0;  ///< computed from tensor sizes, not measured
};

struct Replay {
  std::int64_t batches = 0;
  std::int64_t tokens = 0;
  std::vector<double> execute_s;  ///< BatchExecutor::execute, per batch
  std::vector<double> run_s;      ///< Engine::run, per batch
  std::array<StageTotals, kStages.size()> stages;
  double kv_bytes = 0.0;  ///< fused_window_kv_stream_bytes, all layers
};

/// Replays each batch shape (member lengths) once after an untimed warm-up
/// per plan class. Records a span tree per batch when `tracer` is set.
Replay replay_batches(const Workload& w, const RequestSource& src,
                      const std::vector<std::vector<std::int64_t>>& shapes,
                      Tracer* tracer);

}  // namespace bench
