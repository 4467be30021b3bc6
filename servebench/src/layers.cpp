#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "attention/flops.hpp"
#include "attention/fused.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "model/layer_norm.hpp"
#include "model/linear.hpp"
#include "runtime/executor.hpp"
#include "tensor/kernels.hpp"

namespace bench {

namespace {

constexpr int kPeakLanes = 48;  // independent chains: fits 12 SSE registers

float multiply_add_chains(std::int64_t iters, float start) {
  float acc[kPeakLanes];
  for (int j = 0; j < kPeakLanes; ++j) acc[j] = start + 1e-3f * static_cast<float>(j);
  const float m = 0.999999f;
  const float a = 1e-6f;
  for (std::int64_t it = 0; it < iters; ++it) {
    for (int j = 0; j < kPeakLanes; ++j) acc[j] = acc[j] * m + a;
  }
  float sum = 0.0f;
  for (float x : acc) sum += x;
  return sum;
}

}  // namespace

HostRoofline measure_host() {
  HostRoofline host;
  const int threads = swat::num_threads();
  {
    const std::int64_t iters = 1 << 20;
    std::vector<float> sink(static_cast<std::size_t>(threads));
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      swat::parallel_for(0, threads, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t t = b; t < e; ++t) {
          sink[static_cast<std::size_t>(t)] +=
              multiply_add_chains(iters, 1.0f + static_cast<float>(rep));
        }
      });
      best = std::min(best, seconds_since(t0, Clock::now()));
    }
    volatile float keep = sink[0];
    (void)keep;
    host.peak_gflops = 2.0 * kPeakLanes * static_cast<double>(iters) * threads /
                       best / 1e9;
  }
  {
    const std::int64_t n = std::int64_t{1} << 23;  // 32 MiB per array
    std::vector<float> a(static_cast<std::size_t>(n)), b(a.size(), 1.0f),
        c(a.size(), 2.0f);
    const std::int64_t chunk = n / (4 * threads);
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      swat::parallel_for(0, n, chunk, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto k = static_cast<std::size_t>(i);
          a[k] = b[k] + 0.5f * c[k];
        }
      });
      best = std::min(best, seconds_since(t0, Clock::now()));
    }
    host.stream_gbs = 3.0 * static_cast<double>(n) * sizeof(float) / best / 1e9;
  }
  return host;
}

double pool_fanout_us_p50() {
  // Each chunk spins for a fixed 20 us so the workers, not just the
  // caller, take part; the fork-join cost is what exceeds that.
  constexpr double kSpin = 20e-6;
  const int threads = swat::num_threads();
  std::vector<double> us;
  for (int rep = 0; rep < 1000; ++rep) {
    const auto t0 = Clock::now();
    swat::parallel_for(0, threads, 1, [&](std::int64_t, std::int64_t) {
      const auto s0 = Clock::now();
      while (seconds_since(s0, Clock::now()) < kSpin) {
      }
    });
    us.push_back((seconds_since(t0, Clock::now()) - kSpin) * 1e6);
  }
  return median(std::move(us));
}

namespace {

/// One encoder layer's weights, held outside the Encoder so each stage can
/// be called and timed on its own. Same shapes and kernels as EncoderLayer.
struct StageLayer {
  swat::model::Linear wq, wk, wv, wo, ffn1, ffn2;
  swat::model::LayerNorm ln1, ln2;

  StageLayer(const swat::model::EncoderConfig& cfg, swat::Rng& rng)
      : wq(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
        wk(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
        wv(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
        wo(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
        ffn1(cfg.d_model, cfg.ffn_mult * cfg.d_model, rng, cfg.pack_dtype),
        ffn2(cfg.ffn_mult * cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
        ln1(cfg.d_model),
        ln2(cfg.d_model) {
    for (const auto* l : {&wq, &wk, &wv, &wo, &ffn1, &ffn2}) (void)l->packed_weight();
  }
};

class StageRunner {
 public:
  StageRunner(const swat::model::EncoderConfig& cfg, std::int64_t max_rows)
      : cfg_(cfg),
        q_(max_rows, cfg.d_model), k_(max_rows, cfg.d_model),
        v_(max_rows, cfg.d_model), concat_(max_rows, cfg.d_model),
        attn_(max_rows, cfg.d_model), norm1_(max_rows, cfg.d_model),
        hidden_(max_rows, cfg.ffn_mult * cfg.d_model),
        ffn_out_(max_rows, cfg.d_model), ping_(max_rows, cfg.d_model),
        pong_(max_rows, cfg.d_model) {
    swat::Rng rng(cfg.weight_seed);
    for (int l = 0; l < cfg.layers; ++l) {
      layers_.push_back(std::make_unique<StageLayer>(cfg, rng));
    }
  }

  /// Runs every layer stage by stage; adds each stage's wall time to
  /// `seconds` and records stage spans under `parent`.
  void run(const swat::MatrixF& packed, std::span<const std::int64_t> offsets,
           std::array<double, kStages.size()>& seconds, Tracer* tracer,
           std::int64_t parent, std::int64_t batch) {
    const std::int64_t heads = cfg_.num_heads;
    const float scale =
        1.0f / std::sqrt(static_cast<float>(cfg_.d_model / heads));
    const swat::MatrixF* x = &packed;
    swat::MatrixF* out = &ping_;
    std::size_t s = 0;
    Clock::time_point mark = Clock::now();
    auto stage_done = [&] {
      const Clock::time_point now = Clock::now();
      seconds[s] += seconds_since(mark, now);
      if (tracer) {
        tracer->add(kStages[s], tracer->at(mark), tracer->at(now), parent, batch);
      }
      mark = now;
      s = (s + 1) % kStages.size();
    };
    for (const auto& layer : layers_) {
      layer->wq.forward_into(*x, q_);
      layer->wk.forward_into(*x, k_);
      layer->wv.forward_into(*x, v_);
      stage_done();
      concat_.reshape(x->rows(), cfg_.d_model);
      swat::attn::fused_window_attention_batch_into(
          q_, k_, v_, offsets, heads, cfg_.swat.window_before(),
          cfg_.swat.window_after(), scale, concat_, cfg_.stream_dtype);
      stage_done();
      layer->wo.forward_into(concat_, attn_);
      swat::add_rows_into(attn_, *x, attn_);
      stage_done();
      layer->ln1.forward_into(attn_, norm1_);
      stage_done();
      layer->ffn1.forward_gelu_into(norm1_, hidden_);
      stage_done();
      layer->ffn2.forward_residual_into(hidden_, norm1_, ffn_out_);
      stage_done();
      layer->ln2.forward_into(ffn_out_, *out);
      stage_done();
      x = out;
      out = out == &ping_ ? &pong_ : &ping_;
    }
  }

 private:
  swat::model::EncoderConfig cfg_;
  std::vector<std::unique_ptr<StageLayer>> layers_;
  swat::MatrixF q_, k_, v_, concat_, attn_, norm1_, hidden_, ffn_out_, ping_,
      pong_;
};

/// FLOPs (attn::analyze_layer) and computed bytes of every stage for one
/// batch, summed over its sequences and all layers.
void price_batch(const swat::model::EncoderConfig& cfg,
                 std::span<const std::int64_t> lengths, Replay& replay) {
  const double d = static_cast<double>(cfg.d_model);
  const double f = sizeof(float);
  const double wb = static_cast<double>(swat::dtype_bytes(cfg.pack_dtype));
  const double hidden = static_cast<double>(cfg.ffn_mult) * d;
  const double layers = cfg.layers;
  double rows = 0.0;
  std::array<double, kStages.size()> flops{};
  double kv = 0.0;
  for (const std::int64_t n : lengths) {
    swat::attn::LayerShape shape;
    shape.seq_len = n;
    shape.d_model = cfg.d_model;
    shape.num_heads = cfg.num_heads;
    shape.ffn_mult = cfg.ffn_mult;
    shape.bytes_per_elem = 4;
    const swat::attn::LayerCost c = swat::attn::analyze_layer(
        shape, swat::attn::AttentionVariant::kWindow, cfg.swat.window_cores);
    const double nd = static_cast<double>(n) * d;
    flops[0] += 0.75 * c.linear_flops;
    flops[1] += c.attention_flops;
    flops[2] += 0.25 * c.linear_flops + nd;
    flops[3] += 8.0 * nd;
    flops[4] += 0.5 * c.ffn_flops;
    flops[5] += 0.5 * c.ffn_flops + nd;
    flops[6] += 8.0 * nd;
    kv += static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
        n, cfg.num_heads, cfg.d_model / cfg.num_heads,
        cfg.swat.window_before(), cfg.swat.window_after(), cfg.stream_dtype));
    rows += static_cast<double>(n);
  }
  const double act = rows * d * f;  // one n x d fp32 activation
  const std::array<double, kStages.size()> bytes = {
      3.0 * act + 3.0 * d * d * wb + 3.0 * act,         // read X x3, W, write QKV
      act + kv + act,                                    // read Q, K/V band, write
      act + d * d * wb + act + 2.0 * act + act,          // GEMM, then residual add
      2.0 * act,                                         // read, write
      act + d * hidden * wb + act * hidden / d,          // read, W, write hidden
      act * hidden / d + hidden * d * wb + 2.0 * act,    // hidden, W, residual, out
      2.0 * act};
  for (std::size_t s = 0; s < kStages.size(); ++s) {
    replay.stages[s].flops += flops[s] * layers;
    replay.stages[s].bytes += bytes[s] * layers;
  }
  replay.kv_bytes += kv * layers;
}

}  // namespace

Replay replay_batches(const Workload& w, const RequestSource& src,
                      const std::vector<std::vector<std::int64_t>>& shapes,
                      Tracer* tracer) {
  Replay replay;
  if (shapes.empty()) return replay;
  const swat::model::EncoderConfig cfg = w.config();
  swat::BatchExecutor executor(cfg, w.options.batching);
  const swat::Engine& engine = executor.engine();

  std::int64_t max_rows = 0;
  for (const auto& shape : shapes) {
    std::int64_t rows = 0;
    for (const std::int64_t n : shape) rows += n;
    max_rows = std::max(max_rows, rows);
  }
  StageRunner stages(cfg, max_rows);

  const std::int64_t bw = w.options.batching.bucket_width;
  std::set<std::int64_t> warm_classes;
  bool stages_warm = false;
  std::uint64_t salt = std::uint64_t{1} << 41;
  for (std::size_t b = 0; b < shapes.size(); ++b) {
    const auto& shape = shapes[b];
    std::vector<swat::InferenceRequest> reqs(shape.size());
    swat::BatchPlanEntry entry;
    entry.offsets.push_back(0);
    for (std::size_t i = 0; i < shape.size(); ++i) {
      reqs[i].id = i;
      reqs[i].input = src.rows(shape[i], salt++);
      entry.request_indices.push_back(i);
      entry.offsets.push_back(entry.offsets.back() + shape[i]);
    }
    std::vector<const swat::InferenceRequest*> members;
    for (const auto& r : reqs) members.push_back(&r);
    const std::int64_t rows = entry.rows();
    swat::MatrixF packed(rows, cfg.d_model);
    for (std::size_t i = 0; i < shape.size(); ++i) {
      std::copy(reqs[i].input.flat().begin(), reqs[i].input.flat().end(),
                packed.data() + entry.offsets[i] * cfg.d_model);
    }
    swat::ExecutionPlan plan = engine.make_plan(rows);
    std::array<double, kStages.size()> warm{};
    if (warm_classes.insert((rows + bw - 1) / bw).second) {
      (void)executor.execute(entry, members);
    }
    if (!stages_warm) {
      stages.run(packed, entry.offsets, warm, nullptr, -1, -1);
      (void)engine.run(plan, packed, entry.offsets);
      stages_warm = true;
    }

    const auto id = static_cast<std::int64_t>(b);
    const auto c0 = Clock::now();
    (void)executor.execute(entry, members);
    const auto c1 = Clock::now();
    (void)engine.run(plan, packed, entry.offsets);
    const auto c2 = Clock::now();
    replay.execute_s.push_back(seconds_since(c0, c1));
    replay.run_s.push_back(seconds_since(c1, c2));
    std::int64_t root = -1;
    std::int64_t stage_parent = -1;
    if (tracer) {
      root = tracer->add("replay.batch", tracer->at(c0), tracer->at(c0), -1, id);
      tracer->add("executor.execute", tracer->at(c0), tracer->at(c1), root, id);
      tracer->add("engine.run", tracer->at(c1), tracer->at(c2), root, id);
      stage_parent = tracer->add("stage.replay", tracer->now(), 0.0, root, id);
    }
    std::array<double, kStages.size()> seconds{};
    stages.run(packed, entry.offsets, seconds, tracer, stage_parent, id);
    if (tracer) {
      const double end = tracer->now();
      tracer->close(stage_parent, end);
      tracer->close(root, end);
    }
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      replay.stages[s].seconds += seconds[s];
    }
    price_batch(cfg, shape, replay);
    ++replay.batches;
    replay.tokens += rows;
  }
  return replay;
}

}  // namespace bench
