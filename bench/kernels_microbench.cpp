// Microbenchmark of the blocked/parallel kernel backend against the seed
// scalar kernels. Emits BENCH_kernels.json (GFLOP/s + speedups) for CI
// tracking and the README table.
//
// Measured pairs (baseline vs the kernel under test; each row's "baseline"
// field names what the speedup is against):
//   * GEMM           C = A * B        (matmul_naive   vs matmul)
//   * GEMM-NT        C = A * B^T      (matmul_nt_naive vs matmul_nt)
//   * sliding-chunks forward           (seed per-element dot() phase 1 vs
//                                       the blocked tile-GEMM path)
//   * gemm_packed    proj + FFN shapes (the blocked bias GEMM the Linear
//                                       layer used to run per batch vs the
//                                       pre-packed panel microkernel)
//   * fused-attention                  (the per-head slice/band/scatter
//                                       serving path vs the fused streaming
//                                       batch kernel)
//   * *_isa_<tier>                     (the fp32 packed GEMM and fused
//                                       attention pinned to each ISA tier
//                                       the host supports vs the baseline
//                                       tier, same shapes, same run)
//
// The JSON's top-level "isa" names the tier the serving kernels dispatch
// to on this host (swat::kernel_isa()), and "build_isa" the tier the
// build's own flags reach: tiers at or below it run the baseline copy.
//
// Usage: kernels_microbench [--smoke] [--out <path>]
//   --smoke   small shapes / fewer reps (CI)
//   default   acceptance shapes: 512^3 GEMM, sliding chunks n=4096 w=128
//             h=64, packed GEMM on the Longformer-base projection/FFN
//             shapes, fused attention at n=2048 w=256 (12 heads) and
//             at servebench longdoc's n=3072 w=256 (4 heads); each timed
//             single-thread and with the pool enabled.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attention/fused.hpp"
#include "attention/reference.hpp"
#include "attention/sliding_chunks.hpp"
#include "attention/window.hpp"
#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace {

using swat::MatrixF;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of `fn` in seconds. One untimed warm-up run first,
/// so the pair measured earlier doesn't pay the cold-cache/page-fault cost
/// its competitor then skips — without it the later-timed variant shows a
/// spurious ~10-50% advantage.
template <typename Fn>
double best_time(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

/// best_time for two functions with their repetitions interleaved (a, b,
/// a, b, ...), so drift in the host's speed during the measurement hits
/// both sides of a within-run ratio alike.
template <typename FnA, typename FnB>
std::pair<double, double> best_time_pair(int reps, FnA&& a, FnB&& b) {
  a();
  b();
  std::pair<double, double> best{std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()};
  for (int r = 0; r < reps; ++r) {
    double t0 = now_seconds();
    a();
    best.first = std::min(best.first, now_seconds() - t0);
    t0 = now_seconds();
    b();
    best.second = std::min(best.second, now_seconds() - t0);
  }
  return best;
}

/// The seed repository's sliding-chunks phase-1/phase-2 implementation,
/// frozen verbatim as the benchmark baseline (kernel logic only; the op
/// counters are not re-measured here).
MatrixF seed_sliding_chunks(const swat::attn::HeadInput& in, std::int64_t w) {
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  const std::int64_t num_tiles = n / w - 1;
  struct ChunkScores {
    std::int64_t base = 0;
    MatrixF s;
  };
  std::vector<ChunkScores> chunks(static_cast<std::size_t>(num_tiles));
  for (std::int64_t c = 0; c < num_tiles; ++c) {
    auto& ch = chunks[static_cast<std::size_t>(c)];
    ch.base = c * w;
    ch.s = MatrixF(2 * w, 2 * w);
    for (std::int64_t qi = 0; qi < 2 * w; ++qi) {
      for (std::int64_t kj = 0; kj < 2 * w; ++kj) {
        ch.s(qi, kj) =
            swat::dot(in.q.row(ch.base + qi), in.k.row(ch.base + kj));
      }
    }
  }
  MatrixF z(n, h, 0.0f);
  std::vector<float> band(static_cast<std::size_t>(2 * w + 1));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - w);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + w);
    const std::size_t count = static_cast<std::size_t>(hi - lo + 1);
    const std::int64_t c_hi = std::min<std::int64_t>(i / w, num_tiles - 1);
    const std::int64_t c_lo = std::max<std::int64_t>(0, c_hi - 1);
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = lo; j <= hi; ++j) {
      const ChunkScores& ch =
          (j >= chunks[static_cast<std::size_t>(c_hi)].base &&
           j < chunks[static_cast<std::size_t>(c_hi)].base + 2 * w)
              ? chunks[static_cast<std::size_t>(c_hi)]
              : chunks[static_cast<std::size_t>(c_lo)];
      const float v = ch.s(i - ch.base, j - ch.base);
      band[static_cast<std::size_t>(j - lo)] = v;
      mx = std::max(mx, v);
    }
    float sum = 0.0f;
    for (std::size_t t = 0; t < count; ++t) {
      band[t] = std::exp(band[t] - mx);
      sum += band[t];
    }
    auto zrow = z.row(i);
    for (std::size_t t = 0; t < count; ++t) {
      swat::axpy(band[t] / sum, in.v.row(lo + static_cast<std::int64_t>(t)),
                 zrow);
    }
  }
  return z;
}

struct BenchRow {
  std::string name;
  std::string baseline = "naive_seed";  // what speedup_* is measured against
  double flops = 0;       // per invocation
  double naive_s = 0;     // baseline implementation
  double blocked_1t_s = 0;
  double blocked_mt_s = 0;
  float max_abs_diff = 0;  // kernel vs oracle
  /// Packed-weight bytes streamed per invocation (0 for kernels with no
  /// resident pack). Lets the summary derive the effective weight-stream
  /// GB/s — the bandwidth the pack dtype halves.
  double weight_bytes = 0;
  /// K/V band-tile bytes streamed per invocation (0 for non-attention
  /// kernels): fused_window_kv_stream_bytes at the arm's stream dtype, so
  /// the fp16 arm reports half the fp32 arm's bytes for the same shape.
  double kv_bytes = 0;
  /// The same band priced at fp32 width regardless of stream dtype — the
  /// logical K/V elements the kernel delivers. kv_gbps_1t divides THIS by
  /// time (the standard effective-bandwidth convention: compressing the
  /// stream shows up as a higher effective rate only when it buys time),
  /// so fp16/fp32 kv_gbps_1t is exactly the wall-time ratio the acceptance
  /// gate reads.
  double kv_eff_bytes = 0;
  /// ISA tier the arm is pinned to (per-tier arms only; emitted when set).
  std::string isa;

  double gflops(double s) const { return flops / s / 1e9; }
  double weight_gbps(double s) const {
    return s > 0 ? weight_bytes / s / 1e9 : 0;
  }
  double kv_gbps(double s) const { return s > 0 ? kv_eff_bytes / s / 1e9 : 0; }
};

bool emit_json(const std::vector<BenchRow>& rows, const std::string& path,
               int threads) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n  \"threads\": " << threads << ",\n  \"isa\": \""
      << swat::kernel_isa() << "\",\n  \"build_isa\": \""
      << swat::detail::kernel_isa_name(swat::detail::kBuildKernelIsa)
      << "\",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", "
        << "\"baseline\": \"" << r.baseline << "\", ";
    if (!r.isa.empty()) out << "\"isa\": \"" << r.isa << "\", ";
    out << "\"gflops_baseline\": " << r.gflops(r.naive_s) << ", "
        << "\"gflops_kernel_1t\": " << r.gflops(r.blocked_1t_s) << ", "
        << "\"gflops_kernel_mt\": " << r.gflops(r.blocked_mt_s) << ", "
        << "\"speedup_1t\": " << r.naive_s / r.blocked_1t_s << ", "
        << "\"speedup_mt\": " << r.naive_s / r.blocked_mt_s << ", "
        << "\"weight_bytes\": " << r.weight_bytes << ", "
        << "\"weight_gbps_1t\": " << r.weight_gbps(r.blocked_1t_s) << ", "
        << "\"kv_bytes\": " << r.kv_bytes << ", "
        << "\"kv_gbps_1t\": " << r.kv_gbps(r.blocked_1t_s) << ", "
        << "\"max_abs_diff\": " << r.max_abs_diff << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

/// One arm per ISA tier the host supports, cloned from `proto` (flops and
/// stream bytes) and named `<kernel>_isa_<tier>_<shape>`. `run(isa, out)`
/// runs the kernel pinned to a tier. naive_s is the baseline tier at one
/// thread, timed interleaved with the tier's own one-thread runs, so
/// speedup_1t is the tier's within-run ratio over the baseline tier; and
/// max_abs_diff is the tier's output against the baseline tier's: every
/// tier must produce the same bits.
template <typename Run>
void add_isa_rows(std::vector<BenchRow>& rows, const BenchRow& proto,
                  const std::string& kernel, const std::string& shape,
                  int reps, int pool_threads, MatrixF& out_base,
                  MatrixF& out_tier, Run&& run) {
  using swat::detail::KernelIsa;
  for (int i = 0; i < swat::detail::kKernelIsaCount; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (!swat::detail::kernel_isa_supported(isa)) continue;
    BenchRow t = proto;
    t.isa = swat::detail::kernel_isa_name(isa);
    t.name = kernel + "_isa_" + t.isa + "_" + shape;
    t.baseline = kernel + "_isa_baseline";
    swat::set_num_threads(1);
    std::tie(t.naive_s, t.blocked_1t_s) = best_time_pair(
        reps, [&] { run(KernelIsa::kBaseline, out_base); },
        [&] { run(isa, out_tier); });
    swat::set_num_threads(pool_threads);
    t.blocked_mt_s = best_time(reps, [&] { run(isa, out_tier); });
    t.max_abs_diff = swat::max_abs_diff(out_tier, out_base);
    rows.push_back(t);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const int pool_threads = swat::num_threads();
  const std::int64_t gemm_n = smoke ? 192 : 512;
  const std::int64_t sc_n = smoke ? 1024 : 4096;
  const std::int64_t sc_w = smoke ? 64 : 128;
  const std::int64_t sc_h = 64;
  const int reps = smoke ? 2 : 3;

  swat::Rng rng(42);
  std::vector<BenchRow> rows;

  // ---- GEMM: C = A * B -------------------------------------------------
  {
    const MatrixF a = swat::random_normal(gemm_n, gemm_n, rng);
    const MatrixF b = swat::random_normal(gemm_n, gemm_n, rng);
    BenchRow r;
    r.name = "gemm_" + std::to_string(gemm_n) + "x" +
             std::to_string(gemm_n) + "x" + std::to_string(gemm_n);
    r.flops = 2.0 * gemm_n * gemm_n * gemm_n;
    MatrixF c_naive, c_blocked;
    r.naive_s = best_time(reps, [&] { c_naive = swat::matmul_naive(a, b); });
    swat::set_num_threads(1);
    r.blocked_1t_s = best_time(reps, [&] { c_blocked = swat::matmul(a, b); });
    swat::set_num_threads(pool_threads);
    r.blocked_mt_s = best_time(reps, [&] { c_blocked = swat::matmul(a, b); });
    r.max_abs_diff = swat::max_abs_diff(c_blocked, c_naive);
    rows.push_back(r);
  }

  // ---- GEMM-NT: C = A * B^T -------------------------------------------
  {
    const MatrixF a = swat::random_normal(gemm_n, gemm_n, rng);
    const MatrixF b = swat::random_normal(gemm_n, gemm_n, rng);
    BenchRow r;
    r.name = "gemm_nt_" + std::to_string(gemm_n) + "x" +
             std::to_string(gemm_n) + "x" + std::to_string(gemm_n);
    r.flops = 2.0 * gemm_n * gemm_n * gemm_n;
    MatrixF c_naive, c_blocked;
    r.naive_s =
        best_time(reps, [&] { c_naive = swat::matmul_nt_naive(a, b); });
    swat::set_num_threads(1);
    r.blocked_1t_s =
        best_time(reps, [&] { c_blocked = swat::matmul_nt(a, b); });
    swat::set_num_threads(pool_threads);
    r.blocked_mt_s =
        best_time(reps, [&] { c_blocked = swat::matmul_nt(a, b); });
    r.max_abs_diff = swat::max_abs_diff(c_blocked, c_naive);
    rows.push_back(r);
  }

  // ---- sliding-chunks forward -----------------------------------------
  {
    const auto in = swat::attn::random_head_input(sc_n, sc_h, rng);
    BenchRow r;
    r.name = "sliding_chunks_n" + std::to_string(sc_n) + "_w" +
             std::to_string(sc_w) + "_h" + std::to_string(sc_h);
    // Dense QK tile MACs + banded SV MACs (what both paths execute).
    const std::int64_t tiles = sc_n / sc_w - 1;
    r.flops = 2.0 * tiles * (2 * sc_w) * (2 * sc_w) * sc_h +
              2.0 * sc_n * (2 * sc_w + 1) * sc_h;
    MatrixF z_seed, z_blocked;
    r.naive_s = best_time(reps, [&] { z_seed = seed_sliding_chunks(in, sc_w); });
    swat::set_num_threads(1);
    r.blocked_1t_s = best_time(reps, [&] {
      z_blocked = swat::attn::sliding_chunks_attention(in, sc_w).z;
    });
    swat::set_num_threads(pool_threads);
    r.blocked_mt_s = best_time(reps, [&] {
      z_blocked = swat::attn::sliding_chunks_attention(in, sc_w).z;
    });
    // Accuracy against the exact banded oracle, not just the seed path.
    const MatrixF oracle = swat::attn::window_attention(in, sc_w);
    r.max_abs_diff = swat::max_abs_diff(z_blocked, oracle);
    rows.push_back(r);
  }

  // ---- packed-weight GEMM on the encoder's serving shapes ---------------
  // Baseline is the blocked bias GEMM the Linear layer ran per batch until
  // this PR (weights pre-transposed outside the timed region, exactly like
  // the old cached-W^T path); the kernel under test streams the pre-packed
  // panels. Both are timed on Longformer-base's projection (768 -> 768) and
  // FFN-expand (768 -> 3072) shapes.
  {
    struct PackedShape {
      const char* tag;
      std::int64_t m, k, n;
    };
    const std::int64_t pm = smoke ? 128 : 512;
    const PackedShape shapes[] = {
        {"proj", pm, smoke ? 256 : 768, smoke ? 256 : 768},
        {"ffn", pm, smoke ? 256 : 768, smoke ? 512 : 3072},
    };
    for (const PackedShape& sh : shapes) {
      swat::MatrixF a = swat::random_normal(sh.m, sh.k, rng);
      swat::MatrixF w = swat::random_normal(sh.n, sh.k, rng);
      std::vector<float> bias(static_cast<std::size_t>(sh.n));
      for (float& b : bias) b = static_cast<float>(rng.uniform(-1.0, 1.0));
      BenchRow r;
      const std::string shape = std::string(sh.tag) + "_" +
                                std::to_string(sh.m) + "x" +
                                std::to_string(sh.k) + "x" +
                                std::to_string(sh.n);
      r.name = "gemm_packed_" + shape;
      r.baseline = "blocked_bias_gemm";
      r.flops = 2.0 * sh.m * sh.k * sh.n;
      const swat::MatrixF wt = swat::transpose(w);  // the old cached W^T
      swat::PackedWeight packed;
      swat::pack_weight_nt(w, packed);  // packed once, as Engine::compile does
      swat::MatrixF c_base(sh.m, sh.n), c_packed(sh.m, sh.n);
      // Baseline timed single-threaded like every other arm's baseline,
      // so speedup_1t compares one thread against one thread.
      swat::set_num_threads(1);
      r.naive_s = best_time(reps, [&] {
        swat::detail::gemm(a.data(), sh.k, wt.data(), sh.n, c_base.data(),
                           sh.n, sh.m, sh.n, sh.k, bias.data(),
                           /*parallel=*/true);
      });
      r.blocked_1t_s = best_time(reps, [&] {
        swat::gemm_packed_into(a, packed, bias, c_packed);
      });
      swat::set_num_threads(pool_threads);
      r.blocked_mt_s = best_time(reps, [&] {
        swat::gemm_packed_into(a, packed, bias, c_packed);
      });
      r.max_abs_diff = swat::max_abs_diff(c_packed, c_base);
      r.weight_bytes = static_cast<double>(packed.bytes());
      rows.push_back(r);

      // The half-precision pack on the same shape, against the fp32 pack
      // it replaces (explicitly named baseline): half the streamed weight
      // bytes, fp32 accumulation throughout, and FMA contraction in the
      // widened tile — the acceptance gate wants >= 1.2x on the FFN shape.
      swat::PackedWeight packed_f16;
      swat::pack_weight_nt(w, packed_f16, swat::Dtype::kFp16);
      swat::MatrixF c_f16(sh.m, sh.n);
      BenchRow h;
      h.name = "gemm_packed_f16_" + shape;
      h.baseline = "gemm_packed_f32";
      h.flops = r.flops;
      h.weight_bytes = static_cast<double>(packed_f16.bytes());
      swat::set_num_threads(1);
      h.naive_s = best_time(reps, [&] {
        swat::gemm_packed_into(a, packed, bias, c_packed);
      });
      h.blocked_1t_s = best_time(reps, [&] {
        swat::gemm_packed_into(a, packed_f16, bias, c_f16);
      });
      swat::set_num_threads(pool_threads);
      h.blocked_mt_s = best_time(reps, [&] {
        swat::gemm_packed_into(a, packed_f16, bias, c_f16);
      });
      // fp16 rounds each weight once; the diff against the fp32 pack is
      // the fidelity-budgeted rounding, not an implementation bug.
      h.max_abs_diff = swat::max_abs_diff(c_f16, c_packed);
      rows.push_back(h);

      swat::MatrixF c_tier(sh.m, sh.n);
      add_isa_rows(rows, r, "gemm_packed", shape, reps,
                   pool_threads, c_packed, c_tier,
                   [&](swat::detail::KernelIsa isa, swat::MatrixF& c) {
                     swat::detail::gemm_packed_isa(
                         isa, a, packed, bias,
                         swat::detail::PackedEpilogue::kNone, {}, c);
                   });
    }
  }

  // ---- fused streaming attention (the serving kernel) -------------------
  // Baseline replicates the per-(sequence, head) serving path this PR
  // replaced: slice the head's Q/K/V (folding in the logit scale), run the
  // banded stable-softmax attention into a staging matrix, scatter back
  // into the packed concat buffer. The fused kernel streams Eq. 1 in place.
  // Full size adds servebench longdoc's shape (one 3072-token document,
  // the d256/h4 encoder's 4 heads x 64, band 256/255).
  struct AttnShape {
    const char* tag;
    std::int64_t n, heads, before;
  };
  std::vector<AttnShape> attn_shapes = {
      {"", smoke ? 512 : 2048, 12, smoke ? 64 : 256}};
  if (!smoke) attn_shapes.push_back({"longdoc_", 3072, 4, 256});
  for (const AttnShape& as : attn_shapes) {
    const std::int64_t fa_n = as.n;
    const std::int64_t fa_heads = as.heads;
    const std::int64_t fa_h = 64;
    const std::int64_t fa_d = fa_heads * fa_h;
    const std::int64_t before = as.before;
    const std::int64_t after = before - 1;  // SWAT's 2w-core band
    const float scale = 1.0f / std::sqrt(static_cast<float>(fa_h));
    const swat::MatrixF q = swat::random_normal(fa_n, fa_d, rng, 0.3);
    const swat::MatrixF k = swat::random_normal(fa_n, fa_d, rng, 0.3);
    const swat::MatrixF v = swat::random_normal(fa_n, fa_d, rng);
    const std::int64_t offsets[2] = {0, fa_n};

    BenchRow r;
    const std::string shape = std::string(as.tag) + "n" +
                              std::to_string(fa_n) + "_w" +
                              std::to_string(before) + "_h" +
                              std::to_string(fa_h);
    r.name = "fused_attention_" + shape;
    r.baseline = "band_slice_scatter";
    // QK + SV multiply-accumulates over the clipped band, all heads.
    double band_rows = 0;
    for (std::int64_t i = 0; i < fa_n; ++i) {
      band_rows += static_cast<double>(
          std::min<std::int64_t>(fa_n - 1, i + after) -
          std::max<std::int64_t>(0, i - before) + 1);
    }
    r.flops = 2.0 * 2.0 * fa_heads * band_rows * fa_h;

    swat::MatrixF concat_base(fa_n, fa_d), concat_fused(fa_n, fa_d);
    const auto baseline = [&] {
      swat::attn::HeadInput in;
      swat::MatrixF z;
      for (std::int64_t head = 0; head < fa_heads; ++head) {
        const std::int64_t base = head * fa_h;
        in.q.reshape(fa_n, fa_h);
        in.k.reshape(fa_n, fa_h);
        in.v.reshape(fa_n, fa_h);
        for (std::int64_t i = 0; i < fa_n; ++i) {
          for (std::int64_t d = 0; d < fa_h; ++d) {
            in.q(i, d) = q(i, base + d) * scale;
            in.k(i, d) = k(i, base + d);
            in.v(i, d) = v(i, base + d);
          }
        }
        swat::attn::band_attention_into(in, before, after, z);
        for (std::int64_t i = 0; i < fa_n; ++i) {
          for (std::int64_t d = 0; d < fa_h; ++d) {
            concat_base(i, base + d) = z(i, d);
          }
        }
      }
    };
    const auto fused = [&] {
      swat::attn::fused_window_attention_batch_into(
          q, k, v, offsets, fa_heads, before, after, scale, concat_fused);
    };
    r.naive_s = best_time(reps, baseline);
    swat::set_num_threads(1);
    r.blocked_1t_s = best_time(reps, fused);
    swat::set_num_threads(pool_threads);
    r.blocked_mt_s = best_time(reps, fused);
    // Eq. 1 defers the division and skips the max subtraction, so the
    // fused kernel is numerically close to, not bitwise equal to, the
    // stable-softmax baseline.
    r.max_abs_diff = swat::max_abs_diff(concat_fused, concat_base);
    r.kv_bytes = static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
        fa_n, fa_heads, fa_h, before, after, swat::Dtype::kFp32));
    r.kv_eff_bytes = r.kv_bytes;
    rows.push_back(r);

    // The half-precision streamed tiles on the same shape, against the
    // fp32 stream they replace (explicitly named baseline): half the K/V
    // tile bytes, fp32 scores/accumulation throughout. The acceptance
    // gate wants >= 1.2x effective K/V bandwidth at one thread — both
    // arms' kv_gbps_1t price the band at fp32 width, so the gate is
    // exactly speedup_1t (the fp32/fp16 wall-time ratio) >= 1.2x; on the
    // native build the fp16 worker earns it with in-register vcvtph2ps
    // widening and libmvec's vectorized exp pass.
    swat::MatrixF concat_f16(fa_n, fa_d);
    BenchRow h;
    h.name = "fused_attention_f16stream_" + shape;
    h.baseline = "fused_attention_f32stream";
    h.flops = r.flops;
    h.kv_bytes = static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
        fa_n, fa_heads, fa_h, before, after, swat::Dtype::kFp16));
    h.kv_eff_bytes = r.kv_eff_bytes;
    const auto fused_f16 = [&] {
      swat::attn::fused_window_attention_batch_into(
          q, k, v, offsets, fa_heads, before, after, scale, concat_f16,
          swat::Dtype::kFp16);
    };
    swat::set_num_threads(1);
    h.naive_s = best_time(reps, fused);
    h.blocked_1t_s = best_time(reps, fused_f16);
    swat::set_num_threads(pool_threads);
    h.blocked_mt_s = best_time(reps, fused_f16);
    // fp16 rounds each K/V tile element once; the diff against the fp32
    // stream is the fidelity-budgeted rounding, not an implementation bug.
    h.max_abs_diff = swat::max_abs_diff(concat_f16, concat_fused);
    rows.push_back(h);

    swat::MatrixF concat_tier(fa_n, fa_d);
    add_isa_rows(rows, r, "fused_attention", shape, reps,
                 pool_threads, concat_fused, concat_tier,
                 [&](swat::detail::KernelIsa isa, swat::MatrixF& out) {
                   swat::attn::detail::fused_window_attention_batch_isa(
                       isa, q, k, v, offsets, fa_heads, before, after, scale,
                       out);
                 });
  }

  const bool json_ok = emit_json(rows, out_path, pool_threads);

  std::cout << "serving kernels dispatch to ISA tier " << swat::kernel_isa()
            << "\n";
  std::cout << "kernel                          baseline kernel(1t) kernel("
            << pool_threads << "t)  speedup(1t)\n";
  for (const BenchRow& r : rows) {
    std::printf("%-30s %7.2f %10.2f %11.2f %9.2fx   (max|diff| %.2e)\n",
                r.name.c_str(), r.gflops(r.naive_s), r.gflops(r.blocked_1t_s),
                r.gflops(r.blocked_mt_s), r.naive_s / r.blocked_1t_s,
                static_cast<double>(r.max_abs_diff));
  }
  if (json_ok) std::cout << "wrote " << out_path << "\n";
  return json_ok ? 0 : 1;
}
