// Tests for the runtime ISA dispatch of the fp32 serving kernels
// (common/isa.hpp): every tier the host supports must produce exactly the
// bits of the baseline tier and of the scalar oracles, for the packed GEMM
// (all three epilogues) and the fused window attention, at 1 and 4
// threads; and the dispatched tier must be the highest one the CPU
// reports.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "attention/fused.hpp"
#include "common/isa.hpp"
#include "common/rng.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using detail::KernelIsa;
using detail::PackedEpilogue;
using swat::testing::ThreadCountGuard;

std::vector<KernelIsa> supported_tiers() {
  std::vector<KernelIsa> tiers;
  for (int i = 0; i < detail::kKernelIsaCount; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (detail::kernel_isa_supported(isa)) tiers.push_back(isa);
  }
  return tiers;
}

std::string tier_label(KernelIsa isa, int threads) {
  return std::string(detail::kernel_isa_name(isa)) + " threads=" +
         std::to_string(threads);
}

TEST(IsaDispatch, KernelIsaNamesHighestTierTheCpuReports) {
  const char* expected = "baseline";
#if SWAT_ISA_TIERS
  __builtin_cpu_init();
  const bool v3 = __builtin_cpu_supports("avx") &&
                  __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("f16c");
  const bool v4 = v3 && __builtin_cpu_supports("avx512f") &&
                  __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512dq") &&
                  __builtin_cpu_supports("avx512vl");
  if (v4) {
    expected = "x86-64-v4";
  } else if (v3) {
    expected = "x86-64-v3";
  }
#endif
  EXPECT_STREQ(kernel_isa(), expected);
  EXPECT_STREQ(kernel_isa(),
               detail::kernel_isa_name(detail::dispatched_kernel_isa()));
  EXPECT_TRUE(detail::kernel_isa_supported(KernelIsa::kBaseline));
}

TEST(IsaDispatch, UnsupportedTierIsRejectedNotRun) {
  // Every tier this host lacks, plus a value past the last tier.
  const MatrixF a(2, 4, 1.0f);
  PackedWeight w;
  pack_weight_nt(MatrixF(3, 4, 1.0f), w);
  MatrixF out(2, 3), attn_out(2, 4);
  for (int i = 0; i <= detail::kKernelIsaCount; ++i) {
    const auto isa = static_cast<KernelIsa>(i);
    if (detail::kernel_isa_supported(isa)) continue;
    EXPECT_THROW(detail::gemm_packed_isa(isa, a, w, {}, PackedEpilogue::kNone,
                                         {}, out),
                 std::invalid_argument)
        << detail::kernel_isa_name(isa);
    EXPECT_THROW(attn::detail::fused_window_attention_batch_isa(
                     isa, a, a, a, std::vector<std::int64_t>{0, 2}, 1, 1, 1,
                     1.0f, attn_out),
                 std::invalid_argument)
        << detail::kernel_isa_name(isa);
  }
}

// m covers a single row, fewer rows than any tile, exactly one 6-row tile,
// one tile plus a remainder row, and many tiles plus a ragged tail; n is
// never a multiple of the 32-lane panel and k never a multiple of the
// 4-deep unroll.
TEST(IsaDispatch, PackedGemmBitIdenticalAcrossTiersAndToOracles) {
  Rng rng(2024);
  const std::vector<std::int64_t> ms = {1, 5, 6, 7, 517};
  const std::vector<std::pair<std::int64_t, std::int64_t>> nks = {
      {45, 13}, {77, 67}, {33, 130}};
  const std::vector<KernelIsa> tiers = supported_tiers();
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    for (const auto& [n, k] : nks) {
      const MatrixF w = random_normal(n, k, rng);
      PackedWeight packed;
      pack_weight_nt(w, packed);
      std::vector<float> bias(static_cast<std::size_t>(n));
      for (auto& b : bias) b = static_cast<float>(rng.normal());
      for (const std::int64_t m : ms) {
        const MatrixF a = random_normal(m, k, rng);
        const MatrixF residual = random_normal(m, n, rng);
        const MatrixF plain = matmul_nt_naive(a, w);
        const MatrixF want_gelu = gelu_naive(plain);
        const MatrixF want_res = add_rows_naive(plain, residual);
        MatrixF base_bias(m, n);
        detail::gemm_packed_isa(KernelIsa::kBaseline, a, packed, bias,
                                PackedEpilogue::kNone, {}, base_bias);
        for (const KernelIsa isa : tiers) {
          const std::string at = tier_label(isa, threads) + " m=" +
                                 std::to_string(m) + " n=" +
                                 std::to_string(n) + " k=" +
                                 std::to_string(k);
          MatrixF got(m, n, -7.0f);
          detail::gemm_packed_isa(isa, a, packed, {}, PackedEpilogue::kNone,
                                  {}, got);
          swat::testing::expect_matrix_equal(got, plain,
                                             ("plain vs naive " + at).c_str());
          detail::gemm_packed_isa(isa, a, packed, {}, PackedEpilogue::kGelu,
                                  {}, got);
          swat::testing::expect_matrix_equal(got, want_gelu,
                                             ("gelu vs naive " + at).c_str());
          detail::gemm_packed_isa(isa, a, packed, {},
                                  PackedEpilogue::kResidualAdd, residual,
                                  got);
          swat::testing::expect_matrix_equal(got, want_res,
                                             ("residual vs naive " + at).c_str());
          detail::gemm_packed_isa(isa, a, packed, bias, PackedEpilogue::kNone,
                                  {}, got);
          swat::testing::expect_matrix_equal(got, base_bias,
                                             ("bias vs baseline " + at).c_str());
        }
      }
    }
  }
}

struct AttnCase {
  std::vector<std::int64_t> lengths;
  std::int64_t before, after;
  double q_scale;  // multiplies the 0.3 stddev of Q and K
  std::int64_t h = 24;
};

// Clipped windows (reach beyond the sequence), asymmetric bands and
// multi-sequence offsets; the fifth case drives the logits far past the
// literal Eq. 1 range so every tier also runs the row-max guard's
// shifted path. The rest cover the worker's register blocks (4 query
// rows, 32 score columns, 64-wide Z chunks): the serving head dim 64 (full
// Z chunks only) and 80 (a full chunk plus a tail), sequences shorter than
// a row block, sequences whose last 64-row tile ends in a partial block,
// bands narrower than a block (radius 0 and 1), and a band wider than a
// whole 64-row tile.
TEST(IsaDispatch, FusedAttentionBitIdenticalAcrossTiersAndToOracle) {
  const std::int64_t num_heads = 3;
  const std::vector<AttnCase> cases = {
      {{19, 1, 70}, 5, 5, 1.0},       {{13, 2, 29}, 40, 40, 1.0},
      {{21, 66, 5}, 7, 3, 1.0},       {{3, 90}, 0, 17, 1.0},
      {{31, 64}, 9, 9, 40.0},         {{67, 130}, 9, 9, 1.0, 64},
      {{130, 67}, 21, 20, 1.0, 64},   {{67, 3}, 12, 12, 1.0, 80},
      {{1, 2, 3}, 5, 5, 1.0, 64},     {{1, 2, 3}, 5, 5, 1.0},
      {{67, 130}, 0, 0, 1.0, 64},     {{67, 130}, 1, 1, 1.0, 64},
      {{130, 67}, 1, 1, 1.0},         {{200, 67}, 70, 70, 1.0, 64},
  };
  const std::vector<KernelIsa> tiers = supported_tiers();
  Rng rng(99);
  for (const AttnCase& c : cases) {
    const std::int64_t h = c.h, d_model = num_heads * h;
    const float scale = 1.0f / std::sqrt(static_cast<float>(h));
    std::vector<std::int64_t> offsets = {0};
    std::int64_t rows = 0;
    for (const std::int64_t len : c.lengths) offsets.push_back(rows += len);
    const MatrixF q = random_normal(rows, d_model, rng, 0.3 * c.q_scale);
    const MatrixF k = random_normal(rows, d_model, rng, 0.3 * c.q_scale);
    const MatrixF v = random_normal(rows, d_model, rng);
    for (const int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      MatrixF base(rows, d_model);
      attn::detail::fused_window_attention_batch_isa(
          KernelIsa::kBaseline, q, k, v, offsets, num_heads, c.before,
          c.after, scale, base);
      for (const KernelIsa isa : tiers) {
        const std::string at = tier_label(isa, threads) + " h=" +
                               std::to_string(h) + " before=" +
                               std::to_string(c.before) + " after=" +
                               std::to_string(c.after);
        MatrixF got(rows, d_model, -5.0f);
        attn::detail::fused_window_attention_batch_isa(
            isa, q, k, v, offsets, num_heads, c.before, c.after, scale, got);
        swat::testing::expect_matrix_equal(got, base, ("vs baseline " + at).c_str());
        for (const float x : got.flat()) ASSERT_TRUE(std::isfinite(x)) << at;
        if (c.before != c.after || c.q_scale != 1.0) continue;
        // Symmetric, literal-range bands: the per-head Eq. 1 oracle.
        for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
          const std::int64_t row0 = offsets[s];
          const std::int64_t n = offsets[s + 1] - row0;
          for (std::int64_t head = 0; head < num_heads; ++head) {
            attn::HeadInput in;
            in.q = MatrixF(n, h);
            in.k = MatrixF(n, h);
            in.v = MatrixF(n, h);
            for (std::int64_t i = 0; i < n; ++i) {
              for (std::int64_t d = 0; d < h; ++d) {
                in.q(i, d) = q(row0 + i, head * h + d) * scale;
                in.k(i, d) = k(row0 + i, head * h + d);
                in.v(i, d) = v(row0 + i, head * h + d);
              }
            }
            const MatrixF want = attn::fused_window_attention(in, c.before);
            for (std::int64_t i = 0; i < n; ++i) {
              for (std::int64_t d = 0; d < h; ++d) {
                ASSERT_EQ(got(row0 + i, head * h + d), want(i, d))
                    << at << " seq=" << s << " head=" << head << " row=" << i
                    << " d=" << d;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace swat
