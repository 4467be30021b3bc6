#include "attention/fused.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

#if defined(SWAT_HAVE_MVEC) && defined(__AVX512F__)
// glibc libmvec's 16-lane expf (<= 4 ulp): the fp16 streamed path's exp
// stage, which is free of the fp32 path's oracle-bit-parity pin.
extern "C" __m512 _ZGVeN16v_expf(__m512 x);
#elif defined(SWAT_HAVE_MVEC) && defined(__AVX2__)
extern "C" __m256 _ZGVdN8v_expf(__m256 x);
#endif

namespace swat::attn {

namespace {

using swat::detail::KernelIsa;

#if defined(__F16C__)
// Inline scalar widen for the <8-lane loop tails: one vcvtph2ps, same bits
// as the batch converter (exact widening), no out-of-line call per element.
inline float f16_tail_to_f32(std::uint16_t bits) { return _cvtsh_ss(bits); }
#endif

// Query rows per tile of the serving workers (see fused_window_tasks).
constexpr std::int64_t kQueryTile = 64;
// Register block of the fp32 worker (fused_tasks_f32.inc): query rows per
// block, score columns per register tile, and Z columns per S'V chunk.
constexpr int kRowBlock = 4;
constexpr std::int64_t kScoreCols = 32;
constexpr std::int64_t kZChunk = 64;

/// Largest |row max| for which a band of up to `band` scores runs Eq. 1
/// literally: exp(limit) * band stays below FLT_MAX, so neither an exp
/// nor the denominator can overflow, and limit <= 80 keeps exp(-limit) a
/// normal float, so the row's largest term alone keeps denom > 0.
inline float literal_exp_limit(std::int64_t band) {
  return std::min(80.0f, std::log(std::numeric_limits<float>::max() /
                                  static_cast<float>(band)));
}

/// Row-max guard of the serving workers. While the band's max lies in
/// [-limit, limit] the scores are left untouched, so the row is Eq. 1
/// literally and bit-identical to fused_window_attention; otherwise the
/// max is subtracted first, so exp and the denominator stay finite and
/// non-zero (the softmax is unchanged in real arithmetic).
inline void shift_band_if_out_of_range(float* sb, std::int64_t count,
                                       float limit) {
  float mx = sb[0];
  for (std::int64_t c = 1; c < count; ++c) mx = std::max(mx, sb[c]);
  if (mx >= -limit && mx <= limit) return;
  for (std::int64_t c = 0; c < count; ++c) sb[c] -= mx;
}

// The fp32 worker, one copy per ISA tier (common/isa.hpp).
namespace isa_baseline {
#include "attention/fused_tasks_f32.inc"
}  // namespace isa_baseline

#if SWAT_ISA_V3_COPY
SWAT_ISA_PUSH_V3
namespace isa_v3 {
#include "attention/fused_tasks_f32.inc"
}  // namespace isa_v3
SWAT_ISA_POP
#endif

#if SWAT_ISA_V4_COPY
SWAT_ISA_PUSH_V4
namespace isa_v4 {
#include "attention/fused_tasks_f32.inc"
}  // namespace isa_v4
SWAT_ISA_POP
#endif

using FusedTasksFn = decltype(&isa_baseline::fused_window_tasks);

FusedTasksFn fused_tasks_for(KernelIsa isa) {
  SWAT_EXPECTS(swat::detail::kernel_isa_supported(isa));
  switch (isa) {
#if SWAT_ISA_V4_COPY
    case KernelIsa::kX86_64_V4:
      return isa_v4::fused_window_tasks;
#endif
#if SWAT_ISA_V3_COPY
    case KernelIsa::kX86_64_V3:
      return isa_v3::fused_window_tasks;
#endif
    default:
      return isa_baseline::fused_window_tasks;
  }
}

// Defined below; the fp16 streamed-tile worker (build ISA only).
void fused_window_tasks_f16(ConstMatrixView q, ConstMatrixView k,
                            ConstMatrixView v,
                            std::span<const std::int64_t> offsets,
                            std::int64_t num_heads, std::int64_t window_before,
                            std::int64_t window_after, float scale,
                            MatrixView out, std::int64_t tiles,
                            std::int64_t t0, std::int64_t t1);

void fused_window_batch_impl(KernelIsa isa, ConstMatrixView q,
                             ConstMatrixView k, ConstMatrixView v,
                             std::span<const std::int64_t> offsets,
                             std::int64_t num_heads,
                             std::int64_t window_before,
                             std::int64_t window_after, float scale,
                             MatrixView out, Dtype stream_dtype) {
  SWAT_EXPECTS(stream_dtype == Dtype::kFp32 || stream_dtype == Dtype::kFp16);
  SWAT_EXPECTS(num_heads >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  const std::int64_t rows = q.rows();
  const std::int64_t d_model = q.cols();
  SWAT_EXPECTS(d_model % num_heads == 0);
  SWAT_EXPECTS(k.rows() == rows && k.cols() == d_model);
  SWAT_EXPECTS(v.rows() == rows && v.cols() == d_model);
  SWAT_EXPECTS(out.rows() == rows && out.cols() == d_model);
  SWAT_EXPECTS(offsets.size() >= 2);
  SWAT_EXPECTS(offsets.front() == 0 && offsets.back() == rows);
  const std::int64_t nseq = static_cast<std::int64_t>(offsets.size()) - 1;
  std::int64_t longest = 0;
  for (std::int64_t s = 0; s < nseq; ++s) {
    SWAT_EXPECTS(offsets[static_cast<std::size_t>(s)] <
                 offsets[static_cast<std::size_t>(s + 1)]);
    longest = std::max(longest, offsets[static_cast<std::size_t>(s + 1)] -
                                    offsets[static_cast<std::size_t>(s)]);
  }
  const FusedTasksFn tasks = stream_dtype == Dtype::kFp16
                                 ? fused_window_tasks_f16
                                 : fused_tasks_for(isa);

  // (sequence, head, query tile) tasks fan out over the pool, `tiles` per
  // (sequence, head) whatever the sequence's length, so a singleton batch
  // still spreads over every thread. Rows within a tile run serially (in
  // register blocks) and each row's output reads only its own band, so
  // every output element's reduction order is fixed regardless of the
  // partition.
  const std::int64_t tiles = (longest + kQueryTile - 1) / kQueryTile;
  parallel_for(0, nseq * num_heads * tiles, 1,
               [&](std::int64_t t0, std::int64_t t1) {
                 tasks(q, k, v, offsets, num_heads, window_before,
                       window_after, scale, out, tiles, t0, t1);
               });
}

}  // namespace

void fused_window_attention_batch_into(ConstMatrixView q, ConstMatrixView k,
                                       ConstMatrixView v,
                                       std::span<const std::int64_t> offsets,
                                       std::int64_t num_heads,
                                       std::int64_t window_before,
                                       std::int64_t window_after, float scale,
                                       MatrixView out, Dtype stream_dtype) {
  fused_window_batch_impl(swat::detail::dispatched_kernel_isa(), q, k, v,
                          offsets, num_heads, window_before, window_after,
                          scale, out, stream_dtype);
}

void detail::fused_window_attention_batch_isa(
    KernelIsa isa, ConstMatrixView q, ConstMatrixView k, ConstMatrixView v,
    std::span<const std::int64_t> offsets, std::int64_t num_heads,
    std::int64_t window_before, std::int64_t window_after, float scale,
    MatrixView out) {
  fused_window_batch_impl(isa, q, k, v, offsets, num_heads, window_before,
                          window_after, scale, out, Dtype::kFp32);
}

std::int64_t fused_window_kv_stream_bytes(std::int64_t seq_len,
                                          std::int64_t num_heads,
                                          std::int64_t head_dim,
                                          std::int64_t window_before,
                                          std::int64_t window_after,
                                          Dtype stream_dtype) {
  SWAT_EXPECTS(seq_len >= 1 && num_heads >= 1 && head_dim >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  // sum_i (hi_i - lo_i + 1) with hi = min(n-1, i+wa), lo = max(0, i-wb),
  // in closed form: n + sum min(n-1, i+wa) - sum max(0, i-wb).
  const std::int64_t n = seq_len;
  const std::int64_t unclipped_hi = std::max<std::int64_t>(0, n - window_after);
  const std::int64_t sum_hi = unclipped_hi * window_after +
                              unclipped_hi * (unclipped_hi - 1) / 2 +
                              (n - unclipped_hi) * (n - 1);
  const std::int64_t past_lo = n - 1 - window_before;
  const std::int64_t sum_lo = past_lo > 0 ? past_lo * (past_lo + 1) / 2 : 0;
  const std::int64_t band_sum = n + sum_hi - sum_lo;
  // Each band element is read from both the K tile and the V band.
  return 2 * num_heads * head_dim * band_sum *
         static_cast<std::int64_t>(dtype_bytes(stream_dtype));
}

namespace {

// fp16 streamed-tile twin of fused_window_tasks. The transposed K tile and
// the row-major V band are narrowed to binary16 once per (sequence, head,
// tile) with the RNE SIMD converter, so the score and S'V stages stream 2
// bytes per K/V element instead of 4. On F16C hosts the hot loops widen
// lanes in-register (vcvtph2ps feeding the FMA directly — the streamed
// bytes really halve); elsewhere the fp16 tiles are widened once per tile
// into fp32 twins, amortizing the scalar conversion over every query row
// that reuses the tile. Scores, the exp/denominator pass and the Z
// accumulator stay fp32 with the same per-element ascending reduction
// order as the fp32 worker (scores ascend d, Z ascends c), so outputs are
// bit-identical across thread counts, arrival orders, replica counts and
// batch compositions. Unlike the fp32 worker this one carries no
// SWAT_NO_FP_CONTRACT pin: the tile rounding already broke oracle
// bit-parity, so contraction is allowed (like gemm_packed's fp16 tile) and
// accuracy is budgeted by eval/stream_fidelity instead.
void fused_window_tasks_f16(ConstMatrixView q, ConstMatrixView k,
                            ConstMatrixView v,
                            std::span<const std::int64_t> offsets,
                            std::int64_t num_heads, std::int64_t window_before,
                            std::int64_t window_after, float scale,
                            MatrixView out, std::int64_t tiles,
                            std::int64_t t0, std::int64_t t1) {
  const std::int64_t h = q.cols() / num_heads;
  {
    // O(window x head_dim) scratch: one scaled query row, one row's score
    // band and one Z row, plus the two fp16 tiles (and, off-F16C, their
    // fp32 twins); u16 storage leases ceil(n/2) floats from the same
    // thread-local arena, so the path stays allocation-free after warmup.
    const std::int64_t band = window_before + window_after + 1;
    const std::int64_t tile_cols = kQueryTile + band - 1;
    const float exp_limit = literal_exp_limit(band);
    const auto u16_floats = [](std::int64_t n) {
      return static_cast<std::size_t>((n + 1) / 2);
    };
    WorkspaceLease qs_lease(tls_workspace(), static_cast<std::size_t>(h));
    WorkspaceLease s_lease(tls_workspace(), static_cast<std::size_t>(band));
    WorkspaceLease z_lease(tls_workspace(), static_cast<std::size_t>(h));
    WorkspaceLease row16_lease(tls_workspace(), u16_floats(h));
    WorkspaceLease kt16_lease(tls_workspace(), u16_floats(tile_cols * h));
    WorkspaceLease vb16_lease(tls_workspace(), u16_floats(tile_cols * h));
    float* const qs = qs_lease.data();
    float* const sp = s_lease.data();
    float* const zacc = z_lease.data();
    auto* const row16 = reinterpret_cast<std::uint16_t*>(row16_lease.data());
    auto* const kt16 = reinterpret_cast<std::uint16_t*>(kt16_lease.data());
    auto* const vb16 = reinterpret_cast<std::uint16_t*>(vb16_lease.data());
#if !defined(__F16C__)
    WorkspaceLease kt32_lease(tls_workspace(),
                              static_cast<std::size_t>(tile_cols * h));
    WorkspaceLease vb32_lease(tls_workspace(),
                              static_cast<std::size_t>(tile_cols * h));
    float* const kt32 = kt32_lease.data();
    float* const vb32 = vb32_lease.data();
#endif
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t s = t / (num_heads * tiles);
      const std::int64_t base = (t / tiles % num_heads) * h;
      const std::int64_t row0 = offsets[static_cast<std::size_t>(s)];
      const std::int64_t n = offsets[static_cast<std::size_t>(s + 1)] - row0;
      const std::int64_t i0 = t % tiles * kQueryTile;
      if (i0 < n) {
        const std::int64_t i1 = std::min(i0 + kQueryTile, n);
        const std::int64_t tk0 = std::max<std::int64_t>(0, i0 - window_before);
        const std::int64_t tk1 =
            std::min<std::int64_t>(n - 1, i1 - 1 + window_after);
        const std::int64_t tk = tk1 - tk0 + 1;
        // kt16[d * tk + (j - tk0)] = fp16(K[row0 + j][base + d]): each K
        // head row is narrowed contiguously (one SIMD batch convert) then
        // scattered into the transposed tile. The V band keeps the row
        // layout S'V consumes (vb16[(j - tk0) * h + d]), so it narrows
        // straight into place with no scatter.
        for (std::int64_t j = tk0; j <= tk1; ++j) {
          f32_to_f16_bits_batch(k.row(row0 + j).data() + base, row16,
                                static_cast<std::size_t>(h));
          for (std::int64_t d = 0; d < h; ++d) {
            kt16[d * tk + (j - tk0)] = row16[d];
          }
          f32_to_f16_bits_batch(v.row(row0 + j).data() + base,
                                vb16 + (j - tk0) * h,
                                static_cast<std::size_t>(h));
        }
#if !defined(__F16C__)
        // No in-register widen on this host: round-trip the whole tile to
        // fp32 once (two contiguous batch converts, amortized over all
        // kQueryTile rows) and let the hot loops below run pure fp32.
        f16_bits_to_f32_batch(kt16, kt32, static_cast<std::size_t>(tk * h));
        f16_bits_to_f32_batch(vb16, vb32, static_cast<std::size_t>(tk * h));
#endif
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* qrow = q.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) qs[d] = qrow[d] * scale;
          const std::int64_t lo =
              std::max<std::int64_t>(0, i - window_before);
          const std::int64_t hi =
              std::min<std::int64_t>(n - 1, i + window_after);
          const std::int64_t count = hi - lo + 1;
          const std::int64_t loff = lo - tk0;
          // Score stage: d-major over the K tile; every score column
          // accumulates its d-sum in ascending order (lanes never split a
          // single element's reduction), exactly like the fp32 worker.
          float* const __restrict sb = sp;
          std::fill(sb, sb + count, 0.0f);
          for (std::int64_t d = 0; d < h; ++d) {
            const float qd = qs[d];
#if defined(__F16C__)
            const std::uint16_t* const __restrict ktd = kt16 + d * tk + loff;
            std::int64_t c = 0;
#if defined(__AVX512F__)
            // 32 fp16 bytes feed a full 64-byte zmm FMA — the halved
            // stream doubles the lanes one load port cycle can supply.
            const __m512 qd16 = _mm512_set1_ps(qd);
            for (; c + 16 <= count; c += 16) {
              const __m512 kw = _mm512_cvtph_ps(_mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(ktd + c)));
              _mm512_storeu_ps(
                  sb + c,
                  _mm512_fmadd_ps(qd16, kw, _mm512_loadu_ps(sb + c)));
            }
#endif
            const __m256 qd8 = _mm256_set1_ps(qd);
            for (; c + 8 <= count; c += 8) {
              const __m256 kw = _mm256_cvtph_ps(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(ktd + c)));
              _mm256_storeu_ps(
                  sb + c,
                  _mm256_fmadd_ps(qd8, kw, _mm256_loadu_ps(sb + c)));
            }
            for (; c < count; ++c) sb[c] += qd * f16_tail_to_f32(ktd[c]);
#else
            const float* const __restrict ktd = kt32 + d * tk + loff;
            for (std::int64_t c = 0; c < count; ++c) sb[c] += qd * ktd[c];
#endif
          }
          shift_band_if_out_of_range(sb, count, exp_limit);
          // Exp pass: the fp16 stream trades oracle bit-parity for speed
          // under the fidelity budget, so it may use libmvec's vectorized
          // expf (<= 4 ulp — orders of magnitude inside the binary16
          // budget) where the fp32 worker pins scalar std::exp. The
          // denominator still sums in a separate ascending pass, so its
          // reduction order never depends on the lane width.
          {
            std::int64_t c = 0;
#if defined(SWAT_HAVE_MVEC) && defined(__AVX512F__)
            for (; c + 16 <= count; c += 16) {
              _mm512_storeu_ps(sb + c,
                               _ZGVeN16v_expf(_mm512_loadu_ps(sb + c)));
            }
#elif defined(SWAT_HAVE_MVEC) && defined(__AVX2__)
            for (; c + 8 <= count; c += 8) {
              _mm256_storeu_ps(sb + c,
                               _ZGVdN8v_expf(_mm256_loadu_ps(sb + c)));
            }
#endif
            for (; c < count; ++c) sb[c] = std::exp(sb[c]);
          }
          float denom = 0.0f;
          for (std::int64_t c = 0; c < count; ++c) denom += sb[c];
          // S'V stage: c-major axpy over the row-layout V band — za[d]
          // sums its band in the fp32 worker's ascending-c order, just
          // from half-precision rows.
          float* const __restrict za = zacc;
          std::fill(za, za + h, 0.0f);
          for (std::int64_t c = 0; c < count; ++c) {
            const float e = sb[c];
#if defined(__F16C__)
            const std::uint16_t* const __restrict vr =
                vb16 + (loff + c) * h;
            std::int64_t d = 0;
#if defined(__AVX512F__)
            const __m512 e16 = _mm512_set1_ps(e);
            for (; d + 16 <= h; d += 16) {
              const __m512 vw = _mm512_cvtph_ps(_mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(vr + d)));
              _mm512_storeu_ps(
                  za + d,
                  _mm512_fmadd_ps(e16, vw, _mm512_loadu_ps(za + d)));
            }
#endif
            const __m256 e8 = _mm256_set1_ps(e);
            for (; d + 8 <= h; d += 8) {
              const __m256 vw = _mm256_cvtph_ps(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(vr + d)));
              _mm256_storeu_ps(
                  za + d,
                  _mm256_fmadd_ps(e8, vw, _mm256_loadu_ps(za + d)));
            }
            for (; d < h; ++d) za[d] += e * f16_tail_to_f32(vr[d]);
#else
            const float* const __restrict vr = vb32 + (loff + c) * h;
            for (std::int64_t d = 0; d < h; ++d) za[d] += e * vr[d];
#endif
          }
          SWAT_ENSURES(denom > 0.0f);
          float* const zrow = out.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) zrow[d] = za[d] / denom;
        }
      }
    }
  }
}

}  // namespace

MatrixF fused_window_attention(const HeadInput& in,
                               std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    float denom = 0.0f;
    auto zrow = z.row(i);
    // One pass: numerator accumulates exp(S) * V, denominator accumulates
    // exp(S). Exactly Eq. 1 — note no max subtraction.
    for (std::int64_t j = lo; j <= hi; ++j) {
      const float e = std::exp(dot(in.q.row(i), in.k.row(j)));
      denom += e;
      axpy(e, in.v.row(j), zrow);
    }
    SWAT_ENSURES(denom > 0.0f);
    for (float& v : zrow) v /= denom;
  }
  return z;
}

MatrixF fused_window_attention_online(const HeadInput& in,
                                      std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    float running_max = -std::numeric_limits<float>::infinity();
    float denom = 0.0f;
    auto zrow = z.row(i);
    for (std::int64_t j = lo; j <= hi; ++j) {
      const float s = dot(in.q.row(i), in.k.row(j));
      if (s > running_max) {
        // Rescale previous accumulation to the new max.
        const float scale =
            (denom == 0.0f) ? 0.0f : std::exp(running_max - s);
        denom *= scale;
        for (float& v : zrow) v *= scale;
        running_max = s;
      }
      const float e = std::exp(s - running_max);
      denom += e;
      axpy(e, in.v.row(j), zrow);
    }
    SWAT_ENSURES(denom > 0.0f);
    for (float& v : zrow) v /= denom;
  }
  return z;
}

namespace {

Half exp_unit(Half x, const Fp16KernelOptions& opt) {
  return opt.exp_lut_segments > 0 ? half_exp_lut(x, opt.exp_lut_segments)
                                  : half_exp(x);
}

/// fp16 dot product with per-step rounding (non-fused MAC, as the HLS
/// pipeline rounds after the multiplier and after the adder).
Half dot_fp16(std::span<const Half> a, std::span<const Half> b,
              const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(a.size() == b.size());
  if (opt.fp16_accumulate) {
    Half acc = Half::zero();
    for (std::size_t d = 0; d < a.size(); ++d) {
      acc = acc + a[d] * b[d];
    }
    return acc;
  }
  float acc = 0.0f;
  for (std::size_t d = 0; d < a.size(); ++d) {
    acc += (a[d] * b[d]).to_float();  // product still rounds to fp16
  }
  return Half(acc);
}

}  // namespace

MatrixF fused_window_attention_fp16(const HeadInput& in,
                                    std::int64_t window_radius,
                                    const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(window_radius >= 1);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  const std::int64_t num_cores = 2 * window_radius;

  // Round the operand tensors once (they are stored in HBM as fp16).
  const auto to_half_matrix = [](const MatrixF& m) {
    Matrix<Half> out(m.rows(), m.cols());
    for (std::int64_t r = 0; r < m.rows(); ++r)
      for (std::int64_t c = 0; c < m.cols(); ++c)
        out(r, c) = Half(m(r, c));
    return out;
  };
  const Matrix<Half> q = to_half_matrix(in.q);
  const Matrix<Half> k = to_half_matrix(in.k);
  const Matrix<Half> v = to_half_matrix(in.v);

  MatrixF z(n, h, 0.0f);
  // Per-core slices for one query row, indexed by *physical core* (j mod
  // num_cores) — the reduction trees sum in physical-core order, which is
  // what makes this function bit-compatible with the attention-core
  // functional simulator.
  std::vector<std::vector<Half>> zslice(
      static_cast<std::size_t>(num_cores),
      std::vector<Half>(static_cast<std::size_t>(h), Half::zero()));
  std::vector<Half> sprime(static_cast<std::size_t>(num_cores), Half::zero());
  std::vector<bool> valid(static_cast<std::size_t>(num_cores), false);

  for (std::int64_t i = 0; i < n; ++i) {
    // SWAT's band: [i - w, i + w - 1], exactly 2w tokens interior.
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi =
        std::min<std::int64_t>(n - 1, i + window_radius - 1);
    std::fill(valid.begin(), valid.end(), false);

    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto core = static_cast<std::size_t>(j % num_cores);
      SWAT_ENSURES(!valid[core]);
      // QK stage: local dot product.
      const Half s = dot_fp16(q.row(i), k.row(j), opt);
      // SV stage: exp then scale the V row.
      const Half e = exp_unit(s, opt);
      sprime[core] = e;
      for (std::int64_t d = 0; d < h; ++d) {
        zslice[core][static_cast<std::size_t>(d)] = e * v(j, d);
      }
      valid[core] = true;
    }

    // Z reduction + row sum, grouped by head-dim-sized blocks of physical
    // cores (ZRED1/ROWSUM1 accumulate sequentially within each group of H
    // cores, ZRED2/ROWSUM2 combine the group partials in order).
    const std::int64_t group = h;
    std::vector<Half> znum(static_cast<std::size_t>(h), Half::zero());
    Half denom = Half::zero();
    for (std::int64_t gbase = 0; gbase < num_cores; gbase += group) {
      std::vector<Half> gz(static_cast<std::size_t>(h), Half::zero());
      Half gsum = Half::zero();
      const std::int64_t gend = std::min(gbase + group, num_cores);
      for (std::int64_t c = gbase; c < gend; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (!valid[ci]) continue;
        gsum = gsum + sprime[ci];
        for (std::int64_t d = 0; d < h; ++d) {
          const auto di = static_cast<std::size_t>(d);
          gz[di] = gz[di] + zslice[ci][di];
        }
      }
      denom = denom + gsum;
      for (std::int64_t d = 0; d < h; ++d) {
        const auto di = static_cast<std::size_t>(d);
        znum[di] = znum[di] + gz[di];
      }
    }

    // DIV & OUT stage.
    SWAT_ENSURES(denom.to_float() > 0.0f);
    auto zrow = z.row(i);
    for (std::int64_t d = 0; d < h; ++d) {
      zrow[static_cast<std::size_t>(d)] =
          (znum[static_cast<std::size_t>(d)] / denom).to_float();
    }
  }
  return z;
}

}  // namespace swat::attn
