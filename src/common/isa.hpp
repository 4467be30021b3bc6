// Runtime instruction-set dispatch for the fp32 serving kernels.
//
// The portable build compiles the packed-GEMM panel loop and the fp32 fused
// window-attention worker once per ISA tier, from one kernel body included
// once per tier (see SWAT_ISA_PUSH_* below), and picks the highest tier the
// host supports once, at first use:
//
//   baseline   the build's own flags (x86-64 SSE2, or whatever -march the
//              build sets) — the only tier on non-x86 hosts, and the code
//              every tier at or below SWAT_ISA_BUILD_LEVEL runs
//   x86-64-v3  AVX2 + FMA + F16C (256-bit vectors)
//   x86-64-v4  AVX-512 F/BW/DQ/VL (512-bit vectors, 32 vector registers)
//
// Every tier compiles the same source under SWAT_NO_FP_CONTRACT, so each
// output element sees the same operations in the same order and rounding
// on every tier: fp32 results are bit-identical across tiers and to the
// scalar oracles. Only vector width and register allocation differ.
//
// Per-tier code is generated with target pragmas, never with per-file -m
// flags: a TU compiled with -mavx512f would also emit AVX-512 COMDAT copies
// of header inline functions and template instantiations, and the linker
// may hand those copies to portable callers (SIGILL on older hosts). A
// target pragma only affects functions defined inside its region, so the
// kernel bodies must be included after every header they use.
#pragma once

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SWAT_ISA_TIERS 1
#else
#define SWAT_ISA_TIERS 0
#endif

// SWAT_ISA_BUILD_LEVEL: the highest tier the build's own flags already
// reach (0 baseline, 1 x86-64-v3, 2 x86-64-v4), e.g. under -march=native.
// The baseline copy is then compiled at that level, so tiers at or below
// it get no copy of their own and dispatch to the baseline copy: a
// separate copy would compile the same source for a subset of the same
// features.
#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__) && defined(__AVX2__) && \
    defined(__FMA__) && defined(__F16C__)
#define SWAT_ISA_BUILD_LEVEL 2
#elif defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#define SWAT_ISA_BUILD_LEVEL 1
#else
#define SWAT_ISA_BUILD_LEVEL 0
#endif

// Which tiers get a copy of their own of each kernel body in this build.
#define SWAT_ISA_V3_COPY (SWAT_ISA_TIERS && SWAT_ISA_BUILD_LEVEL < 1)
#define SWAT_ISA_V4_COPY (SWAT_ISA_TIERS && SWAT_ISA_BUILD_LEVEL < 2)

#if SWAT_ISA_TIERS
// SWAT_ISA_PUSH_V3 / _V4 ... SWAT_ISA_POP bracket one tier's copy of a
// kernel body. The feature lists are the ones kernel_isa_supported()
// checks, so no tier can execute an instruction the host lacks.
#if defined(__clang__)
#define SWAT_ISA_PUSH_V3                                                  \
  _Pragma("clang attribute push(__attribute__((target(\"avx,avx2,fma,f16c\"))), apply_to = function)")
#define SWAT_ISA_PUSH_V4                                                  \
  _Pragma("clang attribute push(__attribute__((target(\"avx,avx2,fma,f16c,avx512f,avx512bw,avx512dq,avx512vl\"))), apply_to = function)")
#define SWAT_ISA_POP _Pragma("clang attribute pop")
#else
#define SWAT_ISA_PUSH_V3 \
  _Pragma("GCC push_options") _Pragma("GCC target(\"avx,avx2,fma,f16c\")")
#define SWAT_ISA_PUSH_V4       \
  _Pragma("GCC push_options")  \
  _Pragma("GCC target(\"avx,avx2,fma,f16c,avx512f,avx512bw,avx512dq,avx512vl\")")
#define SWAT_ISA_POP _Pragma("GCC pop_options")
#endif
#endif

namespace swat {

/// Name of the tier the fp32 serving kernels run on in this process:
/// "baseline", "x86-64-v3" or "x86-64-v4". Resolved once; read-only.
const char* kernel_isa();

namespace detail {

enum class KernelIsa : int { kBaseline = 0, kX86_64_V3 = 1, kX86_64_V4 = 2 };

inline constexpr int kKernelIsaCount = 3;

/// The tier the build's own flags reach (SWAT_ISA_BUILD_LEVEL); the
/// baseline copy runs for every tier at or below it.
inline constexpr KernelIsa kBuildKernelIsa =
    static_cast<KernelIsa>(SWAT_ISA_BUILD_LEVEL);

const char* kernel_isa_name(KernelIsa isa);

/// True when the host can run tier `isa` (always for kBaseline).
bool kernel_isa_supported(KernelIsa isa);

/// The highest supported tier, detected once (function-local static).
KernelIsa dispatched_kernel_isa();

}  // namespace detail
}  // namespace swat
