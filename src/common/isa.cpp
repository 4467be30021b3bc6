#include "common/isa.hpp"

#include <array>

namespace swat {

namespace detail {

namespace {

/// Which tiers the host can run, probed once (function-local static):
/// kernels check support on every call.
const std::array<bool, kKernelIsaCount>& host_tiers() {
  static const std::array<bool, kKernelIsaCount> tiers = [] {
    std::array<bool, kKernelIsaCount> t{};
    t[static_cast<int>(KernelIsa::kBaseline)] = true;
#if SWAT_ISA_TIERS
    // libgcc / compiler-rt also check that the OS saves the AVX and
    // AVX-512 register state (XGETBV), not only the CPUID bits.
    __builtin_cpu_init();
    const bool v3 = __builtin_cpu_supports("avx") &&
                    __builtin_cpu_supports("avx2") &&
                    __builtin_cpu_supports("fma") &&
                    __builtin_cpu_supports("f16c");
    t[static_cast<int>(KernelIsa::kX86_64_V3)] = v3;
    t[static_cast<int>(KernelIsa::kX86_64_V4)] =
        v3 && __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl");
#endif
    return t;
  }();
  return tiers;
}

}  // namespace

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kBaseline:
      return "baseline";
    case KernelIsa::kX86_64_V3:
      return "x86-64-v3";
    case KernelIsa::kX86_64_V4:
      return "x86-64-v4";
  }
  return "unknown";
}

bool kernel_isa_supported(KernelIsa isa) {
  const int i = static_cast<int>(isa);
  return i >= 0 && i < kKernelIsaCount && host_tiers()[i];
}

KernelIsa dispatched_kernel_isa() {
  static const KernelIsa isa = [] {
    for (int i = kKernelIsaCount - 1; i > 0; --i) {
      if (host_tiers()[i]) return static_cast<KernelIsa>(i);
    }
    return KernelIsa::kBaseline;
  }();
  return isa;
}

}  // namespace detail

const char* kernel_isa() {
  return detail::kernel_isa_name(detail::dispatched_kernel_isa());
}

}  // namespace swat
