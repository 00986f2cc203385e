#include "core/simd_dispatch.h"

#include <cstdlib>
#include <string>

#include "obs/log.h"

namespace fenrir::core::simd {

namespace {

constexpr KernelTable kScalarTable{
    .count_u4 = count_u4_scalar<1>,
    .count_u8 = count_scalar<std::uint8_t, 1>,
    .count_u16 = count_scalar<std::uint16_t, 1>,
    .count_u32 = count_scalar<std::uint32_t, 1>,
    .count2_u4 = count_u4_scalar<2>,
    .count2_u8 = count_scalar<std::uint8_t, 2>,
    .count2_u16 = count_scalar<std::uint16_t, 2>,
    .count2_u32 = count_scalar<std::uint32_t, 2>,
    .pack_u4 = pack_u4_scalar,
    .pack_u8 = pack_u8_scalar,
    .pack_u16 = pack_u16_scalar};

#if defined(FENRIR_BUILD_AVX2)
constexpr KernelTable kAvx2Table{
    .count_u4 = count_u4_avx2<1>,
    .count_u8 = count_avx2<std::uint8_t, 1>,
    .count_u16 = count_avx2<std::uint16_t, 1>,
    .count_u32 = count_avx2<std::uint32_t, 1>,
    .count2_u4 = count_u4_avx2<2>,
    .count2_u8 = count_avx2<std::uint8_t, 2>,
    .count2_u16 = count_avx2<std::uint16_t, 2>,
    .count2_u32 = count_avx2<std::uint32_t, 2>,
    .pack_u4 = pack_u4_avx2,
    .pack_u8 = pack_u8_avx2,
    .pack_u16 = pack_u16_avx2};
#endif

#if defined(FENRIR_BUILD_AVX512)
constexpr KernelTable kAvx512Table{
    .count_u4 = count_u4_avx512<1>,
    .count_u8 = count_avx512<std::uint8_t, 1>,
    .count_u16 = count_avx512<std::uint16_t, 1>,
    .count_u32 = count_avx512<std::uint32_t, 1>,
    .count2_u4 = count_u4_avx512<2>,
    .count2_u8 = count_avx512<std::uint8_t, 2>,
    .count2_u16 = count_avx512<std::uint16_t, 2>,
    .count2_u32 = count_avx512<std::uint32_t, 2>,
    .pack_u4 = pack_u4_avx512,
    .pack_u8 = pack_u8_avx512,
    .pack_u16 = pack_u16_avx512};
#endif

Tier detect() noexcept {
#if defined(__x86_64__) || defined(__i386__)
#if defined(FENRIR_BUILD_AVX512)
  // BW supplies the 8/16-bit mask compares; F the 32-bit ones and the
  // 512-bit loads. VL is not needed (the kernels stay at 512 bits).
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return Tier::kAvx512;
  }
#endif
#if defined(FENRIR_BUILD_AVX2)
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
#endif
  return Tier::kScalar;
}

Tier resolve_active() noexcept {
  const Tier detected = detect();
  const char* env = std::getenv("FENRIR_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  const std::string want(env);
  Tier requested = detected;
  if (want == "scalar") {
    requested = Tier::kScalar;
  } else if (want == "avx2") {
    requested = Tier::kAvx2;
  } else if (want == "avx512") {
    requested = Tier::kAvx512;
  } else {
    FENRIR_LOG(Warn).field("FENRIR_SIMD", want)
        << "unknown SIMD override; using detected tier";
    return detected;
  }
  if (static_cast<int>(requested) > static_cast<int>(detected)) {
    FENRIR_LOG(Warn)
            .field("requested", tier_name(requested))
            .field("detected", tier_name(detected))
        << "FENRIR_SIMD asks for more than this build/host supports; "
           "clamping";
    return detected;
  }
  return requested;
}

}  // namespace

const char* tier_name(Tier t) noexcept {
  switch (t) {
    case Tier::kAvx512: return "avx512";
    case Tier::kAvx2: return "avx2";
    case Tier::kScalar: break;
  }
  return "scalar";
}

Tier detected_tier() noexcept {
  static const Tier tier = detect();
  return tier;
}

Tier active_tier() noexcept {
  static const Tier tier = resolve_active();
  return tier;
}

const KernelTable* table_for(Tier t) noexcept {
  switch (t) {
    case Tier::kScalar:
      return &kScalarTable;
    case Tier::kAvx2:
#if defined(FENRIR_BUILD_AVX2)
      if (static_cast<int>(detected_tier()) >= static_cast<int>(Tier::kAvx2)) {
        return &kAvx2Table;
      }
#endif
      return nullptr;
    case Tier::kAvx512:
#if defined(FENRIR_BUILD_AVX512)
      if (detected_tier() == Tier::kAvx512) return &kAvx512Table;
#endif
      return nullptr;
  }
  return nullptr;
}

const KernelTable& active() {
  static const KernelTable* table = [] {
    const KernelTable* t = table_for(active_tier());
    return t != nullptr ? t : &kScalarTable;
  }();
  return *table;
}

}  // namespace fenrir::core::simd
