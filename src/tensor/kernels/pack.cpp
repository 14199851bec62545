#include "tensor/kernels/pack.hpp"

#include <algorithm>
#include <vector>

#include "tensor/kernels/microkernel.hpp"

namespace minsgd::kernels {

float* pack_scratch(int slot, std::size_t elems) {
  // minsgd-analyze: allow(hot-path-alloc): grow-only thread_local scratch
  // shared by gemm_packed and the conv kernels; it reaches steady-state
  // size on the first block and never reallocates on the planned hot path.
  static thread_local std::vector<float> buffers[kPackScratchSlots];
  std::vector<float>& buf = buffers[slot];
  if (buf.size() < elems) buf.resize(elems);
  return buf.data();
}

namespace {

inline float load_a(const float* a, std::int64_t lda, Trans ta, std::int64_t i,
                    std::int64_t p) {
  return ta == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

inline float load_b(const float* b, std::int64_t ldb, Trans tb, std::int64_t p,
                    std::int64_t j) {
  return tb == Trans::kNo ? b[p * ldb + j] : b[j * ldb + p];
}

}  // namespace

void pack_a_panel(const float* a, std::int64_t lda, Trans ta, std::int64_t i0,
                  std::int64_t p0, std::int64_t mc, std::int64_t kc,
                  float alpha, float* ap) {
  const std::int64_t mtiles = (mc + kMR - 1) / kMR;
  for (std::int64_t it = 0; it < mtiles; ++it) {
    float* tile = ap + it * kc * kMR;
    const std::int64_t mr = std::min(kMR, mc - it * kMR);
    for (std::int64_t p = 0; p < kc; ++p) {
      float* dst = tile + p * kMR;
      for (std::int64_t r = 0; r < mr; ++r) {
        dst[r] = alpha * load_a(a, lda, ta, i0 + it * kMR + r, p0 + p);
      }
      for (std::int64_t r = mr; r < kMR; ++r) dst[r] = 0.0f;
    }
  }
}

void pack_b_panel(const float* b, std::int64_t ldb, Trans tb, std::int64_t p0,
                  std::int64_t j0, std::int64_t kc, std::int64_t nc,
                  float* bp) {
  const std::int64_t ntiles = (nc + kNR - 1) / kNR;
  for (std::int64_t jt = 0; jt < ntiles; ++jt) {
    float* tile = bp + jt * kc * kNR;
    const std::int64_t nr = std::min(kNR, nc - jt * kNR);
    if (tb == Trans::kNo) {
      // Unit-stride source rows.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + j0 + jt * kNR;
        float* dst = tile + p * kNR;
        for (std::int64_t q = 0; q < nr; ++q) dst[q] = src[q];
        for (std::int64_t q = nr; q < kNR; ++q) dst[q] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        float* dst = tile + p * kNR;
        for (std::int64_t q = 0; q < nr; ++q) {
          dst[q] = load_b(b, ldb, tb, p0 + p, j0 + jt * kNR + q);
        }
        for (std::int64_t q = nr; q < kNR; ++q) dst[q] = 0.0f;
      }
    }
  }
}

}  // namespace minsgd::kernels
