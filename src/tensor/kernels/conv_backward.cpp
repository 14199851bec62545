#include "tensor/kernels/conv_backward.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/pack.hpp"

namespace minsgd::kernels {
namespace {

// Depths up to this are probed by small_dot_unfused (two stack panels of
// this many floats, O(k^2) work once per depth); deeper small-path shapes
// keep the im2col path.
constexpr std::int64_t kMaxProbedDepth = 1024;

// Probe results per depth: 0 not yet probed, 1 unfused, -1 contracted.
std::atomic<signed char> g_small_dot[kMaxProbedDepth + 1];

// dcol strips are sized to stay near L2 (~64 KiB) while covering whole
// microtiles; the strip height never changes any value (rows are
// independent), only how often the packed dy panel is re-read.
constexpr std::int64_t kStripFloats = 16384;

/// The im2col path's two GEMMs (both of m*n*k = out_c*kdim*spatial) take
/// sgemm's small path.
bool small_side(const Conv2dGeom& g) {
  return g.out_c * g.in_c * g.k * g.k * g.out_h * g.out_w <= kSmallGemmFlops;
}

std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

/// Output indices o in [lo, hi) whose input index o*stride - pad + tap lies
/// inside [0, n_in).
std::pair<std::int64_t, std::int64_t> valid_range(std::int64_t n_out,
                                                  std::int64_t stride,
                                                  std::int64_t pad,
                                                  std::int64_t tap,
                                                  std::int64_t n_in) {
  const std::int64_t before = pad - tap;  // input index < 0 while o*s < this
  const std::int64_t lo =
      before <= 0 ? 0 : std::min(n_out, (before + stride - 1) / stride);
  const std::int64_t last = n_in - 1 + pad - tap;  // o*s <= last stays inside
  const std::int64_t hi = last < 0 ? 0 : std::min(n_out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// Gathers the (kc x nc) block of B = im2col(x_n)^T at depth (output
/// position) p0 and column (tap) j0 straight into B-panel layout:
/// B[p][q] = x[ci, oh*s - pad + ki, ow*s - pad + kj] for tap j0+q =
/// (ci, ki, kj) and position p0+p = (oh, ow), zero outside the plane --
/// the values pack_b_panel(col, spatial, kYes, ...) reads from im2col.
void pack_b_im2col_t(const float* xn, const Conv2dGeom& g, std::int64_t p0,
                     std::int64_t j0, std::int64_t kc, std::int64_t nc,
                     float* bp) {
  const std::int64_t ntiles = (nc + kNR - 1) / kNR;
  const std::int64_t taps = g.k * g.k;
  for (std::int64_t q = 0; q < ntiles * kNR; ++q) {
    float* dst = bp + (q / kNR) * kc * kNR + q % kNR;
    if (q >= nc) {
      for (std::int64_t p = 0; p < kc; ++p) dst[p * kNR] = 0.0f;
      continue;
    }
    const std::int64_t tap = j0 + q;
    const std::int64_t ci = tap / taps;
    const std::int64_t ki = (tap % taps) / g.k;
    const std::int64_t kj = tap % g.k;
    const float* plane = xn + ci * g.h * g.w;
    const auto [ow_lo, ow_hi] = valid_range(g.out_w, g.stride, g.pad, kj, g.w);
    std::int64_t oh = p0 / g.out_w;
    std::int64_t ow = p0 % g.out_w;
    for (std::int64_t p = 0; p < kc; ow = 0, ++oh) {
      const std::int64_t run = std::min(g.out_w - ow, kc - p);
      float* d = dst + p * kNR;
      const std::int64_t ih = oh * g.stride - g.pad + ki;
      if (ih < 0 || ih >= g.h) {
        for (std::int64_t t = 0; t < run; ++t) d[t * kNR] = 0.0f;
      } else {
        const float* row = plane + ih * g.w;
        for (std::int64_t t = 0; t < run; ++t) {
          const std::int64_t o = ow + t;
          d[t * kNR] = (o >= ow_lo && o < ow_hi)
                           ? row[o * g.stride - g.pad + kj]
                           : 0.0f;
        }
      }
      p += run;
    }
  }
}

/// col2im of a strip of dcol rows [i0, i0 + rows): adds every row into dx_n
/// in ascending tap order, the same float adds col2im makes.
void scatter_add_rows(const float* strip, const Conv2dGeom& g,
                      std::int64_t i0, std::int64_t rows, float* dxn) {
  const std::int64_t spatial = g.out_h * g.out_w;
  const std::int64_t taps = g.k * g.k;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t tap = i0 + r;
    const std::int64_t ci = tap / taps;
    const std::int64_t ki = (tap % taps) / g.k;
    const std::int64_t kj = tap % g.k;
    const auto [oh_lo, oh_hi] = valid_range(g.out_h, g.stride, g.pad, ki, g.h);
    const auto [ow_lo, ow_hi] = valid_range(g.out_w, g.stride, g.pad, kj, g.w);
    float* plane = dxn + ci * g.h * g.w;
    const float* src = strip + r * spatial;
    for (std::int64_t oh = oh_lo; oh < oh_hi; ++oh) {
      float* drow = plane + (oh * g.stride - g.pad + ki) * g.w;
      const float* srow = src + oh * g.out_w;
      for (std::int64_t ow = ow_lo; ow < ow_hi; ++ow) {
        drow[ow * g.stride - g.pad + kj] += srow[ow];
      }
    }
  }
}

/// dw += dy_n * im2col(x_n)^T, blocked over depth as sgemm runs it: one
/// block on the small path (its dot product sums the whole depth in one
/// chain), kKC blocks on the packed path. Each dw element receives its
/// block sums in ascending depth order either way.
void backward_dw(const ConvBackward& cb, const Conv2dGeom& g, const float* xn,
                 const float* dyn, float* dw) {
  const std::int64_t kdim = g.in_c * g.k * g.k;
  const std::int64_t spatial = g.out_h * g.out_w;
  const std::int64_t kblk = cb.small ? spatial : std::min(kKC, spatial);
  const std::int64_t mtiles = (g.out_c + kMR - 1) / kMR;
  float* const apack = pack_scratch(
      kPackScratchA, static_cast<std::size_t>(mtiles * kMR * kblk));
  float* const bpack = pack_scratch(
      kPackScratchConvB,
      static_cast<std::size_t>(kblk * std::min(kNC, round_up(kdim, kNR))));
  for (std::int64_t p0 = 0; p0 < spatial; p0 += kblk) {
    const std::int64_t kc = std::min(kblk, spatial - p0);
    pack_a_panel(dyn, spatial, Trans::kNo, 0, p0, g.out_c, kc, 1.0f, apack);
    for (std::int64_t j0 = 0; j0 < kdim; j0 += kNC) {
      const std::int64_t nc = std::min(kNC, kdim - j0);
      const std::int64_t ntiles = (nc + kNR - 1) / kNR;
      pack_b_im2col_t(xn, g, p0, j0, kc, nc, bpack);
      for (std::int64_t jt = 0; jt < ntiles; ++jt) {
        const std::int64_t nr = std::min(kNR, nc - jt * kNR);
        const float* btile = bpack + jt * kc * kNR;
        for (std::int64_t it = 0; it < mtiles; ++it) {
          const std::int64_t mr = std::min(kMR, g.out_c - it * kMR);
          cb.ukr(kc, apack + it * kc * kMR, btile,
                 dw + it * kMR * kdim + j0 + jt * kNR, kdim, mr, nr);
        }
      }
    }
  }
}

/// dx_n += col2im(W^T * dy_n), one strip of dcol rows at a time.
void backward_dx(const ComputeContext& ctx, const ConvBackward& cb,
                 const Conv2dGeom& g, const float* w, const float* dyn,
                 float* dxn) {
  const std::int64_t kdim = g.in_c * g.k * g.k;
  const std::int64_t spatial = g.out_h * g.out_w;
  const std::int64_t rows = std::min(
      kdim, std::clamp(kStripFloats / spatial / kMR * kMR, kMR, kMC));
  float* const strip = pack_scratch(kPackScratchB,
                                    static_cast<std::size_t>(rows * spatial));

  // Packed side: dy_n as the B panel for every (depth, column) block, so
  // each strip reuses it. Block (p0, j0) starts at p0*npad + j0*kc.
  const std::int64_t npad = round_up(spatial, kNR);
  float* dypack = nullptr;
  if (!cb.small) {
    dypack = pack_scratch(kPackScratchA,
                          static_cast<std::size_t>(g.out_c * npad));
    for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
      const std::int64_t kc = std::min(kKC, g.out_c - p0);
      for (std::int64_t j0 = 0; j0 < spatial; j0 += kNC) {
        pack_b_panel(dyn, spatial, Trans::kNo, p0, j0, kc,
                     std::min(kNC, spatial - j0), dypack + p0 * npad + j0 * kc);
      }
    }
  }

  const std::int64_t wt_tiles = (kdim + kMR - 1) / kMR;
  for (std::int64_t i0 = 0; i0 < kdim; i0 += rows) {
    const std::int64_t mc = std::min(rows, kdim - i0);
    if (cb.small) {
      // The im2col path's own small-path call, restricted to these rows
      // (a subset of a small product is small: gemm_packed, which owns the
      // strip's slot, is never reached).
      sgemm(ctx, Trans::kYes, Trans::kNo, mc, spatial, g.out_c, 1.0f, w + i0,
            kdim, dyn, spatial, 0.0f, strip, spatial);
    } else {
      std::memset(strip, 0,
                  static_cast<std::size_t>(mc * spatial) * sizeof(float));
      const std::int64_t mtiles = (mc + kMR - 1) / kMR;
      for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
        const std::int64_t kc = std::min(kKC, g.out_c - p0);
        const float* apanel =
            cb.wt + wt_tiles * kMR * p0 + (i0 / kMR) * kc * kMR;
        for (std::int64_t j0 = 0; j0 < spatial; j0 += kNC) {
          const std::int64_t nc = std::min(kNC, spatial - j0);
          const std::int64_t ntiles = (nc + kNR - 1) / kNR;
          for (std::int64_t jt = 0; jt < ntiles; ++jt) {
            const std::int64_t nr = std::min(kNR, nc - jt * kNR);
            const float* btile = dypack + p0 * npad + j0 * kc + jt * kc * kNR;
            for (std::int64_t it = 0; it < mtiles; ++it) {
              const std::int64_t mr = std::min(kMR, mc - it * kMR);
              cb.ukr(kc, apanel + it * kc * kMR, btile,
                     strip + it * kMR * spatial + j0 + jt * kNR, spatial, mr,
                     nr);
            }
          }
        }
      }
    }
    scatter_add_rows(strip, g, i0, mc, dxn);
  }
}

bool probe_small_dot_unfused(std::int64_t k) {
  // e*e = 1 + 2^-11 + 2^-24. Rounded on its own the 2^-24 is a tie that
  // rounds away, so -1 + e*e gives 2^-11; fused into the add it survives.
  // Term 0 sets the running sum to -1; term p alone is e*e; all others are
  // 0*0, which leave the sum unchanged fused or not. The compiled loop's
  // split into vector body and scalar tail is a function of k only (no
  // alignment peeling), so a probe at one address speaks for all.
  // m = n = 1 and k <= kMaxProbedDepth keep the call on the small path.
  float a[kMaxProbedDepth] = {};
  float b[kMaxProbedDepth] = {};
  const float e = 1.0f + 0x1p-12f;
  a[0] = -1.0f;
  b[0] = 1.0f;
  const ComputeContext serial(1);  // no pool: probing spawns no threads
  for (std::int64_t p = 1; p < k; ++p) {
    a[p] = e;
    b[p] = e;
    float c = 0.0f;
    sgemm(serial, Trans::kNo, Trans::kYes, 1, 1, k, 1.0f, a, k, b, k, 1.0f,
          &c, 1);
    a[p] = 0.0f;
    b[p] = 0.0f;
    if (c != 0x1p-11f) return false;
  }
  return true;
}

/// True when sgemm's small path computes a (kNo, kYes) product of depth
/// `k` as the unfused ascending mul-then-add sequence the microkernels
/// compute. Probed once per depth and cached; false past the probed range.
bool small_dot_unfused(std::int64_t k) {
  if (k < 1 || k > kMaxProbedDepth) return false;
  std::atomic<signed char>& slot = g_small_dot[k];
  signed char v = slot.load(std::memory_order_relaxed);
  if (v == 0) {
    // Racing first callers compute the same answer; either store wins.
    v = probe_small_dot_unfused(k) ? 1 : -1;
    slot.store(v, std::memory_order_relaxed);
  }
  return v > 0;
}

}  // namespace

bool conv2d_backward_fused_eligible(const Conv2dGeom& g) {
  return !small_side(g) || small_dot_unfused(g.out_h * g.out_w);
}

ConvBackward conv2d_backward_begin(const float* w, const Conv2dGeom& g) {
  ConvBackward cb;
  cb.ukr = microkernel_for(active());
  cb.small = small_side(g);
  if (!cb.small) {
    const std::int64_t kdim = g.in_c * g.k * g.k;
    // W^T (kdim x out_c) as A panels for every depth block; block p0 starts
    // at wt_tiles*kMR*p0 (as conv2d_forward_direct packs W).
    const std::int64_t wt_tiles = (kdim + kMR - 1) / kMR;
    float* const wt = pack_scratch(
        kPackScratchConvW, static_cast<std::size_t>(wt_tiles * kMR * g.out_c));
    for (std::int64_t p0 = 0; p0 < g.out_c; p0 += kKC) {
      const std::int64_t kc = std::min(kKC, g.out_c - p0);
      pack_a_panel(w, kdim, Trans::kYes, 0, p0, kdim, kc, 1.0f,
                   wt + wt_tiles * kMR * p0);
    }
    cb.wt = wt;
  }
  return cb;
}

void conv2d_backward_image(const ComputeContext& ctx, const ConvBackward& cb,
                           const Conv2dGeom& g, const float* w, const float* xn,
                           const float* dyn, float* dw, float* dxn) {
  backward_dw(cb, g, xn, dyn, dw);
  backward_dx(ctx, cb, g, w, dyn, dxn);
}

}  // namespace minsgd::kernels
