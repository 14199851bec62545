// Fused (im2col-free) convolution backward.
//
// The im2col path computes, per image n, with col = im2col(x[n]) of shape
// kdim x spatial (kdim = in_c*k*k taps, spatial = out_h*out_w positions):
//
//   dW   += dy[n] * col^T       sgemm(kNo, kYes, out_c, kdim, spatial)
//   dcol  = W^T * dy[n]         sgemm(kYes, kNo, kdim, spatial, out_c)
//   dx[n] = col2im(dcol)        taps ascending, each adding onto zero
//
// The fused path runs the same two products on the packed microkernels
// without materializing col or dcol:
//
//   * dW: dy[n] is packed as the A panel; the B panel is gathered straight
//     from x[n] (B[p][j] = x[ci, oh*s-pad+ki, ow*s-pad+kj], zero outside the
//     plane), in gemm_packed's depth blocking, so every dW element receives
//     the same per-block sums in the same order.
//   * dX: W^T is packed once per backward call and dy[n] once per image;
//     each block of tap rows of dcol is computed into a per-thread strip and
//     added into dx[n] in ascending tap order, which is col2im's order.
//
// Both products follow sgemm's own small/packed rule (m*n*k against
// kSmallGemmFlops), so the fused path produces the im2col path's bytes:
//
//   * packed side: same packed values, same microkernel depth blocks;
//   * small side, dX: the strip is filled by the same sgemm call the im2col
//     path makes (its rows are independent, so a row strip has the bytes of
//     the same rows of the whole dcol);
//   * small side, dW: sgemm's scalar path computes each element as one
//     depth-spatial dot product, which the microkernel reproduces with a
//     single depth block -- provided the compiled small path rounds every
//     product. That depends on how the compiler contracted that loop, so it
//     is probed once per depth (small_dot_unfused); where the probe fails
//     the layer keeps the im2col path.
#pragma once

#include <cstdint>

#include "tensor/kernels/conv_direct.hpp"
#include "tensor/kernels/microkernel.hpp"

namespace minsgd {
class ComputeContext;
}

namespace minsgd::kernels {

/// True when the fused backward reproduces the im2col path's bytes for the
/// ungrouped geometry `g` (see the file comment).
bool conv2d_backward_fused_eligible(const Conv2dGeom& g);

/// Per-call state of the fused backward, built once on the calling thread
/// before the batch region and read-only inside it.
struct ConvBackward {
  MicrokernelFn ukr = nullptr;
  bool small = false;         // the im2col GEMMs take sgemm's small path
  const float* wt = nullptr;  // packed W^T (packed side only)
};

/// Resolves the microkernel and, on the packed side, packs W^T into
/// calling-thread scratch (valid until the next conv call on this thread).
ConvBackward conv2d_backward_begin(const float* w, const Conv2dGeom& g);

/// One image: dw += dW(x_n, dy_n) and dx_n += dX(w, dy_n), with dw the
/// (out_c x kdim) OIHW weight gradient (a chunk's partial) and dx_n the
/// (in_c x h x w) input gradient. Serial (`ctx` only carries the small-path
/// sgemm call, which never forks); uses per-thread scratch only.
void conv2d_backward_image(const ComputeContext& ctx, const ConvBackward& cb,
                           const Conv2dGeom& g,
                           const float* w, const float* xn, const float* dyn,
                           float* dw, float* dxn);

}  // namespace minsgd::kernels
