#include "nn/conv.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/conv_backward.hpp"

namespace minsgd::nn {
namespace {

bool conv_direct_default() {
  const char* env = std::getenv("MINSGD_CONV_DIRECT");
  if (env == nullptr) return true;
  const std::string v(env);
  return !(v == "0" || v == "off" || v == "false");
}

std::atomic<bool> g_conv_direct{conv_direct_default()};

}  // namespace

void Conv2d::set_direct_enabled(bool on) {
  g_conv_direct.store(on, std::memory_order_relaxed);
}

bool Conv2d::direct_enabled() {
  return g_conv_direct.load(std::memory_order_relaxed);
}

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, std::int64_t groups)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      w_({out_channels, in_channels / groups, kernel, kernel}),
      b_(bias ? Tensor({out_channels}) : Tensor()),
      dw_({out_channels, in_channels / groups, kernel, kernel}),
      db_(bias ? Tensor({out_channels}) : Tensor()) {
  if (in_c_ <= 0 || out_c_ <= 0 || k_ <= 0 || stride_ <= 0 || pad_ < 0 ||
      groups_ <= 0 || in_c_ % groups_ != 0 || out_c_ % groups_ != 0) {
    throw std::invalid_argument("Conv2d: invalid configuration");
  }
}

std::string Conv2d::name() const {
  std::string s = "conv" + std::to_string(k_) + "x" + std::to_string(k_) +
                  "(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
                  ")/s" + std::to_string(stride_);
  if (groups_ > 1) s += "/g" + std::to_string(groups_);
  return s;
}

Shape Conv2d::output_shape(const Shape& input) const {
  if (input.rank() != 4 || input[1] != in_c_) {
    throw std::invalid_argument("Conv2d " + name() + ": bad input " +
                                input.str());
  }
  const std::int64_t out_h = (input[2] + 2 * pad_ - k_) / stride_ + 1;
  const std::int64_t out_w = (input[3] + 2 * pad_ - k_) / stride_ + 1;
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("Conv2d " + name() + ": input too small " +
                                input.str());
  }
  return {input[0], out_c_, out_h, out_w};
}

void Conv2d::im2col(const Tensor& x, std::int64_t n, float* col,
                    std::int64_t out_h, std::int64_t out_w) const {
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t spatial = out_h * out_w;
  // col is (in_c*k*k) x (out_h*out_w), row-major, channel-major rows, so the
  // rows belonging to one channel group are contiguous. Every element is
  // written (padding as explicit zeros), so a dirty reused buffer is fine.
  for (std::int64_t c = 0; c < in_c_; ++c) {
    for (std::int64_t ki = 0; ki < k_; ++ki) {
      for (std::int64_t kj = 0; kj < k_; ++kj) {
        float* dst = col + ((c * k_ + ki) * k_ + kj) * spatial;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride_ - pad_ + ki;
          if (ih < 0 || ih >= h) {
            std::memset(dst + oh * out_w, 0,
                        static_cast<std::size_t>(out_w) * sizeof(float));
            continue;
          }
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride_ - pad_ + kj;
            dst[oh * out_w + ow] =
                (iw >= 0 && iw < w) ? x.at(n, c, ih, iw) : 0.0f;
          }
        }
      }
    }
  }
}

void Conv2d::col2im(const float* col, Tensor& dx, std::int64_t n,
                    std::int64_t out_h, std::int64_t out_w) const {
  const std::int64_t h = dx.shape()[2], w = dx.shape()[3];
  const std::int64_t spatial = out_h * out_w;
  for (std::int64_t c = 0; c < in_c_; ++c) {
    for (std::int64_t ki = 0; ki < k_; ++ki) {
      for (std::int64_t kj = 0; kj < k_; ++kj) {
        const float* src = col + ((c * k_ + ki) * k_ + kj) * spatial;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride_ - pad_ + ki;
          if (ih < 0 || ih >= h) continue;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride_ - pad_ + kj;
            if (iw >= 0 && iw < w) dx.at(n, c, ih, iw) += src[oh * out_w + ow];
          }
        }
      }
    }
  }
}

kernels::Conv2dGeom Conv2d::geometry(const Shape& input) const {
  const Shape out = output_shape(input);
  return {in_c_, input[2], input[3], out_c_, out[2], out[3], k_, stride_, pad_};
}

bool Conv2d::fused_backward(const Shape& input) const {
  return direct_enabled() && groups_ == 1 &&
         kernels::conv2d_backward_fused_eligible(geometry(input));
}

std::int64_t Conv2d::backward_chunks(std::int64_t batch) const {
  // Chunk count derived from (batch, weight size) only — never the thread
  // count — capping per-chunk dW partial memory at ~8 MB while keeping
  // results bit-identical.
  const std::int64_t dw_bytes =
      static_cast<std::int64_t>(w_.numel() + (has_bias_ ? out_c_ : 0)) * 4;
  const std::int64_t mem_cap = std::max<std::int64_t>(
      1, (std::int64_t{8} << 20) / std::max<std::int64_t>(1, dw_bytes));
  return std::min(ComputeContext::chunk_count(batch, /*grain=*/1), mem_cap);
}

Shape Conv2d::plan_forward(PlanBuilder& builder, const Shape& input) {
  const std::int32_t step = builder.tick();
  const Shape out = output_shape(input);
  plan_fwd_col_ = kNoTensor;
  const bool direct =
      direct_enabled() &&
      kernels::conv2d_direct_eligible(k_, stride_, pad_, groups_);
  if (!direct) {
    const std::int64_t spatial = out[2] * out[3];
    const std::int64_t col_elems = in_c_ * k_ * k_ * spatial;
    const std::int64_t chunks = ComputeContext::chunk_count(input[0], 1);
    plan_fwd_col_ = builder.scratch(chunks * col_elems, step);
  }
  return out;
}

void Conv2d::plan_backward(PlanBuilder& builder, const Shape& input) {
  const std::int32_t step = builder.tick();
  const Shape out = output_shape(input);
  const std::int64_t chunks = backward_chunks(input[0]);
  plan_bwd_dw_ = builder.scratch(chunks * w_.numel(), step);
  plan_bwd_db_ =
      has_bias_ ? builder.scratch(chunks * out_c_, step) : kNoTensor;
  plan_bwd_col_ = kNoTensor;
  plan_bwd_dcol_ = kNoTensor;
  if (!fused_backward(input)) {
    const std::int64_t col_elems = in_c_ * k_ * k_ * out[2] * out[3];
    plan_bwd_col_ = builder.scratch(chunks * col_elems, step);
    plan_bwd_dcol_ = builder.scratch(chunks * col_elems, step);
  }
}

void Conv2d::do_forward(const Tensor& x, Tensor& y, bool /*training*/,
                        const ComputeContext& ctx, PlanContext& pc) {
  const Shape out = output_shape(x.shape());
  y.resize(out);
  const std::int64_t batch = x.shape()[0];
  const std::int64_t out_h = out[2], out_w = out[3];
  const std::int64_t spatial = out_h * out_w;
  const std::int64_t kdim = (in_c_ / groups_) * k_ * k_;  // per-group depth
  const std::int64_t g_out = out_c_ / groups_;

  const bool direct = direct_enabled() &&
                      kernels::conv2d_direct_eligible(k_, stride_, pad_, groups_);
  if (direct && k_ == 1) {
    // 1x1 stride-1 unpadded: the conv IS a GEMM on the input plane — no
    // gather at all. Bit-identical to the im2col path (whose col buffer
    // equals the input slice bytewise), so this needs no separate oracle.
    ctx.for_chunks(
        batch, /*grain=*/1,
        [&](std::int64_t /*c*/, std::int64_t lo, std::int64_t hi) {
          for (std::int64_t n = lo; n < hi; ++n) {
            sgemm(ctx, Trans::kNo, Trans::kNo, out_c_, spatial, in_c_, 1.0f,
                  w_.data(), in_c_, x.data() + n * in_c_ * spatial, spatial,
                  0.0f, y.data() + n * out_c_ * spatial, spatial);
            if (has_bias_) {
              for (std::int64_t oc = 0; oc < out_c_; ++oc) {
                float* dst = y.data() + (n * out_c_ + oc) * spatial;
                const float bv = b_[oc];
                for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
              }
            }
          }
        });
    return;
  }
  if (direct) {
    // Stride-1 3x3: fused direct conv — im2col folded into B-panel packing.
    kernels::conv2d_forward_direct(ctx, x.data(), w_.data(),
                                   has_bias_ ? b_.data() : nullptr, y.data(),
                                   batch, geometry(x.shape()));
    return;
  }

  // Batch-parallel with per-chunk im2col scratch; each image's output rows
  // are disjoint, so no reduction is needed. The inner sgemm runs inline
  // (nested region). The chunk-strided scratch block is requested up front
  // so worker threads never allocate.
  const std::int64_t col_elems = in_c_ * k_ * k_ * spatial;
  const std::int64_t chunks = ComputeContext::chunk_count(batch, /*grain=*/1);
  const std::span<float> cols = pc.floats(plan_fwd_col_, chunks * col_elems);
  ctx.for_chunks(
      batch, /*grain=*/1,
      [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
        float* col = cols.data() + c * col_elems;
        for (std::int64_t n = lo; n < hi; ++n) {
          im2col(x, n, col, out_h, out_w);
          for (std::int64_t g = 0; g < groups_; ++g) {
            // y[n, group g] = W_g (g_out x kdim) * col_g (kdim x spatial)
            sgemm(ctx, Trans::kNo, Trans::kNo, g_out, spatial, kdim, 1.0f,
                  w_.data() + g * g_out * kdim, kdim,
                  col + g * kdim * spatial, spatial, 0.0f,
                  y.data() + (n * out_c_ + g * g_out) * spatial, spatial);
          }
          if (has_bias_) {
            for (std::int64_t oc = 0; oc < out_c_; ++oc) {
              float* dst = y.data() + (n * out_c_ + oc) * spatial;
              const float bv = b_[oc];
              for (std::int64_t s = 0; s < spatial; ++s) dst[s] += bv;
            }
          }
        }
      });
}

void Conv2d::do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                         Tensor& dx, const ComputeContext& ctx,
                         PlanContext& pc) {
  const Shape out = y.shape();
  const std::int64_t batch = x.shape()[0];
  const std::int64_t out_h = out[2], out_w = out[3];
  const std::int64_t spatial = out_h * out_w;
  const std::int64_t kdim = (in_c_ / groups_) * k_ * k_;
  const std::int64_t g_out = out_c_ / groups_;

  dx.resize(x.shape());
  dx.zero();

  // dx rows are disjoint per image, but dW/db are reductions over the batch:
  // each chunk accumulates into its own slice of a chunk-strided partial
  // block, and the slices are folded into dw_/db_ in fixed chunk order
  // afterwards (see backward_chunks for the determinism/memory cap).
  const std::int64_t chunks = backward_chunks(batch);
  if (chunks <= 0) return;

  const std::int64_t wn = w_.numel();
  const std::span<float> dw_parts = pc.floats(plan_bwd_dw_, chunks * wn);
  const std::span<float> db_parts =
      has_bias_ ? pc.floats(plan_bwd_db_, chunks * out_c_) : std::span<float>{};

  // Ungrouped shapes take the fused kernels: no col/dcol buffers, W^T
  // packed once here on the calling thread (read-only inside the region),
  // and the same bytes as the im2col path below.
  const bool fused = fused_backward(x.shape());
  const kernels::Conv2dGeom geom = geometry(x.shape());
  const kernels::ConvBackward cb =
      fused ? kernels::conv2d_backward_begin(w_.data(), geom)
            : kernels::ConvBackward{};
  const std::int64_t in_plane = in_c_ * geom.h * geom.w;
  const std::int64_t col_elems = fused ? 0 : in_c_ * k_ * k_ * spatial;
  const std::span<float> cols =
      fused ? std::span<float>{} : pc.floats(plan_bwd_col_, chunks * col_elems);
  const std::span<float> dcols =
      fused ? std::span<float>{} : pc.floats(plan_bwd_dcol_, chunks * col_elems);

  ctx.for_chunks_n(
      batch, chunks, [&](std::int64_t c, std::int64_t lo, std::int64_t hi) {
        float* dwp = dw_parts.data() + c * wn;
        std::fill_n(dwp, static_cast<std::size_t>(wn), 0.0f);
        float* dbp = nullptr;
        if (has_bias_) {
          dbp = db_parts.data() + c * out_c_;
          std::fill_n(dbp, static_cast<std::size_t>(out_c_), 0.0f);
        }
        float* col = fused ? nullptr : cols.data() + c * col_elems;
        float* dcol = fused ? nullptr : dcols.data() + c * col_elems;
        for (std::int64_t n = lo; n < hi; ++n) {
          if (fused) {
            kernels::conv2d_backward_image(
                ctx, cb, geom, w_.data(), x.data() + n * in_plane,
                dy.data() + n * out_c_ * spatial, dwp,
                dx.data() + n * in_plane);
          } else {
            im2col(x, n, col, out_h, out_w);
            for (std::int64_t g = 0; g < groups_; ++g) {
              const float* dy_g =
                  dy.data() + (n * out_c_ + g * g_out) * spatial;
              // dW_g(partial) += dy_g (g_out x spatial) * col_g^T (spatial x kdim)
              sgemm(ctx, Trans::kNo, Trans::kYes, g_out, kdim, spatial, 1.0f,
                    dy_g, spatial, col + g * kdim * spatial, spatial,
                    1.0f, dwp + g * g_out * kdim, kdim);
              // dcol_g = W_g^T (kdim x g_out) * dy_g (g_out x spatial)
              sgemm(ctx, Trans::kYes, Trans::kNo, kdim, spatial, g_out, 1.0f,
                    w_.data() + g * g_out * kdim, kdim, dy_g, spatial, 0.0f,
                    dcol + g * kdim * spatial, spatial);
            }
            col2im(dcol, dx, n, out_h, out_w);
          }
          if (has_bias_) {
            for (std::int64_t oc = 0; oc < out_c_; ++oc) {
              const float* src = dy.data() + (n * out_c_ + oc) * spatial;
              double acc = 0.0;
              for (std::int64_t s = 0; s < spatial; ++s) acc += src[s];
              dbp[oc] += static_cast<float>(acc);
            }
          }
        }
      });

  // Fixed-order combine on the calling thread. Chunks whose range is empty
  // never ran (for_chunks_n skips them), so their slices are dirty — skip
  // them by recomputing the deterministic bounds.
  for (std::int64_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = ComputeContext::chunk_bounds(batch, chunks, c);
    if (lo >= hi) continue;
    const float* dwp = dw_parts.data() + c * wn;
    for (std::int64_t i = 0; i < wn; ++i) dw_[i] += dwp[i];
    if (has_bias_) {
      const float* dbp = db_parts.data() + c * out_c_;
      for (std::int64_t i = 0; i < out_c_; ++i) db_[i] += dbp[i];
    }
  }
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> p;
  p.push_back({"weight", &w_, &dw_, /*decay=*/true});
  if (has_bias_) p.push_back({"bias", &b_, &db_, /*decay=*/false});
  return p;
}

void Conv2d::init(Rng& rng) {
  he_normal(w_, (in_c_ / groups_) * k_ * k_, rng);
  if (has_bias_) b_.zero();
}

std::int64_t Conv2d::flops(const Shape& input) const {
  const Shape out = output_shape(input);
  // 2 flops (mul+add) per MAC; per image (batch dim excluded).
  return 2 * out_c_ * (in_c_ / groups_) * k_ * k_ * out[2] * out[3];
}

}  // namespace minsgd::nn
