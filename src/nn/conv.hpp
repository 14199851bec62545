// Conv2d: 2-D convolution lowered to im2col + sgemm, with direct
// (im2col-free) paths: forward for 1x1 and stride-1 3x3 ungrouped shapes,
// backward for every ungrouped shape.
#pragma once

#include <cstdint>
#include <string>

#include "nn/layer.hpp"
#include "nn/plan.hpp"
#include "tensor/kernels/conv_direct.hpp"

namespace minsgd::nn {

/// 2-D convolution over NCHW inputs. Weight layout is OIHW; output is
/// NC'H'W' with H' = (H + 2*pad - kh)/stride + 1.
class Conv2d final : public Layer {
 public:
  /// `groups` splits channels Krizhevsky-style: in/out channels are divided
  /// into `groups` independent convolutions (weight is OIHW with
  /// I = in_channels/groups).
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0,
         bool bias = true, std::int64_t groups = 1);

  std::string name() const override;
  Shape output_shape(const Shape& input) const override;
  std::vector<ParamRef> params() override;
  void init(Rng& rng) override;
  std::int64_t flops(const Shape& input) const override;

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

  /// Backward reads x (dW needs it) but only y's shape, never its data —
  /// the planner may retire conv outputs at their last forward read.
  bool backward_reads_output() const override { return false; }

  Shape plan_forward(PlanBuilder& builder, const Shape& input) override;
  void plan_backward(PlanBuilder& builder, const Shape& input) override;

  /// Process-wide toggle for the direct (im2col-free) conv paths, forward
  /// and backward. On by default; MINSGD_CONV_DIRECT=off/0/false disables
  /// it at startup. The im2col path stays the semantic reference — the
  /// fused backward always matches it bytewise, the direct forward where
  /// sgemm takes its packed path — so tests and benches flip this to
  /// compare them.
  static void set_direct_enabled(bool on);
  static bool direct_enabled();

 protected:
  void do_forward(const Tensor& x, Tensor& y, bool training,
                  const ComputeContext& ctx, PlanContext& pc) override;
  void do_backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                   Tensor& dx, const ComputeContext& ctx,
                   PlanContext& pc) override;

 private:
  void im2col(const Tensor& x, std::int64_t n, float* col,
              std::int64_t out_h, std::int64_t out_w) const;
  void col2im(const float* col, Tensor& dx, std::int64_t n, std::int64_t out_h,
              std::int64_t out_w) const;

  kernels::Conv2dGeom geometry(const Shape& input) const;
  /// Backward runs the fused (im2col-free) kernels for this input shape.
  bool fused_backward(const Shape& input) const;

  /// Backward dW-partial chunk count: a function of (batch, weight size)
  /// only, shared by plan_backward and do_backward so the planned scratch
  /// block always matches the runtime request.
  std::int64_t backward_chunks(std::int64_t batch) const;

  std::int64_t in_c_, out_c_, k_, stride_, pad_, groups_;
  bool has_bias_;
  Tensor w_, b_, dw_, db_;

  // Scratch ids assigned by the most recent plan walk (kNoTensor when the
  // plan decided the scratch is not needed, e.g. direct/fused paths).
  TensorId plan_fwd_col_ = kNoTensor;
  TensorId plan_bwd_col_ = kNoTensor;
  TensorId plan_bwd_dcol_ = kNoTensor;
  TensorId plan_bwd_dw_ = kNoTensor;
  TensorId plan_bwd_db_ = kNoTensor;
};

}  // namespace minsgd::nn
