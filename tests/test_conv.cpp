#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "grad_check.hpp"
#include "nn/conv.hpp"
#include "tensor/context.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/conv_backward.hpp"
#include "tensor/kernels/conv_direct.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/rng.hpp"

namespace minsgd {
namespace {

using nn::Conv2d;

TEST(Conv2d, OutputShapeNoPad) {
  Conv2d c(3, 8, 3);
  EXPECT_EQ(c.output_shape({2, 3, 8, 8}), Shape({2, 8, 6, 6}));
}

TEST(Conv2d, OutputShapeWithPadAndStride) {
  Conv2d c(3, 16, 3, 2, 1);
  EXPECT_EQ(c.output_shape({4, 3, 32, 32}), Shape({4, 16, 16, 16}));
}

TEST(Conv2d, AlexNetConv1Geometry) {
  Conv2d c(3, 96, 11, 4, 0);
  EXPECT_EQ(c.output_shape({1, 3, 227, 227}), Shape({1, 96, 55, 55}));
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d c(3, 8, 3);
  EXPECT_THROW(c.output_shape({1, 4, 8, 8}), std::invalid_argument);
}

TEST(Conv2d, RejectsTooSmallInput) {
  Conv2d c(3, 8, 5);
  EXPECT_THROW(c.output_shape({1, 3, 4, 4}), std::invalid_argument);
}

TEST(Conv2d, RejectsBadConfig) {
  EXPECT_THROW(Conv2d(0, 8, 3), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 0), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 0), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 1, -1), std::invalid_argument);
  EXPECT_THROW(Conv2d(3, 8, 3, 1, 0, true, 2),  // 3 % 2 != 0
               std::invalid_argument);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2d c(1, 1, 1, 1, 0, /*bias=*/false);
  c.weight().fill(1.0f);
  Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y;
  c.forward(x, y, false);
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Conv2d, KnownSmallConvolution) {
  // 2x2 input, 2x2 kernel of ones, no pad: output = sum of all inputs.
  Conv2d c(1, 1, 2, 1, 0, /*bias=*/false);
  c.weight().fill(1.0f);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor y;
  c.forward(x, y, false);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 10.0f);
}

TEST(Conv2d, BiasAddsPerChannel) {
  Conv2d c(1, 2, 1, 1, 0, /*bias=*/true);
  c.weight().zero();
  c.bias()[0] = 1.5f;
  c.bias()[1] = -2.0f;
  Tensor x({1, 1, 2, 2}, 3.0f);
  Tensor y;
  c.forward(x, y, false);
  EXPECT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, GroupsPartitionChannels) {
  // 2 groups: output channel 0 must not depend on input channel 1.
  Conv2d c(2, 2, 1, 1, 0, /*bias=*/false, /*groups=*/2);
  c.weight().fill(1.0f);
  Tensor x({1, 2, 1, 1}, std::vector<float>{5.0f, 7.0f});
  Tensor y;
  c.forward(x, y, false);
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
}

TEST(Conv2d, GroupedParamCountHalved) {
  Conv2d full(96, 256, 5, 1, 2, true, 1);
  Conv2d grouped(96, 256, 5, 1, 2, true, 2);
  auto count = [](Conv2d& c) {
    std::int64_t n = 0;
    for (auto& p : c.params()) n += p.value->numel();
    return n;
  };
  EXPECT_EQ(count(full) - 256, 2 * (count(grouped) - 256));
}

TEST(Conv2d, FlopsMatchFormula) {
  Conv2d c(3, 8, 3, 1, 1);
  // out 8x8: 2 * 8 * 3 * 9 * 64
  EXPECT_EQ(c.flops({1, 3, 8, 8}), 2 * 8 * 3 * 3 * 3 * 8 * 8);
}

TEST(Conv2d, GradCheckBasic) {
  Conv2d c(2, 3, 3, 1, 1);
  testing::check_gradients(c, {2, 2, 5, 5});
}

TEST(Conv2d, GradCheckStridedNoBias) {
  Conv2d c(3, 4, 3, 2, 1, /*bias=*/false);
  testing::check_gradients(c, {2, 3, 7, 7});
}

TEST(Conv2d, GradCheckGrouped) {
  Conv2d c(4, 4, 3, 1, 1, /*bias=*/true, /*groups=*/2);
  testing::check_gradients(c, {1, 4, 5, 5});
}

TEST(Conv2d, GradCheck1x1) {
  Conv2d c(4, 6, 1, 1, 0);
  testing::check_gradients(c, {2, 4, 4, 4});
}

// Exhaustive configuration grid: every (kernel, stride, pad, groups, bias)
// combination must pass the finite-difference check.
struct ConvGridCase {
  std::int64_t kernel, stride, pad, groups;
  bool bias;
};

class ConvGradGrid : public ::testing::TestWithParam<ConvGridCase> {};

TEST_P(ConvGradGrid, GradCheck) {
  const auto& p = GetParam();
  Conv2d c(4, 4, p.kernel, p.stride, p.pad, p.bias, p.groups);
  testing::check_gradients(c, {1, 4, 6, 6},
                           /*seed=*/static_cast<std::uint64_t>(
                               p.kernel * 1000 + p.stride * 100 +
                               p.pad * 10 + p.groups));
}

std::vector<ConvGridCase> conv_grid() {
  std::vector<ConvGridCase> cases;
  for (std::int64_t k : {1, 2, 3}) {
    for (std::int64_t s : {1, 2}) {
      for (std::int64_t pad : {0, 1}) {
        for (std::int64_t g : {1, 2, 4}) {
          for (bool bias : {false, true}) {
            cases.push_back({k, s, pad, g, bias});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ConvGradGrid, ::testing::ValuesIn(conv_grid()));

// -- direct-path oracle -----------------------------------------------------
//
// The direct (im2col-free) conv path must agree with (a) a naive
// double-accumulated reference within float tolerance, and (b) the im2col
// path byte for byte at sizes where sgemm takes its packed microkernel path
// — same packed values, same microkernel visit order, so not just close but
// identical.

/// Restores the process-wide direct-path toggle on scope exit.
struct DirectPathGuard {
  bool prev = Conv2d::direct_enabled();
  ~DirectPathGuard() { Conv2d::set_direct_enabled(prev); }
};

bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  if (a.numel() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Naive direct convolution, double accumulation, groups == 1.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor* bias,
                  std::int64_t stride, std::int64_t pad) {
  const std::int64_t batch = x.shape()[0], in_c = x.shape()[1];
  const std::int64_t h = x.shape()[2], wdim = x.shape()[3];
  const std::int64_t out_c = w.shape()[0], k = w.shape()[2];
  const std::int64_t out_h = (h + 2 * pad - k) / stride + 1;
  const std::int64_t out_w = (wdim + 2 * pad - k) / stride + 1;
  Tensor y({batch, out_c, out_h, out_w});
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias != nullptr ? (*bias)[oc] : 0.0;
          for (std::int64_t ci = 0; ci < in_c; ++ci) {
            for (std::int64_t ki = 0; ki < k; ++ki) {
              const std::int64_t ih = oh * stride - pad + ki;
              if (ih < 0 || ih >= h) continue;
              for (std::int64_t kj = 0; kj < k; ++kj) {
                const std::int64_t iw = ow * stride - pad + kj;
                if (iw < 0 || iw >= wdim) continue;
                acc += static_cast<double>(x.at(n, ci, ih, iw)) *
                       w.at(oc, ci, ki, kj);
              }
            }
          }
          y.at(n, oc, oh, ow) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST(ConvOracle, DirectForwardMatchesNaiveReference) {
  struct Case {
    std::int64_t in_c, out_c, k, pad, hw;
  };
  const Case cases[] = {
      {3, 8, 3, 1, 9},  {4, 6, 3, 0, 7},  {5, 7, 3, 1, 12},
      {4, 6, 1, 0, 8},  {8, 5, 1, 0, 5},
  };
  Rng rng(77);
  for (const auto& c : cases) {
    Conv2d conv(c.in_c, c.out_c, c.k, 1, c.pad, /*bias=*/true);
    conv.init(rng);
    rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
    Tensor x({2, c.in_c, c.hw, c.hw});
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor y;
    conv.forward(x, y, false);
    const Tensor ref = naive_conv(x, conv.weight(), &conv.bias(), 1, c.pad);
    ASSERT_EQ(y.shape(), ref.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      ASSERT_NEAR(y[i], ref[i], 1e-3 * (1.0 + std::abs(ref[i])))
          << "k=" << c.k << " pad=" << c.pad << " at " << i;
    }
  }
}

TEST(ConvOracle, Direct3x3BitIdenticalToIm2colAtPackedSizes) {
  DirectPathGuard guard;
  // kdim=288, spatial=256, out_c=48: the im2col sgemm takes the packed
  // microkernel path, so direct and im2col must agree bytewise.
  Conv2d conv(32, 48, 3, 1, 1);
  Rng rng(11);
  conv.init(rng);
  rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
  Tensor x({2, 32, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);

  Tensor y_ref, y_direct;
  Conv2d::set_direct_enabled(false);
  conv.forward(x, y_ref, false);
  Conv2d::set_direct_enabled(true);
  conv.forward(x, y_direct, false);
  EXPECT_TRUE(same_bits(y_ref, y_direct));
}

TEST(ConvOracle, Direct1x1BitIdenticalToIm2colForwardBackward) {
  DirectPathGuard guard;
  Conv2d conv(64, 64, 1);
  Rng rng(13);
  conv.init(rng);
  Tensor x({2, 64, 16, 16});
  rng.fill_normal(x.span(), 0.0f, 1.0f);

  auto run = [&](bool direct, Tensor* y, Tensor* dx,
                 std::vector<float>* grads) {
    Conv2d::set_direct_enabled(direct);
    conv.forward(x, *y, true);
    Tensor dy(y->shape());
    Rng grng(17);
    grng.fill_normal(dy.span(), 0.0f, 1.0f);
    for (auto& p : conv.params()) p.grad->zero();
    conv.backward(x, *y, dy, *dx);
    grads->clear();
    for (auto& p : conv.params()) {
      grads->insert(grads->end(), p.grad->span().begin(),
                    p.grad->span().end());
    }
  };
  Tensor y_ref, dx_ref, y_dir, dx_dir;
  std::vector<float> g_ref, g_dir;
  run(false, &y_ref, &dx_ref, &g_ref);
  run(true, &y_dir, &dx_dir, &g_dir);
  EXPECT_TRUE(same_bits(y_ref, y_dir));
  EXPECT_TRUE(same_bits(dx_ref, dx_dir));
  ASSERT_EQ(g_ref.size(), g_dir.size());
  EXPECT_EQ(std::memcmp(g_ref.data(), g_dir.data(),
                        g_ref.size() * sizeof(float)),
            0);
}

// -- fused backward oracle --------------------------------------------------
//
// Every ungrouped conv's backward runs the fused kernels; dx, dW and db must
// equal the im2col path's bytes on both sides of sgemm's small/packed
// threshold.

struct BackwardRun {
  Tensor dx;
  std::vector<float> grads;  // dW then db
};

/// One backward of `conv` on (x, dy) with the direct paths on or off.
BackwardRun run_backward(Conv2d& conv, const Tensor& x, const Tensor& y,
                         const Tensor& dy, bool direct) {
  Conv2d::set_direct_enabled(direct);
  BackwardRun out;
  for (auto& p : conv.params()) p.grad->zero();
  conv.backward(x, y, dy, out.dx);
  for (auto& p : conv.params()) {
    out.grads.insert(out.grads.end(), p.grad->span().begin(),
                     p.grad->span().end());
  }
  return out;
}

/// Checks the fused backward against the im2col path bytewise and returns
/// whether the fused kernels actually ran for this shape.
bool expect_fused_backward_matches(std::int64_t in_c, std::int64_t out_c,
                                   std::int64_t k, std::int64_t stride,
                                   bool bias, std::int64_t batch,
                                   std::int64_t hw, std::uint64_t seed) {
  DirectPathGuard guard;
  const std::int64_t pad = k / 2;
  Conv2d conv(in_c, out_c, k, stride, pad, bias);
  Rng rng(seed);
  conv.init(rng);
  if (bias) rng.fill_normal(conv.bias().span(), 0.0f, 0.5f);
  Tensor x({batch, in_c, hw, hw});
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  Tensor y;
  conv.forward(x, y, true);
  Tensor dy(y.shape());
  rng.fill_normal(dy.span(), 0.0f, 1.0f);

  const BackwardRun ref = run_backward(conv, x, y, dy, /*direct=*/false);
  const BackwardRun fused = run_backward(conv, x, y, dy, /*direct=*/true);
  const std::string where = std::to_string(in_c) + "->" +
                            std::to_string(out_c) + " k" + std::to_string(k) +
                            " s" + std::to_string(stride) + " " +
                            std::to_string(hw) + "^2 batch " +
                            std::to_string(batch) + (bias ? " bias" : "");
  EXPECT_TRUE(same_bits(ref.dx, fused.dx)) << "dx differs: " << where;
  EXPECT_EQ(ref.grads.size(), fused.grads.size());
  EXPECT_EQ(std::memcmp(ref.grads.data(), fused.grads.data(),
                        ref.grads.size() * sizeof(float)),
            0)
      << "dW/db differ: " << where;
  const kernels::Conv2dGeom geom{in_c, hw, hw, out_c, y.shape()[2],
                                 y.shape()[3], k, stride, pad};
  return kernels::conv2d_backward_fused_eligible(geom);
}

bool small_gemm(std::int64_t in_c, std::int64_t out_c, std::int64_t k,
                std::int64_t out_hw) {
  return out_c * in_c * k * k * out_hw * out_hw <= kSmallGemmFlops;
}

TEST(ConvOracle, FusedBackwardBitIdenticalToIm2colGrid) {
  // k {1,3} x stride {1,2} x bias x planes {4,8,16} x channels on both
  // sides of the 2^18 small-path threshold.
  struct Channels {
    std::int64_t in_c, out_c;
  };
  const Channels channels[] = {{3, 8}, {16, 32}, {32, 48}};
  std::uint64_t seed = 100;
  int small_cases = 0, packed_cases = 0;
  for (std::int64_t k : {1, 3}) {
    for (std::int64_t stride : {1, 2}) {
      for (bool bias : {false, true}) {
        for (std::int64_t hw : {4, 8, 16}) {
          for (const Channels& ch : channels) {
            const bool eligible = expect_fused_backward_matches(
                ch.in_c, ch.out_c, k, stride, bias, /*batch=*/3, hw, ++seed);
            const std::int64_t out_hw = (hw + 2 * (k / 2) - k) / stride + 1;
            if (small_gemm(ch.in_c, ch.out_c, k, out_hw)) {
              ++small_cases;
            } else {
              ++packed_cases;
              // The packed side never depends on the small-path probe.
              EXPECT_TRUE(eligible) << ch.in_c << "->" << ch.out_c << " k" << k
                                    << " s" << stride << " " << hw << "^2";
            }
          }
        }
      }
    }
  }
  EXPECT_GT(small_cases, 0);
  EXPECT_GT(packed_cases, 0);
}

TEST(ConvOracle, FusedBackwardDeepSmallPathAndRaggedBatch) {
  // spatial 1024 > kKC with a small out_c*kdim: sgemm's small path sums the
  // whole depth in one chain, so the fused dW keeps it in one block.
  expect_fused_backward_matches(1, 8, 3, 1, /*bias=*/true, /*batch=*/2, 32, 7);
  // Batch 18 splits into 16 chunks of 1-2 images: the per-chunk dW partials
  // and their fixed-order combine see uneven chunks.
  expect_fused_backward_matches(8, 16, 3, 1, /*bias=*/true, /*batch=*/18, 8, 8);
  expect_fused_backward_matches(16, 32, 3, 2, /*bias=*/false, /*batch=*/18, 16,
                                9);
}

TEST(ConvOracle, FusedBackwardOddPlanesStayBitIdentical) {
  // Depths (spatial) that are not multiples of 4: where the compiled small
  // path contracts part of its dot product, the layer keeps the im2col
  // path; either way the bytes match.
  for (std::int64_t hw : {5, 7}) {
    for (std::int64_t stride : {1, 2}) {
      const auto seed = static_cast<std::uint64_t>(hw * 10 + stride);
      expect_fused_backward_matches(4, 8, 3, stride, /*bias=*/true, 2, hw,
                                    seed);
      expect_fused_backward_matches(32, 64, 3, stride, /*bias=*/false, 2, hw,
                                    seed + 1);
    }
  }
}

TEST(ConvOracle, DirectForwardBitIdenticalAcrossIsaPaths) {
  Conv2d conv(16, 24, 3, 1, 1);
  Rng rng(19);
  conv.init(rng);
  Tensor x({2, 16, 12, 12});
  rng.fill_normal(x.span(), 0.0f, 1.0f);

  kernels::force(kernels::Isa::kPortable);
  Tensor y_portable;
  conv.forward(x, y_portable, false);
  for (kernels::Isa isa : {kernels::Isa::kAvx2, kernels::Isa::kNeon}) {
    if (!kernels::supported(isa)) continue;
    kernels::force(isa);
    Tensor y;
    conv.forward(x, y, false);
    EXPECT_TRUE(same_bits(y_portable, y))
        << kernels::to_string(isa) << " differs from portable";
  }
  kernels::clear_force();
}

TEST(ConvOracle, ZeroBatchDirectKernelNoOp) {
  // Layer::forward rejects empty inputs by contract, so zero-size coverage
  // targets the kernel API: batch == 0 must be a no-op, not a crash.
  const kernels::Conv2dGeom geom{/*in_c=*/3, /*h=*/8,  /*w=*/8,
                                 /*out_c=*/8, /*out_h=*/8, /*out_w=*/8,
                                 /*k=*/3,     /*stride=*/1, /*pad=*/1};
  std::vector<float> w(static_cast<std::size_t>(8 * 3 * 3 * 3), 1.0f);
  ComputeContext ctx(4);
  kernels::conv2d_forward_direct(ctx, nullptr, w.data(), nullptr, nullptr, 0,
                                 geom);
}

TEST(Conv2d, GradientsAccumulateAcrossBackwardCalls) {
  Conv2d c(1, 1, 1, 1, 0, /*bias=*/false);
  Rng rng(5);
  c.init(rng);
  Tensor x({1, 1, 2, 2}, 1.0f), y, dy({1, 1, 2, 2}, 1.0f), dx;
  c.forward(x, y, true);
  for (auto& p : c.params()) p.grad->zero();
  c.backward(x, y, dy, dx);
  const float once = c.params()[0].grad->operator[](0);
  c.backward(x, y, dy, dx);
  EXPECT_FLOAT_EQ(c.params()[0].grad->operator[](0), 2.0f * once);
}

}  // namespace
}  // namespace minsgd
