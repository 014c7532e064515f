/**
 * @file
 * Tests for the planned inference data path (nn/plan.hh): golden
 * equivalence of the im2col/GEMM kernels against the naive reference
 * executor across a {kernel, stride, pad, groups, odd-shape} sweep,
 * bit-identity of batched vs single-sample execution and of
 * back-to-back requests through one reused arena, zero-heap-allocation
 * behaviour of the planned path, the liveness allocator actually
 * reusing buffers, and Relu fusion: a plan whose Relus fold into their
 * conv/fc producers matches a step-by-step composition of kernel-table
 * calls plus std::max bit for bit, fp32 and int8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/alloc_probe.hh"
#include "common/rng.hh"
#include "nn/builder.hh"
#include "nn/execute.hh"
#include "nn/plan.hh"
#include "tensor/gemm.hh"
#include "tensor/kernels.hh"
#include "tensor/tensor.hh"

namespace fpsa
{
namespace
{

Tensor
randomInput(const Shape &shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    // Mixed-sign values so maxpool padding semantics are exercised.
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
}

Graph
weighted(GraphBuilder &b, std::uint64_t seed)
{
    Graph g = b.build();
    Rng rng(seed);
    randomizeWeights(g, rng);
    return g;
}

/** Planned output of one sample (fresh plan + context). */
Tensor
runPlanned(const Graph &g, const Tensor &input)
{
    auto plan = ExecutionPlan::build(g);
    EXPECT_TRUE(plan.ok()) << plan.status().toString();
    PlanContext context = plan->makeContext();
    Tensor out(plan->outputShape());
    plan->run(input.data(), out.data(), context);
    return out;
}

/** Assert planned == reference within float-vs-double accumulation. */
void
expectGoldenEquivalent(const Graph &g, const Tensor &input)
{
    const Tensor reference = runGraphFinal(g, input);
    const Tensor planned = runPlanned(g, input);
    ASSERT_EQ(planned.shape(), reference.shape());
    const float tol =
        1e-4f * std::max(1.0f, reference.absMax());
    for (std::int64_t i = 0; i < reference.numel(); ++i)
        ASSERT_NEAR(planned[i], reference[i], tol) << "element " << i;
}

// ----------------------------------------------------- golden equivalence

TEST(PlanGolden, ConvKernelStridePadSweep)
{
    for (int kernel : {1, 2, 3, 5}) {
        for (int stride : {1, 2, 3}) {
            for (int pad : {0, 1, 2}) {
                if (pad >= kernel)
                    continue; // all-padding windows are degenerate
                GraphBuilder b({3, 11, 9}); // odd, rectangular
                b.conv(6, kernel, stride, pad).relu();
                Graph g = weighted(
                    b, 1000u + static_cast<std::uint64_t>(
                                   kernel * 100 + stride * 10 + pad));
                expectGoldenEquivalent(g, randomInput({3, 11, 9}, 5));
            }
        }
    }
}

TEST(PlanGolden, KernelWiderThanPaddedInput)
{
    // Regression: when a kernel tap can never land in range
    // (kernel > width + pad) with stride >= 2, the im2col valid-range
    // arithmetic used to truncate a negative bound toward zero and
    // read one element past the row instead of writing padding.
    GraphBuilder b({1, 2, 2});
    b.conv(2, 5, 2, 2);
    Graph g = weighted(b, 71);
    expectGoldenEquivalent(g, randomInput({1, 2, 2}, 72));

    GraphBuilder b2({3, 6, 3});
    b2.conv(4, 5, 2, 2).relu();
    Graph g2 = weighted(b2, 73);
    expectGoldenEquivalent(g2, randomInput({3, 6, 3}, 74));
}

TEST(PlanGolden, GroupedConvSweep)
{
    for (int groups : {1, 2, 4}) {
        for (int kernel : {1, 3}) {
            GraphBuilder b({8, 10, 7});
            b.conv(12, kernel, 1, kernel / 2, groups).relu();
            Graph g = weighted(
                b, 2000u + static_cast<std::uint64_t>(groups * 10 +
                                                      kernel));
            expectGoldenEquivalent(g, randomInput({8, 10, 7}, 11));
        }
    }
}

TEST(PlanGolden, PoolingSweepIncludingPaddedWindows)
{
    for (bool average : {false, true}) {
        for (int kernel : {2, 3}) {
            for (int stride : {1, 2}) {
                for (int pad : {0, 1}) {
                    GraphBuilder b({2, 9, 7});
                    if (average)
                        b.avgPool(kernel, stride, pad);
                    else
                        b.maxPool(kernel, stride, pad);
                    Graph g = b.build();
                    expectGoldenEquivalent(
                        g, randomInput({2, 9, 7}, 21));
                }
            }
        }
    }
}

TEST(PlanGolden, LeNetStyleStack)
{
    GraphBuilder b({1, 28, 28});
    b.conv(6, 5, 1, 0).relu().maxPool(2, 2);
    b.conv(16, 5, 1, 0).relu().maxPool(2, 2);
    b.flatten().fc(120).relu().fc(84).relu().fc(10);
    Graph g = weighted(b, 3);
    expectGoldenEquivalent(g, randomInput({1, 28, 28}, 31));
}

TEST(PlanGolden, BranchyGraphWithConcatAddAndGlobalPool)
{
    GraphBuilder b({4, 12, 12});
    const NodeId in = b.tip();
    const NodeId left = b.at(in).conv(6, 1, 1, 0).relu().tip();
    const NodeId right = b.at(in).conv(6, 3, 1, 1).relu().tip();
    b.concat({left, right});
    const NodeId trunk = b.tip();
    b.conv(12, 3, 1, 1).batchNorm();
    b.add({trunk}).relu();
    b.globalAvgPool().fc(5);
    Graph g = weighted(b, 4);
    expectGoldenEquivalent(g, randomInput({4, 12, 12}, 41));
}

TEST(PlanGolden, AvgPoolAndStridedGroupedStack)
{
    GraphBuilder b({6, 13, 13});
    b.conv(12, 3, 2, 1, 2).relu().avgPool(2, 2, 1);
    b.conv(8, 1, 1, 0).relu().flatten().fc(7);
    Graph g = weighted(b, 6);
    expectGoldenEquivalent(g, randomInput({6, 13, 13}, 61));
}

// -------------------------------------------- batched / arena bit-identity

TEST(PlanBatch, BatchedExecutionIsBitIdenticalToSingle)
{
    GraphBuilder b({2, 14, 14});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(12, 3, 2, 1, 2).relu().flatten().fc(20).relu().fc(6);
    Graph g = weighted(b, 8);
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok()) << plan.status().toString();

    constexpr int kBatch = 5;
    std::vector<Tensor> inputs;
    std::vector<Tensor> singles;
    for (int i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(
            {2, 14, 14}, 100u + static_cast<std::uint64_t>(i)));

    PlanContext single_ctx = plan->makeContext();
    for (int i = 0; i < kBatch; ++i) {
        Tensor out(plan->outputShape());
        plan->run(inputs[static_cast<std::size_t>(i)].data(),
                  out.data(), single_ctx);
        singles.push_back(std::move(out));
    }

    std::vector<const float *> in_ptrs;
    std::vector<Tensor> batched(static_cast<std::size_t>(kBatch),
                                Tensor(plan->outputShape()));
    std::vector<float *> out_ptrs;
    for (int i = 0; i < kBatch; ++i) {
        in_ptrs.push_back(inputs[static_cast<std::size_t>(i)].data());
        out_ptrs.push_back(batched[static_cast<std::size_t>(i)].data());
    }
    PlanContext batch_ctx = plan->makeContext(kBatch);
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), kBatch, batch_ctx);

    for (int i = 0; i < kBatch; ++i) {
        for (std::int64_t v = 0;
             v < singles[static_cast<std::size_t>(i)].numel(); ++v) {
            ASSERT_EQ(batched[static_cast<std::size_t>(i)][v],
                      singles[static_cast<std::size_t>(i)][v])
                << "sample " << i << " element " << v;
        }
    }
}

TEST(PlanArena, BackToBackRequestsThroughOnePlanAreBitIdentical)
{
    GraphBuilder b({3, 10, 10});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2).flatten().fc(12);
    Graph g = weighted(b, 9);
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());

    const Tensor input = randomInput({3, 10, 10}, 77);
    PlanContext context = plan->makeContext();
    Tensor first(plan->outputShape()), second(plan->outputShape());
    plan->run(input.data(), first.data(), context);
    // Disturb the arena with a different request, then repeat the
    // first: a stale-state or liveness bug would surface here.
    Tensor other(plan->outputShape());
    plan->run(randomInput({3, 10, 10}, 78).data(), other.data(),
              context);
    plan->run(input.data(), second.data(), context);
    for (std::int64_t i = 0; i < first.numel(); ++i)
        ASSERT_EQ(first[i], second[i]) << "element " << i;
}

TEST(PlanArena, PlannedRequestPerformsZeroHeapAllocations)
{
    GraphBuilder b({2, 12, 12});
    b.conv(6, 3, 1, 1).relu().maxPool(2, 2, 1);
    b.conv(8, 3, 2, 1, 2).relu().flatten().fc(16).relu().fc(4);
    Graph g = weighted(b, 12);
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());

    const Tensor input = randomInput({2, 12, 12}, 99);
    Tensor out(plan->outputShape());
    PlanContext context = plan->makeContext(4);
    // Warm-up sizes the context buffers once.
    plan->run(input.data(), out.data(), context);

    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the planned path must not allocate per request";

    // The batched path is allocation-free too once the context has
    // served that width.
    std::vector<const float *> in_ptrs(4, input.data());
    std::vector<Tensor> outs(4, Tensor(plan->outputShape()));
    std::vector<float *> out_ptrs;
    for (Tensor &t : outs)
        out_ptrs.push_back(t.data());
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 4, context);
    alloc_probe::arm();
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 4, context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the batched planned path must not allocate per request";
}

TEST(PlanArena, LivenessReusesBuffersAndAliasesReshapes)
{
    // A deep chain where every activation has a short life: the arena
    // must be much smaller than the sum of all node activations.
    GraphBuilder b({4, 16, 16});
    for (int i = 0; i < 6; ++i)
        b.conv(4, 3, 1, 1).relu();
    b.flatten().fc(10);
    Graph g = weighted(b, 13);

    std::int64_t total = 0;
    for (const GraphNode &n : g.nodes())
        total += shapeNumel(n.outShape);

    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());
    EXPECT_LT(plan->arenaFloatsPerSample(), total / 2)
        << "liveness allocation should reuse expired buffers";
    // Flatten aliases its producer: it must not add its own numel on
    // top of the three live buffers a conv chain needs.
    EXPECT_GE(plan->arenaFloatsPerSample(), 4 * 16 * 16 * 2);
}

TEST(PlanBuild, RejectsGraphsWithoutWeights)
{
    GraphBuilder b({1, 8, 8});
    b.conv(4, 3, 1, 0).relu().flatten().fc(10);
    Graph g = b.build(); // no randomizeWeights
    auto plan = ExecutionPlan::build(g);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::InvalidArgument);
}

// ------------------------------------------------ precision / ISA variants

std::vector<KernelIsa>
availablePlanIsas()
{
    std::vector<KernelIsa> isas{KernelIsa::Scalar};
    for (KernelIsa isa : {KernelIsa::Avx2, KernelIsa::Neon})
        if (kernelIsaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

Graph
mixedStackGraph(std::uint64_t seed)
{
    GraphBuilder b({3, 13, 11});
    b.conv(8, 3, 1, 1).relu().maxPool(2, 2);
    b.conv(12, 3, 2, 1, 2).relu().flatten().fc(24).relu().fc(9);
    return weighted(b, seed);
}

TEST(PlanIsa, EveryAvailableIsaStaysGoldenEquivalent)
{
    const Graph g = mixedStackGraph(301);
    const Tensor input = randomInput({3, 13, 11}, 302);
    const Tensor reference = runGraphFinal(g, input);
    for (KernelIsa isa : availablePlanIsas()) {
        auto plan =
            ExecutionPlan::build(g, {PrecisionMode::Fp32, isa});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        EXPECT_EQ(plan->kernelIsa(), isa);
        PlanContext context = plan->makeContext();
        Tensor out(plan->outputShape());
        plan->run(input.data(), out.data(), context);
        const float tol = 1e-4f * std::max(1.0f, reference.absMax());
        for (std::int64_t i = 0; i < reference.numel(); ++i)
            ASSERT_NEAR(out[i], reference[i], tol)
                << kernelIsaName(isa) << " element " << i;
    }
}

TEST(PlanInt8, TracksFp32WithinQuantizationError)
{
    const Graph g = mixedStackGraph(303);
    const Tensor input = randomInput({3, 13, 11}, 304);
    const Tensor fp32 = runPlanned(g, input);
    for (PrecisionMode mode :
         {PrecisionMode::Int8, PrecisionMode::Int6}) {
        auto plan =
            ExecutionPlan::build(g, {mode, KernelIsa::Auto});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();
        EXPECT_EQ(plan->precision(), mode);
        PlanContext context = plan->makeContext();
        Tensor out(plan->outputShape());
        plan->run(input.data(), out.data(), context);
        // Quantization noise grows through the stack; gate RMSE
        // relative to the fp32 output's scale rather than elementwise.
        double err2 = 0.0, ref2 = 0.0;
        for (std::int64_t i = 0; i < fp32.numel(); ++i) {
            const double d = out[i] - fp32[i];
            err2 += d * d;
            ref2 += static_cast<double>(fp32[i]) * fp32[i];
        }
        const double rel =
            std::sqrt(err2) / std::max(1e-12, std::sqrt(ref2));
        EXPECT_LT(rel, mode == PrecisionMode::Int8 ? 0.12 : 0.35)
            << precisionModeName(mode);
        EXPECT_GT(rel, 0.0) << "quantization should not be a no-op";
    }
}

TEST(PlanInt8, BatchedBitIdenticalToSingleAndAcrossIsas)
{
    const Graph g = mixedStackGraph(305);
    constexpr int kBatch = 4;
    std::vector<Tensor> inputs;
    for (int i = 0; i < kBatch; ++i)
        inputs.push_back(randomInput(
            {3, 13, 11}, 400u + static_cast<std::uint64_t>(i)));

    std::vector<Tensor> first_isa;
    for (KernelIsa isa : availablePlanIsas()) {
        auto plan =
            ExecutionPlan::build(g, {PrecisionMode::Int8, isa});
        ASSERT_TRUE(plan.ok()) << plan.status().toString();

        PlanContext single_ctx = plan->makeContext();
        std::vector<Tensor> singles;
        for (int i = 0; i < kBatch; ++i) {
            Tensor out(plan->outputShape());
            plan->run(inputs[static_cast<std::size_t>(i)].data(),
                      out.data(), single_ctx);
            singles.push_back(std::move(out));
        }

        std::vector<const float *> in_ptrs;
        std::vector<Tensor> batched(static_cast<std::size_t>(kBatch),
                                    Tensor(plan->outputShape()));
        std::vector<float *> out_ptrs;
        for (int i = 0; i < kBatch; ++i) {
            in_ptrs.push_back(
                inputs[static_cast<std::size_t>(i)].data());
            out_ptrs.push_back(
                batched[static_cast<std::size_t>(i)].data());
        }
        PlanContext batch_ctx = plan->makeContext(kBatch);
        plan->runBatch(in_ptrs.data(), out_ptrs.data(), kBatch,
                       batch_ctx);

        for (int i = 0; i < kBatch; ++i)
            for (std::int64_t v = 0;
                 v < singles[static_cast<std::size_t>(i)].numel(); ++v)
                ASSERT_EQ(batched[static_cast<std::size_t>(i)][v],
                          singles[static_cast<std::size_t>(i)][v])
                    << kernelIsaName(isa) << " sample " << i
                    << " element " << v;

        // Integer GEMM + scalar quantization: the whole int8 forward
        // pass is bit-identical across instruction sets.
        if (first_isa.empty()) {
            first_isa = std::move(singles);
        } else {
            for (int i = 0; i < kBatch; ++i)
                for (std::int64_t v = 0;
                     v <
                     first_isa[static_cast<std::size_t>(i)].numel();
                     ++v)
                    ASSERT_EQ(
                        singles[static_cast<std::size_t>(i)][v],
                        first_isa[static_cast<std::size_t>(i)][v])
                        << kernelIsaName(isa) << " vs scalar, sample "
                        << i << " element " << v;
        }
    }
}

TEST(PlanInt8, QuantizedRequestPerformsZeroHeapAllocations)
{
    const Graph g = mixedStackGraph(306);
    auto plan = ExecutionPlan::build(
        g, {PrecisionMode::Int8, KernelIsa::Auto});
    ASSERT_TRUE(plan.ok()) << plan.status().toString();

    const Tensor input = randomInput({3, 13, 11}, 307);
    Tensor out(plan->outputShape());
    PlanContext context = plan->makeContext(3);
    plan->run(input.data(), out.data(), context); // warm-up

    alloc_probe::arm();
    plan->run(input.data(), out.data(), context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the int8 path must not allocate per request";

    std::vector<const float *> in_ptrs(3, input.data());
    std::vector<Tensor> outs(3, Tensor(plan->outputShape()));
    std::vector<float *> out_ptrs;
    for (Tensor &t : outs)
        out_ptrs.push_back(t.data());
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 3, context);
    alloc_probe::arm();
    plan->runBatch(in_ptrs.data(), out_ptrs.data(), 3, context);
    EXPECT_EQ(alloc_probe::disarm(), 0)
        << "the batched int8 path must not allocate per request";
}

// ------------------------------------------------------------ relu fusion

/**
 * Symmetric int8 quantization exactly as the plan does it: a scale of
 * absmax / qmax (0 for an all-zero source), round to nearest, clamp.
 */
float
scaleFor(const float *src, std::int64_t n, float qmax)
{
    float absmax = 0.0f;
    for (std::int64_t v = 0; v < n; ++v)
        absmax = std::max(absmax, std::fabs(src[v]));
    return absmax > 0.0f ? absmax / qmax : 0.0f;
}

std::vector<std::int8_t>
quantizeWith(const float *src, std::int64_t n, float scale, float qmax)
{
    const float mult = scale > 0.0f ? 1.0f / scale : 0.0f;
    const auto q = static_cast<std::int32_t>(qmax);
    std::vector<std::int8_t> out(static_cast<std::size_t>(n));
    for (std::int64_t v = 0; v < n; ++v)
        out[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(
            std::clamp(static_cast<std::int32_t>(std::lrintf(src[v] * mult)),
                       -q, q));
    return out;
}

/**
 * One sample through `g` one node at a time, from unchanged kernel-table
 * calls (im2col, fp32 or int8 GEMM) plus std::max(0.0f, x) for every
 * Relu: the composition a fused plan must reproduce bit for bit.
 * Handles ungrouped conv, fc, relu, add and the identity ops.
 */
std::vector<float>
runStepByStep(const Graph &g, const KernelTable &t, PrecisionMode mode,
              const std::vector<float> &input)
{
    const bool quantized = mode != PrecisionMode::Fp32;
    const float qmax =
        quantized ? static_cast<float>(
                        (1 << (precisionActivationBits(mode) - 1)) - 1)
                  : 0.0f;
    std::vector<std::vector<float>> value(g.size());
    const std::vector<NodeId> order = g.topoOrder();
    for (NodeId id : order) {
        const GraphNode &n = g.node(id);
        std::vector<float> &out = value[static_cast<std::size_t>(id)];
        out.resize(static_cast<std::size_t>(shapeNumel(n.outShape)));
        const auto in = [&](std::size_t i) -> const std::vector<float> & {
            return value[static_cast<std::size_t>(n.inputs[i])];
        };
        switch (n.kind) {
          case OpKind::Input:
            out = input;
            break;
          case OpKind::Conv2d: {
            const Shape &is = g.node(n.inputs[0]).outShape;
            const std::int64_t kk = is[0] * n.attrs.kernel * n.attrs.kernel;
            const std::int64_t hw = n.outShape[1] * n.outShape[2];
            const std::int64_t co = n.outShape[0];
            std::vector<float> cols(static_cast<std::size_t>(kk * hw));
            t.im2colChw(in(0).data(), is[0], is[1], is[2], n.attrs.kernel,
                        n.attrs.kernel, n.attrs.stride, n.attrs.pad,
                        n.outShape[1], n.outShape[2], cols.data(), hw,
                        0.0f);
            const float *w = n.weights->data();
            if (!quantized) {
                t.gemmRowMajor(w, kk, cols.data(), hw, out.data(), hw, co,
                               kk, hw);
                break;
            }
            const float sw = scaleFor(w, co * kk, 127.0f);
            const float sa = scaleFor(in(0).data(),
                                      static_cast<std::int64_t>(
                                          in(0).size()),
                                      qmax);
            const auto qw = quantizeWith(w, co * kk, sw, 127.0f);
            const auto qc = quantizeWith(cols.data(), kk * hw, sa, qmax);
            std::vector<std::int32_t> acc(out.size());
            t.gemmInt8(qw.data(), kk, qc.data(), hw, acc.data(), hw, co,
                       kk, hw);
            for (std::size_t v = 0; v < out.size(); ++v)
                out[v] = static_cast<float>(acc[v]) * (sw * sa);
            break;
          }
          case OpKind::FullyConnected: {
            const auto ci = static_cast<std::int64_t>(in(0).size());
            const std::int64_t co = n.attrs.units;
            std::vector<float> wt(static_cast<std::size_t>(ci * co));
            for (std::int64_t u = 0; u < co; ++u)
                for (std::int64_t r = 0; r < ci; ++r)
                    wt[static_cast<std::size_t>(r * co + u)] =
                        n.weights->data()[u * ci + r];
            if (!quantized) {
                t.gemmRowMajor(in(0).data(), ci, wt.data(), co, out.data(),
                               co, 1, ci, co);
                break;
            }
            const float sw = scaleFor(wt.data(), ci * co, 127.0f);
            const float sa = scaleFor(in(0).data(), ci, qmax);
            const auto qw = quantizeWith(wt.data(), ci * co, sw, 127.0f);
            const auto qi = quantizeWith(in(0).data(), ci, sa, qmax);
            std::vector<std::int32_t> acc(out.size());
            t.gemmInt8(qi.data(), ci, qw.data(), co, acc.data(), co, 1, ci,
                       co);
            for (std::size_t v = 0; v < out.size(); ++v)
                out[v] = static_cast<float>(acc[v]) * (sw * sa);
            break;
          }
          case OpKind::Relu:
            for (std::size_t v = 0; v < out.size(); ++v)
                out[v] = std::max(0.0f, in(0)[v]);
            break;
          case OpKind::Add:
            out = in(0);
            for (std::size_t a = 1; a < n.inputs.size(); ++a)
                for (std::size_t v = 0; v < out.size(); ++v)
                    out[v] += in(a)[v];
            break;
          case OpKind::Flatten:
          case OpKind::BatchNorm:
            out = in(0);
            break;
          default:
            ADD_FAILURE() << "runStepByStep: unsupported op " << n.name;
        }
    }
    return value[static_cast<std::size_t>(order.back())];
}

/**
 * Every ISA x {fp32, int8}: single-sample `run` and a batch of 3 (the
 * coalesced conv path for layers under 64 columns) must equal the
 * step-by-step composition bit for bit.
 */
void
expectPlanMatchesStepByStep(const Graph &g, std::uint64_t seed)
{
    constexpr int kBatch = 3;
    const Shape &shape = g.node(g.topoOrder().front()).outShape;
    std::vector<Tensor> inputs;
    for (int i = 0; i < kBatch; ++i)
        inputs.push_back(
            randomInput(shape, seed + static_cast<std::uint64_t>(i)));
    for (KernelIsa isa : availablePlanIsas()) {
        for (PrecisionMode mode :
             {PrecisionMode::Fp32, PrecisionMode::Int8}) {
            auto plan = ExecutionPlan::build(g, {mode, isa});
            ASSERT_TRUE(plan.ok()) << plan.status().toString();
            PlanContext context = plan->makeContext(kBatch);
            std::vector<Tensor> singles, batched;
            std::vector<const float *> in_ptrs;
            std::vector<float *> out_ptrs;
            for (int i = 0; i < kBatch; ++i) {
                singles.emplace_back(plan->outputShape());
                batched.emplace_back(plan->outputShape());
            }
            for (int i = 0; i < kBatch; ++i) {
                const auto at = static_cast<std::size_t>(i);
                plan->run(inputs[at].data(), singles[at].data(), context);
                in_ptrs.push_back(inputs[at].data());
                out_ptrs.push_back(batched[at].data());
            }
            plan->runBatch(in_ptrs.data(), out_ptrs.data(), kBatch,
                           context);
            for (int i = 0; i < kBatch; ++i) {
                const auto at = static_cast<std::size_t>(i);
                const std::vector<float> want = runStepByStep(
                    g, kernelTable(isa), mode,
                    std::vector<float>(inputs[at].data(),
                                       inputs[at].data() +
                                           inputs[at].numel()));
                ASSERT_EQ(static_cast<std::int64_t>(want.size()),
                          singles[at].numel());
                for (std::size_t v = 0; v < want.size(); ++v) {
                    const auto e = static_cast<std::int64_t>(v);
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(singles[at][e]),
                              std::bit_cast<std::uint32_t>(want[v]))
                        << kernelIsaName(isa) << " "
                        << precisionModeName(mode) << " sample " << i
                        << " element " << v;
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(batched[at][e]),
                              std::bit_cast<std::uint32_t>(want[v]))
                        << kernelIsaName(isa) << " "
                        << precisionModeName(mode) << " batched sample "
                        << i << " element " << v;
                }
            }
        }
    }
}

TEST(PlanFusion, ConvReluChainMatchesStepByStepAndShrinksArena)
{
    // 3x10x9 -> conv (8 x 90 columns, the per-sample GEMM) -> relu ->
    // conv stride 2 (5 x 25 columns, coalesced when batched) -> relu,
    // which is the graph output.
    GraphBuilder b({3, 10, 9});
    b.conv(8, 3, 1, 1).relu().conv(5, 3, 2, 1).relu();
    const Graph g = weighted(b, 501);
    expectPlanMatchesStepByStep(g, 502);

    // An unfused first Relu needs its own 720 floats while the conv's
    // 720 are live: 270 + 720 + 720.  Fused, the peak is the input
    // plus one conv output, and the second conv reuses the input's
    // slot.
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->arenaFloatsPerSample(), 270 + 720);
    EXPECT_LT(plan->arenaFloatsPerSample(), 270 + 720 + 720);
}

TEST(PlanFusion, FcReluMatchesStepByStep)
{
    GraphBuilder b({2, 5, 4});
    b.flatten().fc(13).relu().fc(7).relu();
    const Graph g = weighted(b, 511);
    expectPlanMatchesStepByStep(g, 512);

    // The input and the first fc output are the peak; an unfused Relu
    // would add its own buffer on top.
    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->arenaFloatsPerSample(), 40 + 13);
}

TEST(PlanFusion, ConvBatchNormReluFusesThroughTheAlias)
{
    GraphBuilder b({4, 8, 8});
    b.conv(6, 3, 1, 1).batchNorm().relu().conv(3, 1, 1, 0).relu();
    const Graph g = weighted(b, 521);
    expectPlanMatchesStepByStep(g, 522);

    auto plan = ExecutionPlan::build(g);
    ASSERT_TRUE(plan.ok());
    // Input (256) and the first conv (384) are the only live buffers
    // when the first conv writes; an unfused Relu would add 384 more.
    EXPECT_LE(plan->arenaFloatsPerSample(), 256 + 384);
}

TEST(PlanFusion, SharedConvOutputDoesNotFuseAndStaysCorrect)
{
    // The conv output feeds both the Relu and the Add, so the Relu
    // must run standalone: fusing it would hand the Add rectified
    // values.
    GraphBuilder b({3, 9, 9});
    const NodeId conv = b.conv(6, 3, 1, 1).tip();
    b.relu().add({conv});
    const Graph g = weighted(b, 531);
    expectPlanMatchesStepByStep(g, 532);
}

TEST(PlanFusion, AddReluAndAddOutputRunStandalone)
{
    // A Relu after an Add has no GEMM to fold into; the graph output is
    // that Relu.
    GraphBuilder b({4, 7, 7});
    const NodeId in = b.tip();
    const NodeId left = b.at(in).conv(5, 3, 1, 1).tip();
    b.at(in).conv(5, 1, 1, 0).add({left}).relu();
    const Graph g = weighted(b, 541);
    expectPlanMatchesStepByStep(g, 542);
}

// ----------------------------------------------------------- gemm kernels

TEST(Gemm, MatchesNaiveTripleLoop)
{
    Rng rng(55);
    const std::int64_t m = 9, k = 300, n = 17;
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> bm(static_cast<std::size_t>(k * n));
    for (float &v : a)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float &v : bm)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemmRowMajor(a.data(), bm.data(), c.data(), m, k, n);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<double>(
                           a[static_cast<std::size_t>(i * k + p)]) *
                       bm[static_cast<std::size_t>(p * n + j)];
            ASSERT_NEAR(c[static_cast<std::size_t>(i * n + j)], acc,
                        1e-3)
                << i << "," << j;
        }
    }
}

TEST(Gemm, ColumnResultsIndependentOfWidth)
{
    // The determinism contract: a column's result does not depend on
    // how many columns ride in the call (the batched path relies on
    // bit-identity here).
    Rng rng(66);
    const std::int64_t m = 5, k = 700, n = 13;
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> bm(static_cast<std::size_t>(k * n));
    for (float &v : a)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    for (float &v : bm)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> wide(static_cast<std::size_t>(m * n));
    gemmRowMajor(a.data(), bm.data(), wide.data(), m, k, n);
    // One column at a time, reading the same strided B.
    for (std::int64_t j = 0; j < n; ++j) {
        std::vector<float> narrow(static_cast<std::size_t>(m));
        gemmRowMajor(a.data(), k, bm.data() + j, n, narrow.data(), 1,
                     m, k, 1);
        for (std::int64_t i = 0; i < m; ++i)
            ASSERT_EQ(narrow[static_cast<std::size_t>(i)],
                      wide[static_cast<std::size_t>(i * n + j)])
                << i << "," << j;
    }
}

TEST(Im2col, ResolvesPaddingAtPackTime)
{
    // 1 channel 3x3 image, 3x3 kernel, pad 1: the center column (output
    // position 1,1) is the whole image; corners carry pad zeros.
    std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<float> cols(9 * 9, -1.0f);
    im2colChw(img.data(), 1, 3, 3, 3, 3, 1, 1, 3, 3, cols.data(), 9);
    // Row of tap (ky=1, kx=1) (the center tap) is the image itself.
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(cols[static_cast<std::size_t>(4 * 9 + i)],
                  img[static_cast<std::size_t>(i)]);
    // Tap (0,0) at output (0,0) reads the padded corner.
    EXPECT_EQ(cols[0], 0.0f);
    // Tap (0,0) at output (2,2) reads image (1,1) = 5.
    EXPECT_EQ(cols[8], 5.0f);
}

} // namespace
} // namespace fpsa
