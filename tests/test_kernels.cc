/**
 * @file
 * Tests for the runtime-dispatched kernel layer (tensor/kernels.hh):
 * ISA name/parse round-trips, resolution and availability semantics,
 * golden equivalence of every available vector variant against the
 * scalar baseline, bit-exactness of the vector fp32 GEMMs against a
 * fused multiply-add chain, the fused-ReLU GEMM against the plain GEMM
 * plus std::max, the per-table determinism contract (a column's bits
 * do not depend on the call's width), exactness and cross-table
 * bit-identity of the int8 GEMM, im2col equivalence across tables, and
 * the exact std::max semantics of the element-wise ReLU, dequantize
 * and max-pool kernels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "tensor/kernels.hh"
#include "tensor/kernels_x86.hh"

namespace fpsa
{
namespace
{

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
}

std::vector<std::int8_t>
randomInt8(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::int8_t> v(n);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.uniform(0.0, 255.0)) - 128);
    return v;
}

/** Every ISA whose table can actually run on this host. */
std::vector<KernelIsa>
availableIsas()
{
    std::vector<KernelIsa> isas{KernelIsa::Scalar};
    for (KernelIsa isa : {KernelIsa::Avx2, KernelIsa::Neon})
        if (kernelIsaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

TEST(KernelIsaApi, NameParseRoundTrip)
{
    for (KernelIsa isa : {KernelIsa::Auto, KernelIsa::Scalar,
                          KernelIsa::Avx2, KernelIsa::Neon}) {
        KernelIsa parsed;
        ASSERT_TRUE(parseKernelIsa(kernelIsaName(isa), parsed));
        EXPECT_EQ(parsed, isa);
    }
    KernelIsa out;
    EXPECT_FALSE(parseKernelIsa("sse9", out));
    EXPECT_TRUE(parseKernelIsa("AVX2", out)); // case-insensitive
    EXPECT_EQ(out, KernelIsa::Avx2);
}

TEST(KernelIsaApi, PrecisionNameParseRoundTrip)
{
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8,
                               PrecisionMode::Int6}) {
        PrecisionMode parsed;
        ASSERT_TRUE(parsePrecisionMode(precisionModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    PrecisionMode out;
    EXPECT_FALSE(parsePrecisionMode("fp16", out));
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Fp32), 0);
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Int8), 8);
    EXPECT_EQ(precisionActivationBits(PrecisionMode::Int6), 6);
}

TEST(KernelIsaApi, ResolutionNeverReturnsAutoAndFallsBackToScalar)
{
    EXPECT_TRUE(kernelIsaAvailable(KernelIsa::Scalar));
    EXPECT_TRUE(kernelIsaAvailable(KernelIsa::Auto));
    const KernelIsa best = resolveKernelIsa(KernelIsa::Auto);
    EXPECT_NE(best, KernelIsa::Auto);
    EXPECT_TRUE(kernelIsaAvailable(best));
    for (KernelIsa isa : {KernelIsa::Avx2, KernelIsa::Neon}) {
        const KernelIsa resolved = resolveKernelIsa(isa);
        if (kernelIsaAvailable(isa))
            EXPECT_EQ(resolved, isa);
        else
            EXPECT_EQ(resolved, KernelIsa::Scalar);
    }
    // The table honors the resolution and binds every slot.
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        EXPECT_EQ(t.isa, isa);
        EXPECT_NE(t.gemmRowMajor, nullptr);
        EXPECT_NE(t.gemmRowMajorRelu, nullptr);
        EXPECT_NE(t.im2colChw, nullptr);
        EXPECT_NE(t.gemmInt8, nullptr);
    }
}

TEST(KernelTableGolden, VectorGemmMatchesScalarWithinTolerance)
{
    const KernelTable &scalar = kernelTable(KernelIsa::Scalar);
    // Odd shapes so full tiles, remainder rows and remainder columns
    // are all exercised.
    const std::int64_t m = 13, k = 517, n = 37;
    const auto a = randomFloats(static_cast<std::size_t>(m * k), 1);
    const auto b = randomFloats(static_cast<std::size_t>(k * n), 2);
    std::vector<float> want(static_cast<std::size_t>(m * n));
    scalar.gemmRowMajor(a.data(), k, b.data(), n, want.data(), n, m, k,
                        n);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<float> got(static_cast<std::size_t>(m * n), -1.0f);
        t.gemmRowMajor(a.data(), k, b.data(), n, got.data(), n, m, k,
                       n);
        for (std::size_t i = 0; i < got.size(); ++i) {
            const float tol =
                1e-4f * std::max(1.0f, std::fabs(want[i]));
            ASSERT_NEAR(got[i], want[i], tol)
                << kernelIsaName(isa) << " element " << i;
        }
    }
}

TEST(KernelTableGolden, ColumnBitsIndependentOfCallWidthPerTable)
{
    // The determinism contract the batched serving path relies on:
    // within one table, computing a column alone gives the same bits
    // as computing it inside a wide call.
    const std::int64_t m = 7, k = 333, n = 29;
    const auto a = randomFloats(static_cast<std::size_t>(m * k), 3);
    const auto b = randomFloats(static_cast<std::size_t>(k * n), 4);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<float> wide(static_cast<std::size_t>(m * n));
        t.gemmRowMajor(a.data(), k, b.data(), n, wide.data(), n, m, k,
                       n);
        for (std::int64_t j = 0; j < n; ++j) {
            std::vector<float> narrow(static_cast<std::size_t>(m));
            t.gemmRowMajor(a.data(), k, b.data() + j, n, narrow.data(),
                           1, m, k, 1);
            for (std::int64_t i = 0; i < m; ++i)
                ASSERT_EQ(narrow[static_cast<std::size_t>(i)],
                          wide[static_cast<std::size_t>(i * n + j)])
                    << kernelIsaName(isa) << " " << i << "," << j;
        }
    }
}

TEST(KernelTableGolden, VectorGemmBitExactAgainstFusedChain)
{
    // Every vector table computes each C element as one fused
    // multiply-add chain from 0 in k-ascending order.  The sweep hits
    // every row tail of the 6-row micro-kernel, every column tail of
    // the 16- and 32-wide strips, and k on both sides of the 256-row
    // panel, through padded strides and pointers off 64-byte alignment.
    using Gemm = std::function<void(
        const float *, std::int64_t, const float *, std::int64_t, float *,
        std::int64_t, std::int64_t, std::int64_t, std::int64_t)>;
    std::vector<std::pair<std::string, Gemm>> gemms;
    for (KernelIsa isa : availableIsas())
        if (isa != KernelIsa::Scalar)
            gemms.emplace_back(kernelIsaName(isa),
                               kernelTable(isa).gemmRowMajor);
#if defined(__x86_64__) || defined(__i386__)
    // Both micro-kernel widths, whichever one CPUID picks for the table.
    if (kernelIsaAvailable(KernelIsa::Avx2)) {
        for (bool zmm : {false, true})
            if (!zmm || __builtin_cpu_supports("avx512f"))
                gemms.emplace_back(zmm ? "zmm" : "ymm",
                                   [zmm](auto... args) {
                                       detail::gemmAvx2ForCpu(
                                           zmm, false, args...);
                                   });
    }
#endif
    if (gemms.empty())
        GTEST_SKIP() << "no vector kernel table on this host";

    const std::int64_t max_m = 13, max_k = 864;
    std::vector<std::int64_t> widths;
    for (std::int64_t n = 1; n <= 70; ++n)
        widths.push_back(n);
    widths.push_back(1027);
    const std::int64_t max_n = widths.back();
    const std::int64_t lda = max_k + 5, ldb = max_n + 3, ldc = max_n + 7;
    // +1 keeps every operand off 64-byte alignment.
    const auto a_buf =
        randomFloats(static_cast<std::size_t>(max_m * lda + 1), 21);
    const auto b_buf =
        randomFloats(static_cast<std::size_t>(max_k * ldb + 1), 22);
    const float *a = a_buf.data() + 1;
    const float *b = b_buf.data() + 1;
    const float sentinel = -1234.5f;
    std::vector<float> c_buf(
        static_cast<std::size_t>((max_m + 1) * ldc + 1));
    float *c = c_buf.data() + 1;

    for (std::int64_t k : {1, 27, 255, 256, 257, 864}) {
        // A column's chain depends on neither m nor n, so one reference
        // over the largest shape serves every (m, n) below.
        std::vector<float> want(static_cast<std::size_t>(max_m * max_n));
        for (std::int64_t i = 0; i < max_m; ++i) {
            for (std::int64_t j = 0; j < max_n; ++j) {
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p)
                    acc = std::fmaf(a[i * lda + p], b[p * ldb + j], acc);
                want[static_cast<std::size_t>(i * max_n + j)] = acc;
            }
        }
        for (const auto &[name, gemm] : gemms) {
            for (std::int64_t m = 1; m <= max_m; ++m) {
                for (std::int64_t n : widths) {
                    std::fill(c_buf.begin(), c_buf.end(), sentinel);
                    gemm(a, lda, b, ldb, c, ldc, m, k, n);
                    for (std::int64_t i = 0; i < m; ++i) {
                        for (std::int64_t j = 0; j < n; ++j)
                            ASSERT_EQ(c[i * ldc + j],
                                      want[static_cast<std::size_t>(
                                          i * max_n + j)])
                                << name << " m=" << m << " k=" << k
                                << " n=" << n << " at " << i << ","
                                << j;
                        // Masked tails never write past column n.
                        ASSERT_EQ(c[i * ldc + n], sentinel)
                            << name << " m=" << m << " k=" << k
                            << " n=" << n << " row " << i;
                    }
                    ASSERT_EQ(c[m * ldc], sentinel)
                        << name << " m=" << m << " k=" << k
                        << " n=" << n << " wrote past row m";
                }
            }
        }
    }
}

/** The float's bits, so +0 and -0 (and NaN payloads) compare apart. */
std::uint32_t
bitsOf(float x)
{
    return std::bit_cast<std::uint32_t>(x);
}

/** std::max(0.0f, x): what a Relu computes in the reference executor. */
float
reluRef(float x)
{
    return std::max(0.0f, x);
}

TEST(KernelTableGolden, FusedReluGemmEqualsGemmThenMax)
{
    // The fused entry of every table, and both x86 micro-kernel widths
    // through the hook, must match that table's plain GEMM followed by
    // std::max(0.0f, x) bit for bit, over operands holding NaN, +-0,
    // -inf and negatives, so outputs include NaN, +-inf, 0 and
    // negatives.  The sweep covers every row tail (and the in-place
    // path, m <= 6), every column tail, and k on both sides of the
    // 256-row panel.
    using Gemm = std::function<void(
        const float *, std::int64_t, const float *, std::int64_t, float *,
        std::int64_t, std::int64_t, std::int64_t, std::int64_t)>;
    struct Pair
    {
        std::string name;
        Gemm plain, fused;
    };
    std::vector<Pair> pairs;
    for (KernelIsa isa : availableIsas())
        pairs.push_back({kernelIsaName(isa), kernelTable(isa).gemmRowMajor,
                         kernelTable(isa).gemmRowMajorRelu});
#if defined(__x86_64__) || defined(__i386__)
    if (kernelIsaAvailable(KernelIsa::Avx2)) {
        for (bool zmm : {false, true}) {
            if (zmm && !__builtin_cpu_supports("avx512f"))
                continue;
            const auto width = [zmm](bool relu) {
                return [zmm, relu](auto... args) {
                    detail::gemmAvx2ForCpu(zmm, relu, args...);
                };
            };
            pairs.push_back(
                {zmm ? "zmm" : "ymm", width(false), width(true)});
        }
    }
#endif

    const std::int64_t max_m = 13, max_k = 864;
    std::vector<std::int64_t> widths;
    for (std::int64_t n = 1; n <= 70; ++n)
        widths.push_back(n);
    widths.push_back(1027);
    const std::int64_t max_n = widths.back();
    const std::int64_t lda = max_k + 3, ldb = max_n + 5, ldc = max_n + 2;
    auto a = randomFloats(static_cast<std::size_t>(max_m * lda), 31);
    auto b = randomFloats(static_cast<std::size_t>(max_k * ldb), 32);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    // Row 0 is NaN throughout, row 1 -inf, row 2 all +-0 (so its
    // outputs are zeros), row 3 a NaN in the last k block of k = 864;
    // column 3 of B holds -inf and column 4 NaN, from k = 0 on.
    a[0] = nan;
    a[1 * lda] = -inf;
    for (std::int64_t p = 0; p < max_k; ++p)
        a[static_cast<std::size_t>(2 * lda + p)] = p % 2 ? -0.0f : 0.0f;
    a[static_cast<std::size_t>(3 * lda + 800)] = nan;
    b[3] = -inf;
    b[4] = nan;
    b[static_cast<std::size_t>(ldb + 5)] = -0.0f;

    const float sentinel = -4321.5f;
    std::vector<float> want(static_cast<std::size_t>((max_m + 1) * ldc));
    std::vector<float> got(want.size());
    for (std::int64_t k : {1, 255, 256, 257, 864}) {
        for (const Pair &pair : pairs) {
            for (std::int64_t m = 1; m <= max_m; ++m) {
                for (std::int64_t n : widths) {
                    std::fill(got.begin(), got.end(), sentinel);
                    pair.plain(a.data(), lda, b.data(), ldb, want.data(),
                               ldc, m, k, n);
                    pair.fused(a.data(), lda, b.data(), ldb, got.data(),
                               ldc, m, k, n);
                    for (std::int64_t i = 0; i < m; ++i) {
                        for (std::int64_t j = 0; j < n; ++j) {
                            const auto at =
                                static_cast<std::size_t>(i * ldc + j);
                            ASSERT_EQ(bitsOf(got[at]),
                                      bitsOf(reluRef(want[at])))
                                << pair.name << " m=" << m << " k=" << k
                                << " n=" << n << " at " << i << "," << j;
                        }
                        // Nothing lands past column n ...
                        for (std::int64_t j = n; j < ldc; ++j)
                            ASSERT_EQ(got[static_cast<std::size_t>(
                                          i * ldc + j)],
                                      sentinel)
                                << pair.name << " m=" << m << " k=" << k
                                << " n=" << n << " row " << i;
                    }
                    // ... or in row m.
                    for (std::int64_t j = 0; j < ldc; ++j)
                        ASSERT_EQ(got[static_cast<std::size_t>(m * ldc +
                                                               j)],
                                  sentinel)
                            << pair.name << " m=" << m << " k=" << k
                            << " n=" << n << " wrote past row m";
                }
            }
        }
    }
}

/** Values whose std::max semantics are easy to get wrong. */
std::vector<float>
awkwardFloats()
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float tiny = std::numeric_limits<float>::denorm_min();
    return {nan,   -nan,  0.0f,  -0.0f, -inf, inf,   -1.5f, 2.25f,
            tiny,  -tiny, -1e30f, 1e30f, -0.0f, 0.0f, -3.0f, 7.0f};
}

TEST(ElementwiseKernels, ReluMatchesStdMaxBitForBit)
{
    // Lengths 0..37 at every start offset mod 4 hit the vector body and
    // every tail; in place and out of place.
    std::vector<float> pool = awkwardFloats();
    const auto noise = randomFloats(40, 41);
    pool.insert(pool.end(), noise.begin(), noise.end());
    for (std::size_t off = 0; off < 4; ++off) {
        for (std::int64_t n = 0; n <= 37; ++n) {
            const float *in = pool.data() + off;
            std::vector<float> out(static_cast<std::size_t>(n) + 1,
                                   -77.0f);
            reluForward(in, out.data(), n);
            std::vector<float> inplace(in, in + n);
            reluForward(inplace.data(), inplace.data(), n);
            for (std::int64_t v = 0; v < n; ++v) {
                const auto i = static_cast<std::size_t>(v);
                ASSERT_EQ(bitsOf(out[i]), bitsOf(reluRef(in[v])))
                    << "off " << off << " n " << n << " at " << v;
                ASSERT_EQ(bitsOf(inplace[i]), bitsOf(reluRef(in[v])))
                    << "in place, off " << off << " n " << n;
            }
            ASSERT_EQ(out[static_cast<std::size_t>(n)], -77.0f)
                << "wrote past n = " << n;
        }
    }
}

TEST(ElementwiseKernels, DequantizeMatchesScalarProductBitForBit)
{
    const std::vector<std::int32_t> ints{
        0,       1,      -1,      127,        -127,     16129,
        -16129,  1 << 24, (1 << 24) + 1, -(1 << 24) - 3,
        std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min(), 5, -5, 33, -33, 7};
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (float scale : {0.0f, 3.1e-5f, -0.25f, 1.0f, nan}) {
        for (bool relu : {false, true}) {
            for (std::int64_t n = 0;
                 n <= static_cast<std::int64_t>(ints.size()); ++n) {
                std::vector<float> out(static_cast<std::size_t>(n) + 1,
                                       -77.0f);
                dequantize(ints.data(), out.data(), n, scale, relu);
                for (std::int64_t v = 0; v < n; ++v) {
                    const float x =
                        static_cast<float>(
                            ints[static_cast<std::size_t>(v)]) *
                        scale;
                    const float want = relu ? reluRef(x) : x;
                    ASSERT_EQ(bitsOf(out[static_cast<std::size_t>(v)]),
                              bitsOf(want))
                        << "scale " << scale << " relu " << relu
                        << " n " << n << " at " << v;
                }
                ASSERT_EQ(out[static_cast<std::size_t>(n)], -77.0f);
            }
        }
    }
}

TEST(ElementwiseKernels, MaxPoolMatchesStdMaxFoldIncludingPaddedWindows)
{
    // Reference: fold the in-range taps of each window in row-major
    // order with std::max(acc, v) from -1e30.  NaN taps must be
    // skipped, +-0 ties keep the first tap, and all-NaN or all -inf
    // windows stay at -1e30.
    const std::int64_t ci = 3, hi = 7, wi = 6;
    std::vector<float> img =
        randomFloats(static_cast<std::size_t>(ci * hi * wi), 51);
    const std::vector<float> odd = awkwardFloats();
    for (std::size_t v = 0; v < img.size(); v += 3)
        img[v] = odd[(v / 3) % odd.size()];
    // Channel 1 is only zeros of both signs (a plane of ties) and
    // channel 2's top-left 2x2 block is NaN.
    for (std::int64_t v = 0; v < hi * wi; ++v)
        img[static_cast<std::size_t>(hi * wi + v)] =
            v % 3 ? -0.0f : 0.0f;
    for (std::int64_t y = 0; y < 2; ++y)
        for (std::int64_t x = 0; x < 2; ++x)
            img[static_cast<std::size_t>(2 * hi * wi + y * wi + x)] =
                std::numeric_limits<float>::quiet_NaN();

    for (std::int64_t kernel : {1, 2, 3}) {
        for (std::int64_t stride : {1, 2, 3}) {
            for (std::int64_t pad = 0; pad < kernel; ++pad) {
                const std::int64_t ho = (hi + 2 * pad - kernel) / stride + 1;
                const std::int64_t wo = (wi + 2 * pad - kernel) / stride + 1;
                std::vector<float> got(
                    static_cast<std::size_t>(ci * ho * wo) + 1, -77.0f);
                maxPoolChw(img.data(), ci, hi, wi, kernel, stride, pad, ho,
                           wo, got.data());
                for (std::int64_t c = 0; c < ci; ++c) {
                    for (std::int64_t oy = 0; oy < ho; ++oy) {
                        for (std::int64_t ox = 0; ox < wo; ++ox) {
                            float acc = -1e30f;
                            for (std::int64_t ky = 0; ky < kernel; ++ky) {
                                for (std::int64_t kx = 0; kx < kernel;
                                     ++kx) {
                                    const std::int64_t y =
                                        oy * stride - pad + ky;
                                    const std::int64_t x =
                                        ox * stride - pad + kx;
                                    if (y < 0 || y >= hi || x < 0 ||
                                        x >= wi)
                                        continue;
                                    acc = std::max(
                                        acc,
                                        img[static_cast<std::size_t>(
                                            (c * hi + y) * wi + x)]);
                                }
                            }
                            ASSERT_EQ(
                                bitsOf(got[static_cast<std::size_t>(
                                    (c * ho + oy) * wo + ox)]),
                                bitsOf(acc))
                                << "k" << kernel << " s" << stride << " p"
                                << pad << " c" << c << " at " << oy
                                << "," << ox;
                        }
                    }
                }
                ASSERT_EQ(got.back(), -77.0f) << "wrote past the output";
            }
        }
    }
}

TEST(KernelTableInt8, ExactAgainstNaiveAndBitIdenticalAcrossTables)
{
    const std::int64_t m = 11, k = 259, n = 23;
    const auto a = randomInt8(static_cast<std::size_t>(m * k), 5);
    const auto b = randomInt8(static_cast<std::size_t>(k * n), 6);
    std::vector<std::int32_t> want(static_cast<std::size_t>(m * n));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<std::int32_t>(
                           a[static_cast<std::size_t>(i * k + p)]) *
                       static_cast<std::int32_t>(
                           b[static_cast<std::size_t>(p * n + j)]);
            want[static_cast<std::size_t>(i * n + j)] = acc;
        }
    }
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<std::int32_t> got(static_cast<std::size_t>(m * n),
                                      -7);
        t.gemmInt8(a.data(), k, b.data(), n, got.data(), n, m, k, n);
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kernelIsaName(isa) << " element " << i;
    }
}

TEST(KernelTableInt8, ColumnBitsIndependentOfCallWidth)
{
    const std::int64_t m = 5, k = 130, n = 17;
    const auto a = randomInt8(static_cast<std::size_t>(m * k), 7);
    const auto b = randomInt8(static_cast<std::size_t>(k * n), 8);
    for (KernelIsa isa : availableIsas()) {
        const KernelTable &t = kernelTable(isa);
        std::vector<std::int32_t> wide(static_cast<std::size_t>(m * n));
        t.gemmInt8(a.data(), k, b.data(), n, wide.data(), n, m, k, n);
        for (std::int64_t j = 0; j < n; ++j) {
            std::vector<std::int32_t> narrow(
                static_cast<std::size_t>(m));
            t.gemmInt8(a.data(), k, b.data() + j, n, narrow.data(), 1,
                       m, k, 1);
            for (std::int64_t i = 0; i < m; ++i)
                ASSERT_EQ(narrow[static_cast<std::size_t>(i)],
                          wide[static_cast<std::size_t>(i * n + j)])
                    << kernelIsaName(isa) << " " << i << "," << j;
        }
    }
}

TEST(KernelTableGolden, Im2colIdenticalAcrossTables)
{
    // Packing moves data without arithmetic, so every table must
    // produce identical bytes, padding included.
    const std::int64_t ci = 3, hi = 9, wi = 7;
    const std::int64_t kh = 3, kw = 3, stride = 2, pad = 1;
    const std::int64_t ho = (hi + 2 * pad - kh) / stride + 1;
    const std::int64_t wo = (wi + 2 * pad - kw) / stride + 1;
    const auto img =
        randomFloats(static_cast<std::size_t>(ci * hi * wi), 9);
    const std::int64_t rows = ci * kh * kw;
    const std::int64_t ldm = ho * wo + 5; // strided destination
    std::vector<float> want(static_cast<std::size_t>(rows * ldm),
                            -3.0f);
    kernelTable(KernelIsa::Scalar)
        .im2colChw(img.data(), ci, hi, wi, kh, kw, stride, pad, ho, wo,
                   want.data(), ldm, 0.0f);
    for (KernelIsa isa : availableIsas()) {
        std::vector<float> got(static_cast<std::size_t>(rows * ldm),
                               -3.0f);
        kernelTable(isa).im2colChw(img.data(), ci, hi, wi, kh, kw,
                                   stride, pad, ho, wo, got.data(), ldm,
                                   0.0f);
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i])
                << kernelIsaName(isa) << " element " << i;
    }
}

} // namespace
} // namespace fpsa
