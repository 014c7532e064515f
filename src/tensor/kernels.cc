#include "tensor/kernels.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "tensor/kernels_x86.hh"

#if defined(__x86_64__) || defined(__i386__)
#define FPSA_KERNELS_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define FPSA_KERNELS_NEON 1
#include <arm_neon.h>
#endif

namespace fpsa
{

namespace
{

/**
 * Block sizes of the 4-row tiles (scalar and int8 bodies, NEON): one
 * k-panel of B (kKc rows x kNc columns) plus the four C rows the tile
 * holds stay resident in L2 while the inner loops stream over them.
 * k blocks run in order and partial sums pass through C exactly, so
 * the blocking never reorders a column's accumulation.
 */
constexpr std::int64_t kKc = 128;
constexpr std::int64_t kNc = 512;

/**
 * `x > floor ? x : floor` -- `std::max(floor, x)` -- as one maxss where
 * SSE is available: gcc compiles the plain expression to a branch.
 */
inline float
maxOf(float x, float floor)
{
#if defined(__SSE2__)
    return _mm_cvtss_f32(_mm_max_ss(_mm_set_ss(x), _mm_set_ss(floor)));
#else
    return x > floor ? x : floor;
#endif
}

using GemmFn = void (*)(const float *, std::int64_t, const float *,
                        std::int64_t, float *, std::int64_t, std::int64_t,
                        std::int64_t, std::int64_t);

/**
 * The fused-ReLU entry of a table whose GEMM has no register epilogue:
 * the GEMM, then a ReLU pass over C's rows (still cache-hot).
 */
template <GemmFn Gemm>
void
gemmThenRelu(const float *a, std::int64_t lda, const float *b,
             std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
             std::int64_t k, std::int64_t n)
{
    Gemm(a, lda, b, ldb, c, ldc, m, k, n);
    for (std::int64_t i = 0; i < m; ++i)
        reluForward(c + i * ldc, c + i * ldc, n);
}

// ------------------------------------------------------------- scalar fp32

/**
 * Register-tiled core: C[4 x nb] += A[4 x kb] * B[kb x nb] for one
 * (k, n) block.  Four output rows share every B row load; the compiler
 * vectorizes the column loop (four independent multiply-adds per
 * element, unfused -- the PR-5 baseline semantics).
 */
inline void
axpyTile4(const float *__restrict a0, const float *__restrict a1,
          const float *__restrict a2, const float *__restrict a3,
          const float *__restrict b, std::int64_t ldb,
          float *__restrict c0, float *__restrict c1,
          float *__restrict c2, float *__restrict c3, std::int64_t kb,
          std::int64_t nb)
{
    for (std::int64_t p = 0; p < kb; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float *__restrict bp = b + p * ldb;
        for (std::int64_t j = 0; j < nb; ++j) {
            const float bv = bp[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
            c2[j] += av2 * bv;
            c3[j] += av3 * bv;
        }
    }
}

inline void
axpyTile1(const float *__restrict a, const float *__restrict b,
          std::int64_t ldb, float *__restrict c, std::int64_t kb,
          std::int64_t nb)
{
    for (std::int64_t p = 0; p < kb; ++p) {
        const float av = a[p];
        const float *__restrict bp = b + p * ldb;
        for (std::int64_t j = 0; j < nb; ++j)
            c[j] += av * bp[j];
    }
}

void
gemmScalar(const float *a, std::int64_t lda, const float *b,
           std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
           std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));
    // k blocks advance strictly in order and each element's partial sum
    // lives in C between blocks, so per-element accumulation order is
    // k-ascending independent of the (jc, i) tiling -- the determinism
    // contract in kernels.hh.
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const float *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *ap = a + i * lda + pc;
                float *cp = c + i * ldc + jc;
                axpyTile4(ap, ap + lda, ap + 2 * lda, ap + 3 * lda, bp,
                          ldb, cp, cp + ldc, cp + 2 * ldc, cp + 3 * ldc,
                          kb, nb);
            }
            for (; i < m; ++i) {
                axpyTile1(a + i * lda + pc, bp, ldb, c + i * ldc + jc,
                          kb, nb);
            }
        }
    }
}

// ----------------------------------------------------------- shared bodies

/**
 * im2col packing body (see tensor/gemm.hh for the layout contract).
 * Pure copies and fills -- no float arithmetic -- so every variant is
 * bit-identical; the vector tables recompile it only for wider moves.
 */
inline void
im2colBody(const float *input, std::int64_t ci, std::int64_t hi,
           std::int64_t wi, std::int64_t kh, std::int64_t kw,
           std::int64_t stride, std::int64_t pad, std::int64_t ho,
           std::int64_t wo, float *columns, std::int64_t ldm,
           float pad_value)
{
    for (std::int64_t ic = 0; ic < ci; ++ic) {
        const float *plane = input + ic * hi * wi;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
            for (std::int64_t kx = 0; kx < kw; ++kx) {
                float *row = columns + ((ic * kh + ky) * kw + kx) * ldm;
                // Valid output x range for this tap: ox*stride+kx-pad
                // in [0, wi).  Everything outside is pad_value; inside
                // is a contiguous (stride==1) or strided copy -- no
                // per-element branch either way.  last_ix < 0 (the tap
                // never lands in range, possible when kernel > wi+pad)
                // must clamp to an empty range, not divide negatively.
                const std::int64_t ox_lo = std::max<std::int64_t>(
                    0, (pad - kx + stride - 1) / stride);
                const std::int64_t last_ix = wi - 1 - kx + pad;
                const std::int64_t ox_hi =
                    last_ix < 0 ? 0
                                : std::min(wo, last_ix / stride + 1);
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    const std::int64_t iy = oy * stride + ky - pad;
                    float *dst = row + oy * wo;
                    if (iy < 0 || iy >= hi || ox_lo >= ox_hi) {
                        std::fill(dst, dst + wo, pad_value);
                        continue;
                    }
                    std::fill(dst, dst + ox_lo, pad_value);
                    const float *src = plane + iy * wi - pad + kx;
                    if (stride == 1) {
                        std::memcpy(dst + ox_lo, src + ox_lo,
                                    static_cast<std::size_t>(ox_hi -
                                                             ox_lo) *
                                        sizeof(float));
                    } else {
                        for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox)
                            dst[ox] = src[ox * stride];
                    }
                    std::fill(dst + ox_hi, dst + wo, pad_value);
                }
            }
        }
    }
}

/**
 * int8 x int8 -> int32 GEMM body, same blocking/tiling as the fp32
 * scalar kernel.  Integer accumulation is exact, so the result is
 * bit-identical across variants and column tilings; worst case fits
 * int32 comfortably (127^2 * k < 2^31 for k up to ~130000, far above
 * any layer this repo builds).
 */
inline void
gemmInt8Body(const std::int8_t *a, std::int64_t lda,
             const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
             std::int64_t ldc, std::int64_t m, std::int64_t k,
             std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(std::int32_t));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const std::int8_t *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const std::int8_t *a0 = a + i * lda + pc;
                const std::int8_t *a1 = a0 + lda;
                const std::int8_t *a2 = a1 + lda;
                const std::int8_t *a3 = a2 + lda;
                std::int32_t *c0 = c + i * ldc + jc;
                std::int32_t *c1 = c0 + ldc;
                std::int32_t *c2 = c1 + ldc;
                std::int32_t *c3 = c2 + ldc;
                for (std::int64_t p = 0; p < kb; ++p) {
                    const std::int32_t av0 = a0[p], av1 = a1[p];
                    const std::int32_t av2 = a2[p], av3 = a3[p];
                    const std::int8_t *__restrict br = bp + p * ldb;
                    for (std::int64_t j = 0; j < nb; ++j) {
                        const std::int32_t bv = br[j];
                        c0[j] += av0 * bv;
                        c1[j] += av1 * bv;
                        c2[j] += av2 * bv;
                        c3[j] += av3 * bv;
                    }
                }
            }
            for (; i < m; ++i) {
                const std::int8_t *ar = a + i * lda + pc;
                std::int32_t *cr = c + i * ldc + jc;
                for (std::int64_t p = 0; p < kb; ++p) {
                    const std::int32_t av = ar[p];
                    const std::int8_t *__restrict br = bp + p * ldb;
                    for (std::int64_t j = 0; j < nb; ++j)
                        cr[j] += av * static_cast<std::int32_t>(br[j]);
                }
            }
        }
    }
}

void
im2colScalar(const float *input, std::int64_t ci, std::int64_t hi,
             std::int64_t wi, std::int64_t kh, std::int64_t kw,
             std::int64_t stride, std::int64_t pad, std::int64_t ho,
             std::int64_t wo, float *columns, std::int64_t ldm,
             float pad_value)
{
    im2colBody(input, ci, hi, wi, kh, kw, stride, pad, ho, wo, columns,
               ldm, pad_value);
}

void
gemmInt8Scalar(const std::int8_t *a, std::int64_t lda,
               const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
               std::int64_t ldc, std::int64_t m, std::int64_t k,
               std::int64_t n)
{
    gemmInt8Body(a, lda, b, ldb, c, ldc, m, k, n);
}

// --------------------------------------------------------------- AVX2+FMA

#if FPSA_KERNELS_X86

/**
 * fp32 GEMM of the x86 vector table: a register-blocked micro-kernel
 * over packed B panels, Goto/BLIS style.
 *
 * The outer loop walks strips of B as wide as the micro-kernel (32
 * columns with AVX-512F, else 16).  For each block of up to kPanelK
 * rows of k, the strip's slice of B is copied into a panel on the
 * stack -- tail columns zero-filled by masked loads -- and every block
 * of up to 6 rows of A sweeps it.  The micro-kernel holds a 6-row tile
 * of C in 12 vector registers across the whole k block and broadcasts
 * A straight from its rows: a prototype that packed A as well was
 * slower on every VGG17 shape, worst at n = 16.  Row tails run the
 * same micro-kernel instantiated for fewer rows and column tails run
 * it under masks (a last strip of at most 16 columns on the 16-wide
 * kernel), so LeNet's 20/50-channel convs and FC layers with
 * m = batch stay vector code.
 * A call with a single row block (m <= 6) reads full strips of B in
 * place: it touches each B element once, so a copy would only add
 * traffic.  The panel is at most kPanelK x 32 floats (32 KB): no
 * heap, no thread-local state.
 *
 * Numerics: every C element is one fused multiply-add chain that
 * starts at +0 and runs in k-ascending order; between k blocks the
 * partial sum passes through C in memory, which is exact.  The chain
 * does not depend on the tile, the tail or the call's width, so
 * batched == single stays bit-identical; it is also exactly what this
 * table's earlier 4 x 8 axpy tile computed, so the table's outputs
 * did not change bits when the micro-kernel replaced it.  The fused
 * ReLU entry runs the same chain and takes max(x, +0) in registers
 * only as the last k block is stored, so its bits are those of the
 * plain GEMM followed by `std::max(0.0f, x)`.
 */
constexpr std::int64_t kPanelK = 256;
constexpr std::int64_t kPanelMaxWidth = 32;
constexpr int kTileRows = 6;

/** AVX-512 mask of the first `count` lanes (clamped to 0..16). */
inline __mmask16
laneMask16(std::int64_t count)
{
    return static_cast<__mmask16>(
        (1u << std::clamp<std::int64_t>(count, 0, 16)) - 1);
}

/** Copy a kb x 32 slice of B into `panel`, columns >= nb zeroed. */
__attribute__((target("avx512f"))) void
packZmm(const float *b, std::int64_t ldb, std::int64_t kb,
        std::int64_t nb, float *panel)
{
    const __mmask16 m0 = laneMask16(nb), m1 = laneMask16(nb - 16);
    const float *b1 = nb > 16 ? b + 16 : b;
    for (std::int64_t p = 0; p < kb; ++p) {
        _mm512_store_ps(panel + p * 32,
                        _mm512_maskz_loadu_ps(m0, b + p * ldb));
        _mm512_store_ps(panel + p * 32 + 16,
                        _mm512_maskz_loadu_ps(m1, b1 + p * ldb));
    }
}

/**
 * C[R x nb] (+)= A[R x kb] * B[kb x 32], 2 zmm per row; B is a panel or
 * a full strip read in place, rows `ldp` apart.  `first` starts the
 * accumulators at +0 instead of reading C (the k block at k = 0);
 * `relu` stores max(acc, +0) instead of acc (the last k block of a
 * fused-ReLU call).  vmaxps(acc, 0) returns 0 unless acc > 0, which is
 * `std::max(0.0f, acc)` for NaN and -0 too.
 */
template <int R>
__attribute__((target("avx512f"))) void
tileZmm(const float *a, std::int64_t lda, const float *bp,
        std::int64_t ldp, float *c, std::int64_t ldc, std::int64_t kb,
        std::int64_t nb, bool first, bool relu)
{
    const __mmask16 m0 = laneMask16(nb), m1 = laneMask16(nb - 16);
    const std::int64_t off1 = nb > 16 ? 16 : 0;
    __m512 acc[R][2];
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
        acc[r][0] = first ? _mm512_setzero_ps()
                          : _mm512_maskz_loadu_ps(m0, c + r * ldc);
        acc[r][1] = first ? _mm512_setzero_ps()
                          : _mm512_maskz_loadu_ps(m1, c + r * ldc + off1);
    }
    for (std::int64_t p = 0; p < kb; ++p) {
        const __m512 b0 = _mm512_loadu_ps(bp + p * ldp);
        const __m512 b1 = _mm512_loadu_ps(bp + p * ldp + 16);
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(a[r * lda + p]);
            acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    if (relu) {
        // The all-lanes masked form: gcc 12's _mm512_max_ps reads an
        // undefined vector and trips -Wmaybe-uninitialized.
        const __m512 zero = _mm512_setzero_ps();
        const __mmask16 all = 0xffff;
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            acc[r][0] = _mm512_maskz_max_ps(all, acc[r][0], zero);
            acc[r][1] = _mm512_maskz_max_ps(all, acc[r][1], zero);
        }
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
        _mm512_mask_storeu_ps(c + r * ldc, m0, acc[r][0]);
        _mm512_mask_storeu_ps(c + r * ldc + off1, m1, acc[r][1]);
    }
}

/** AVX2 mask of the first `count` lanes (all-ones lanes, 0..8). */
__attribute__((target("avx2"))) inline __m256i
laneMask8(std::int64_t count)
{
    const int lanes = static_cast<int>(std::min<std::int64_t>(count, 8));
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Copy a kb x 16 slice of B into `panel`, columns >= nb zeroed. */
__attribute__((target("avx2"))) void
packYmm(const float *b, std::int64_t ldb, std::int64_t kb,
        std::int64_t nb, float *panel)
{
    const __m256i m0 = laneMask8(nb), m1 = laneMask8(nb - 8);
    const float *b1 = nb > 8 ? b + 8 : b;
    for (std::int64_t p = 0; p < kb; ++p) {
        _mm256_store_ps(panel + p * 16,
                        _mm256_maskload_ps(b + p * ldb, m0));
        _mm256_store_ps(panel + p * 16 + 8,
                        _mm256_maskload_ps(b1 + p * ldb, m1));
    }
}

/** The 256-bit twin of tileZmm: 2 ymm per row, 16 columns. */
template <int R>
__attribute__((target("avx2,fma"))) void
tileYmm(const float *a, std::int64_t lda, const float *bp,
        std::int64_t ldp, float *c, std::int64_t ldc, std::int64_t kb,
        std::int64_t nb, bool first, bool relu)
{
    const __m256i m0 = laneMask8(nb), m1 = laneMask8(nb - 8);
    const std::int64_t off1 = nb > 8 ? 8 : 0;
    __m256 acc[R][2];
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
        acc[r][0] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(c + r * ldc, m0);
        acc[r][1] = first ? _mm256_setzero_ps()
                          : _mm256_maskload_ps(c + r * ldc + off1, m1);
    }
    for (std::int64_t p = 0; p < kb; ++p) {
        const __m256 b0 = _mm256_loadu_ps(bp + p * ldp);
        const __m256 b1 = _mm256_loadu_ps(bp + p * ldp + 8);
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    if (relu) {
        const __m256 zero = _mm256_setzero_ps();
#pragma GCC unroll 6
        for (int r = 0; r < R; ++r) {
            acc[r][0] = _mm256_max_ps(acc[r][0], zero);
            acc[r][1] = _mm256_max_ps(acc[r][1], zero);
        }
    }
#pragma GCC unroll 6
    for (int r = 0; r < R; ++r) {
        _mm256_maskstore_ps(c + r * ldc, m0, acc[r][0]);
        _mm256_maskstore_ps(c + r * ldc + off1, m1, acc[r][1]);
    }
}

using PackFn = void (*)(const float *, std::int64_t, std::int64_t,
                        std::int64_t, float *);
using TileFn = void (*)(const float *, std::int64_t, const float *,
                        std::int64_t, float *, std::int64_t,
                        std::int64_t, std::int64_t, bool, bool);

/** One micro-kernel width: its strip width, packer and row tiles. */
struct MicroKernel
{
    std::int64_t width;
    PackFn pack;
    TileFn tile[kTileRows]; //!< tile[r - 1] computes r rows
    /** Runs a last strip of at most width / 2 columns, if set. */
    const MicroKernel *half;
};

const MicroKernel kYmmKernel{
    16,
    &packYmm,
    {&tileYmm<1>, &tileYmm<2>, &tileYmm<3>, &tileYmm<4>, &tileYmm<5>,
     &tileYmm<6>},
    nullptr};
const MicroKernel kZmmKernel{
    32,
    &packZmm,
    {&tileZmm<1>, &tileZmm<2>, &tileZmm<3>, &tileZmm<4>, &tileZmm<5>,
     &tileZmm<6>},
    &kYmmKernel};

/** The panel GEMM; `relu` applies max(x, +0) as the last k block lands. */
void
gemmPanels(const MicroKernel &uk, bool relu, const float *a,
           std::int64_t lda, const float *b, std::int64_t ldb, float *c,
           std::int64_t ldc, std::int64_t m, std::int64_t k,
           std::int64_t n)
{
    if (k == 0) {
        for (std::int64_t i = 0; i < m; ++i)
            std::memset(c + i * ldc, 0,
                        static_cast<std::size_t>(n) * sizeof(float));
        return;
    }
    alignas(64) float panel[kPanelK * kPanelMaxWidth];
    const bool in_place = m <= kTileRows;
    for (std::int64_t jc = 0; jc < n; jc += uk.width) {
        // A narrow last strip (n = 10 or 16, say) runs the half-width
        // kernel instead of masking off half of every vector.
        const MicroKernel &sk =
            uk.half != nullptr && n - jc <= uk.width / 2 ? *uk.half : uk;
        const std::int64_t nb = std::min(sk.width, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kPanelK) {
            const std::int64_t kb = std::min(kPanelK, k - pc);
            const float *bp = b + pc * ldb + jc;
            std::int64_t ldp = ldb;
            if (!in_place || nb < sk.width) {
                sk.pack(bp, ldb, kb, nb, panel);
                bp = panel;
                ldp = sk.width;
            }
            for (std::int64_t i = 0; i < m; i += kTileRows) {
                const std::int64_t rows =
                    std::min<std::int64_t>(kTileRows, m - i);
                sk.tile[rows - 1](a + i * lda + pc, lda, bp, ldp,
                                  c + i * ldc + jc, ldc, kb, nb,
                                  pc == 0, relu && pc + kb == k);
            }
        }
    }
}

template <bool Relu>
void
gemmAvx2(const float *a, std::int64_t lda, const float *b,
         std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
         std::int64_t k, std::int64_t n)
{
    static const bool avx512f = __builtin_cpu_supports("avx512f");
    detail::gemmAvx2ForCpu(avx512f, Relu, a, lda, b, ldb, c, ldc, m, k,
                           n);
}

/** Shared bodies recompiled for 256-bit moves / autovectorization. */
__attribute__((target("avx2"))) void
im2colAvx2(const float *input, std::int64_t ci, std::int64_t hi,
           std::int64_t wi, std::int64_t kh, std::int64_t kw,
           std::int64_t stride, std::int64_t pad, std::int64_t ho,
           std::int64_t wo, float *columns, std::int64_t ldm,
           float pad_value)
{
    im2colBody(input, ci, hi, wi, kh, kw, stride, pad, ho, wo, columns,
               ldm, pad_value);
}

/**
 * 4-row int8 tile: sign-extend 8 B bytes to int32 lanes once per k
 * step and share them across the four rows.  Integer adds commute
 * exactly, so this is bit-identical to the scalar body by value even
 * though the lane structure differs.
 */
__attribute__((target("avx2"))) void
tile4Int8Avx2(const std::int8_t *a0, const std::int8_t *a1,
              const std::int8_t *a2, const std::int8_t *a3,
              const std::int8_t *b, std::int64_t ldb, std::int32_t *c0,
              std::int32_t *c1, std::int32_t *c2, std::int32_t *c3,
              std::int64_t kb, std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        __m256i s0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c0 + j));
        __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c1 + j));
        __m256i s2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c2 + j));
        __m256i s3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c3 + j));
        const std::int8_t *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p) {
            const __m256i bv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(bp + p * ldb)));
            s0 = _mm256_add_epi32(
                s0, _mm256_mullo_epi32(_mm256_set1_epi32(a0[p]), bv));
            s1 = _mm256_add_epi32(
                s1, _mm256_mullo_epi32(_mm256_set1_epi32(a1[p]), bv));
            s2 = _mm256_add_epi32(
                s2, _mm256_mullo_epi32(_mm256_set1_epi32(a2[p]), bv));
            s3 = _mm256_add_epi32(
                s3, _mm256_mullo_epi32(_mm256_set1_epi32(a3[p]), bv));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c0 + j), s0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c1 + j), s1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c2 + j), s2);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c3 + j), s3);
    }
    for (; j < nb; ++j) {
        std::int32_t s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        for (std::int64_t p = 0; p < kb; ++p) {
            const std::int32_t bv = b[p * ldb + j];
            s0 += static_cast<std::int32_t>(a0[p]) * bv;
            s1 += static_cast<std::int32_t>(a1[p]) * bv;
            s2 += static_cast<std::int32_t>(a2[p]) * bv;
            s3 += static_cast<std::int32_t>(a3[p]) * bv;
        }
        c0[j] = s0;
        c1[j] = s1;
        c2[j] = s2;
        c3[j] = s3;
    }
}

__attribute__((target("avx2"))) void
tile1Int8Avx2(const std::int8_t *a, const std::int8_t *b,
              std::int64_t ldb, std::int32_t *c, std::int64_t kb,
              std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
        __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c + j));
        const std::int8_t *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p) {
            const __m256i bv = _mm256_cvtepi8_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(bp + p * ldb)));
            s = _mm256_add_epi32(
                s, _mm256_mullo_epi32(_mm256_set1_epi32(a[p]), bv));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c + j), s);
    }
    for (; j < nb; ++j) {
        std::int32_t s = c[j];
        for (std::int64_t p = 0; p < kb; ++p)
            s += static_cast<std::int32_t>(a[p]) *
                 static_cast<std::int32_t>(b[p * ldb + j]);
        c[j] = s;
    }
}

__attribute__((target("avx2"))) void
gemmInt8Avx2(const std::int8_t *a, std::int64_t lda,
             const std::int8_t *b, std::int64_t ldb, std::int32_t *c,
             std::int64_t ldc, std::int64_t m, std::int64_t k,
             std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(std::int32_t));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const std::int8_t *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const std::int8_t *ap = a + i * lda + pc;
                std::int32_t *cp = c + i * ldc + jc;
                tile4Int8Avx2(ap, ap + lda, ap + 2 * lda, ap + 3 * lda,
                              bp, ldb, cp, cp + ldc, cp + 2 * ldc,
                              cp + 3 * ldc, kb, nb);
            }
            for (; i < m; ++i) {
                tile1Int8Avx2(a + i * lda + pc, bp, ldb,
                              c + i * ldc + jc, kb, nb);
            }
        }
    }
}

#endif // FPSA_KERNELS_X86

// ------------------------------------------------------------------- NEON

#if FPSA_KERNELS_NEON

/** 4-row fp32 tile, 4-lane fused multiply-add (vfmaq). */
void
tile4Neon(const float *a0, const float *a1, const float *a2,
          const float *a3, const float *b, std::int64_t ldb, float *c0,
          float *c1, float *c2, float *c3, std::int64_t kb,
          std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 4 <= nb; j += 4) {
        float32x4_t s0 = vld1q_f32(c0 + j);
        float32x4_t s1 = vld1q_f32(c1 + j);
        float32x4_t s2 = vld1q_f32(c2 + j);
        float32x4_t s3 = vld1q_f32(c3 + j);
        const float *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p) {
            const float32x4_t bv = vld1q_f32(bp + p * ldb);
            s0 = vfmaq_n_f32(s0, bv, a0[p]);
            s1 = vfmaq_n_f32(s1, bv, a1[p]);
            s2 = vfmaq_n_f32(s2, bv, a2[p]);
            s3 = vfmaq_n_f32(s3, bv, a3[p]);
        }
        vst1q_f32(c0 + j, s0);
        vst1q_f32(c1 + j, s1);
        vst1q_f32(c2 + j, s2);
        vst1q_f32(c3 + j, s3);
    }
    for (; j < nb; ++j) {
        float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
        for (std::int64_t p = 0; p < kb; ++p) {
            const float bv = b[p * ldb + j];
            s0 = __builtin_fmaf(a0[p], bv, s0);
            s1 = __builtin_fmaf(a1[p], bv, s1);
            s2 = __builtin_fmaf(a2[p], bv, s2);
            s3 = __builtin_fmaf(a3[p], bv, s3);
        }
        c0[j] = s0;
        c1[j] = s1;
        c2[j] = s2;
        c3[j] = s3;
    }
}

void
tile1Neon(const float *a, const float *b, std::int64_t ldb, float *c,
          std::int64_t kb, std::int64_t nb)
{
    std::int64_t j = 0;
    for (; j + 4 <= nb; j += 4) {
        float32x4_t s = vld1q_f32(c + j);
        const float *bp = b + j;
        for (std::int64_t p = 0; p < kb; ++p)
            s = vfmaq_n_f32(s, vld1q_f32(bp + p * ldb), a[p]);
        vst1q_f32(c + j, s);
    }
    for (; j < nb; ++j) {
        float s = c[j];
        for (std::int64_t p = 0; p < kb; ++p)
            s = __builtin_fmaf(a[p], b[p * ldb + j], s);
        c[j] = s;
    }
}

void
gemmNeon(const float *a, std::int64_t lda, const float *b,
         std::int64_t ldb, float *c, std::int64_t ldc, std::int64_t m,
         std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i)
        std::memset(c + i * ldc, 0,
                    static_cast<std::size_t>(n) * sizeof(float));
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nb = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kb = std::min(kKc, k - pc);
            const float *bp = b + pc * ldb + jc;
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4) {
                const float *ap = a + i * lda + pc;
                float *cp = c + i * ldc + jc;
                tile4Neon(ap, ap + lda, ap + 2 * lda, ap + 3 * lda, bp,
                          ldb, cp, cp + ldc, cp + 2 * ldc, cp + 3 * ldc,
                          kb, nb);
            }
            for (; i < m; ++i) {
                tile1Neon(a + i * lda + pc, bp, ldb, c + i * ldc + jc,
                          kb, nb);
            }
        }
    }
}

#endif // FPSA_KERNELS_NEON

// -------------------------------------------------------------- selection

/** Variants this binary carries code for. */
bool
compiledIn(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto:
      case KernelIsa::Scalar:
        return true;
      case KernelIsa::Avx2:
#if FPSA_KERNELS_X86
        return true;
#else
        return false;
#endif
      case KernelIsa::Neon:
#if FPSA_KERNELS_NEON
        return true;
#else
        return false;
#endif
    }
    return false;
}

/** What the executing CPU supports (of the compiled-in variants). */
bool
cpuSupports(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto:
      case KernelIsa::Scalar:
        return true;
      case KernelIsa::Avx2:
#if FPSA_KERNELS_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case KernelIsa::Neon:
#if FPSA_KERNELS_NEON
        return true; // baseline on aarch64
#else
        return false;
#endif
    }
    return false;
}

/**
 * The `FPSA_KERNEL_ISA` override, read once at first use.  `Auto` (or
 * an unset/unparseable value) imposes no cap; anything else limits the
 * available variants to {Scalar, cap}.
 */
KernelIsa
envCap()
{
    static const KernelIsa cap = [] {
        const char *env = std::getenv("FPSA_KERNEL_ISA");
        if (env == nullptr || *env == '\0')
            return KernelIsa::Auto;
        KernelIsa parsed = KernelIsa::Auto;
        if (!parseKernelIsa(env, parsed)) {
            warn("FPSA_KERNEL_ISA='%s' is not a known ISA "
                 "(auto/scalar/avx2/neon); ignoring",
                 env);
            return KernelIsa::Auto;
        }
        return parsed;
    }();
    return cap;
}

KernelIsa
detectBest()
{
#if FPSA_KERNELS_X86
    if (cpuSupports(KernelIsa::Avx2))
        return KernelIsa::Avx2;
#endif
#if FPSA_KERNELS_NEON
    return KernelIsa::Neon;
#endif
    return KernelIsa::Scalar;
}

const KernelTable kScalarTable{KernelIsa::Scalar, &gemmScalar,
                               &gemmThenRelu<&gemmScalar>,
                               &im2colScalar, &gemmInt8Scalar};
#if FPSA_KERNELS_X86
const KernelTable kAvx2Table{KernelIsa::Avx2, &gemmAvx2<false>,
                             &gemmAvx2<true>, &im2colAvx2, &gemmInt8Avx2};
#endif
#if FPSA_KERNELS_NEON
const KernelTable kNeonTable{KernelIsa::Neon, &gemmNeon,
                             &gemmThenRelu<&gemmNeon>, &im2colScalar,
                             &gemmInt8Scalar};
#endif

} // namespace

#if FPSA_KERNELS_X86
void
detail::gemmAvx2ForCpu(bool avx512f, bool relu, const float *a,
                       std::int64_t lda, const float *b, std::int64_t ldb,
                       float *c, std::int64_t ldc, std::int64_t m,
                       std::int64_t k, std::int64_t n)
{
    gemmPanels(avx512f ? kZmmKernel : kYmmKernel, relu, a, lda, b, ldb, c,
               ldc, m, k, n);
}
#endif

void
reluForward(const float *in, float *out, std::int64_t n)
{
    std::int64_t v = 0;
#if defined(__SSE2__)
    const __m128 zero = _mm_setzero_ps();
    for (; v + 4 <= n; v += 4)
        _mm_storeu_ps(out + v, _mm_max_ps(_mm_loadu_ps(in + v), zero));
#endif
    for (; v < n; ++v)
        out[v] = maxOf(in[v], 0.0f);
}

void
dequantize(const std::int32_t *in, float *out, std::int64_t n,
           float scale, bool relu)
{
    std::int64_t v = 0;
#if defined(__SSE2__)
    // cvtdq2ps and mulps round exactly like the scalar cast and multiply.
    const __m128 f = _mm_set1_ps(scale);
    const __m128 zero = _mm_setzero_ps();
    for (; v + 4 <= n; v += 4) {
        __m128 x = _mm_mul_ps(
            _mm_cvtepi32_ps(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + v))),
            f);
        if (relu)
            x = _mm_max_ps(x, zero);
        _mm_storeu_ps(out + v, x);
    }
#endif
    for (; v < n; ++v) {
        const float x = static_cast<float>(in[v]) * scale;
        out[v] = relu ? maxOf(x, 0.0f) : x;
    }
}

void
maxPoolChw(const float *input, std::int64_t ci, std::int64_t hi,
           std::int64_t wi, std::int64_t kernel, std::int64_t stride,
           std::int64_t pad, std::int64_t ho, std::int64_t wo, float *out)
{
    for (std::int64_t c = 0; c < ci; ++c) {
        const float *plane = input + c * hi * wi;
        float *out_plane = out + c * ho * wo;
        for (std::int64_t oy = 0; oy < ho; ++oy) {
            const std::int64_t iy0 = oy * stride - pad;
            const std::int64_t ky_lo = std::max<std::int64_t>(0, -iy0);
            const std::int64_t ky_hi = std::min(kernel, hi - iy0);
            for (std::int64_t ox = 0; ox < wo; ++ox) {
                const std::int64_t ix0 = ox * stride - pad;
                const std::int64_t kx_lo = std::max<std::int64_t>(0, -ix0);
                const std::int64_t kx_hi = std::min(kernel, wi - ix0);
                float acc = -1e30f;
                for (std::int64_t ky = ky_lo; ky < ky_hi; ++ky) {
                    const float *row = plane + (iy0 + ky) * wi + ix0;
                    for (std::int64_t kx = kx_lo; kx < kx_hi; ++kx)
                        acc = maxOf(row[kx], acc);
                }
                out_plane[oy * wo + ox] = acc;
            }
        }
    }
}

const char *
kernelIsaName(KernelIsa isa)
{
    switch (isa) {
      case KernelIsa::Auto: return "auto";
      case KernelIsa::Scalar: return "scalar";
      case KernelIsa::Avx2: return "avx2";
      case KernelIsa::Neon: return "neon";
    }
    return "?";
}

bool
parseKernelIsa(const std::string &name, KernelIsa &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (KernelIsa isa : {KernelIsa::Auto, KernelIsa::Scalar,
                          KernelIsa::Avx2, KernelIsa::Neon}) {
        if (lower == kernelIsaName(isa)) {
            out = isa;
            return true;
        }
    }
    return false;
}

bool
kernelIsaAvailable(KernelIsa isa)
{
    if (isa == KernelIsa::Auto || isa == KernelIsa::Scalar)
        return true;
    if (!compiledIn(isa) || !cpuSupports(isa))
        return false;
    const KernelIsa cap = envCap();
    return cap == KernelIsa::Auto || cap == isa;
}

KernelIsa
resolveKernelIsa(KernelIsa requested)
{
    if (requested == KernelIsa::Auto) {
        const KernelIsa best = detectBest();
        return kernelIsaAvailable(best) ? best : KernelIsa::Scalar;
    }
    return kernelIsaAvailable(requested) ? requested
                                         : KernelIsa::Scalar;
}

const char *
precisionModeName(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::Fp32: return "fp32";
      case PrecisionMode::Int8: return "int8";
      case PrecisionMode::Int6: return "int6";
    }
    return "?";
}

bool
parsePrecisionMode(const std::string &name, PrecisionMode &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (PrecisionMode mode : {PrecisionMode::Fp32, PrecisionMode::Int8,
                               PrecisionMode::Int6}) {
        if (lower == precisionModeName(mode)) {
            out = mode;
            return true;
        }
    }
    return false;
}

int
precisionActivationBits(PrecisionMode mode)
{
    switch (mode) {
      case PrecisionMode::Fp32: return 0;
      case PrecisionMode::Int8: return 8;
      case PrecisionMode::Int6: return 6;
    }
    return 0;
}

const KernelTable &
kernelTable(KernelIsa isa)
{
    switch (resolveKernelIsa(isa)) {
#if FPSA_KERNELS_X86
      case KernelIsa::Avx2:
        return kAvx2Table;
#endif
#if FPSA_KERNELS_NEON
      case KernelIsa::Neon:
        return kNeonTable;
#endif
      default:
        return kScalarTable;
    }
}

} // namespace fpsa
