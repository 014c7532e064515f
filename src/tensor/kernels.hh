/**
 * @file
 * Runtime-dispatched dense kernels: the instruction-set layer under the
 * planned inference data path.
 *
 * The planned executor's hot loops (fp32 GEMM plain and with a fused
 * ReLU epilogue, im2col packing, int8 GEMM) are compiled in several
 * instruction-set variants and selected once at runtime through a
 * `KernelTable`:
 *
 *  - `Scalar` is the portable baseline (the PR-5 cache-blocked
 *    register-tile kernels, compiled with the build's default flags) --
 *    always available, and the oracle the vector variants are tested
 *    against.
 *  - `Avx2` (x86 only, runtime CPUID-gated on AVX2+FMA) runs fp32
 *    GEMM as a register-blocked micro-kernel over B panels packed on
 *    the stack: 6x32 with AVX-512F (12 zmm accumulators), else 6x16
 *    (12 ymm), chosen by CPUID with no setting.  It recompiles the
 *    packing/int8 loops for 256-bit autovectorization.
 *  - `Neon` (aarch64 only) uses explicit 4-lane fused multiply-adds.
 *
 * Determinism contract (what `ExecutionPlan` relies on): within one
 * table, every output column accumulates its products in the same
 * k-ascending order with the same (fused or unfused) multiply-add
 * operation regardless of the column count, the column's position, or
 * pointer alignment -- the vector tables make every element one fused
 * multiply-add chain from 0, with remainder columns under masks (or a
 * scalar fused multiply-add), so a column computes the same value
 * whether it lands in a full vector or the tail.  Both `Avx2` widths
 * compute that same chain, and so did the table's earlier 4x8 tile,
 * so its bits do not depend on the host's vector width or on the
 * kernel's version.  A batched call that widens `n` is therefore
 * bit-identical per column to single-sample calls through the same
 * table.  Different tables may differ within float rounding (FMA vs
 * separate multiply+add); the int8 GEMM is exact integer arithmetic
 * and bit-identical across every table.  The fused-ReLU GEMM adds only
 * max(x, +0) after the last k block, which rounds nothing, so it is
 * bit-identical to the same table's plain GEMM followed by
 * `std::max(0.0f, x)`.  The element-wise kernels below the table
 * (ReLU, dequantize, max-pool) are one branch-free implementation
 * shared by every table.
 *
 * Selection: `kernelTable(KernelIsa::Auto)` picks the best variant the
 * CPU supports.  The environment variable `FPSA_KERNEL_ISA`
 * (`scalar` / `avx2` / `neon` / `auto`, read once at first use) caps
 * what detection may return -- `FPSA_KERNEL_ISA=scalar` forces every
 * consumer in the process onto the portable baseline, the override CI
 * uses to keep both code paths green.  Requesting an unavailable ISA
 * falls back to `Scalar`.
 */

#ifndef FPSA_TENSOR_KERNELS_HH
#define FPSA_TENSOR_KERNELS_HH

#include <cstdint>
#include <string>

namespace fpsa
{

/** Instruction-set variants a kernel table can be built from. */
enum class KernelIsa
{
    Auto,   //!< resolve to the best available variant at runtime
    Scalar, //!< portable baseline; always available
    Avx2,   //!< x86 AVX2+FMA: fp32 FMA micro-kernel, 512-bit if AVX-512F
    Neon,   //!< aarch64 NEON (4-lane fp32 FMA)
};

const char *kernelIsaName(KernelIsa isa);

/** Parse "auto"/"scalar"/"avx2"/"neon" (case-insensitive). */
bool parseKernelIsa(const std::string &name, KernelIsa &out);

/**
 * Whether `isa` can actually run here: compiled into this binary, the
 * CPU supports it, and the `FPSA_KERNEL_ISA` override does not mask
 * it.  `Scalar` is always available; `Auto` reports true.
 */
bool kernelIsaAvailable(KernelIsa isa);

/**
 * Resolve a requested ISA to the one that will run: `Auto` becomes the
 * best available variant, an unavailable request falls back to
 * `Scalar`.  Never returns `Auto`.
 */
KernelIsa resolveKernelIsa(KernelIsa requested);

/**
 * Numeric execution mode of the planned data path.  `Int8` and `Int6`
 * both store 8-bit symmetric weights (the paper's crossbar cell
 * configuration); they differ in activation width -- 8-bit vs the
 * paper's 6-bit spike-count grid (Table 2).
 */
enum class PrecisionMode
{
    Fp32, //!< dense float kernels (the PR-5 path)
    Int8, //!< int8 weights x int8 activations -> int32, float epilogue
    Int6, //!< int8 weights x int6 activations -> int32, float epilogue
};

const char *precisionModeName(PrecisionMode mode);

/** Parse "fp32"/"int8"/"int6" (case-insensitive). */
bool parsePrecisionMode(const std::string &name, PrecisionMode &out);

/** Activation quantization width of a mode; 0 for Fp32. */
int precisionActivationBits(PrecisionMode mode);

/**
 * One instruction-set variant of the dense kernels.  All functions are
 * thread-safe pure procedures; semantics match tensor/gemm.hh.
 */
struct KernelTable
{
    KernelIsa isa = KernelIsa::Scalar; //!< the variant actually bound

    /** C[m x n] = A[m x k] * B[k x n], row-major, C overwritten. */
    void (*gemmRowMajor)(const float *a, std::int64_t lda,
                         const float *b, std::int64_t ldb, float *c,
                         std::int64_t ldc, std::int64_t m,
                         std::int64_t k, std::int64_t n) = nullptr;

    /**
     * C[m x n] = max(A[m x k] * B[k x n], 0): `gemmRowMajor` with a ReLU
     * epilogue (a conv or fc layer whose only consumer is a Relu).  The
     * `Avx2` table applies it in registers as the last k block is
     * stored; `Scalar` and `Neon` run a `reluForward` pass over C.
     * max is exact, so every element is bit-identical to this table's
     * `gemmRowMajor` followed by `std::max(0.0f, x)` (NaN, -0 and
     * negatives become +0).
     */
    void (*gemmRowMajorRelu)(const float *a, std::int64_t lda,
                             const float *b, std::int64_t ldb, float *c,
                             std::int64_t ldc, std::int64_t m,
                             std::int64_t k, std::int64_t n) = nullptr;

    /** im2col packer; see tensor/gemm.hh for the layout contract. */
    void (*im2colChw)(const float *input, std::int64_t ci,
                      std::int64_t hi, std::int64_t wi, std::int64_t kh,
                      std::int64_t kw, std::int64_t stride,
                      std::int64_t pad, std::int64_t ho, std::int64_t wo,
                      float *columns, std::int64_t ldm,
                      float pad_value) = nullptr;

    /**
     * C[m x n] = A[m x k] * B[k x n] with int8 operands and int32
     * accumulation (exact; bit-identical across tables).  C is
     * overwritten.
     */
    void (*gemmInt8)(const std::int8_t *a, std::int64_t lda,
                     const std::int8_t *b, std::int64_t ldb,
                     std::int32_t *c, std::int64_t ldc, std::int64_t m,
                     std::int64_t k, std::int64_t n) = nullptr;
};

/**
 * The kernel table for `isa`, after `resolveKernelIsa`.  Tables are
 * immutable statics: the returned reference stays valid forever.
 */
const KernelTable &kernelTable(KernelIsa isa = KernelIsa::Auto);

// Element-wise kernels.  They do no rounding arithmetic beyond one
// float multiply, so one branch-free implementation serves every
// table: compiled plainly, `std::max` becomes a compare-and-jump that
// mispredicts on half of a randomly signed activation map.

/**
 * out[v] = std::max(0.0f, in[v]) for v < n: NaN, -0 and negatives give
 * +0.  `in == out` is allowed.
 */
void reluForward(const float *in, float *out, std::int64_t n);

/**
 * out[v] = float(in[v]) * scale, then `std::max(0.0f, x)` when `relu`:
 * the quantized path's dequantize epilogue.  The product is the same
 * single rounding as the scalar expression, so the bits match it.
 */
void dequantize(const std::int32_t *in, float *out, std::int64_t n,
                float scale, bool relu);

/**
 * Max-pool a [ci x hi x wi] CHW input into [ci x ho x wo].  Each window
 * folds its in-range taps in row-major order as
 * `acc = v > acc ? v : acc` from acc = -1e30 (`std::max(acc, v)`: a NaN
 * tap is skipped, an equal tap keeps the earlier one, so +0/-0 ties
 * resolve to the first); taps in the padding are not visited.
 */
void maxPoolChw(const float *input, std::int64_t ci, std::int64_t hi,
                std::int64_t wi, std::int64_t kernel, std::int64_t stride,
                std::int64_t pad, std::int64_t ho, std::int64_t wo,
                float *out);

} // namespace fpsa

#endif // FPSA_TENSOR_KERNELS_HH
