/**
 * @file
 * Internal to the kernel layer (not part of its API): the x86 vector
 * table's fp32 GEMM with its micro-kernel width given explicitly, so a
 * test can drive both widths on a host whose CPUID would pick one.
 */

#ifndef FPSA_TENSOR_KERNELS_X86_HH
#define FPSA_TENSOR_KERNELS_X86_HH

#include <cstdint>

namespace fpsa::detail
{

#if defined(__x86_64__) || defined(__i386__)
/**
 * The `Avx2` table's `gemmRowMajor` (`relu` false) or
 * `gemmRowMajorRelu` (`relu` true) as it runs on a CPU whose CPUID
 * does (`avx512f`: 6x32 zmm micro-kernel) or does not (6x16 ymm)
 * report AVX-512F.  Both widths compute bit-identical results.  The
 * caller guarantees the CPU supports the width it asks for.
 */
void gemmAvx2ForCpu(bool avx512f, bool relu, const float *a,
                    std::int64_t lda, const float *b, std::int64_t ldb,
                    float *c, std::int64_t ldc, std::int64_t m,
                    std::int64_t k, std::int64_t n);
#endif

} // namespace fpsa::detail

#endif // FPSA_TENSOR_KERNELS_X86_HH
