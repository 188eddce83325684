#ifndef GTER_MATRIX_MATRIX_SIMD_H_
#define GTER_MATRIX_MATRIX_SIMD_H_

// Internal declarations of the AVX2/AVX-512 GEMM kernels (gemm_avx2.cc,
// gemm_avx512.cc). Only the dispatcher in gemm.cc includes this; the public
// API stays in gemm.h.

#include "gter/common/cpu.h"
#include "gter/common/exec_context.h"
#include "gter/matrix/dense_matrix.h"

namespace gter {
namespace internal {

#if GTER_HAVE_AVX2

/// BLIS-style packed GEMM: C += A×B with B packed into kc×8 panels, A into
/// 4-row micropanels, and a register-blocked 4×8 FMA microkernel.
/// `c` must already hold the desired initial value (the dispatcher zeroes
/// it). Parallelized over 64-row blocks of A via `ctx.pool`, cancellation
/// polled per row block.
Status GemmPackedAvx2(const DenseMatrix& a, const DenseMatrix& b,
                      DenseMatrix* c, const ExecContext& ctx);

#endif  // GTER_HAVE_AVX2

#if GTER_HAVE_AVX512

/// AVX-512 GEMM: same BLIS layering as GemmPackedAvx2 with an 8×16
/// register-blocked FMA microkernel over zmm pairs. Same ≤1e-12 contract
/// vs the scalar kernel; bit-stable across thread counts.
Status GemmPackedAvx512(const DenseMatrix& a, const DenseMatrix& b,
                        DenseMatrix* c, const ExecContext& ctx);

#endif  // GTER_HAVE_AVX512

}  // namespace internal
}  // namespace gter

#endif  // GTER_MATRIX_MATRIX_SIMD_H_
