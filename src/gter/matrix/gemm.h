#ifndef GTER_MATRIX_GEMM_H_
#define GTER_MATRIX_GEMM_H_

#include "gter/common/exec_context.h"
#include "gter/matrix/dense_matrix.h"

namespace gter {

/// C = A × B using a cache-blocked i-k-j kernel, parallelized over row
/// panels of A via `ctx.pool` and dispatched to the packed kernel of
/// `ActiveSimdLevel()`. Shapes: A is m×k, B is k×n, C is resized to m×n.
/// Polls `ctx` per row block; on cancellation returns
/// Cancelled/DeadlineExceeded and `*c` holds unspecified partial values.
Status Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
            const ExecContext& ctx = DefaultExecContext());

/// Returns A × B (convenience wrapper). Ignores any cancel token on `ctx`:
/// a value-returning multiply has no error channel, so it always runs to
/// completion.
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b,
                     const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_MATRIX_GEMM_H_
