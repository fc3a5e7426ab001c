/* The contraction behind tinytraj.autodiff._bmm: out = a @ b over a
 * C-contiguous [batch, m, k] by [batch, k, n] pair of float64 arrays.
 *
 * Each output element starts from +0.0 and adds its k terms in order, each
 * term one rounded multiply then one rounded add: the order of the numpy
 * rank-1 loop _bmm_numpy, so the results carry the same bits.  Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math; the
 * innermost loop runs across n, so vectorising it keeps that order. */
#include <stddef.h>

void tinytraj_bmm(const double *restrict a, const double *restrict b, double *restrict out,
                  ptrdiff_t batch, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    for (ptrdiff_t l = 0; l < batch; l++, a += m * k, b += k * n) {
        for (ptrdiff_t i = 0; i < m; i++, out += n) {
            for (ptrdiff_t j = 0; j < n; j++)
                out[j] = 0.0;
            for (ptrdiff_t p = 0; p < k; p++) {
                const double aip = a[i * k + p];
                const double *bp = b + p * n;
                for (ptrdiff_t j = 0; j < n; j++)
                    out[j] += aip * bp[j];
            }
        }
    }
}
