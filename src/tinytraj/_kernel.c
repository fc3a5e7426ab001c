/* The contraction behind tinytraj.autodiff._bmm: out = a @ b over float64
 * [batch, m, k] by [batch, k, n] operands.
 *
 * The rule: each output element starts from +0.0 and adds its k terms
 * a[i,p]*b[p,j] for p = 0 .. k-1 in order, each term one rounded multiply
 * then one rounded add: the order of the numpy rank-1 loop _bmm_numpy, so the
 * results carry the same bits.  Build with -ffp-contract=off (no fused
 * multiply-add) and without -ffast-math or -march.
 *
 * Tile.  The output is cut into MR x NR tiles (NR = 8 columns).  A tile's
 * MR x NR partial sums stay in vector registers across the whole k loop;
 * step p adds a[i,p] * b[p, j0 .. j0+7] to row i's sums, for each of the MR
 * rows.  Register blocking only changes where the partial sums are held,
 * never the order of any element's own terms, so every element still sees
 * the chain above; lanes never mix.  Rows and columns that do not fill a
 * tile run the plain scalar loop, which keeps the same per-element order.
 *
 * Strides.  a is read through its element strides (batch, row, column), so a
 * transposed or sliced view needs no copy: a tile reads one scalar of a per
 * row and term.  b and out are C-contiguous.
 *
 * Dispatch.  One tile body (DEFINE_BMM) is compiled twice: for the baseline
 * target, with 2-double vectors and MR = 2, and on x86-64 under
 * target("avx2"), with 4-double vectors and MR = 4; either way the partial
 * sums take 8 of the 16 vector registers.  tinytraj_bmm runs the AVX2 body
 * when the CPU has AVX2 and the baseline body otherwise;
 * tinytraj_bmm_baseline is exported too, so that one host can test both.
 * Neither body uses FMA, and both give the same bits. */
#include <stddef.h>

#define NR 8 /* columns in a tile */

typedef double vec2 __attribute__((vector_size(16)));
typedef double vec4 __attribute__((vector_size(32)));

/* rows [i0, i1) by columns [j0, j1) of one product, one element at a time */
static inline __attribute__((always_inline)) void
scalar_block(const double *a, ptrdiff_t as_row, ptrdiff_t as_col, const double *b,
             double *restrict out, ptrdiff_t k, ptrdiff_t n, ptrdiff_t i0, ptrdiff_t i1,
             ptrdiff_t j0, ptrdiff_t j1)
{
    for (ptrdiff_t i = i0; i < i1; i++) {
        double *o = out + i * n;
        for (ptrdiff_t j = j0; j < j1; j++)
            o[j] = 0.0;
        for (ptrdiff_t p = 0; p < k; p++) {
            const double aip = a[i * as_row + p * as_col];
            const double *bp = b + p * n;
            for (ptrdiff_t j = j0; j < j1; j++)
                o[j] += aip * bp[j];
        }
    }
}

/* The tile body, defined once for every instance: NAME, with function
 * attributes ATTR, keeps MR x NR partial sums in NR / LANES vectors of type
 * VEC per row.  b and out are read and written through memcpy, so they need
 * no alignment beyond a double's. */
#define DEFINE_BMM(NAME, ATTR, VEC, MR)                                                       \
    ATTR void NAME(const double *a, ptrdiff_t as_batch, ptrdiff_t as_row, ptrdiff_t as_col,   \
                   const double *b, double *restrict out, ptrdiff_t batch, ptrdiff_t m,       \
                   ptrdiff_t k, ptrdiff_t n)                                                  \
    {                                                                                         \
        enum { LANES = sizeof(VEC) / sizeof(double), NV = NR / LANES };                       \
        const ptrdiff_t m_tiles = m - m % MR, n_tiles = n - n % NR;                           \
        for (ptrdiff_t l = 0; l < batch; l++, a += as_batch, b += k * n, out += m * n) {      \
            for (ptrdiff_t i0 = 0; i0 < m_tiles; i0 += MR) {                                  \
                for (ptrdiff_t j0 = 0; j0 < n_tiles; j0 += NR) {                              \
                    VEC acc[MR][NV], bv[NV];                                                  \
                    for (int r = 0; r < MR; r++)                                              \
                        for (int v = 0; v < NV; v++)                                          \
                            acc[r][v] = (VEC){0.0}; /* +0.0 in every lane */                  \
                    const double *ap = a + i0 * as_row, *bp = b + j0;                         \
                    for (ptrdiff_t p = 0; p < k; p++, ap += as_col, bp += n) {                \
                        for (int v = 0; v < NV; v++)                                          \
                            __builtin_memcpy(&bv[v], bp + v * LANES, sizeof bv[v]);           \
                        for (int r = 0; r < MR; r++) {                                        \
                            const double air = ap[r * as_row];                                \
                            for (int v = 0; v < NV; v++)                                      \
                                acc[r][v] += air * bv[v];                                     \
                        }                                                                     \
                    }                                                                         \
                    for (int r = 0; r < MR; r++)                                              \
                        for (int v = 0; v < NV; v++)                                          \
                            __builtin_memcpy(out + (i0 + r) * n + j0 + v * LANES, &acc[r][v], \
                                             sizeof acc[r][v]);                               \
                }                                                                             \
                scalar_block(a, as_row, as_col, b, out, k, n, i0, i0 + MR, n_tiles, n);       \
            }                                                                                 \
            scalar_block(a, as_row, as_col, b, out, k, n, m_tiles, m, 0, n);                  \
        }                                                                                     \
    }

DEFINE_BMM(tinytraj_bmm_baseline, , vec2, 2)

#if defined(__x86_64__)
DEFINE_BMM(bmm_avx2, __attribute__((target("avx2"))) static, vec4, 4)
#endif

void tinytraj_bmm(const double *a, ptrdiff_t as_batch, ptrdiff_t as_row, ptrdiff_t as_col,
                  const double *b, double *restrict out, ptrdiff_t batch, ptrdiff_t m,
                  ptrdiff_t k, ptrdiff_t n)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        bmm_avx2(a, as_batch, as_row, as_col, b, out, batch, m, k, n);
        return;
    }
#endif
    tinytraj_bmm_baseline(a, as_batch, as_row, as_col, b, out, batch, m, k, n);
}
