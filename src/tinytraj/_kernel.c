/* The compiled kernels behind tinytraj.autodiff: the contraction of _bmm, and
 * the row-wise passes of softmax_rows, layer_norm, the per-sequence gradient
 * sums, GELU and its gradient.  Every entry point gives the bits of the numpy
 * body it replaces (autodiff._bmm_numpy, _softmax_numpy, ...): the same IEEE
 * operations, each one rounded, in the same order.  Build with
 * -ffp-contract=off (no fused multiply-add) and without -ffast-math or -march.
 *
 * Contraction.  out = a @ b over float64 [l0, l1, m, k] by [l0, l1, k, n]
 * operands.  Each output element starts from +0.0 and adds its k terms
 * a[i,p]*b[p,j] for p = 0 .. k-1 in order, each term one rounded multiply
 * then one rounded add: the order of the numpy rank-1 loop _bmm_numpy.
 *
 * Tile.  The output is cut into MR x NR tiles (NR = 8 columns).  A tile's
 * MR x NR partial sums stay in vector registers across the whole k loop;
 * step p adds a[i,p] * b[p, j0 .. j0+7] to row i's sums, for each of the MR
 * rows.  Register blocking only changes where the partial sums are held,
 * never the order of any element's own terms, so every element still sees
 * the chain above; lanes never mix.  The last n % NR columns run a narrow
 * tile of the same shape whose unused lanes multiply zeros and are never
 * stored, so a product with n < 8 (the output head) is tiled too.  Rows that
 * do not fill a tile run the plain scalar loop, in the same per-element order.
 *
 * Strides.  a and b are read through their element strides: two leading
 * axes (batch, heads), then row and column, so a transposed or sliced view
 * needs no copy.  A tile reads one scalar of a per row and term, and one row
 * of b per term; when b's columns are not adjacent (k^T, a transposed
 * weight) each product's b is first packed into the caller's k x n buffer,
 * which moves values but rounds nothing.  out is C-contiguous.
 *
 * Dispatch.  One tile body (DEFINE_BMM) is compiled twice: for the baseline
 * target, with 2-double vectors and MR = 2, and on x86-64 under
 * target("avx2"), with 4-double vectors and MR = 4; either way the partial
 * sums take 8 of the 16 vector registers.  tinytraj_bmm runs the AVX2 body
 * when the CPU has AVX2 and the baseline body otherwise;
 * tinytraj_bmm_baseline is exported too, so that one host can test both.
 * Neither body uses FMA, and both give the same bits.
 *
 * Row passes.  All arrays are C-contiguous; a row is the last axis.  The
 * summation rules they keep are numpy's:
 *   - a softmax row sum is np.cumsum's chain: it starts from the row's first
 *     element (so an all -0.0 row sums to -0.0) and adds the rest in order;
 *   - np.mean over a row is (+0.0 + pairwise8(row)) / d, where pairwise8 is
 *     numpy's pairwise sum (pairwise() below);
 *   - a per-sequence sum adds the positions in order from +0.0, and the
 *     sequences are folded last first, as autodiff._fold does.
 * np.exp stays numpy's: the softmax forward is softmax_shift, np.exp,
 * softmax_scale (with 0.0 in place of each -inf that np.exp would see, and
 * exp(-inf) = +0.0 put back after it), and the GELU gradient gets its
 * exponential from np.exp.  The GELU forward computes erf itself, by the
 * algorithm of scipy.special.erf (cephes erf: erf_near and erf_far below)
 * with libm's exp, so it gives scipy's bits.  The row passes are compiled
 * for the baseline target only. */
#include <stddef.h>

#define NR 8 /* columns in a tile */

typedef double vec2 __attribute__((vector_size(16)));
typedef double vec4 __attribute__((vector_size(32)));

/* rows [i0, i1) by columns [j0, j1) of one product, one element at a time */
static inline __attribute__((always_inline)) void
scalar_block(const double *a, ptrdiff_t as_row, ptrdiff_t as_col, const double *b, ptrdiff_t b_row,
             double *restrict out, ptrdiff_t k, ptrdiff_t n, ptrdiff_t i0, ptrdiff_t i1,
             ptrdiff_t j0, ptrdiff_t j1)
{
    for (ptrdiff_t i = i0; i < i1; i++) {
        double *o = out + i * n;
        for (ptrdiff_t j = j0; j < j1; j++)
            o[j] = 0.0;
        for (ptrdiff_t p = 0; p < k; p++) {
            const double aip = a[i * as_row + p * as_col];
            const double *bp = b + p * b_row;
            for (ptrdiff_t j = j0; j < j1; j++)
                o[j] += aip * bp[j];
        }
    }
}

/* The tile body, defined once for every instance: NAME, with linkage LINKAGE
 * and target attribute TARGET, keeps MR x W partial sums (W <= NR columns) in
 * the first ceil(W / LANES) of NR / LANES vectors of type VEC per row; a
 * narrow tile's unused lanes start from b's zeros and are never stored.  b's
 * columns are adjacent here (b_row apart, row by row); b and out are read and
 * written through memcpy, so they need no alignment beyond a double's.
 * NAME##_tile is inlined with a constant W, once per width. */
#define DEFINE_BMM(NAME, LINKAGE, TARGET, VEC, MR)                                               \
    static inline __attribute__((always_inline)) TARGET void NAME##_tile(                        \
        const double *a, ptrdiff_t as_row, ptrdiff_t as_col, const double *b, ptrdiff_t b_row,   \
        double *restrict out, ptrdiff_t k, ptrdiff_t n, ptrdiff_t i0, ptrdiff_t j0, const int w) \
    {                                                                                            \
        enum { LANES = sizeof(VEC) / sizeof(double), NV = NR / LANES };                          \
        const int nv = (w + LANES - 1) / LANES; /* vectors that hold a column */                 \
        VEC acc[MR][NV], bv[NV];                                                                 \
        for (int r = 0; r < MR; r++)                                                             \
            for (int v = 0; v < nv; v++)                                                         \
                acc[r][v] = (VEC){0.0}; /* +0.0 in every lane */                                 \
        const double *ap = a + i0 * as_row, *bp = b + j0;                                        \
        for (ptrdiff_t p = 0; p < k; p++, ap += as_col, bp += b_row) {                           \
            if (w == NR) {                                                                       \
                for (int v = 0; v < NV; v++)                                                     \
                    __builtin_memcpy(&bv[v], bp + v * LANES, sizeof bv[v]);                      \
            } else {                                                                             \
                for (int v = 0; v < nv; v++)                                                     \
                    for (int l = 0; l < LANES; l++)                                              \
                        bv[v][l] = v * LANES + l < w ? bp[v * LANES + l] : 0.0;                  \
            }                                                                                    \
            for (int r = 0; r < MR; r++) {                                                       \
                const double air = ap[r * as_row];                                               \
                for (int v = 0; v < nv; v++)                                                     \
                    acc[r][v] += air * bv[v];                                                    \
            }                                                                                    \
        }                                                                                        \
        for (int r = 0; r < MR; r++)                                                             \
            __builtin_memcpy(out + (i0 + r) * n + j0, acc[r], w * sizeof(double));               \
    }                                                                                            \
                                                                                                 \
    /* one [m, k] @ [k, n] product whose b columns are adjacent */                               \
    static TARGET void NAME##_product(const double *a, ptrdiff_t as_row, ptrdiff_t as_col,       \
                                      const double *b, ptrdiff_t b_row, double *restrict out,    \
                                      ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)                     \
    {                                                                                            \
        const ptrdiff_t m_tiles = m - m % MR, n_tiles = n - n % NR;                              \
        for (ptrdiff_t i0 = 0; i0 < m_tiles; i0 += MR) {                                         \
            for (ptrdiff_t j0 = 0; j0 < n_tiles; j0 += NR)                                       \
                NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, j0, NR);                 \
            switch (n - n_tiles) { /* a constant width for each narrow tile */                   \
            case 1: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 1); break;  \
            case 2: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 2); break;  \
            case 3: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 3); break;  \
            case 4: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 4); break;  \
            case 5: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 5); break;  \
            case 6: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 6); break;  \
            case 7: NAME##_tile(a, as_row, as_col, b, b_row, out, k, n, i0, n_tiles, 7); break;  \
            }                                                                                    \
        }                                                                                        \
        scalar_block(a, as_row, as_col, b, b_row, out, k, n, m_tiles, m, 0, n);                  \
    }                                                                                            \
                                                                                                 \
    LINKAGE TARGET void NAME(const double *a, ptrdiff_t as0, ptrdiff_t as1, ptrdiff_t as_row,    \
                             ptrdiff_t as_col, const double *b, ptrdiff_t bs0, ptrdiff_t bs1,    \
                             ptrdiff_t bs_row, ptrdiff_t bs_col, double *restrict pack,          \
                             double *restrict out, ptrdiff_t l0, ptrdiff_t l1, ptrdiff_t m,      \
                             ptrdiff_t k, ptrdiff_t n)                                           \
    {                                                                                            \
        for (ptrdiff_t i = 0; i < l0; i++)                                                       \
            for (ptrdiff_t j = 0; j < l1; j++, out += m * n) {                                   \
                const double *ai = a + i * as0 + j * as1, *bi = b + i * bs0 + j * bs1;           \
                if (bs_col != 1) { /* b's columns are not adjacent: pack them */                 \
                    for (ptrdiff_t p = 0; p < k; p++)                                            \
                        for (ptrdiff_t c = 0; c < n; c++)                                        \
                            pack[p * n + c] = bi[p * bs_row + c * bs_col];                       \
                    NAME##_product(ai, as_row, as_col, pack, n, out, m, k, n);                   \
                } else {                                                                         \
                    NAME##_product(ai, as_row, as_col, bi, bs_row, out, m, k, n);                \
                }                                                                                \
            }                                                                                    \
    }

DEFINE_BMM(tinytraj_bmm_baseline, , , vec2, 2)

#if defined(__x86_64__)
DEFINE_BMM(bmm_avx2, static, __attribute__((target("avx2"))), vec4, 4)
#endif

/* out = a @ b over [l0, l1, m, k] by [l0, l1, k, n] operands, each read
 * through its four element strides; pack holds k x n doubles when b's
 * column stride is not 1 (and may be NULL otherwise); out is C-contiguous */
void tinytraj_bmm(const double *a, ptrdiff_t as0, ptrdiff_t as1, ptrdiff_t as_row,
                  ptrdiff_t as_col, const double *b, ptrdiff_t bs0, ptrdiff_t bs1,
                  ptrdiff_t bs_row, ptrdiff_t bs_col, double *restrict pack, double *restrict out,
                  ptrdiff_t l0, ptrdiff_t l1, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        bmm_avx2(a, as0, as1, as_row, as_col, b, bs0, bs1, bs_row, bs_col, pack, out, l0, l1, m,
                 k, n);
        return;
    }
#endif
    tinytraj_bmm_baseline(a, as0, as1, as_row, as_col, b, bs0, bs1, bs_row, bs_col, pack, out,
                          l0, l1, m, k, n);
}

/* numpy's pairwise sum of TERM(i) for i in [0, n): under 8 terms in order;
 * up to 128, eight accumulators started from the first eight terms, combined
 * as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in order; above 128,
 * the two halves (the first a multiple of 8 long) summed apart and added.
 * A short sum's start is never seen: np.mean adds the result onto +0.0. */
#define DEFINE_PAIRWISE(NAME, TERM)                                                          \
    static double NAME(const double *x, const double *y, ptrdiff_t n)                        \
    {                                                                                        \
        if (n < 8) {                                                                         \
            double s = -0.0;                                                                 \
            for (ptrdiff_t i = 0; i < n; i++)                                                \
                s += TERM(i);                                                                \
            return s;                                                                        \
        }                                                                                    \
        if (n <= 128) {                                                                      \
            double r[8];                                                                     \
            ptrdiff_t i;                                                                     \
            for (int j = 0; j < 8; j++)                                                      \
                r[j] = TERM(j);                                                              \
            for (i = 8; i < n - n % 8; i += 8)                                               \
                for (int j = 0; j < 8; j++)                                                  \
                    r[j] += TERM(i + j);                                                     \
            double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));    \
            for (; i < n; i++)                                                               \
                s += TERM(i);                                                                \
            return s;                                                                        \
        }                                                                                    \
        ptrdiff_t n2 = n / 2;                                                                \
        n2 -= n2 % 8;                                                                        \
        return NAME(x, y, n2) + NAME(x + n2, y + n2, n - n2);                                \
    }

#define PLAIN(i) x[i]
#define PRODUCT(i) (x[i] * y[i])
DEFINE_PAIRWISE(pairwise, PLAIN)
DEFINE_PAIRWISE(pairwise_product, PRODUCT)

/* np.mean of a row of d: +0.0 plus the pairwise sum, over d */
static inline double row_mean(const double *x, ptrdiff_t d)
{
    return (0.0 + pairwise(x, x, d)) / (double)d;
}

static inline double row_mean_product(const double *x, const double *y, ptrdiff_t d)
{
    return (0.0 + pairwise_product(x, y, d)) / (double)d;
}

#define RB 4 /* rows whose chains run side by side; their sums never mix */

/* m[i] = the max of row i of the k rows at x, n apart, without a branch.
 * Unlike np.max it may miss a NaN; no output bit depends on that, as a NaN
 * in a row makes its sum, and so every entry of its softmax, NaN. */
static inline __attribute__((always_inline)) void row_max(const double *x, ptrdiff_t n,
                                                          const int k, double *m)
{
    for (int i = 0; i < k; i++)
        m[i] = x[i * n];
    for (ptrdiff_t j = 1; j < n; j++)
        for (int i = 0; i < k; i++)
            m[i] = m[i] > x[i * n + j] ? m[i] : x[i * n + j];
}

/* s[i] = the cumsum chain of row i of the k rows at y (times g's row when g
 * is not NULL), n apart */
static inline __attribute__((always_inline)) void
row_chain(const double *y, const double *g, ptrdiff_t n, const int k, double *s)
{
    for (int i = 0; i < k; i++)
        s[i] = g ? g[i * n] * y[i * n] : y[i * n];
    for (ptrdiff_t j = 1; j < n; j++)
        for (int i = 0; i < k; i++)
            s[i] += g ? g[i * n + j] * y[i * n + j] : y[i * n + j];
}

static inline __attribute__((always_inline)) void
shift_rows(const double *x, double *restrict y, double *restrict m, ptrdiff_t n, const int k)
{
    row_max(x, n, k, m);
    for (int i = 0; i < k; i++)
        for (ptrdiff_t j = 0; j < n; j++) {
            const double v = x[i * n + j] - m[i];
            y[i * n + j] = v == -__builtin_inf() ? 0.0 : v;
        }
}

/* Softmax forward, before np.exp, per row of n >= 1: mx[r] = the row max and
 * y = x - mx[r], but 0.0 where that is -inf.  exp(-inf) is exactly +0.0, and
 * numpy's exp takes a slow path for every vector that holds a -inf (a
 * causal mask is half -inf); softmax_scale puts the +0.0 back. */
void tinytraj_softmax_shift(const double *x, double *restrict y, double *restrict mx,
                            ptrdiff_t rows, ptrdiff_t n)
{
    ptrdiff_t r = 0;
    for (; r + RB <= rows; r += RB)
        shift_rows(x + r * n, y + r * n, mx + r, n, RB);
    for (; r < rows; r++)
        shift_rows(x + r * n, y + r * n, mx + r, n, 1);
}

static inline __attribute__((always_inline)) void
scale_rows(const double *x, const double *m, double *y, ptrdiff_t n, const int k)
{
    double s[RB];
    for (int i = 0; i < k; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            y[i * n + j] = x[i * n + j] - m[i] == -__builtin_inf() ? 0.0 : y[i * n + j];
    row_chain(y, NULL, n, k, s);
    for (int i = 0; i < k; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            y[i * n + j] /= s[i];
}

/* Softmax forward, after np.exp of softmax_shift's y: +0.0 where x - mx is
 * -inf, then each row divided by its cumsum chain */
void tinytraj_softmax_scale(const double *x, const double *mx, double *y, ptrdiff_t rows,
                            ptrdiff_t n)
{
    ptrdiff_t r = 0;
    for (; r + RB <= rows; r += RB)
        scale_rows(x + r * n, mx + r, y + r * n, n, RB);
    for (; r < rows; r++)
        scale_rows(x + r * n, mx + r, y + r * n, n, 1);
}

static inline __attribute__((always_inline)) void
softmax_vjp_rows(const double *y, const double *g, double *restrict dx, ptrdiff_t n, const int k)
{
    double s[RB];
    row_chain(y, g, n, k, s);
    for (int i = 0; i < k; i++)
        for (ptrdiff_t j = 0; j < n; j++)
            dx[i * n + j] = y[i * n + j] * (g[i * n + j] - s[i]);
}

/* Softmax VJP: dx = y * (g - chain(g * y)) per row */
void tinytraj_softmax_vjp(const double *y, const double *g, double *restrict dx, ptrdiff_t rows,
                          ptrdiff_t n)
{
    ptrdiff_t r = 0;
    for (; r + RB <= rows; r += RB)
        softmax_vjp_rows(y + r * n, g + r * n, dx + r * n, n, RB);
    for (; r < rows; r++)
        softmax_vjp_rows(y + r * n, g + r * n, dx + r * n, n, 1);
}

/* Layer norm forward over rows of d >= 1: xhat = (x - mean) * inv with
 * inv = 1 / sqrt(mean((x - mean)^2) + eps), out = xhat * gain + bias; xhat
 * and the per-row inv are kept for the VJP. */
void tinytraj_layer_norm(const double *x, const double *gain, const double *bias, double eps,
                         double *restrict out, double *restrict xhat, double *restrict inv,
                         ptrdiff_t rows, ptrdiff_t d)
{
    for (ptrdiff_t r = 0; r < rows; r++, x += d, out += d, xhat += d) {
        const double mu = row_mean(x, d);
        for (ptrdiff_t j = 0; j < d; j++)
            xhat[j] = x[j] - mu;
        const double s = 1.0 / __builtin_sqrt(row_mean_product(xhat, xhat, d) + eps);
        inv[r] = s;
        for (ptrdiff_t j = 0; j < d; j++) {
            xhat[j] *= s;
            out[j] = xhat[j] * gain[j] + bias[j];
        }
    }
}

/* Layer norm VJP for x: with dxhat = g * gain,
 * dx = inv * ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat)) */
void tinytraj_layer_norm_dx(const double *g, const double *gain, const double *xhat,
                            const double *inv, double *restrict dx, ptrdiff_t rows, ptrdiff_t d)
{
    for (ptrdiff_t r = 0; r < rows; r++, g += d, xhat += d, dx += d) {
        for (ptrdiff_t j = 0; j < d; j++)
            dx[j] = g[j] * gain[j]; /* dxhat, overwritten below */
        const double m1 = row_mean(dx, d), m2 = row_mean_product(dx, xhat, d);
        for (ptrdiff_t j = 0; j < d; j++)
            dx[j] = inv[r] * ((dx[j] - m1) - xhat[j] * m2);
    }
}

#define SEQ_COLS 64 /* columns summed at once */

/* s = one sequence's sum over its seq positions, from +0.0 in order, of
 * cols columns of g (or of g * w) */
static inline void seq_sum(const double *g, const double *w, double *restrict s, ptrdiff_t seq,
                           ptrdiff_t d, ptrdiff_t cols)
{
    for (ptrdiff_t j = 0; j < cols; j++)
        s[j] = 0.0;
    if (w)
        for (ptrdiff_t p = 0; p < seq; p++)
            for (ptrdiff_t j = 0; j < cols; j++)
                s[j] += g[p * d + j] * w[p * d + j];
    else
        for (ptrdiff_t p = 0; p < seq; p++)
            for (ptrdiff_t j = 0; j < cols; j++)
                s[j] += g[p * d + j];
}

/* The gradient of a parameter shared by the sequences of a [batch, seq, d]
 * batch, batch >= 1: out[j] is the fold, last sequence first, of each
 * sequence's sum of g (or of g * w when w is not NULL). */
void tinytraj_seq_sums(const double *g, const double *w, double *restrict out, ptrdiff_t batch,
                       ptrdiff_t seq, ptrdiff_t d)
{
    const ptrdiff_t stride = seq * d;
    for (ptrdiff_t j0 = 0; j0 < d; j0 += SEQ_COLS) {
        const ptrdiff_t cols = d - j0 < SEQ_COLS ? d - j0 : SEQ_COLS;
        double s[SEQ_COLS];
        seq_sum(g + (batch - 1) * stride + j0, w ? w + (batch - 1) * stride + j0 : NULL,
                out + j0, seq, d, cols);
        for (ptrdiff_t b = batch - 2; b >= 0; b--) {
            seq_sum(g + b * stride + j0, w ? w + b * stride + j0 : NULL, s, seq, d, cols);
            for (ptrdiff_t j = 0; j < cols; j++)
                out[j0 + j] += s[j];
        }
    }
}

/* GELU VJP, given e = np.exp((-0.5 * x) * x) and c = 1 / sqrt(2 pi):
 * dx = g * (cdf + x * (e * c)); dx may be e */
void tinytraj_gelu_vjp(const double *g, const double *x, const double *cdf, const double *e,
                       double c, double *dx, ptrdiff_t size)
{
    for (ptrdiff_t i = 0; i < size; i++)
        dx[i] = g[i] * (cdf[i] + x[i] * (e[i] * c));
}

/* cephes' rational approximations, as scipy.special.erf evaluates them:
 * erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = exp(-x^2) P(x) / Q(x)
 * below 8, exp(-x^2) R(x) / S(x) from 8 on; U, Q and S have a leading 1 */
static const double ERF_T[] = {9.60497373987051638749E0, 9.00260197203842689217E1,
                               2.23200534594684319226E3, 7.00332514112805075473E3,
                               5.55923013010394962768E4};
static const double ERF_U[] = {3.35617141647503099647E1, 5.21357949780152679795E2,
                               4.59432382970980127987E3, 2.26290000613890934246E4,
                               4.92673942608635921086E4};
static const double ERFC_P[] = {2.46196981473530512524E-10, 5.64189564831068821977E-1,
                                7.46321056442269912687E0,   4.86371970985681366614E1,
                                1.96520832956077098242E2,   5.26445194995477358631E2,
                                9.34528527171957607540E2,   1.02755188689515710272E3,
                                5.57535335369399327526E2};
static const double ERFC_Q[] = {1.32281951154744992508E1, 8.67072140885989742329E1,
                                3.54937778887819891062E2, 9.75708501743205489753E2,
                                1.82390916687909736289E3, 2.24633760818710981792E3,
                                1.65666309194161350182E3, 5.57535340817727675546E2};
static const double ERFC_R[] = {5.64189583547755073984E-1, 1.27536670759978104416E0,
                                5.01905042251180477414E0,  6.16021097993053585195E0,
                                7.40974269950448939160E0,  2.97886665372100240670E0};
static const double ERFC_S[] = {2.26052863220117276590E0, 9.39603524938001434673E0,
                                1.20489539808096656605E1, 1.70814450747565897222E1,
                                9.60896809063285878198E0, 3.36907645100081516050E0};
#define MAXLOG 7.09782712893383996843E2 /* log(DBL_MAX): below -MAXLOG, exp underflows */
#define SQRT2 1.41421356237309504880

/* Horner's rule over c[0 .. n-1], highest power first (cephes polevl), and
 * with a leading coefficient of 1 before them (p1evl); each step is one
 * rounded multiply, then one rounded add */
static inline double polevl(double x, const double *c, int n)
{
    double a = c[0];
    for (int i = 1; i < n; i++)
        a = a * x + c[i];
    return a;
}

static inline double p1evl(double x, const double *c, int n)
{
    double a = x + c[0];
    for (int i = 1; i < n; i++)
        a = a * x + c[i];
    return a;
}

/* erf(x) for |x| <= 1: x T(x^2) / U(x^2).  cephes computes -erf(-x) for
 * x < 0, which has the same bits: negation is exact.  NaN stays NaN. */
static inline double erf_near(double x)
{
    const double z = x * x;
    return x * polevl(z, ERF_T, 5) / p1evl(z, ERF_U, 5);
}

/* erf(a) for a > 1: 1 - erfc(a), where erfc is 0 once -a^2 is below -MAXLOG
 * (a > 26.64, inf too) */
static double erf_far(double a)
{
    const double z = -a * a;
    if (z < -MAXLOG) /* erfc underflows to 0 */
        return 1.0;
    const double p = a < 8.0 ? polevl(a, ERFC_P, 9) : polevl(a, ERFC_R, 6);
    const double q = a < 8.0 ? p1evl(a, ERFC_Q, 8) : p1evl(a, ERFC_S, 6);
    return 1.0 - __builtin_exp(z) * p / q; /* a call to libm's exp */
}

#define GELU_BLOCK 256 /* elements whose erf is held on the stack at once */

/* GELU forward: cdf = 0.5 * (1.0 + erf(x / sqrt 2)) and y = x * cdf, with
 * scipy.special.erf's bits (erf(-x) = -erf(x)).  Per block, erf_near runs
 * on every element without a branch, so it vectorizes; the elements past 1
 * are then redone by erf_far.  cdf is NULL when it is not kept. */
void tinytraj_gelu(const double *x, double *restrict cdf, double *restrict y, ptrdiff_t size)
{
    double e[GELU_BLOCK];
    for (ptrdiff_t i0 = 0; i0 < size; i0 += GELU_BLOCK, x += GELU_BLOCK, y += GELU_BLOCK) {
        const ptrdiff_t n = size - i0 < GELU_BLOCK ? size - i0 : GELU_BLOCK;
        for (ptrdiff_t i = 0; i < n; i++)
            e[i] = erf_near(x[i] / SQRT2);
        for (ptrdiff_t i = 0; i < n; i++) {
            const double t = x[i] / SQRT2;
            if (__builtin_fabs(t) > 1.0)
                e[i] = __builtin_copysign(erf_far(__builtin_fabs(t)), t);
        }
        for (ptrdiff_t i = 0; i < n; i++) {
            const double c = 0.5 * (1.0 + e[i]);
            if (cdf)
                cdf[i0 + i] = c;
            y[i] = x[i] * c;
        }
    }
}
