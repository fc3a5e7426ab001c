/* The compiled kernels behind tinytraj.autodiff: the contraction of _bmm, and
 * the row-wise passes of softmax_rows, layer_norm, the per-sequence gradient
 * sums, GELU and its gradient; the chunk parser of tinytraj.data's JSONL
 * reader; and the numpy data allocator tinytraj.training trains under.
 * Every op's entry point gives the bits of the numpy body it replaces
 * (autodiff._bmm_numpy, _softmax_numpy, ...): the same IEEE operations, each
 * one rounded, in the same order.  Build with
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
 * Dispatch.  One tile body (DEFINE_BMM) is compiled three times: for the
 * baseline target, with 2-double vectors and MR = 2, and on x86-64 under
 * target("avx2"), with 4-double vectors and MR = 4, and under
 * target("avx512f"), with 8-double vectors and MR = 8.  The partial sums
 * take 8 of the 16 vector registers, or 8 of AVX-512's 32.  tinytraj_bmm
 * runs the first body of BODIES (fastest first) that the CPU has;
 * tinytraj_bmm_baseline, _avx2 and _avx512 are exported too, so that one
 * host can test each.  No body uses FMA, and all give the same bits.
 *
 * Split.  A pass whose work (multiply-adds, or elements) reaches
 * tinytraj_split_work is shared by two threads when the process may run on
 * 2 or more CPUs: the caller and a persistent worker thread.  The pass is
 * cut into chunks that the caller takes from the front and the worker from
 * the back until none is left, so a slow thread takes fewer and each keeps
 * to the half of the batch it had in the passes before.  A cut never
 * crosses an element's chain: the contraction is cut between the products
 * of its leading axes, or between 8-row tiles of a single product, each
 * thread packing into its own half of the caller's 2 x k x n buffer; the
 * softmax passes and layer norm between rows; the GELU and its gradient
 * between elements.  So every chunk computes its elements exactly as the
 * whole pass does, and the bits never depend on the thread count.  The
 * per-sequence sums always run whole: at a training step's sizes they ran
 * slower shared.  The worker starts on the first pass that is shared, with
 * every signal blocked, detached, so it never delays exit; it never
 * allocates, spins SPIN_NS after a pass and then sleeps on a condition
 * variable.  A caller that finds it busy (another thread in the kernel)
 * runs its pass whole, and a fork child starts a worker of its own.
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
 * for the baseline target only.
 *
 * JSONL chunk parser.  tinytraj_parse_chunk parses the lines of one reader
 * chunk (16 lines) that hold a trajectory record of the plain shape,
 * {"id": <string>, "points": [[lat, lon, t], ...]} with at least two points,
 * into float64/float64/int64 columns, and declines every other line, which
 * the reader parses with json.loads.  It takes only the number grammar of
 * Python's json.  An integer latitude or longitude of at most 15 digits
 * becomes a double through an integer (so -0 is +0.0), as numpy converts a
 * Python int; a number with a fraction or an exponent (of up to 63 bytes)
 * is read by strtod_l under a "C" locale object, made once when the library
 * is loaded, so it is correctly rounded as float() is and does not depend on
 * LC_NUMERIC.  A time must be an integer of at most 18 digits.  An id with a
 * backslash, a control byte or a byte past 0x7e is declined, as are NaN and
 * Infinity.  The pass only parses: the reader's column check says what is
 * in range.  It reads no byte past the buffer it is given (it needs no NUL
 * after it), runs on the calling thread and writes nothing but its outputs.  Per
 * chunk of the ingest benchmark's file (16 lines of 4 to 64 points) on a
 * shared 2-vCPU x86-64 host: 156-166 us in this pass (best of 5 x 5 passes
 * over the file's 122 chunks), most of it in strtod_l.
 *
 * Allocator.  tinytraj_mem_handler is a numpy data allocator (a version-1
 * PyDataMem_Handler) for the training loop, whose steps make and free arrays
 * of the same sizes again and again; glibc would give the large ones back to
 * the system and fault them in again every step.  While a scope is open
 * (tinytraj_mem_open), a freed block of MEM_MIN bytes or more waits in a
 * LIFO list of its exact size for the next request of that size, up to
 * MEM_CAP bytes in all; when the last scope closes, every waiting block is
 * freed.  Each block carries its size in a 16-byte header, so the size
 * numpy passes to free is never trusted, and a block freed after its scope
 * goes straight to free.  The lists are under one mutex, which a fork child
 * gets unlocked (pthread_atfork).
 *
 * Build with -pthread.  Per call on a shared 2-vCPU x86-64 host with
 * AVX-512 (best of 9 x 100, wrapper included, one thread -> two): (800, 32)
 * @ (32, 128) 151-154 -> 85-87 us; the transposed-a weight gradient
 * [25, 128, 32] @ [25, 32, 32] 172 -> 89-109 us; the GELU forward of
 * [25, 32, 128], keeping cdf, 1173-1189 -> 823-984 us.  In some stretches of
 * seconds on that host, two threads ran the first product slower than one
 * (266-293 us). */
#define _GNU_SOURCE /* sched_getaffinity, CPU_COUNT, pthread_setname_np, strtod_l */
#include <locale.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

/* ---- the split: one persistent worker thread ---- */

/* Chunk c of `chunks` (0 of 1 is the whole pass) of the pass whose
 * arguments are at args, on thread 0 (the caller) or 1 (the worker), for a
 * pass that needs scratch space of its own per thread.  The chunks of a pass
 * write disjoint outputs and each computes its elements exactly as the whole
 * pass does. */
typedef void chunk_fn(const void *args, ptrdiff_t c, ptrdiff_t chunks, int thread);

/* A pass whose work (its multiply-adds, or its elements) is below this runs
 * whole: sharing it with the worker would cost more than it saves. */
const long tinytraj_split_work = 32768;

/* A shared pass is cut into at most MAX_CHUNKS chunks of at least CHUNK_WORK
 * work, which the two threads take in turn until none is left: a thread
 * slowed by a cold cache or a busy CPU takes fewer, and the other never waits
 * for more than the one chunk in hand. */
#define CHUNK_WORK 8192
#define MAX_CHUNKS 16

/* The worker spins this long after a pass, then sleeps.  In 14 rounds of
 * the 20 s perfbench `train` workload, 50 us ran as fast as 200 us and 1 ms
 * (median ratios 1.00 and 0.96 to 1 ms) and used 31 s of CPU time per run
 * against 35 and 36 s (21 s without the split); sleeping at once ran about
 * 6% slower (6 rounds). */
#define SPIN_NS 50000

enum { IDLE, POSTED, TAKEN, DONE }; /* the states of the worker's task */

static struct {
    pthread_mutex_t mu; /* with cv: where the worker sleeps */
    pthread_cond_t cv;
    int state;          /* IDLE, POSTED by the owner, TAKEN by the worker, DONE */
    int sleeping;       /* the worker waits on cv: the owner must signal it */
    int owned;          /* a caller holds the worker; any other runs its pass whole */
    int started;        /* 0: no worker yet, 1: running, -1: it could not start */
    chunk_fn *fn;       /* the task: the chunks of fn's pass on args */
    const void *args;
    ptrdiff_t chunks;
    long long left;     /* the chunks no thread has taken: [low 32 bits, high 32 bits) */
} worker = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER, IDLE, 0, 0, 0, NULL, NULL, 0, 0};

static int forced_parts; /* the tests' hook: 1 or 2; 0 reads the CPUs */
static int cpu_parts;    /* 2 when this process may run on 2 or more CPUs, else 1; 0 unread */

static inline void relax(void)
{
#if defined(__x86_64__)
    __builtin_ia32_pause(); /* a spin-wait hint: frees the core's other thread */
#endif
}

static long long now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static int usable_cpus(void)
{
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return CPU_COUNT(&set);
#endif
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? (int)n : 1;
}

/* The number of threads that share a pass above tinytraj_split_work: 2 when
 * the process may run on at least 2 CPUs, else 1.  The data never sets it. */
int tinytraj_parts(void)
{
    const int forced = __atomic_load_n(&forced_parts, __ATOMIC_RELAXED);
    if (forced)
        return forced;
    int parts = __atomic_load_n(&cpu_parts, __ATOMIC_RELAXED);
    if (!parts) {
        parts = usable_cpus() >= 2 ? 2 : 1;
        __atomic_store_n(&cpu_parts, parts, __ATOMIC_RELAXED);
    }
    return parts;
}

/* The tests' hook: 1 or 2 threads from now on, or 0 for the CPU count again */
void tinytraj_set_parts(int parts)
{
    __atomic_store_n(&forced_parts, parts == 1 || parts == 2 ? parts : 0, __ATOMIC_RELAXED);
}

/* Run chunks of the posted pass until none is left: the caller (thread 0)
 * takes them from the front, the worker (thread 1) from the back, so each
 * keeps to the half of the data it had in the passes before */
static void take_chunks(int thread)
{
    long long left = __atomic_load_n(&worker.left, __ATOMIC_RELAXED);
    for (;;) {
        const long long lo = left & 0xffffffff, hi = left >> 32;
        if (lo >= hi)
            return;
        const long long c = thread ? hi - 1 : lo;
        const long long rest = thread ? lo | (hi - 1) << 32 : (lo + 1) | hi << 32;
        if (__atomic_compare_exchange_n(&worker.left, &left, rest, 0, __ATOMIC_RELAXED,
                                        __ATOMIC_RELAXED)) {
            worker.fn(worker.args, (ptrdiff_t)c, worker.chunks, thread);
            left = rest; /* a guess; a failed exchange reads the true value */
        }
    }
}

static void *work(void *unused)
{
    (void)unused;
#if defined(__linux__)
    pthread_setname_np(pthread_self(), "tinytraj-split");
#endif
    for (;;) {
        const long long until = now_ns() + SPIN_NS;
        for (int i = 1; __atomic_load_n(&worker.state, __ATOMIC_SEQ_CST) != POSTED; i++) {
            relax();
            if (i % 256 == 0 && now_ns() > until) { /* then sleep until a task is posted */
                pthread_mutex_lock(&worker.mu);
                __atomic_store_n(&worker.sleeping, 1, __ATOMIC_SEQ_CST);
                while (__atomic_load_n(&worker.state, __ATOMIC_SEQ_CST) != POSTED)
                    pthread_cond_wait(&worker.cv, &worker.mu);
                __atomic_store_n(&worker.sleeping, 0, __ATOMIC_SEQ_CST);
                pthread_mutex_unlock(&worker.mu);
            }
        }
        int posted = POSTED; /* the caller closes the task if it runs out of chunks first */
        if (__atomic_compare_exchange_n(&worker.state, &posted, TAKEN, 0, __ATOMIC_ACQUIRE,
                                        __ATOMIC_RELAXED)) {
            take_chunks(1);
            __atomic_store_n(&worker.state, DONE, __ATOMIC_RELEASE);
        }
    }
    return NULL;
}

/* In a fork child the worker thread is gone: start another on the next split */
static void forget_worker(void)
{
    pthread_mutex_init(&worker.mu, NULL);
    pthread_cond_init(&worker.cv, NULL);
    worker.state = IDLE;
    worker.sleeping = worker.owned = worker.started = 0;
    cpu_parts = 0;
}

/* Start the worker, with every signal blocked so that none is delivered to
 * it, detached so that it never delays exit.  The caller owns the worker. */
static void start_worker(void)
{
    static int at_fork;
    if (!at_fork)
        at_fork = pthread_atfork(NULL, NULL, forget_worker) == 0 ? 1 : -1;
    pthread_attr_t attr;
    sigset_t all, old;
    pthread_t thread;
    int ok = at_fork == 1 && pthread_attr_init(&attr) == 0;
    if (ok) {
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        ok = pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED) == 0 &&
             pthread_create(&thread, &attr, work, NULL) == 0;
        pthread_sigmask(SIG_SETMASK, &old, NULL);
        pthread_attr_destroy(&attr);
    }
    worker.started = ok ? 1 : -1;
}

/* Run fn's pass of `units` indivisible units: whole when its work is below
 * tinytraj_split_work, when one thread runs passes, or when another caller
 * holds the worker; else in chunks of whole units, shared with the worker.
 * If the worker has not joined by the time the chunks are gone, the caller
 * has run them all. */
static void run_pass(chunk_fn *fn, const void *args, double work, ptrdiff_t units)
{
    ptrdiff_t chunks = work / CHUNK_WORK < MAX_CHUNKS ? (ptrdiff_t)(work / CHUNK_WORK) : MAX_CHUNKS;
    chunks = chunks < units ? chunks : units;
    if (work < tinytraj_split_work || chunks < 2 || tinytraj_parts() < 2 ||
        __atomic_exchange_n(&worker.owned, 1, __ATOMIC_ACQUIRE)) {
        fn(args, 0, 1, 0);
        return;
    }
    if (!worker.started)
        start_worker();
    if (worker.started < 0) {
        __atomic_store_n(&worker.owned, 0, __ATOMIC_RELEASE);
        fn(args, 0, 1, 0);
        return;
    }
    worker.fn = fn;
    worker.args = args;
    worker.chunks = chunks;
    worker.left = (long long)chunks << 32;
    __atomic_store_n(&worker.state, POSTED, __ATOMIC_SEQ_CST);
    if (__atomic_load_n(&worker.sleeping, __ATOMIC_SEQ_CST)) {
        pthread_mutex_lock(&worker.mu);
        pthread_cond_signal(&worker.cv);
        pthread_mutex_unlock(&worker.mu);
    }
    take_chunks(0);
    int posted = POSTED;
    if (!__atomic_compare_exchange_n(&worker.state, &posted, IDLE, 0, __ATOMIC_ACQUIRE,
                                     __ATOMIC_RELAXED)) {
        /* the worker joined: wait for the chunk in its hands */
        for (int i = 1; __atomic_load_n(&worker.state, __ATOMIC_ACQUIRE) != DONE; i++)
            if (i % 4096 == 0)
                sched_yield(); /* the worker may have lost its CPU */
            else
                relax();
        __atomic_store_n(&worker.state, IDLE, __ATOMIC_RELAXED);
    }
    __atomic_store_n(&worker.owned, 0, __ATOMIC_RELEASE);
}

/* ---- the contraction ---- */

#define NR 8 /* columns in a tile */

typedef double vec2 __attribute__((vector_size(16)));
typedef double vec4 __attribute__((vector_size(32)));
typedef double vec8 __attribute__((vector_size(64)));

/* The operands of one contraction, as tinytraj_bmm takes them */
struct bmm {
    const double *a, *b;
    ptrdiff_t as0, as1, as_row, as_col, bs0, bs1, bs_row, bs_col;
    double *pack, *out;
    ptrdiff_t l1, m, k, n;
};

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

/* The tile body, defined once for every instance: NAME, with target
 * attribute TARGET, keeps MR x W partial sums (W <= NR columns) in the first
 * ceil(W / LANES) of NR / LANES vectors of type VEC per row; a narrow tile's
 * unused lanes start from b's zeros and are never stored.  b's columns are
 * adjacent here (b_row apart, row by row); b and out are read and written
 * through memcpy, so they need no alignment beyond a double's.  NAME##_tile
 * is inlined with a constant W, once per width.  NAME computes rows [i0, i1)
 * of products [q0, q1) (q = i * l1 + j for leading indices i, j), packing b
 * into pack first where its columns are not adjacent. */
#define DEFINE_BMM(NAME, TARGET, VEC, MR)                                                        \
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
    static TARGET void NAME(const struct bmm *t, ptrdiff_t q0, ptrdiff_t q1, ptrdiff_t i0,       \
                            ptrdiff_t i1, double *restrict pack)                                 \
    {                                                                                            \
        const ptrdiff_t k = t->k, n = t->n;                                                      \
        for (ptrdiff_t q = q0; q < q1; q++) {                                                    \
            const ptrdiff_t i = q / t->l1, j = q % t->l1;                                        \
            const double *ai = t->a + i * t->as0 + j * t->as1 + i0 * t->as_row;                  \
            const double *bi = t->b + i * t->bs0 + j * t->bs1;                                   \
            double *out = t->out + (q * t->m + i0) * n;                                          \
            if (t->bs_col != 1) { /* b's columns are not adjacent: pack them */                  \
                for (ptrdiff_t p = 0; p < k; p++)                                                \
                    for (ptrdiff_t c = 0; c < n; c++)                                            \
                        pack[p * n + c] = bi[p * t->bs_row + c * t->bs_col];                     \
                NAME##_product(ai, t->as_row, t->as_col, pack, n, out, i1 - i0, k, n);           \
            } else {                                                                             \
                NAME##_product(ai, t->as_row, t->as_col, bi, t->bs_row, out, i1 - i0, k, n);     \
            }                                                                                    \
        }                                                                                        \
    }

typedef void bmm_body(const struct bmm *t, ptrdiff_t q0, ptrdiff_t q1, ptrdiff_t i0, ptrdiff_t i1,
                      double *restrict pack);

DEFINE_BMM(bmm_baseline, , vec2, 2)
#if defined(__x86_64__)
DEFINE_BMM(bmm_avx2, __attribute__((target("avx2"))), vec4, 4)
DEFINE_BMM(bmm_avx512, __attribute__((target("avx512f"))), vec8, 8)
#endif

/* A contraction and its units: its products, or the 8-row tiles of a single
 * product (a whole number of tiles in every body) */
struct bmm_pass {
    struct bmm t;
    bmm_body *body;
    ptrdiff_t products, units;
};

static void bmm_chunk(const void *args, ptrdiff_t c, ptrdiff_t chunks, int thread)
{
    const struct bmm_pass *p = args;
    double *pack = p->t.pack ? p->t.pack + thread * p->t.k * p->t.n : NULL;
    const ptrdiff_t u0 = p->units * c / chunks, u1 = p->units * (c + 1) / chunks;
    if (p->products == 1)
        p->body(&p->t, 0, 1, 8 * u0, u1 < p->units ? 8 * u1 : p->t.m, pack);
    else
        p->body(&p->t, u0, u1, 0, p->t.m, pack);
}

/* out = a @ b on body, over [l0, l1, m, k] by [l0, l1, k, n] operands, each
 * read through its four element strides; pack holds 2 x k x n doubles, one
 * half per thread, when b's column stride is not 1 (and may be NULL
 * otherwise); out is C-contiguous.  Its chunks are runs of products, or of
 * 8-row tiles of a single product. */
static void bmm_run(bmm_body *body, const double *a, ptrdiff_t as0, ptrdiff_t as1,
                    ptrdiff_t as_row, ptrdiff_t as_col, const double *b, ptrdiff_t bs0,
                    ptrdiff_t bs1, ptrdiff_t bs_row, ptrdiff_t bs_col, double *pack, double *out,
                    ptrdiff_t l0, ptrdiff_t l1, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)
{
    const ptrdiff_t products = l0 * l1;
    const struct bmm_pass p = {
        {a, b, as0, as1, as_row, as_col, bs0, bs1, bs_row, bs_col, pack, out, l1, m, k, n},
        body,
        products,
        products == 1 ? (m + 7) / 8 : products,
    };
    run_pass(bmm_chunk, &p, (double)products * m * k * n, p.units);
}

#define BMM_ARGS                                                                                 \
    const double *a, ptrdiff_t as0, ptrdiff_t as1, ptrdiff_t as_row, ptrdiff_t as_col,           \
        const double *b, ptrdiff_t bs0, ptrdiff_t bs1, ptrdiff_t bs_row, ptrdiff_t bs_col,       \
        double *pack, double *out, ptrdiff_t l0, ptrdiff_t l1, ptrdiff_t m, ptrdiff_t k,         \
        ptrdiff_t n
#define BMM_PASS a, as0, as1, as_row, as_col, b, bs0, bs1, bs_row, bs_col, pack, out, l0, l1, m, k, n

/* Each body on its own, for the tests: a body the CPU lacks is not called */
void tinytraj_bmm_baseline(BMM_ARGS) { bmm_run(bmm_baseline, BMM_PASS); }
#if defined(__x86_64__)
void tinytraj_bmm_avx2(BMM_ARGS) { bmm_run(bmm_avx2, BMM_PASS); }
void tinytraj_bmm_avx512(BMM_ARGS) { bmm_run(bmm_avx512, BMM_PASS); }
#endif

#if defined(__x86_64__)
static int has_avx512(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}

static int has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}
#endif

static int has_baseline(void) { return 1; }

/* The contraction bodies, fastest first, each with its name and whether
 * this CPU runs it */
static const struct {
    const char *name;
    bmm_body *body;
    int (*runs)(void);
} BODIES[] = {
#if defined(__x86_64__)
    {"avx512", bmm_avx512, has_avx512},
    {"avx2", bmm_avx2, has_avx2},
#endif
    {"baseline", bmm_baseline, has_baseline},
};

/* The index in BODIES of the i-th body this CPU runs, fastest first, or -1
 * past the last: tinytraj_bmm runs the first */
static int body_index(int i)
{
    for (int b = 0; b < (int)(sizeof BODIES / sizeof BODIES[0]); b++)
        if (BODIES[b].runs() && i-- == 0)
            return b;
    return -1;
}

/* The name of the i-th contraction body this CPU runs, fastest first, or
 * NULL past the last */
const char *tinytraj_bmm_body(int i)
{
    const int b = body_index(i);
    return b < 0 ? NULL : BODIES[b].name;
}

/* out = a @ b on the fastest body this CPU runs (see bmm_run) */
void tinytraj_bmm(BMM_ARGS) { bmm_run(BODIES[body_index(0)].body, BMM_PASS); }

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

/* One row pass: its arrays, in the order its entry point takes them, and
 * range(t, r0, r1), which computes entries [r0, r1) of its cut axis of len:
 * rows of n, or elements of the GELU */
struct rows {
    void (*range)(const struct rows *t, ptrdiff_t r0, ptrdiff_t r1);
    const double *in[4];
    double *out[3];
    double c;
    ptrdiff_t len, n;
};

static void rows_chunk(const void *args, ptrdiff_t c, ptrdiff_t chunks, int thread)
{
    const struct rows *t = args;
    (void)thread;
    t->range(t, t->len * c / chunks, t->len * (c + 1) / chunks);
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
static void softmax_shift_range(const struct rows *t, ptrdiff_t r, ptrdiff_t r1)
{
    const ptrdiff_t n = t->n;
    const double *x = t->in[0];
    double *y = t->out[0], *mx = t->out[1];
    for (; r + RB <= r1; r += RB)
        shift_rows(x + r * n, y + r * n, mx + r, n, RB);
    for (; r < r1; r++)
        shift_rows(x + r * n, y + r * n, mx + r, n, 1);
}

void tinytraj_softmax_shift(const double *x, double *restrict y, double *restrict mx,
                            ptrdiff_t rows, ptrdiff_t n)
{
    const struct rows t = {softmax_shift_range, {x}, {y, mx}, 0.0, rows, n};
    run_pass(rows_chunk, &t, (double)rows * n, t.len);
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
static void softmax_scale_range(const struct rows *t, ptrdiff_t r, ptrdiff_t r1)
{
    const ptrdiff_t n = t->n;
    const double *x = t->in[0], *mx = t->in[1];
    double *y = t->out[0];
    for (; r + RB <= r1; r += RB)
        scale_rows(x + r * n, mx + r, y + r * n, n, RB);
    for (; r < r1; r++)
        scale_rows(x + r * n, mx + r, y + r * n, n, 1);
}

void tinytraj_softmax_scale(const double *x, const double *mx, double *y, ptrdiff_t rows,
                            ptrdiff_t n)
{
    const struct rows t = {softmax_scale_range, {x, mx}, {y}, 0.0, rows, n};
    run_pass(rows_chunk, &t, (double)rows * n, t.len);
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
static void softmax_vjp_range(const struct rows *t, ptrdiff_t r, ptrdiff_t r1)
{
    const ptrdiff_t n = t->n;
    const double *y = t->in[0], *g = t->in[1];
    double *dx = t->out[0];
    for (; r + RB <= r1; r += RB)
        softmax_vjp_rows(y + r * n, g + r * n, dx + r * n, n, RB);
    for (; r < r1; r++)
        softmax_vjp_rows(y + r * n, g + r * n, dx + r * n, n, 1);
}

void tinytraj_softmax_vjp(const double *y, const double *g, double *restrict dx, ptrdiff_t rows,
                          ptrdiff_t n)
{
    const struct rows t = {softmax_vjp_range, {y, g}, {dx}, 0.0, rows, n};
    run_pass(rows_chunk, &t, (double)rows * n, t.len);
}

/* Layer norm forward over rows of d >= 1: xhat = (x - mean) * inv with
 * inv = 1 / sqrt(mean((x - mean)^2) + eps), out = xhat * gain + bias; xhat
 * and the per-row inv are kept for the VJP. */
static void layer_norm_range(const struct rows *t, ptrdiff_t r, ptrdiff_t r1)
{
    const ptrdiff_t d = t->n;
    const double *x = t->in[0] + r * d, *gain = t->in[1], *bias = t->in[2], eps = t->c;
    double *out = t->out[0] + r * d, *xhat = t->out[1] + r * d, *inv = t->out[2];
    for (; r < r1; r++, x += d, out += d, xhat += d) {
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

void tinytraj_layer_norm(const double *x, const double *gain, const double *bias, double eps,
                         double *restrict out, double *restrict xhat, double *restrict inv,
                         ptrdiff_t rows, ptrdiff_t d)
{
    const struct rows t = {layer_norm_range, {x, gain, bias}, {out, xhat, inv}, eps, rows, d};
    run_pass(rows_chunk, &t, (double)rows * d, t.len);
}

/* Layer norm VJP for x: with dxhat = g * gain,
 * dx = inv * ((dxhat - mean(dxhat)) - xhat * mean(dxhat * xhat)) */
static void layer_norm_dx_range(const struct rows *t, ptrdiff_t r, ptrdiff_t r1)
{
    const ptrdiff_t d = t->n;
    const double *g = t->in[0] + r * d, *gain = t->in[1], *xhat = t->in[2] + r * d;
    const double *inv = t->in[3];
    double *dx = t->out[0] + r * d;
    for (; r < r1; r++, g += d, xhat += d, dx += d) {
        for (ptrdiff_t j = 0; j < d; j++)
            dx[j] = g[j] * gain[j]; /* dxhat, overwritten below */
        const double m1 = row_mean(dx, d), m2 = row_mean_product(dx, xhat, d);
        for (ptrdiff_t j = 0; j < d; j++)
            dx[j] = inv[r] * ((dx[j] - m1) - xhat[j] * m2);
    }
}

void tinytraj_layer_norm_dx(const double *g, const double *gain, const double *xhat,
                            const double *inv, double *restrict dx, ptrdiff_t rows, ptrdiff_t d)
{
    const struct rows t = {layer_norm_dx_range, {g, gain, xhat, inv}, {dx}, 0.0, rows, d};
    run_pass(rows_chunk, &t, (double)rows * d, t.len);
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
 * sequence's sum of g (or of g * w when w is not NULL), SEQ_COLS columns at
 * a time.  It runs whole: one add per element read, of a g the caller's
 * core has just written, so at a training step's sizes it ran slower shared
 * (0.40-0.49 -> 0.48-0.64 ms per step). */
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
static void gelu_vjp_range(const struct rows *t, ptrdiff_t i0, ptrdiff_t i1)
{
    const double *g = t->in[0], *x = t->in[1], *cdf = t->in[2], *e = t->in[3], c = t->c;
    double *dx = t->out[0];
    for (ptrdiff_t i = i0; i < i1; i++)
        dx[i] = g[i] * (cdf[i] + x[i] * (e[i] * c));
}

void tinytraj_gelu_vjp(const double *g, const double *x, const double *cdf, const double *e,
                       double c, double *dx, ptrdiff_t size)
{
    const struct rows t = {gelu_vjp_range, {g, x, cdf, e}, {dx}, c, size, 1};
    run_pass(rows_chunk, &t, (double)size, t.len);
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
static void gelu_range(const struct rows *t, ptrdiff_t e0, ptrdiff_t e1)
{
    const double *x = t->in[0] + e0;
    double *cdf = t->out[0] ? t->out[0] + e0 : NULL, *y = t->out[1] + e0;
    const ptrdiff_t size = e1 - e0;
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

void tinytraj_gelu(const double *x, double *restrict cdf, double *restrict y, ptrdiff_t size)
{
    const struct rows t = {gelu_range, {x}, {cdf, y}, 0.0, size, 1};
    run_pass(rows_chunk, &t, (double)size, t.len);
}

/* ---- the JSONL chunk parser ---- */

/* The "C" locale, made once when the library is loaded and only read after
 * that: strtod_l reads numbers by it, so '.' is the decimal point whatever
 * LC_NUMERIC says.  When it could not be made, every line is declined. */
static locale_t c_locale;

__attribute__((constructor)) static void make_c_locale(void)
{
    c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
}

/* The columns a chunk's points are appended to, cap entries each. */
struct columns {
    double *lat, *lon;
    int64_t *t;
    ptrdiff_t n, cap;
};

static inline int is_digit(char c) { return c >= '0' && c <= '9'; }

/* p past JSON whitespace (Python's json: space, tab, CR and LF) */
static inline const char *skip_space(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n'))
        p++;
    return p;
}

/* p past the whitespace, the byte ch and the whitespace after it; NULL when
 * the byte is not ch or p is NULL already.  The readers below take and give
 * NULL the same way, so one check ends a chain of them. */
static const char *expect(const char *p, const char *end, char ch)
{
    if (!p)
        return NULL;
    p = skip_space(p, end);
    return p < end && *p == ch ? skip_space(p + 1, end) : NULL;
}

/* The end of the JSON number at p, by Python's json grammar
 * -?(0|[1-9]\d*)(\.\d+)?([eE][-+]?\d+)?, or NULL when p holds none.
 * *digits counts the digits before any fraction; *integral is whether
 * there is neither a fraction nor an exponent. */
static const char *number_end(const char *p, const char *end, int *digits, int *integral)
{
    const char *q = p < end && *p == '-' ? p + 1 : p, *const first = q;
    if (q < end && *q == '0')
        q++;
    else if (q < end && is_digit(*q))
        while (q < end && is_digit(*q))
            q++;
    else
        return NULL;
    *digits = (int)(q - first);
    *integral = 1;
    if (q < end && *q == '.') {
        if (++q == end || !is_digit(*q))
            return NULL;
        while (q < end && is_digit(*q))
            q++;
        *integral = 0;
    }
    if (q < end && (*q == 'e' || *q == 'E')) {
        if (++q < end && (*q == '+' || *q == '-'))
            q++;
        if (q == end || !is_digit(*q))
            return NULL;
        while (q < end && is_digit(*q))
            q++;
        *integral = 0;
    }
    return q;
}

/* The integer [p, q) of at most 18 digits, sign included: -0 is 0. */
static int64_t integer(const char *p, const char *q)
{
    const int negative = *p == '-';
    int64_t v = 0;
    for (p += negative; p < q; p++)
        v = 10 * v + (*p - '0');
    return negative ? -v : v;
}

/* A latitude or longitude: an integer of at most 15 digits through an
 * integer, which a double holds exactly (as numpy converts json's int), and
 * any number with a fraction or an exponent of fewer than NUMBER_BYTES
 * bytes by strtod_l, correctly rounded as Python's float() rounds.  A longer
 * number is declined.  strtod_l reads a copy that ends at the number, so no
 * byte past the line is read, even where the line ends in a digit. */
#define NUMBER_BYTES 64
static const char *read_coordinate(const char *p, const char *end, double *out)
{
    int digits, integral;
    const char *q = p ? number_end(p, end, &digits, &integral) : NULL;
    if (!q || (integral && digits > 15) || q - p >= NUMBER_BYTES)
        return NULL;
    if (integral) {
        *out = (double)integer(p, q);
        return q;
    }
    char text[NUMBER_BYTES], *stop;
    memcpy(text, p, (size_t)(q - p));
    text[q - p] = '\0';
    *out = strtod_l(text, &stop, c_locale); /* ±inf past the range, ±0.0 or a subnormal below */
    return stop == text + (q - p) ? q : NULL;
}

/* A time: an integer of at most 18 digits, which int64 holds */
static const char *read_time(const char *p, const char *end, int64_t *out)
{
    int digits, integral;
    const char *q = p ? number_end(p, end, &digits, &integral) : NULL;
    if (!q || !integral || digits > 18)
        return NULL;
    *out = integer(p, q);
    return q;
}

/* The closing quote of the JSON string at p, when every byte in it is
 * printable ASCII other than a backslash, so that its bytes are its value;
 * else NULL. */
static const char *plain_string_end(const char *p, const char *end)
{
    if (!p || p == end || *p != '"')
        return NULL;
    for (p++; p < end; p++) {
        const unsigned char c = (unsigned char)*p;
        if (c == '"')
            return p;
        if (c < 0x20 || c >= 0x7f || c == '\\')
            return NULL;
    }
    return NULL;
}

/* The end of a points array [[lat, lon, t], ...] at p, its points appended
 * to c; NULL when p holds another value or c is full. */
static const char *read_points(const char *p, const char *end, struct columns *c)
{
    p = expect(p, end, '[');
    if (p && p < end && *p == ']')
        return p + 1;
    while (p) {
        double lat = 0.0, lon = 0.0;
        int64_t t = 0;
        p = expect(p, end, '[');
        p = read_coordinate(p, end, &lat);
        p = expect(p, end, ',');
        p = read_coordinate(p, end, &lon);
        p = expect(p, end, ',');
        p = read_time(p, end, &t);
        p = expect(p, end, ']');
        if (!p || c->n == c->cap)
            return NULL;
        c->lat[c->n] = lat;
        c->lon[c->n] = lon;
        c->t[c->n] = t;
        c->n++;
        if (p < end && *p == ']')
            return p + 1;
        p = expect(p, end, ',');
    }
    return NULL;
}

/* The point count of the line [p, end) when it is one object with the keys
 * "id" and "points" once each, a plain string id and at least two points,
 * their values appended to c and the id's bytes at [*id, *id_end); else 0,
 * with c as it was. */
static ptrdiff_t parse_line(const char *p, const char *end, struct columns *c, const char **id,
                            const char **id_end)
{
    const ptrdiff_t start = c->n;
    const char *id_start = NULL, *id_stop = NULL;
    int have_points = 0;
    p = expect(p, end, '{');
    while (p) {
        const char *key = p, *const key_end = plain_string_end(p, end);
        p = expect(key_end ? key_end + 1 : NULL, end, ':');
        if (!p)
            break;
        if (key_end - key == 3 && !memcmp(key, "\"id", 3) && !id_stop) {
            id_start = p + 1;
            id_stop = plain_string_end(p, end);
            p = id_stop ? id_stop + 1 : NULL;
        } else if (key_end - key == 7 && !memcmp(key, "\"points", 7) && !have_points) {
            have_points = 1;
            p = read_points(p, end, c);
        } else {
            break; /* another key, or one seen before */
        }
        p = p ? skip_space(p, end) : NULL;
        if (p && p < end && *p == '}') {
            if (skip_space(p + 1, end) == end && id_stop && have_points && c->n - start >= 2) {
                *id = id_start;
                *id_end = id_stop;
                return c->n - start;
            }
            break;
        }
        p = expect(p, end, ',');
    }
    c->n = start;
    return 0;
}

/* Parses each of the `lines` lines of buf[0, size), each ending at a newline
 * (the last may not), as far as it holds a trajectory record of the plain
 * shape: {"id": <string>, "points": [[lat, lon, t], ...]} with at least two
 * points, in either key order, with no other key.  meta[3 i] is the point
 * count of line i, or 0 when it is declined: any other JSON, a string with
 * an escape, a control byte or a byte past 0x7e, a NaN or Infinity, a
 * number outside the bounds above or of 64 bytes or more, a time with a
 * fraction or an exponent, or anything that is not JSON.  meta[3 i + 1]
 * and meta[3 i + 2] are the offsets of the id's first byte and of its
 * closing quote.  The points of
 * the lines taken are written to lat, lon and t (cap entries each), in line
 * order; returns their number.  Nothing is checked but the syntax: the
 * caller checks ranges and time order. */
ptrdiff_t tinytraj_parse_chunk(const char *buf, ptrdiff_t size, ptrdiff_t lines, ptrdiff_t *meta,
                               double *lat, double *lon, int64_t *t, ptrdiff_t cap)
{
    struct columns c = {lat, lon, t, 0, c_locale ? cap : 0};
    const char *line = buf, *const stop = buf + size;
    for (ptrdiff_t i = 0; i < lines; i++) {
        const char *nl = line < stop ? memchr(line, '\n', (size_t)(stop - line)) : NULL;
        const char *end = nl ? nl + 1 : stop, *id = line, *id_end = line;
        meta[3 * i] = parse_line(line, end, &c, &id, &id_end);
        meta[3 * i + 1] = id - buf;
        meta[3 * i + 2] = id_end - buf;
        line = end;
    }
    return c.n;
}

/* ---- numpy's data allocator inside training ---- */

/* numpy's PyDataMem_Handler, version 1 (numpy/ndarraytypes.h), laid out here
 * so that no Python or numpy header is needed.  _kernel.py wraps
 * tinytraj_mem_handler in a capsule named "mem_handler". */
struct mem_allocator {
    void *ctx;
    void *(*malloc)(void *ctx, size_t size);
    void *(*calloc)(void *ctx, size_t nelem, size_t elsize);
    void *(*realloc)(void *ctx, void *ptr, size_t new_size);
    void (*free)(void *ctx, void *ptr, size_t size);
};

struct mem_handler {
    char name[127];
    uint8_t version; /* 1 */
    struct mem_allocator allocator;
};

#define MEM_MIN 4096                 /* smaller blocks go straight to malloc and free */
#define MEM_CAP ((size_t)64 << 20)   /* the free lists hold at most this many bytes */
#define MEM_SIZES 1024               /* slots for distinct block sizes (a power of 2) */
#define MEM_PROBES 16                /* slots a size may look at; past them it is not kept */

/* The 16 bytes before a block's data: the size asked for, and while the
 * block waits in a free list, the next block of that list.  16 keeps
 * malloc's alignment for the data. */
struct mem_block {
    size_t size;
    struct mem_block *next;
};

/* Freed blocks of MEM_MIN bytes or more, one LIFO list per exact size,
 * kept only while a scope is open (tinytraj_mem_open) and given back to
 * free when the last scope closes.  Everything here is under mu. */
static struct {
    pthread_mutex_t mu;
    int scopes;                        /* open scopes */
    size_t held;                       /* the bytes of the blocks in the lists */
    size_t size[MEM_SIZES];            /* each slot's block size; 0 for an unused slot */
    struct mem_block *list[MEM_SIZES]; /* each slot's list */
} mem = {PTHREAD_MUTEX_INITIALIZER, 0, 0, {0}, {NULL}};

/* The slot of size's list, taken for it if `take` and one is unused on its
 * probe path; else -1 */
static ptrdiff_t mem_slot(size_t size, int take)
{
    size_t i = (size_t)((uint64_t)size * 0x9e3779b97f4a7c15ull >> 54) % MEM_SIZES;
    for (int probe = 0; probe < MEM_PROBES; probe++, i = (i + 1) % MEM_SIZES) {
        if (mem.size[i] == size)
            return (ptrdiff_t)i;
        if (!mem.size[i]) {
            if (!take)
                return -1;
            mem.size[i] = size;
            return (ptrdiff_t)i;
        }
    }
    return -1;
}

/* A kept block of exactly `size` bytes, or NULL */
static struct mem_block *mem_take(size_t size)
{
    struct mem_block *b = NULL;
    pthread_mutex_lock(&mem.mu);
    const ptrdiff_t i = mem.scopes ? mem_slot(size, 0) : -1;
    if (i >= 0 && (b = mem.list[i])) {
        mem.list[i] = b->next;
        mem.held -= size;
    }
    pthread_mutex_unlock(&mem.mu);
    return b;
}

/* Whether block b went into its list: a scope is open, it fits under
 * MEM_CAP and its size has a slot */
static int mem_keep(struct mem_block *b)
{
    pthread_mutex_lock(&mem.mu);
    const ptrdiff_t i = mem.scopes && mem.held + b->size <= MEM_CAP ? mem_slot(b->size, 1) : -1;
    if (i >= 0) {
        b->next = mem.list[i];
        mem.list[i] = b;
        mem.held += b->size;
    }
    pthread_mutex_unlock(&mem.mu);
    return i >= 0;
}

/* A new block of `size` bytes, from malloc or zeroed by calloc */
static void *mem_new(size_t size, int zero)
{
    if (size > SIZE_MAX - sizeof(struct mem_block))
        return NULL;
    struct mem_block *b = zero ? calloc(1, sizeof *b + size) : malloc(sizeof *b + size);
    if (!b)
        return NULL;
    b->size = size;
    return b + 1;
}

static void *mem_malloc(void *ctx, size_t size)
{
    (void)ctx;
    struct mem_block *b = size >= MEM_MIN ? mem_take(size) : NULL;
    return b ? b + 1 : mem_new(size, 0);
}

static void *mem_calloc(void *ctx, size_t nelem, size_t elsize)
{
    (void)ctx;
    if (elsize && nelem > SIZE_MAX / elsize)
        return NULL;
    const size_t size = nelem * elsize;
    struct mem_block *b = size >= MEM_MIN ? mem_take(size) : NULL;
    if (!b)
        return mem_new(size, 1);
    memset(b + 1, 0, size);
    return b + 1;
}

/* numpy passes the size it believes the block has; the header's is used */
static void mem_free(void *ctx, void *ptr, size_t size)
{
    (void)ctx;
    (void)size;
    if (!ptr)
        return;
    struct mem_block *b = (struct mem_block *)ptr - 1;
    if (b->size < MEM_MIN || !mem_keep(b))
        free(b);
}

static void *mem_realloc(void *ctx, void *ptr, size_t new_size)
{
    if (!ptr)
        return mem_malloc(ctx, new_size);
    const size_t size = ((struct mem_block *)ptr - 1)->size;
    void *out = mem_malloc(ctx, new_size);
    if (out) {
        memcpy(out, ptr, size < new_size ? size : new_size);
        mem_free(ctx, ptr, size);
    }
    return out;
}

struct mem_handler tinytraj_mem_handler = {
    "tinytraj", 1, {NULL, mem_malloc, mem_calloc, mem_realloc, mem_free}};

/* Open a scope: from now until the last open scope closes, freed blocks of
 * MEM_MIN bytes or more are kept for the next block of their size */
void tinytraj_mem_open(void)
{
    pthread_mutex_lock(&mem.mu);
    mem.scopes++;
    pthread_mutex_unlock(&mem.mu);
}

/* Close a scope; when it was the last, give every kept block back to free */
void tinytraj_mem_close(void)
{
    struct mem_block *drop = NULL;
    pthread_mutex_lock(&mem.mu);
    if (mem.scopes > 0 && --mem.scopes == 0) {
        for (size_t i = 0; i < MEM_SIZES; i++) {
            for (struct mem_block *b = mem.list[i], *next; b; b = next) {
                next = b->next;
                b->next = drop;
                drop = b;
            }
            mem.list[i] = NULL;
            mem.size[i] = 0;
        }
        mem.held = 0;
    }
    pthread_mutex_unlock(&mem.mu);
    for (struct mem_block *next; drop; drop = next) {
        next = drop->next;
        free(drop);
    }
}

/* fork holds the lock, so the child's lists are whole; the child, whose
 * only thread is the forking one, starts from a fresh lock */
static void mem_lock(void) { pthread_mutex_lock(&mem.mu); }
static void mem_unlock(void) { pthread_mutex_unlock(&mem.mu); }
static void mem_reset(void) { pthread_mutex_init(&mem.mu, NULL); }

__attribute__((constructor)) static void mem_at_fork(void)
{
    pthread_atfork(mem_lock, mem_unlock, mem_reset);
}
