/* The compiled kernels of lpplab, one library.

   Cloud (lpplab.cloud): the same k-row insertion as cloud._pile_counts_py,
   and the whole row pass of cloud._sorted_cone, cloud._before and that
   insertion, comparing doubles exactly as Python does.  Every pile
   search is branch-free (see upper): its index is bisect_right's.

   Lattice (lpplab.lattice): the single-path table of lattice._path_table_py
   and the pair sweep of lattice._pair_sweep_py, in numpy's operand order:
   the max of the predecessors, in the order _relax takes them, then the
   weights path by path.  MAX returns its second operand unless the first
   is larger, as np.maximum does on non-NaN doubles, signed zeros
   included; fields are finite, so every reachable state is bit-identical
   to numpy's.  Weights are read through element strides (rs, cs), so a
   reflected view needs no copy; the pair sweep copies each step's
   antidiagonal weights into a contiguous scratch row first, so its
   inner loop vectorises.  The extremal walk of
   lattice.geodesic_cells_from_B tests each visited cell's two moves in
   B's own operand order, as lattice._walk_py does over the whole
   rectangle, reading B and the weights through their strides.

   Random numbers (lpplab.rng): the Philox4x64-10 stream of numpy's
   Philox bit generator, word for word, turned into doubles in [0, 1) as
   numpy's Generator.random does.

   Built with -O3 -ffp-contract=off: -O3 vectorises the pair sweep's
   inner loop, and no multiply-add may be contracted into an FMA, which
   would round once where numpy rounds twice.  Neither -ffast-math nor
   -march=native: both could change the bits or the machines the
   library runs on.

   Scratch and output buffers come from the caller, and the routines keep
   no state, so concurrent calls are safe. */
#include <stdint.h>

#define NEG (-1.0e18)
#define MAX(a, b) ((a) > (b) ? (a) : (b))

/* bisect_right: the first index whose value is > x, by a branch-free
   search (Khuong & Morin's layout study).  Each step keeps the half that
   holds that index with a conditional select, which the compiler turns
   into a cmov, so no branch waits on a comparison the CPU cannot
   predict.  The predicate x < row[i] is the bisection's, and on a sorted
   row (the inserted values hold no NaN) it is false up to the index and
   true from it on, so the index is the bisection's: base never passes
   it, base + len never falls short of it, and the last step reads it
   off *base.  A NaN x compares false everywhere and gives len, as
   bisect_right does. */
static int64_t upper(const double *row, int64_t len, double x)
{
    const double *base = row;
    if (len == 0)
        return 0;
    while (len > 1) {
        int64_t half = len / 2;
        base = (x < base[half]) ? base : base + half;
        len -= half;
    }
    return (base - row) + !(x < *base);
}

/* insert one value into k rows of capacity n; out of row k it is dropped */
static void insert(double *rows, int64_t *lens, int64_t n, int64_t k, double item)
{
    for (int64_t r = 0; r < k; r++) {
        double *row = rows + r * n;
        int64_t spot = upper(row, lens[r], item);
        if (spot == lens[r]) {
            row[lens[r]++] = item;
            return;
        }
        double bumped = row[spot];
        row[spot] = item;
        item = bumped;
    }
}

/* the counts of row tops <= bound, one per row */
static void count(const double *rows, const int64_t *lens, int64_t n, int64_t k,
                  double bound, int64_t *out)
{
    for (int64_t r = 0; r < k; r++)
        out[r] = upper(rows + r * n, lens[r], bound);
}

void pile_counts(const double *vs, int64_t n, int64_t k, const int64_t *stops,
                 const double *bounds, int64_t m, double *rows, int64_t *lens,
                 int64_t *out)
{
    int64_t pos = 0;
    for (int64_t r = 0; r < k; r++)
        lens[r] = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t stop = stops[j] < n ? stops[j] : n;
        for (; pos < stop; pos++)
            insert(rows, lens, n, k, vs[pos]);
        count(rows, lens, n, k, bounds[j], out + j * k);
    }
}

/* One row pass from the source (x0, t0).  The n cloud indices of slab,
   taken in their order, are kept when their keys u = (t - t0) + (x - x0),
   v = (t - t0) - (x - x0) lie in [0, U] x [0, V] and are not (0, 0).
   The kept points are inserted into two pile rows; before each, the
   targets (tu, tv), sorted by (u, v), that it does not precede are read
   into out (m x 2).  Returns 1, with out incomplete, when the kept
   points are not in (u, v) order with equal (u, v) in index order. */
int64_t row_pass(const double *xs, const double *ts, const int64_t *slab, int64_t n,
                 double x0, double t0, double U, double V, const double *tu,
                 const double *tv, int64_t m, double *rows, int64_t *out)
{
    int64_t lens[2] = {0, 0}, j = 0, last = -1;
    double lu = 0.0, lv = 0.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t p = slab[i];
        double u = (ts[p] - t0) + (xs[p] - x0);
        double v = (ts[p] - t0) - (xs[p] - x0);
        if (!(u >= 0.0 && v >= 0.0 && u <= U && v <= V) || (u == 0.0 && v == 0.0))
            continue;
        if (last >= 0 && !(lu < u || (lu == u && (lv < v || (lv == v && last < p)))))
            return 1;
        for (; j < m && !(u < tu[j] || (u == tu[j] && v < tv[j])); j++)
            count(rows, lens, n, 2, tv[j], out + 2 * j);
        insert(rows, lens, n, 2, v);
        lu = u;
        lv = v;
        last = p;
    }
    for (; j < m; j++)
        count(rows, lens, n, 2, tv[j], out + 2 * j);
    return 0;
}

static int64_t lmax(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t lmin(int64_t a, int64_t b) { return a < b ? a : b; }

/* The best-path table of a rows x cols field w, swept from the corner
   (i0, j0) to the grid's far end, into the padded (rows + 1) x (cols + 1)
   table, NEG-filled by the caller.  Without seeds (NULL) the corner
   starts with its own weight; with seeds (contiguous rows x cols) every
   swept cell takes the max of its value and its seed.  Cell (i, j) is
   max(left, up) + w[i, j]. */
void path_table(const double *w, int64_t rows, int64_t cols, int64_t rs, int64_t cs,
                int64_t i0, int64_t j0, const double *seeds, double *table)
{
    int64_t W = cols + 1;
    if (!seeds)
        table[(i0 + 1) * W + j0 + 1] = w[i0 * rs + j0 * cs];
    for (int64_t t = i0 + j0 + !seeds; t < rows + cols - 1; t++) {
        int64_t lo = lmax(i0, t - cols + 1), hi = lmin(rows - 1, t - j0);
        for (int64_t i = lo; i <= hi; i++) {
            int64_t j = t - i;
            double *cell = table + (i + 1) * W + j + 1;
            double v = MAX(cell[-1], cell[-W]) + w[i * rs + j * cs];
            *cell = seeds ? MAX(v, seeds[i * cols + j]) : v;
        }
    }
}

/* One pair sweep of a rows x cols field w from the ordered start pair
   (i1, j1), (i2, j2) (doubled when equal) to chart time t_stop, over
   padded (cols + 1)^2 state buffers, NEG-filled by the caller: step s
   reads buffer (s - 1) % nbuf and writes buffer s % nbuf, so nbuf = 2
   keeps the last step and nbuf = steps + 1 records every one.  A step
   first copies its antidiagonal's weights into the caller's scratch row
   (cols + 1 doubles, row[b] the weight on column b - 1), so the inner
   loop reads contiguous memory and vectorises.  It writes the live
   window's upper triangle j1 < j2 and sets its diagonal to NEG; the
   lower triangle is never read, never written.  order 0 adds the left
   path's weight first, order 1 the right path's.  Returns 1 when a pair
   state at t_stop is reachable, else 0. */
static void pair_row(const double *restrict stayed, const double *restrict moved,
                     const double *restrict row, double wa, int64_t a, int64_t hi,
                     int64_t order, double *restrict out)
{
#define PRED(b) MAX(MAX(MAX(stayed[b], stayed[(b) - 1]), moved[b]), moved[(b) - 1])
    if (order)
        for (int64_t b = a + 1; b <= hi; b++)
            out[b] = (PRED(b) + row[b]) + wa;
    else
        for (int64_t b = a + 1; b <= hi; b++)
            out[b] = (PRED(b) + wa) + row[b];
#undef PRED
}

int64_t pair_sweep(const double *w, int64_t rows, int64_t cols, int64_t rs, int64_t cs,
                   int64_t i1, int64_t j1, int64_t i2, int64_t j2, int64_t t_stop,
                   int64_t order, double *states, int64_t nbuf, double *row)
{
    int64_t W = cols + 1, size = W * W, t = i1 + j1, imin = lmin(i1, i2), lo = 0, hi = 0, s;
    double *seed;
    if (i1 == i2 && j1 == j2) {
        if (i1 + 1 >= rows || j1 + 1 >= cols)
            return 0;
        t++;
        seed = states + (j1 + 1) * W + j1 + 2;
        *seed = 2.0 * w[i1 * rs + j1 * cs] + w[(i1 + 1) * rs + j1 * cs]
            + w[i1 * rs + (j1 + 1) * cs];
    } else {
        seed = states + (j1 + 1) * W + j2 + 1;
        *seed = w[i1 * rs + j1 * cs] + w[i2 * rs + j2 * cs];
    }
    for (s = 1; t + s <= t_stop; s++) {
        int64_t u = t + s;
        const double *prev = states + ((s - 1) % nbuf) * size;
        double *next = states + (s % nbuf) * size;
        lo = lmax(j1, u - rows + 1) + 1;
        hi = lmin(cols - 1, u - imin) + 1;
        if (lo > hi)
            return 0;
        for (int64_t b = lo; b <= hi; b++)
            row[b] = w[(u - b + 1) * rs + (b - 1) * cs];
        /* the left path stayed on column a or moved from a - 1 */
        for (int64_t a = lo; a <= hi; a++) {
            next[a * W + a] = NEG;
            pair_row(prev + a * W, prev + (a - 1) * W, row, row[a], a, hi, order,
                     next + a * W);
        }
    }
    if (s == 1)
        return *seed > NEG / 2.0;
    /* the last state: rows below the window may hold stale states, and
       only the window's upper triangle can be live */
    double *last = states + ((s - 1) % nbuf) * size, best = NEG;
    for (int64_t k = 0; k < lo * W; k++)
        last[k] = NEG;
    for (int64_t a = lo; a <= hi; a++)
        for (int64_t b = a + 1; b <= hi; b++)
            best = MAX(best, last[a * W + b]);
    return best > NEG / 2.0;
}

/* One extremal walk on B = backward values to (i1, j1), from (i, j) with
   i <= i1, j <= j1; B and w are rows x cols, read through their element
   strides.  At each cell it tests only the cell's two moves, in B's own
   operand order: right iff j < j1 and B[i, j + 1] + w[i, j] == B[i, j],
   down iff i < i1 and B[i + 1, j] + w[i, j] == B[i, j].  It takes the
   move right_first prefers when both are allowed, and writes the k-th
   visited cell to out[k] (row) and out[n + k] (column), n the walk's
   length.  Returns -1 on reaching (i1, j1), else the index of the first
   cell with no allowed move. */
int64_t walk(const double *B, int64_t brs, int64_t bcs, const double *w, int64_t wrs,
             int64_t wcs, int64_t i, int64_t j, int64_t i1, int64_t j1,
             int64_t right_first, int64_t *out)
{
    int64_t n = (i1 - i) + (j1 - j) + 1;
    for (int64_t k = 0; k < n; k++) {
        out[k] = i;
        out[n + k] = j;
        if (k == n - 1)
            break;
        double here = B[i * brs + j * bcs], wc = w[i * wrs + j * wcs];
        int right = j < j1 && B[i * brs + (j + 1) * bcs] + wc == here;
        int down = i < i1 && B[(i + 1) * brs + j * bcs] + wc == here;
        if (!right && !down)
            return k;
        if (right && (right_first || !down))
            j++;
        else
            i++;
    }
    return -1;
}

/* n uniforms in [0, 1) from the Philox4x64-10 stream keyed (k0, k1), the
   words of numpy's Philox(key=[k0, k1]).random(n): the 256-bit counter
   starts at 0 and is incremented before each block, each block's four
   words are used in order, and a word x becomes (x >> 11) * 2^-53. */
void philox_uniforms(uint64_t k0, uint64_t k1, int64_t n, double *out)
{
    uint64_t ctr[4] = {0, 0, 0, 0};
    for (int64_t k = 0; k < n; k += 4) {
        if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
            ++ctr[3];
        uint64_t x[4] = {ctr[0], ctr[1], ctr[2], ctr[3]}, key[2] = {k0, k1};
        for (int r = 0; r < 10; r++) {
            if (r) {
                key[0] += 0x9E3779B97F4A7C15ULL;
                key[1] += 0xBB67AE8584CAA73BULL;
            }
            unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * x[0];
            unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * x[2];
            uint64_t hi0 = (uint64_t)(p0 >> 64), hi1 = (uint64_t)(p1 >> 64);
            x[0] = hi1 ^ x[1] ^ key[0];
            x[1] = (uint64_t)p1;
            x[2] = hi0 ^ x[3] ^ key[1];
            x[3] = (uint64_t)p0;
        }
        for (int64_t i = 0; i < 4 && k + i < n; i++)
            out[k + i] = (double)(x[i] >> 11) * (1.0 / 9007199254740992.0);
    }
}
