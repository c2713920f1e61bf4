/* The compiled kernels of lpplab: one CPython extension module, _kernels,
   the only implementation of each kernel in the package.  Their numpy
   twins, named below, live in the tests (tests/twins.py) as references.

   Cloud (lpplab.cloud): the same k-row insertion as the twin
   _pile_counts_py, and the whole row pass of cloud._sorted_cone,
   cloud._before and that insertion, comparing doubles exactly as Python
   does.  Every pile search is branch-free (see upper): its index is
   bisect_right's.

   Lattice (lpplab.lattice): the single-path table of the twin
   _path_table_py and the pair sweep of the twin _pair_sweep_py, in
   numpy's operand order: the max of the predecessors, in the order the
   twin _relax takes them, then the weights path by path.  MAX returns
   its second operand unless the first is larger, as np.maximum does on
   non-NaN doubles, signed zeros included; fields are finite, so every
   reachable state is bit-identical to numpy's.  Both sweeps take what
   their caller reads (a table's read cells, a pair sweep's read states
   at t_stop), turn it into a window (cell_window, state_band) and
   update only the states inside, a set closed under predecessors that
   holds every state able to reach a read one, so those states keep
   their full-sweep values; no reads is the full sweep.  Both write
   every entry the caller gets back, NEG where they compute nothing, so
   no buffer needs a fill.  Weights are read
   through element strides (rs, cs), so a reflected view needs no copy;
   the pair sweep copies each step's antidiagonal weights into a
   contiguous scratch row first, so its inner loop vectorises.  The
   table starts from its corner's weight only: lattice bridges are two
   walks, so no table is seeded.  The extremal walk of
   lattice.geodesic_cells_from_B tests each visited cell's two moves in
   B's own operand order, as the twin _walk_py does over the whole
   rectangle, reading B and the weights through their strides.

   Random numbers (lpplab.rng): the Philox4x64-10 stream of numpy's
   Philox bit generator (the twin generator), word for word, turned into
   doubles in [0, 1) as numpy's Generator.random does.

   Python entry points (at the end): one METH_FASTCALL wrapper per
   kernel, taking numpy arrays through the buffer protocol (PEP 3118).
   Each wrapper checks every buffer's element type (float64 'd' or int64
   'l'/'q', 8 bytes), its number of dimensions, that an output is
   writable and that every output and scratch buffer is large enough for
   the sizes passed, and raises TypeError or ValueError before the kernel
   runs, so a failed call writes nothing.  Strides come from the buffers
   (in bytes, divided here into elements), so a reflected view passes as
   it is.  The kernel runs with the GIL released, so threads run their
   row passes and sweeps in parallel.

   Built with -O3 -ffp-contract=off: -O3 vectorises the pair sweep's
   inner loop, and no multiply-add may be contracted into an FMA, which
   would round once where numpy rounds twice.  Neither -ffast-math nor
   -march=native: both could change the bits or the machines the
   library runs on.

   Scratch and output buffers come from the caller, and the routines keep
   no state, so concurrent calls are safe. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
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

static void pile_counts(const double *vs, int64_t n, int64_t k, const int64_t *stops,
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
static int64_t row_pass(const double *xs, const double *ts, const int64_t *slab, int64_t n,
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

/* n NEG entries from p on */
static void fill(double *p, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        p[k] = NEG;
}

/* The best-path table of a rows x cols field w, swept from the corner
   (i0, j0) over the window of cells (i, j) with i <= i1, j <= j1 and
   i + j <= t_stop, into the padded (rows + 1) x (cols + 1) table.  The
   window is closed under predecessors, so each of its cells gets its
   whole-grid value; every other entry, the border included, is set to
   NEG here, so the table needs no fill before the call.  The corner
   starts with its own weight; cell (i, j) is max(left, up) + w[i, j]. */
static void path_table(const double *w, int64_t rows, int64_t cols, int64_t rs, int64_t cs,
                       int64_t i0, int64_t j0, int64_t i1, int64_t j1, int64_t t_stop,
                       double *table)
{
    int64_t W = cols + 1;
    fill(table, (i0 + 1) * W);
    for (int64_t i = i0; i <= i1; i++) {
        double *r = table + (i + 1) * W;
        int64_t end = lmin(j1, t_stop - i) + 1;  /* the row's last swept entry */
        if (end <= j0) {  /* the row ends before the window */
            fill(r, W);
            continue;
        }
        fill(r, j0 + 1);
        fill(r + end + 1, W - end - 1);
    }
    fill(table + (i1 + 2) * W, (rows - 1 - i1) * W);
    table[(i0 + 1) * W + j0 + 1] = w[i0 * rs + j0 * cs];
    for (int64_t t = i0 + j0 + 1; t <= t_stop; t++) {
        int64_t lo = lmax(i0, t - j1), hi = lmin(i1, t - j0);
        for (int64_t i = lo; i <= hi; i++) {
            int64_t j = t - i;
            double *cell = table + (i + 1) * W + j + 1;
            *cell = MAX(cell[-1], cell[-W]) + w[i * rs + j * cs];
        }
    }
}

/* One pair sweep of a rows x cols field w from the ordered start pair
   (i1, j1), (i2, j2) (doubled when equal) to chart time t_stop, over
   padded (cols + 1)^2 state buffers: step s reads buffer (s - 1) % nbuf
   and writes buffer s % nbuf, so nbuf = 2 keeps the last step and
   nbuf = steps + 1 records every one.

   The caller reads the states at t_stop in the band of columns
   j_lo <= j1 < j2 <= j_hi with j2 - j1 <= sep (j_lo > j_hi: none).  At
   r steps before t_stop a step updates only the states that can reach
   the band: left column >= j_lo - r, right column <= j_hi, separation
   <= sep + r.
   Those windows are closed under predecessors (each path stays or moves
   by one column per step), so every updated state gets its full-sweep
   value, bit for bit; the full window is (0, cols - 1, cols - 1).

   A step first copies its antidiagonal's weights into the caller's
   scratch row (cols + 1 doubles, row[b] the weight on column b - 1), so
   the inner loop reads contiguous memory and vectorises.  It writes the
   window's upper triangle j1 < j2, sets its diagonal to NEG, and writes
   NEG just right of each row and along the row below the window: the
   next step reads only entries this step wrote, so the buffers need no
   fill before the call.  The lower triangle is never read.  A buffer
   the caller keeps (the last step's, or every one when recording) is
   NEG-filled before its step writes it, so its entries outside the
   window are NEG, not states of two steps back.  order 0 adds the left
   path's weight first, order 1 the right path's.  Returns 1 when a
   state of the band at t_stop is reachable, else 0. */
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

static int64_t pair_sweep(const double *w, int64_t rows, int64_t cols, int64_t rs,
                          int64_t cs, int64_t i1, int64_t j1, int64_t i2, int64_t j2,
                          int64_t t_stop, int64_t order, int64_t j_lo, int64_t j_hi,
                          int64_t sep, double *states, int64_t nbuf, double *row)
{
    int64_t W = cols + 1, size = W * W, t = i1 + j1, imin = lmin(i1, i2);
    int64_t a_lo = j_lo + 1, b_hi = j_hi + 1;  /* the band in padded columns */
    int doubled = i1 == i2 && j1 == j2;
    if (j_lo > j_hi || (doubled && (i1 + 1 >= rows || j1 + 1 >= cols)))
        return 0;  /* no state read, or no pair from a doubled start */
    t += doubled;
    int64_t steps = t_stop - t, keep = nbuf > steps;
    if (steps < 0)
        return 0;
    if (keep) {
        fill(states, size);
    } else {  /* only the entries step 1 reads */
        int64_t hi = lmin(cols - 1, t + 1 - imin) + 1;
        for (int64_t a = j1; a <= hi; a++)
            fill(states + a * W + j1, hi - j1 + 1);
    }
    if (doubled)
        states[(j1 + 1) * W + j1 + 2] = 2.0 * w[i1 * rs + j1 * cs] + w[(i1 + 1) * rs + j1 * cs]
            + w[i1 * rs + (j1 + 1) * cs];
    else
        states[(j1 + 1) * W + j2 + 1] = w[i1 * rs + j1 * cs] + w[i2 * rs + j2 * cs];
    for (int64_t s = 1; s <= steps; s++) {
        int64_t u = t + s, r = steps - s;
        const double *prev = states + ((s - 1) % nbuf) * size;
        double *next = states + (s % nbuf) * size;
        /* live columns (padded): j >= j1 and inside the grid, i >= imin */
        int64_t lo = lmax(j1, u - rows + 1) + 1, hi = lmin(cols - 1, u - imin) + 1;
        int64_t a0 = lmax(lo, a_lo - r), a1 = lmin(hi, b_hi - 1), top = lmin(hi, b_hi);
        if (a0 > a1)
            return 0;
        if (keep || r == 0)
            fill(next, size);
        for (int64_t b = a0; b <= top; b++)
            row[b] = w[(u - b + 1) * rs + (b - 1) * cs];
        /* the row below the window, read next step as the moved row */
        fill(next + (a0 - 1) * W + a0 - 1, lmin(lmin(top, a0 + sep + r) + 1, cols) - a0 + 2);
        /* the left path stayed on column a or moved from a - 1 */
        for (int64_t a = a0; a <= a1; a++) {
            int64_t b1 = lmin(top, a + sep + r);
            next[a * W + a] = NEG;
            pair_row(prev + a * W, prev + (a - 1) * W, row, row[a], a, b1, order,
                     next + a * W);
            if (b1 < cols)
                next[a * W + b1 + 1] = NEG;
        }
    }
    const double *last = states + (steps % nbuf) * size;
    int64_t lo = lmax(j1, t_stop - rows + 1) + 1, hi = lmin(cols - 1, t_stop - imin) + 1;
    double best = NEG;
    for (int64_t a = lmax(lo, a_lo); a <= lmin(hi, b_hi - 1); a++)
        for (int64_t b = a + 1; b <= lmin(lmin(hi, b_hi), a + sep); b++)
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
static int64_t walk(const double *B, int64_t brs, int64_t bcs, const double *w, int64_t wrs,
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
static void philox_uniforms(uint64_t k0, uint64_t k1, int64_t n, double *out)
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


/* ---------------------------------------------------------------- entry points */

enum { IN = 0, OUT = 1, STRIDED = 2 };

/* The buffers one call holds; release() gives them all back. */
typedef struct {
    Py_buffer view[7];
    int n;
} Held;

static void release(Held *held)
{
    while (held->n > 0)
        PyBuffer_Release(&held->view[--held->n]);
}

/* obj's buffer, held until release: elements of kind 'd' (float64) or 'q'
   (int64, which numpy reports as 'l'), ndim dimensions, writable for OUT,
   C-contiguous unless STRIDED, strides a whole number of elements.  NULL,
   with TypeError or ValueError set, when obj is not such a buffer. */
static Py_buffer *take(Held *held, PyObject *obj, const char *name, char kind, int ndim,
                       int mode)
{
    Py_buffer *v = &held->view[held->n];
    int flags = PyBUF_FORMAT | (mode & STRIDED ? PyBUF_STRIDES : PyBUF_C_CONTIGUOUS)
        | (mode & OUT ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, v, flags) < 0)
        return NULL;
    held->n++;
    const char *f = v->format ? v->format : "B";
    int fits = f[0] == kind || (kind == 'q' && f[0] == 'l');
    if (!fits || f[1] != '\0' || v->itemsize != 8) {
        PyErr_Format(PyExc_TypeError, "%s must hold %s, got format '%s'", name,
                     kind == 'd' ? "float64" : "int64", f);
        return NULL;
    }
    if (v->ndim != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), got %d", name, ndim,
                     v->ndim);
        return NULL;
    }
    for (int d = 0; d < ndim; d++)
        if (v->strides[d] % 8) {
            PyErr_Format(PyExc_ValueError, "%s has a stride of %zd bytes", name,
                         v->strides[d]);
            return NULL;
        }
    return v;
}

/* 0 when the 1-d buffer v holds at least a * b elements, else -1 with
   ValueError set */
static int room(const Py_buffer *v, const char *name, int64_t a, int64_t b)
{
    int64_t need;
    if (a < 0 || b < 0 || __builtin_mul_overflow(a, b, &need) || v->shape[0] < need) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd elements, too few for %lld x %lld",
                     name, v->shape[0], (long long)a, (long long)b);
        return -1;
    }
    return 0;
}

/* 0 when the buffer v has the shape d (v->ndim entries), else -1 with
   ValueError set */
static int shaped(const Py_buffer *v, const char *name, const int64_t *d)
{
    for (int k = 0; k < v->ndim; k++)
        if (v->shape[k] != d[k]) {
            PyErr_Format(PyExc_ValueError, "%s has %zd entries on axis %d, not %lld", name,
                         v->shape[k], k, (long long)d[k]);
            return -1;
        }
    return 0;
}

/* 0 when the call has n arguments, else -1 with TypeError set */
static int arity(const char *fn, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", fn, n, nargs);
    return -1;
}

/* 0 when the arguments at the count indices at convert to int64s, else -1
   with TypeError (or OverflowError) set */
static int ints(PyObject *const *args, const int *at, int count, int64_t *out)
{
    for (int k = 0; k < count; k++) {
        out[k] = PyLong_AsLongLong(args[at[k]]);
        if (out[k] == -1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* 0 when (i, j) lies in a rows x cols grid, else -1 with ValueError set */
static int in_grid(const char *name, int64_t i, int64_t j, int64_t rows, int64_t cols)
{
    if (0 <= i && i < rows && 0 <= j && j < cols)
        return 0;
    PyErr_Format(PyExc_ValueError, "%s (%lld, %lld) outside a %lld x %lld grid", name,
                 (long long)i, (long long)j, (long long)rows, (long long)cols);
    return -1;
}

/* The window of a table swept from (i0, j0) for the read cells, a
   k x 2 buffer of (row, column), into stop: the last row, column and
   chart time of the cells reachable from (i0, j0), the corner alone when
   none is.  0, or -1 with ValueError set when a cell is off the grid. */
static int cell_window(const Py_buffer *reads, int64_t i0, int64_t j0, int64_t rows,
                       int64_t cols, int64_t *stop)
{
    const int64_t *r = reads->buf;
    stop[0] = i0, stop[1] = j0, stop[2] = i0 + j0;
    for (int64_t k = 0; k < reads->shape[0]; k++) {
        int64_t i = r[2 * k], j = r[2 * k + 1];
        if (in_grid("read cell", i, j, rows, cols) < 0)
            return -1;
        if (i >= i0 && j >= j0) {
            stop[0] = lmax(stop[0], i);
            stop[1] = lmax(stop[1], j);
            stop[2] = lmax(stop[2], i + j);
        }
    }
    return 0;
}

/* The band of the read states, a k x 2 buffer of column pairs (j1, j2),
   into band: the least j1, the greatest j2 and the greatest j2 - j1;
   j_lo > j_hi when k = 0.  0, or -1 with ValueError set unless every
   pair has 0 <= j1 < j2 < cols. */
static int state_band(const Py_buffer *reads, int64_t cols, int64_t *band)
{
    const int64_t *r = reads->buf;
    band[0] = cols, band[1] = -1, band[2] = 0;
    for (int64_t k = 0; k < reads->shape[0]; k++) {
        int64_t a = r[2 * k], b = r[2 * k + 1];
        if (!(0 <= a && a < b && b < cols)) {
            PyErr_Format(PyExc_ValueError, "read state (%lld, %lld) is not a column pair "
                         "0 <= j1 < j2 < %lld", (long long)a, (long long)b, (long long)cols);
            return -1;
        }
        band[0] = lmin(band[0], a);
        band[1] = lmax(band[1], b);
        band[2] = lmax(band[2], b - a);
    }
    return 0;
}

/* pile_counts(vs, k, stops, bounds, rows, lens, out): vs float64 (n),
   stops int64 (m), bounds float64 (m); scratch rows float64 (>= k n) and
   lens int64 (>= k); out int64 (m, k) */
static PyObject *py_pile_counts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    int64_t k;
    Py_buffer *vs, *stops, *bounds, *rows, *lens, *out;
    if (arity("pile_counts", nargs, 7) < 0 || ints(args, (int[]){1}, 1, &k) < 0
        || !(vs = take(&held, args[0], "vs", 'd', 1, IN))
        || !(stops = take(&held, args[2], "stops", 'q', 1, IN))
        || !(bounds = take(&held, args[3], "bounds", 'd', 1, IN))
        || !(rows = take(&held, args[4], "rows", 'd', 1, OUT))
        || !(lens = take(&held, args[5], "lens", 'q', 1, OUT))
        || !(out = take(&held, args[6], "out", 'q', 2, OUT)))
        goto done;
    int64_t n = vs->shape[0], m = stops->shape[0];
    if (shaped(bounds, "bounds", &m) < 0 || room(rows, "rows", k, n) < 0
        || room(lens, "lens", k, 1) < 0 || shaped(out, "out", (int64_t[]){m, k}) < 0)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    pile_counts(vs->buf, n, k, stops->buf, bounds->buf, m, rows->buf, lens->buf, out->buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

/* row_pass(xs, ts, slab, x0, t0, U, V, tu, tv, rows, out) -> 0 or 1: xs
   and ts float64 (N), slab int64 (n) of indices in [0, N), tu and tv
   float64 (m); scratch rows float64 (>= 2 n); out int64 (m, 2) */
static PyObject *py_row_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    double key[4];
    Py_buffer *xs, *ts, *slab, *tu, *tv, *rows, *out;
    if (arity("row_pass", nargs, 11) < 0)
        return NULL;
    for (int k = 0; k < 4; k++) {
        key[k] = PyFloat_AsDouble(args[3 + k]);
        if (key[k] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (!(xs = take(&held, args[0], "xs", 'd', 1, IN))
        || !(ts = take(&held, args[1], "ts", 'd', 1, IN))
        || !(slab = take(&held, args[2], "slab", 'q', 1, IN))
        || !(tu = take(&held, args[7], "tu", 'd', 1, IN))
        || !(tv = take(&held, args[8], "tv", 'd', 1, IN))
        || !(rows = take(&held, args[9], "rows", 'd', 1, OUT))
        || !(out = take(&held, args[10], "out", 'q', 2, OUT)))
        goto done;
    int64_t N = xs->shape[0], n = slab->shape[0], m = tu->shape[0];
    if (shaped(ts, "ts", &N) < 0 || shaped(tv, "tv", &m) < 0 || room(rows, "rows", 2, n) < 0
        || shaped(out, "out", (int64_t[]){m, 2}) < 0)
        goto done;
    const int64_t *p = slab->buf;
    for (int64_t i = 0; i < n; i++)
        if (p[i] < 0 || p[i] >= N) {
            PyErr_Format(PyExc_ValueError, "slab index %lld outside [0, %lld)",
                         (long long)p[i], (long long)N);
            goto done;
        }
    int64_t late;
    Py_BEGIN_ALLOW_THREADS
    late = row_pass(xs->buf, ts->buf, p, n, key[0], key[1], key[2], key[3], tu->buf,
                    tv->buf, m, rows->buf, out->buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(late);
done:
    release(&held);
    return result;
}

/* path_table(w, i0, j0, reads, table): w float64 (rows, cols), any
   strides; reads None (the whole grid) or int64 (k, 2) cells on the
   grid; table float64 (rows + 1, cols + 1), of any content */
static PyObject *py_path_table(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    int64_t c[2], stop[3];
    Py_buffer *w, *reads = NULL, *table;
    if (arity("path_table", nargs, 5) < 0 || ints(args, (int[]){1, 2}, 2, c) < 0
        || !(w = take(&held, args[0], "w", 'd', 2, STRIDED))
        || (args[3] != Py_None && !(reads = take(&held, args[3], "reads", 'q', 2, IN)))
        || !(table = take(&held, args[4], "table", 'd', 2, OUT)))
        goto done;
    int64_t rows = w->shape[0], cols = w->shape[1];
    if (in_grid("corner", c[0], c[1], rows, cols) < 0
        || (reads && shaped(reads, "reads", (int64_t[]){reads->shape[0], 2}) < 0)
        || shaped(table, "table", (int64_t[]){rows + 1, cols + 1}) < 0)
        goto done;
    stop[0] = rows - 1, stop[1] = cols - 1, stop[2] = rows + cols - 2;
    if (reads && cell_window(reads, c[0], c[1], rows, cols, stop) < 0)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    path_table(w->buf, rows, cols, w->strides[0] / 8, w->strides[1] / 8, c[0], c[1], stop[0],
               stop[1], stop[2], table->buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

/* pair_sweep(w, i1, j1, i2, j2, t_stop, order, reads, states, row) -> 0
   or 1: w float64 (rows, cols), any strides, holding both start cells;
   reads None (every state) or int64 (k, 2) column pairs
   0 <= j1 < j2 < cols; states float64 (nbuf >= 1, cols + 1, cols + 1),
   of any content; scratch row float64 (>= cols + 1) */
static PyObject *py_pair_sweep(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    int64_t a[6], band[3];
    Py_buffer *w, *reads = NULL, *states, *row;
    if (arity("pair_sweep", nargs, 10) < 0 || ints(args, (int[]){1, 2, 3, 4, 5, 6}, 6, a) < 0
        || !(w = take(&held, args[0], "w", 'd', 2, STRIDED))
        || (args[7] != Py_None && !(reads = take(&held, args[7], "reads", 'q', 2, IN)))
        || !(states = take(&held, args[8], "states", 'd', 3, OUT))
        || !(row = take(&held, args[9], "row", 'd', 1, OUT)))
        goto done;
    int64_t rows = w->shape[0], cols = w->shape[1], nbuf = states->shape[0];
    if (nbuf < 1) {
        PyErr_SetString(PyExc_ValueError, "states holds no state buffer");
        goto done;
    }
    if (in_grid("first start cell", a[0], a[1], rows, cols) < 0
        || in_grid("second start cell", a[2], a[3], rows, cols) < 0
        || (reads && shaped(reads, "reads", (int64_t[]){reads->shape[0], 2}) < 0)
        || shaped(states, "states", (int64_t[]){nbuf, cols + 1, cols + 1}) < 0
        || room(row, "row", cols + 1, 1) < 0)
        goto done;
    band[0] = 0, band[1] = cols - 1, band[2] = cols - 1;
    if (reads && state_band(reads, cols, band) < 0)
        goto done;
    int64_t live;
    Py_BEGIN_ALLOW_THREADS
    live = pair_sweep(w->buf, rows, cols, w->strides[0] / 8, w->strides[1] / 8, a[0], a[1],
                      a[2], a[3], a[4], a[5] != 0, band[0], band[1], band[2], states->buf,
                      nbuf, row->buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(live);
done:
    release(&held);
    return result;
}

/* walk(B, w, i, j, i1, j1, right_first, out) -> -1 or the stuck index: B
   and w float64 (rows, cols), any strides; 0 <= i <= i1 < rows and
   0 <= j <= j1 < cols; out int64 (2, n), n = (i1 - i) + (j1 - j) + 1 */
static PyObject *py_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    int64_t a[5];
    Py_buffer *B, *w, *out;
    if (arity("walk", nargs, 8) < 0 || ints(args, (int[]){2, 3, 4, 5, 6}, 5, a) < 0
        || !(B = take(&held, args[0], "B", 'd', 2, STRIDED))
        || !(w = take(&held, args[1], "w", 'd', 2, STRIDED))
        || !(out = take(&held, args[7], "out", 'q', 2, OUT)))
        goto done;
    int64_t rows = w->shape[0], cols = w->shape[1];
    if (shaped(B, "B", (int64_t[]){rows, cols}) < 0
        || in_grid("start", a[0], a[1], rows, cols) < 0
        || in_grid("end", a[2], a[3], rows, cols) < 0)
        goto done;
    if (a[0] > a[2] || a[1] > a[3]) {
        PyErr_SetString(PyExc_ValueError, "the walk's end lies before its start");
        goto done;
    }
    if (shaped(out, "out", (int64_t[]){2, (a[2] - a[0]) + (a[3] - a[1]) + 1}) < 0)
        goto done;
    int64_t at;
    Py_BEGIN_ALLOW_THREADS
    at = walk(B->buf, B->strides[0] / 8, B->strides[1] / 8, w->buf, w->strides[0] / 8,
              w->strides[1] / 8, a[0], a[1], a[2], a[3], a[4] != 0, out->buf);
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(at);
done:
    release(&held);
    return result;
}

/* philox_uniforms(k0, k1, out): k0 and k1 ints in [0, 2^64); out float64
   (n) */
static PyObject *py_philox_uniforms(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    PyObject *result = NULL;
    uint64_t key[2];
    Py_buffer *out;
    if (arity("philox_uniforms", nargs, 3) < 0)
        return NULL;
    for (int k = 0; k < 2; k++) {
        key[k] = PyLong_AsUnsignedLongLong(args[k]);
        if (key[k] == (uint64_t)-1 && PyErr_Occurred())
            return NULL;
    }
    if (!(out = take(&held, args[2], "out", 'd', 1, OUT)))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    philox_uniforms(key[0], key[1], out->shape[0], out->buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
done:
    release(&held);
    return result;
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef entries[] = {
    ENTRY(pile_counts), ENTRY(row_pass), ENTRY(path_table), ENTRY(pair_sweep), ENTRY(walk),
    ENTRY(philox_uniforms), {NULL, NULL, 0, NULL}
};

static PyModuleDef_Slot slots[] = {{0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernels",
    .m_doc = "The compiled kernels of lpplab.",
    .m_size = 0,
    .m_methods = entries,
    .m_slots = slots,
};

/* multi-phase initialisation: loading the module adds no sys.modules entry */
PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModuleDef_Init(&module);
}
