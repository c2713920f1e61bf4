/* The patience kernel of lpplab.cloud, compiled: the same k-row insertion
   as cloud._pile_counts_py, and the whole row pass of cloud._sorted_cone,
   cloud._before and that insertion, comparing doubles exactly as Python
   does.  Scratch (rows: k x n doubles, and lens: k for pile_counts) comes
   from the caller, and the routines keep no state, so concurrent calls
   are safe. */
#include <stdint.h>

/* bisect_right: the first index whose value is > x */
static int64_t upper(const double *row, int64_t len, double x)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (x < row[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
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
