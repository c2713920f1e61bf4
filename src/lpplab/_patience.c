/* The patience kernel of lpplab.cloud, compiled: the same k-row insertion
   as cloud._pile_counts_py, comparing doubles exactly as Python does.
   Scratch (rows: k x n doubles, lens: k) comes from the caller, and the
   routine keeps no state, so concurrent calls are safe. */
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

void pile_counts(const double *vs, int64_t n, int64_t k, const int64_t *stops,
                 const double *bounds, int64_t m, double *rows, int64_t *lens,
                 int64_t *out)
{
    int64_t pos = 0;
    for (int64_t r = 0; r < k; r++)
        lens[r] = 0;
    for (int64_t j = 0; j < m; j++) {
        int64_t stop = stops[j] < n ? stops[j] : n;
        for (; pos < stop; pos++) {
            double item = vs[pos];
            for (int64_t r = 0; r < k; r++) {  /* out of row k it is dropped */
                double *row = rows + r * n;
                int64_t spot = upper(row, lens[r], item);
                if (spot == lens[r]) {
                    row[lens[r]++] = item;
                    break;
                }
                double bumped = row[spot];
                row[spot] = item;
                item = bumped;
            }
        }
        for (int64_t r = 0; r < k; r++)
            out[j * k + r] = upper(rows + r * n, lens[r], bounds[j]);
    }
}
