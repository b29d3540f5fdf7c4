/* Sparse LDL' factorization of a symmetric matrix, up-looking, without
 * pivoting: the elimination tree and column counts once per pattern
 * (ldl_etree), then a numeric factorization per matrix (ldl_factor) and
 * triangular solves (ldl_solve). After Davis, "Algorithm 849: a concise
 * sparse Cholesky factorization package", ACM TOMS 31(4), 2005, and QDLDL
 * (Stellato et al., Math. Prog. Comp. 2020).
 *
 * The matrix A is given by its upper triangle, diagonal included, in CSC
 * form: the rows of column j are Ai[Ap[j] .. Ap[j+1]-1], each at most j.
 * L is unit lower triangular and stored by columns without its diagonal:
 * the rows of column j are Li[Lp[j] .. Lp[j+1]-1], in ascending order.
 * All indices are int; the caller checks every array's length. */

/* The elimination tree (parent[j], -1 at a root) and the entries of each
 * column of L (Lnz[j]). work holds n ints. Returns 0, or -1 at an entry
 * below the diagonal. */
int ldl_etree(int n, const int *Ap, const int *Ai, int *work, int *Lnz,
              int *parent)
{
    for (int j = 0; j < n; j++) {
        work[j] = -1;
        Lnz[j] = 0;
        parent[j] = -1;
    }
    for (int j = 0; j < n; j++) {
        work[j] = j;
        for (int p = Ap[j]; p < Ap[j + 1]; p++) {
            int i = Ai[p];
            if (i > j)
                return -1;
            /* Row j of L has an entry in each column on the path from i
             * up the tree, until a column this row already reached. */
            while (work[i] != j) {
                if (parent[i] == -1)
                    parent[i] = j;
                Lnz[i]++;
                work[i] = j;
                i = parent[i];
            }
        }
    }
    return 0;
}

/* The numeric factorization A = L D L', with Lp from ldl_etree's column
 * counts. iwork holds 3n ints and work n doubles. Returns the number of
 * positive pivots, or -1 at a pivot that is zero (or NaN). */
int ldl_factor(int n, const int *Ap, const int *Ai, const double *Ax,
               const int *Lp, const int *parent, int *Li, double *Lx,
               double *D, int *iwork, double *work)
{
    int *flag = iwork, *pattern = iwork + n, *filled = iwork + 2 * n;
    double *y = work;
    int positive = 0;

    for (int k = 0; k < n; k++) {
        y[k] = 0.0;
        filled[k] = 0;
    }
    for (int k = 0; k < n; k++) {
        /* Scatter column k of the upper triangle into y, and find the
         * pattern of row k of L: the tree paths from its rows, in
         * topological order at pattern[top .. n-1]. */
        int top = n;
        flag[k] = k;
        for (int p = Ap[k]; p < Ap[k + 1]; p++) {
            int i = Ai[p], len = 0;
            y[i] += Ax[p];
            for (; flag[i] != k; i = parent[i]) {
                pattern[len++] = i;
                flag[i] = k;
            }
            while (len > 0)
                pattern[--top] = pattern[--len];
        }
        /* Solve L(0:k-1, 0:k-1) D l = y for row k of L, and take the
         * pivot D[k]. */
        double d = y[k];
        y[k] = 0.0;
        for (; top < n; top++) {
            int i = pattern[top];
            double yi = y[i];
            y[i] = 0.0;
            int end = Lp[i] + filled[i];
            for (int p = Lp[i]; p < end; p++)
                y[Li[p]] -= Lx[p] * yi;
            double lki = yi / D[i];
            d -= lki * yi;
            Li[end] = k;
            Lx[end] = lki;
            filled[i]++;
        }
        if (!(d > 0.0 || d < 0.0))
            return -1;
        D[k] = d;
        positive += d > 0.0;
    }
    return positive;
}

/* Solve L D L' x = b in place: x holds b on entry. */
void ldl_solve(int n, const int *Lp, const int *Li, const double *Lx,
               const double *D, double *x)
{
    for (int j = 0; j < n; j++) {
        double xj = x[j];
        for (int p = Lp[j]; p < Lp[j + 1]; p++)
            x[Li[p]] -= Lx[p] * xj;
    }
    for (int j = 0; j < n; j++)
        x[j] /= D[j];
    for (int j = n - 1; j >= 0; j--) {
        double xj = x[j];
        for (int p = Lp[j]; p < Lp[j + 1]; p++)
            xj -= Lx[p] * x[Li[p]];
        x[j] = xj;
    }
}
