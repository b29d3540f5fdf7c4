/* Sparse LDL' factorization of a symmetric matrix, up-looking, without
 * pivoting, in two passes. The symbolic pass runs once per pattern: the
 * elimination tree and column counts (ldl_etree), then the pattern of each
 * row of L in the order the numeric pass visits it (ldl_symbolic). The
 * numeric pass (ldl_factor) runs once per matrix and walks no tree: it
 * reads those patterns. Then triangular solves (ldl_solve). After Davis,
 * "Algorithm 849: a concise sparse Cholesky factorization package", ACM
 * TOMS 31(4), 2005, and QDLDL (Stellato et al., Math. Prog. Comp. 2020).
 *
 * The matrix A is given by its upper triangle, diagonal included, in CSC
 * form: the rows of column j are Ai[Ap[j] .. Ap[j+1]-1], each at most j,
 * ascending. It is the only copy of A: ldl_symv multiplies by the whole
 * symmetric matrix from it. L is unit lower triangular and stored by
 * columns without its diagonal: the rows of column j are
 * Li[Lp[j] .. Lp[j+1]-1], in ascending order. csc_pattern forms a CSC
 * pattern from a list of entries. All indices are int; the caller checks
 * every array's length.
 *
 * A pivot that is exactly zero takes its row's static regularization, the
 * +-reg the caller added to the diagonal (QDLDL's and Clarabel's rule), so
 * one factorization serves every quasi-definite matrix: the IPM's KKT
 * systems and the SCP projection's. SuperLU in natural order, pivoting off
 * the diagonal, rescued such pivots before; it fired on none of 642 corpus
 * plans (three workloads, seeds 41-43 and the reference sets) and 27 times
 * in the tests, 24 of them in the warm-start Hypothesis examples and one in
 * a test built to reach it. Those tests pass with the regularized pivot. A
 * NaN pivot fails the factorization. */

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

/* The pattern of each row k of L: its columns Ri[Rp[k] .. Rp[k+1]-1], the
 * tree paths from the rows of column k of A in topological order. iwork
 * holds 2n ints. */
void ldl_symbolic(int n, const int *Ap, const int *Ai, const int *parent,
                  int *Rp, int *Ri, int *iwork)
{
    int *flag = iwork, *pattern = iwork + n;
    int t = 0;

    for (int k = 0; k < n; k++) {
        int top = n;
        flag[k] = k;
        for (int p = Ap[k]; p < Ap[k + 1]; p++) {
            int i = Ai[p], len = 0;
            for (; flag[i] != k; i = parent[i]) {
                pattern[len++] = i;
                flag[i] = k;
            }
            while (len > 0)
                pattern[--top] = pattern[--len];
        }
        Rp[k] = t;
        while (top < n)
            Ri[t++] = pattern[top++];
    }
    Rp[n] = t;
}

/* The numeric factorization A = L D L', with Lp from ldl_etree's column
 * counts and the row patterns from ldl_symbolic. A pivot that is exactly
 * zero takes its row's static regularization reg[k] instead, as QDLDL and
 * Clarabel regularize: L D L' is then A + (reg[k] e_k e_k' at each such k),
 * which refinement against A corrects. iwork holds n ints and work n
 * doubles. Returns the number of positive pivots, or -1 at a pivot that is
 * NaN (or zero with a zero reg[k]). */
int ldl_factor(int n, const int *Ap, const int *Ai, const double *Ax,
               const double *reg, const int *Lp, const int *Rp,
               const int *Ri, int *Li, double *Lx, double *D, int *iwork,
               double *work)
{
    int *filled = iwork;
    double *y = work;
    int positive = 0;

    for (int k = 0; k < n; k++) {
        y[k] = 0.0;
        filled[k] = 0;
    }
    for (int k = 0; k < n; k++) {
        /* Scatter column k of the upper triangle into y, then solve
         * L(0:k-1, 0:k-1) D l = y for row k of L, and take the pivot
         * D[k]. */
        for (int p = Ap[k]; p < Ap[k + 1]; p++)
            y[Ai[p]] += Ax[p];
        double d = y[k];
        y[k] = 0.0;
        for (int t = Rp[k]; t < Rp[k + 1]; t++) {
            int i = Ri[t], end = Lp[i] + filled[i]++;
            double yi = y[i];
            y[i] = 0.0;
            for (int p = Lp[i]; p < end; p++)
                y[Li[p]] -= Lx[p] * yi;
            double lki = yi / D[i];
            d -= lki * yi;
            Li[end] = k;
            Lx[end] = lki;
        }
        if (d == 0.0)
            d = reg[k];
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

/* y = A x for the symmetric A whose upper triangle is (Ap, Ai, Ax). Each
 * y[i] adds its terms A[i][j] x[j] from 0.0 in ascending j, as a CSC
 * product of the whole matrix adds them (scipy's csc_matvec): column j's
 * entries above the diagonal give y[j] its terms j' < j in ascending j',
 * then its diagonal, and later columns its terms j' > j. */
void ldl_symv(int n, const int *Ap, const int *Ai, const double *Ax,
              const double *x, double *y)
{
    for (int j = 0; j < n; j++)
        y[j] = 0.0;
    for (int j = 0; j < n; j++) {
        double xj = x[j];
        for (int p = Ap[j]; p < Ap[j + 1]; p++) {
            int i = Ai[p];
            y[i] += Ax[p] * xj;
            if (i != j)
                y[j] += Ax[p] * x[i];
        }
    }
}

/* The CSC pattern of an n x n matrix of m entries, entry e at row rows[e]
 * and column cols[e], by a counting sort by row and then a stable one by
 * column: rows ascending within each column, a repeated entry stored once,
 * and slots[e] the stored entry of e. Returns the number of stored
 * entries. work holds n + m ints. */
int csc_pattern(int n, int m, const int *rows, const int *cols, int *indptr,
                int *indices, int *slots, int *work)
{
    int *count = work, *by_col = work + n;

    /* By row into slots, then by column into by_col. */
    for (int i = 0; i < n; i++)
        count[i] = 0;
    for (int e = 0; e < m; e++)
        count[rows[e]]++;
    for (int i = 0, sum = 0; i < n; i++) {
        int c = count[i];
        count[i] = sum;
        sum += c;
    }
    for (int e = 0; e < m; e++)
        slots[count[rows[e]]++] = e;
    for (int j = 0; j < n; j++)
        count[j] = 0;
    for (int e = 0; e < m; e++)
        count[cols[e]]++;
    for (int j = 0, sum = 0; j < n; j++) {
        int c = count[j];
        count[j] = sum;
        sum += c;
    }
    for (int q = 0; q < m; q++) {
        int e = slots[q];
        by_col[count[cols[e]]++] = e;
    }

    /* Each column's run of entries, rows ascending; count[j] is now
     * where column j + 1's run starts. */
    int stored = 0;
    indptr[0] = 0;
    for (int j = 0, q = 0; j < n; j++) {
        int last = -1;
        for (; q < count[j]; q++) {
            int e = by_col[q], i = rows[e];
            if (i != last)
                indices[stored++] = last = i;
            slots[e] = stored - 1;
        }
        indptr[j + 1] = stored;
    }
    return stored;
}
