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
 * NaN pivot fails the factorization.
 *
 * The IPM's calls take its solve's context, struct ipm_context, and only
 * the vectors and scalars that change per call: kkt_solve, the refined KKT
 * solve, and kkt_direction, a Newton direction; ipm_factor, K factored at
 * the iterate's NT scaling; ipm_residuals; and each iteration's three
 * calls, ipm_predictor, ipm_corrector (with sigma and mu) and ipm_advance
 * (with the step pair), which moves the iterate and evaluates the
 * residuals there. They compose the cone algebra of cones.c and
 * ldl_factor in the order the IPM's Python loop called them, each adding
 * its terms in the order of the numpy and scipy code it replaced and
 * taking Python's min and max where that code did, so that the iterates
 * are that code's to the bit: a CSR product adds each row's terms from 0.0
 * in stored order (scipy's csr_matvec), a product with a transpose each
 * column's in ascending row order (csr_matvec of scipy's CSR transpose),
 * and an infinity norm is NaN if an entry is NaN, as numpy's maximum is.
 * The dot products between the calls stay the caller's (numpy's). */

#include <math.h>
#include <stddef.h>

/* cones.c: W (lam \ v), the cone rows of a direction's right-hand side,
 * and the cone algebra ipm_predictor and ipm_corrector compose. */
void cone_rhs(int n_nn, int n_soc, int d, const double *lam,
              const double *lam_norm_sq, const double *w_nn, const double *W,
              const double *v, double *out);
void cone_points(int k, int n_nn, int n_soc, int d, const double *u,
                 double *norm_sq, double *norm, double *bar, double *worst);
void cone_max_steps(int k, int n_nn, int n_soc, int d, const double *u,
                    const double *norm, const double *bar, const double *du,
                    double *alpha);
void cone_nt_scaling(int n_nn, int n_soc, int d, const double *u,
                     const double *norm, const double *bar, double *w_nn,
                     double *W, double *Winv, double *W2, double *lam);
void cone_product(int n_nn, int n_soc, int d, const double *u,
                  const double *v, double *out);
void cone_scaled_product(int n_nn, int n_soc, int d, const double *w_nn,
                         const double *W, const double *Winv, const double *u,
                         const double *v, double *out);
void cone_clip_eigenvalues(int n_nn, int n_soc, int d, double lo, double hi,
                           const double *v, double *out);
void cone_w2_scatter(int n_nn, int n_soc, int d, double reg,
                     const double *w_nn, const double *W2, const int *slots,
                     double *Kx);

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

/* |v|_inf, NaN if an entry is NaN, 0 for n = 0. */
static double norm_inf(int n, const double *v)
{
    double m = 0.0;
    for (int i = 0; i < n; i++) {
        double a = fabs(v[i]);
        if (a > m || a != a)
            m = a;
    }
    return m;
}

/* The context of one IPM solve (ipm._Session fills it, once): its sizes,
 * its constants and every array its calls read or write, so that each call
 * takes its address and at most the vectors or scalars that change per
 * call. The KKT system has n = nx + me + mi rows: the program's nx
 * variables, me equality rows and mi = n_nn + n_soc d cone rows, n_soc SOC
 * blocks of dimension d. ldl.IpmContext mirrors it, field for field. */
struct ipm_context {
    int n, nx, me, n_nn, n_soc, d;
    /* kkt_solve's refinement: at most steps steps; a direction's to tol. */
    int steps;
    double tol;
    /* The static regularization of -(W^2 + reg I). */
    double reg;
    /* The step pair (step_pair) and the Gondzio rounds (ipm_corrector). */
    int common, rounds;
    double damping, enough, stretch, lift, lo, hi, mu_floor, gain;
    /* K's upper triangle in K's ordering (Kp, Ki, Kx), the signed
     * regularization reg_sign (n) that K less diag(reg_sign) is the
     * unregularized matrix by, and ldl_factor's Lp, Rp, Ri, Li, Lx, D and
     * iwork (n ints); K's row i is row order[i] of the system; work holds
     * 6n doubles; -(W^2 + reg I) goes to Kx at w2_slots. */
    const int *Kp, *Ki;
    double *Kx;
    const double *reg_sign;
    const int *Lp, *Rp, *Ri;
    int *Li;
    double *Lx, *D;
    int *iwork;
    const int *order, *w2_slots;
    double *work;
    /* The program: its CSR matrices P (nx x nx), A (me x nx) and G
     * (mi x nx), and c, b and h. */
    const int *Pp, *Pi, *Ap, *Ai, *Gp, *Gi;
    const double *Pv, *Av, *Gv, *c, *b, *h;
    /* ipm_residuals' results: Px (nx), r_dual (nx), r_eq (me), r_ineq
     * (mi), norms (3); rwork holds 2 nx doubles. */
    double *Px, *r_dual, *r_eq, *r_ineq, *norms, *rwork;
    /* ipm_factor's results: the cone data of s, z and lam (u (2 mi),
     * norm_sq and norm (3 n_soc), bar (3 n_soc d), worst (3)), the NT
     * scaling (w_nn (n_nn), W (3 n_soc d d)) and lam and lam o lam (lam
     * (2 mi)); ipm_predictor's: the affine direction (sol_a (n), ds_a
     * (mi)) and the trial points (trial_s and trial_z, mi each). */
    double *u, *norm_sq, *norm, *bar, *worst, *w_nn, *W, *lam;
    double *sol_a, *ds_a, *trial_s, *trial_z;
    /* ipm_corrector's results: its direction (sol (n), ds (mi)) and step
     * pair (alpha, 2); cwork holds 2n + 8 mi doubles. */
    double *sol, *ds, *alpha, *cwork;
    /* The iterate, which ipm_advance moves: x (nx), y (me), z and s (mi
     * each). */
    double *x, *y, *z, *s;
};

/* sizeof(struct ipm_context), which a test holds ldl.IpmContext to. */
int ipm_context_size(void)
{
    return (int)sizeof(struct ipm_context);
}

/* r = b - (K x - reg_sign o x), K less diag(reg_sign) being the
 * unregularized matrix; returns |r|_inf. */
static double kkt_residual(const struct ipm_context *c, const double *b,
                           const double *x, double *r)
{
    ldl_symv(c->n, c->Kp, c->Ki, c->Kx, x, r);
    for (int i = 0; i < c->n; i++)
        r[i] = b[i] - (r[i] - c->reg_sign[i] * x[i]);
    return norm_inf(c->n, r);
}

/* Solve K x = rhs with K's factors, in K's ordering: rhs and sol are in
 * the system's order. The solve is refined against K less diag(reg_sign)
 * while the residual is above tol max(1, |rhs|_inf) and each step lowers
 * it, at most steps times; a step that does not lower it is dropped and
 * ends the refinement. It uses the first 5n doubles of work. Returns the
 * number of LDL' solves. */
int kkt_solve(const struct ipm_context *c, double tol, const double *rhs,
              double *sol)
{
    const int n = c->n;
    double *b = c->work, *x = b + n, *r = x + n, *t = r + n, *rt = t + n;
    for (int i = 0; i < n; i++)
        x[i] = b[i] = rhs[c->order[i]];
    ldl_solve(n, c->Lp, c->Li, c->Lx, c->D, x);
    int solves = 1;
    double scale = norm_inf(n, b);
    double target = tol * (scale > 1.0 ? scale : 1.0);
    /* No residual is above a target of +inf (the cold start's tol) or NaN,
     * so none is formed. */
    double size = target < INFINITY ? kkt_residual(c, b, x, r) : 0.0;
    for (int k = 0; k < c->steps && size > target; k++) {
        for (int i = 0; i < n; i++)
            t[i] = r[i];
        ldl_solve(n, c->Lp, c->Li, c->Lx, c->D, t);
        solves++;
        for (int i = 0; i < n; i++)
            t[i] = x[i] + t[i];
        double refined = kkt_residual(c, b, t, rt);
        if (!(refined < size))
            break;
        double *swap = x;
        x = t;
        t = swap;
        swap = r;
        r = rt;
        rt = swap;
        size = refined;
    }
    for (int i = 0; i < n; i++)
        sol[c->order[i]] = x[i];
    return solves;
}

/* y = M x for the rows x m CSR matrix M = (Mp, Mi, Mx). */
static void csr_matvec(int rows, const int *Mp, const int *Mi,
                       const double *Mx, const double *x, double *y)
{
    for (int i = 0; i < rows; i++) {
        double sum = 0.0;
        for (int p = Mp[i]; p < Mp[i + 1]; p++)
            sum += Mx[p] * x[Mi[p]];
        y[i] = sum;
    }
}

/* y = M' x for the rows x cols CSR matrix M = (Mp, Mi, Mx). */
static void csr_matvec_t(int rows, int cols, const int *Mp, const int *Mi,
                         const double *Mx, const double *x, double *y)
{
    for (int j = 0; j < cols; j++)
        y[j] = 0.0;
    for (int i = 0; i < rows; i++)
        for (int p = Mp[i]; p < Mp[i + 1]; p++)
            y[Mi[p]] += Mx[p] * x[i];
}

/* The Newton direction of the KKT system, factored at the context's NT
 * scaling: sol solves it for [-r_dual; -r_eq; -r_ineq + W (lam \ v)] to
 * tol (kkt_solve; the cone rows are cone_rhs's in cones.c, from lam, lam's
 * J-norm squares and the scaling), and ds = -r_ineq - G dx for its first
 * nx entries dx. The right-hand side goes to the last n doubles of work.
 * Returns the number of LDL' solves. */
int kkt_direction(const struct ipm_context *c, const double *r_dual,
                  const double *r_eq, const double *r_ineq, const double *v,
                  double *sol, double *ds)
{
    const int nx = c->nx, me = c->me, mi = c->n - nx - me;
    double *rhs = c->work + 5 * (ptrdiff_t)c->n, *cone = rhs + nx + me;
    for (int i = 0; i < nx; i++)
        rhs[i] = -r_dual[i];
    for (int i = 0; i < me; i++)
        rhs[nx + i] = -r_eq[i];
    cone_rhs(c->n_nn, c->n_soc, c->d, c->lam, c->norm_sq + 2 * c->n_soc,
             c->w_nn, c->W, v, cone);
    for (int i = 0; i < mi; i++)
        cone[i] = -r_ineq[i] + cone[i];
    int solves = kkt_solve(c, c->tol, rhs, sol);
    csr_matvec(mi, c->Gp, c->Gi, c->Gv, sol, ds);
    for (int i = 0; i < mi; i++)
        ds[i] = -r_ineq[i] - ds[i];
    return solves;
}

/* The KKT residuals at the context's iterate (x, y, z, s), from the
 * program's CSR matrices P, A and G: Px = P x, r_dual = P x + c + A'y +
 * G'z, r_eq = A x - b and r_ineq = G x + s - h, and norms = the infinity
 * norms of r_dual, r_eq and r_ineq. */
void ipm_residuals(struct ipm_context *c)
{
    const int nx = c->nx, me = c->me, mi = c->n - nx - me;
    double *ATy = c->rwork, *GTz = c->rwork + nx;
    csr_matvec(nx, c->Pp, c->Pi, c->Pv, c->x, c->Px);
    csr_matvec_t(me, nx, c->Ap, c->Ai, c->Av, c->y, ATy);
    csr_matvec_t(mi, nx, c->Gp, c->Gi, c->Gv, c->z, GTz);
    for (int j = 0; j < nx; j++)
        c->r_dual[j] = c->Px[j] + c->c[j] + ATy[j] + GTz[j];
    csr_matvec(me, c->Ap, c->Ai, c->Av, c->x, c->r_eq);
    for (int i = 0; i < me; i++)
        c->r_eq[i] = c->r_eq[i] - c->b[i];
    csr_matvec(mi, c->Gp, c->Gi, c->Gv, c->x, c->r_ineq);
    for (int i = 0; i < mi; i++)
        c->r_ineq[i] = c->r_ineq[i] + c->s[i] - c->h[i];
    c->norms[0] = norm_inf(nx, c->r_dual);
    c->norms[1] = norm_inf(me, c->r_eq);
    c->norms[2] = norm_inf(mi, c->r_ineq);
}

/* Python's min(a, b) and max(a, b): a, unless b compares below (above) it,
 * so that min(1.0, NaN) is 1.0 and max(NaN, 1.0) is NaN. */
static double py_min(double a, double b)
{
    return b < a ? b : a;
}

static double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* The steps alpha[0] of s along ds and alpha[1] of z along dz to the cone
 * boundary, from the cone data (norm, bar) of the stack u = (s, z): the
 * steps cone_max_steps gives the stacked pair. */
static void iterate_steps(const struct ipm_context *c, const double *ds,
                          const double *dz, double *alpha)
{
    const ptrdiff_t mi = c->n - c->nx - c->me;
    cone_max_steps(1, c->n_nn, c->n_soc, c->d, c->u, c->norm, c->bar, ds,
                   alpha);
    cone_max_steps(1, c->n_nn, c->n_soc, c->d, c->u + mi, c->norm + c->n_soc,
                   c->bar + (ptrdiff_t)c->n_soc * c->d, dz, alpha + 1);
}

/* The damped step pair along (ds, dz): min(1, damping alpha) for each of
 * iterate_steps' alpha, and the smaller of the two for both when common
 * (with a quadratic objective, whose P dx couples the dual equation to
 * the primal step). */
static void step_pair(const struct ipm_context *c, const double *ds,
                      const double *dz, double *ap, double *ad)
{
    double alpha[2];
    iterate_steps(c, ds, dz, alpha);
    *ap = py_min(1.0, c->damping * alpha[0]);
    *ad = py_min(1.0, c->damping * alpha[1]);
    if (c->common)
        *ap = *ad = py_min(*ap, *ad);
}

/* K factored at the NT scaling of the context's (s, z). In order: the cone
 * data of the stack u = (s, z) (cone_points' norm_sq, norm, bar and worst,
 * rows 0 and 1) and the interior test; the NT scaling (w_nn, and W, W^{-1}
 * and W^2 in the (3, n_soc, d, d) stack W), lam and lam o lam (the
 * (2, mi) stack lam) and lam's cone data (row 2 of norm_sq, norm and bar,
 * worst[2]); -(W^2 + reg I) written into Kx at w2_slots (cone_w2_scatter)
 * and the LDL' factorization (ldl_factor, on the row patterns Rp and Ri).
 * Returns 0, -1 if s or z is not inside the cones, or -2 at a NaN
 * pivot. */
int ipm_factor(struct ipm_context *c)
{
    const int n_nn = c->n_nn, n_soc = c->n_soc, d = c->d;
    const ptrdiff_t mi = c->n - c->nx - c->me;
    const ptrdiff_t dd = (ptrdiff_t)n_soc * d * d, nb = (ptrdiff_t)n_soc * d;
    double *u = c->u, *lam = c->lam;
    for (ptrdiff_t i = 0; i < mi; i++) {
        u[i] = c->s[i];
        u[mi + i] = c->z[i];
    }
    cone_points(2, n_nn, n_soc, d, u, c->norm_sq, c->norm, c->bar,
                c->worst);
    if (c->worst[0] >= 0.0 || c->worst[1] >= 0.0)
        return -1;
    cone_nt_scaling(n_nn, n_soc, d, u, c->norm, c->bar, c->w_nn, c->W,
                    c->W + dd, c->W + 2 * dd, lam);
    cone_points(1, n_nn, n_soc, d, lam, c->norm_sq + 2 * n_soc,
                c->norm + 2 * n_soc, c->bar + 2 * nb, c->worst + 2);
    cone_product(n_nn, n_soc, d, lam, lam, lam + mi);
    cone_w2_scatter(n_nn, n_soc, d, c->reg, c->w_nn, c->W + 2 * dd,
                    c->w2_slots, c->Kx);
    if (ldl_factor(c->n, c->Kp, c->Ki, c->Kx, c->reg_sign, c->Lp, c->Rp,
                   c->Ri, c->Li, c->Lx, c->D, c->iwork, c->work) < 0)
        return -2;
    return 0;
}

/* The predictor of an IPM iteration at the context's (s, z), with the
 * residuals of ipm_residuals: ipm_factor, then the affine direction
 * (sol_a, ds_a) for v = lam o lam, and the trial points trial_s = s + a_s
 * ds_a and trial_z = z + a_z dz_a, each a = min(1, the step to the cone
 * boundary). Returns the number of LDL' solves, or ipm_factor's -1 or
 * -2. */
int ipm_predictor(struct ipm_context *c)
{
    int code = ipm_factor(c);
    if (code < 0)
        return code;
    const ptrdiff_t mi = c->n - c->nx - c->me;
    int solves = kkt_direction(c, c->r_dual, c->r_eq, c->r_ineq, c->lam + mi,
                               c->sol_a, c->ds_a);
    const double *ds = c->ds_a, *dz = c->sol_a + c->nx + c->me;
    double alpha[2];
    iterate_steps(c, ds, dz, alpha);
    double a_s = py_min(1.0, alpha[0]), a_z = py_min(1.0, alpha[1]);
    for (ptrdiff_t i = 0; i < mi; i++) {
        c->trial_s[i] = c->s[i] + a_s * ds[i];
        c->trial_z[i] = c->z[i] + a_z * dz[i];
    }
    return solves;
}

/* The corrector of the IPM iteration ipm_predictor took, at sigma and mu:
 * the direction (sol, ds) for v = lam o lam - sigma mu e + (W^{-1} ds_a) o
 * (W dz_a), e the identity, and its step pair alpha (step_pair). Then up
 * to rounds Gondzio centrality correctors (Gondzio, Comput. Optim. Appl.
 * 6(2), 1996), while min(alpha) <= enough: at the trial point (s + t_p ds,
 * z + t_d dz), each t = min(1, stretch alpha + lift), its scaled products
 * v_t = (W^{-1} s_t) o (W z_t) with their eigenvalues clipped to [lo, hi]
 * mu_t, mu_t = max(sigma mu, mu_floor mu), give the direction with zero
 * residuals for v_t - clip(v_t); it is added to (sol, ds) if it lengthens
 * min(alpha) by more than the factor gain, and else ends the rounds.
 * Returns the number of LDL' solves. */
int ipm_corrector(struct ipm_context *c, double sigma, double mu)
{
    const int n = c->n, n_nn = c->n_nn, n_soc = c->n_soc, d = c->d;
    const ptrdiff_t mi = n - c->nx - c->me, nz = c->nx + c->me;
    const double *W = c->W, *Winv = W + (ptrdiff_t)n_soc * d * d;
    const double *lam_sq = c->lam + mi, *u = c->u;
    double *v = c->cwork, *s_t = v + mi, *z_t = s_t + mi, *v_t = z_t + mi;
    double *dv = v_t + mi, *ds_c = dv + mi, *ds_sum = ds_c + mi;
    double *dz_sum = ds_sum + mi, *sol_c = dz_sum + mi, *zero = sol_c + n;
    double *sol = c->sol, *ds = c->ds, *dz = sol + nz;

    cone_scaled_product(n_nn, n_soc, d, c->w_nn, W, Winv, c->ds_a,
                        c->sol_a + nz, v);
    const double sigma_mu = sigma * mu;
    for (ptrdiff_t i = 0; i < mi; i++) {
        double e = i < n_nn || (i - n_nn) % d == 0 ? 1.0 : 0.0;
        v[i] = lam_sq[i] - sigma_mu * e + v[i];
    }
    int solves = kkt_direction(c, c->r_dual, c->r_eq, c->r_ineq, v, sol, ds);
    double ap, ad;
    step_pair(c, ds, dz, &ap, &ad);

    const double mu_t = py_max(sigma * mu, c->mu_floor * mu);
    for (int i = 0; i < n; i++)
        zero[i] = 0.0;
    for (int round = 0; round < c->rounds; round++) {
        if (py_min(ap, ad) > c->enough)
            break;
        double tp = py_min(1.0, c->stretch * ap + c->lift);
        double td = py_min(1.0, c->stretch * ad + c->lift);
        for (ptrdiff_t i = 0; i < mi; i++) {
            s_t[i] = u[i] + tp * ds[i];
            z_t[i] = u[mi + i] + td * dz[i];
        }
        cone_scaled_product(n_nn, n_soc, d, c->w_nn, W, Winv, s_t, z_t, v_t);
        cone_clip_eigenvalues(n_nn, n_soc, d, c->lo * mu_t, c->hi * mu_t,
                              v_t, dv);
        for (ptrdiff_t i = 0; i < mi; i++)
            dv[i] = v_t[i] - dv[i];
        solves += kkt_direction(c, zero, zero, zero, dv, sol_c, ds_c);
        for (ptrdiff_t i = 0; i < mi; i++) {
            ds_sum[i] = ds[i] + ds_c[i];
            dz_sum[i] = dz[i] + sol_c[nz + i];
        }
        double ap_new, ad_new;
        step_pair(c, ds_sum, dz_sum, &ap_new, &ad_new);
        if (py_min(ap_new, ad_new) <= py_min(ap, ad) * c->gain)
            break;
        for (int i = 0; i < n; i++)
            sol[i] = sol[i] + sol_c[i];
        for (ptrdiff_t i = 0; i < mi; i++)
            ds[i] = ds_sum[i];
        ap = ap_new;
        ad = ad_new;
    }
    c->alpha[0] = ap;
    c->alpha[1] = ad;
    return solves;
}

/* The step to the next iterate along the corrector's direction (dx, dy,
 * dz) = sol and ds, in place: x + alpha_p dx, s + alpha_p ds, y + alpha_d
 * dy and z + alpha_d dz, each entry the product and then the sum, as numpy
 * forms x + alpha * dx; then the residuals there (ipm_residuals). */
void ipm_advance(struct ipm_context *c, double alpha_p, double alpha_d)
{
    const int nx = c->nx, me = c->me, mi = c->n - nx - me;
    const double *dx = c->sol, *dy = dx + nx, *dz = dy + me;
    for (int i = 0; i < nx; i++)
        c->x[i] = c->x[i] + alpha_p * dx[i];
    for (int i = 0; i < mi; i++)
        c->s[i] = c->s[i] + alpha_p * c->ds[i];
    for (int i = 0; i < me; i++)
        c->y[i] = c->y[i] + alpha_d * dy[i];
    for (int i = 0; i < mi; i++)
        c->z[i] = c->z[i] + alpha_d * dz[i];
    ipm_residuals(c);
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
