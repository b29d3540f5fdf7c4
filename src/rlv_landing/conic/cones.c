/* The IPM's cone algebra over the layout of cones.py: n_nn orthant rows,
 * then n_soc second-order cone blocks of dimension d >= 2, each block's
 * head u_0 before its tail u_1. A stack of k points is k such vectors, one
 * after another, and a block's W is a d x d row-major matrix.
 *
 * Each formula adds its terms in the order numpy adds them in the numpy
 * formula it replaces, so that the results are numpy's to the bit
 * (numpy 2.4.6): a sum over a block, and each entry of W^2 = W W, from 0.0
 * in index order; a product W u as einsum("nij,nj->ni") adds it, in two
 * interleaved lanes, (p_0 + p_2 + ...) + (p_1 + p_3 + ...), for d <= 7.
 * A minimum or maximum is NaN if a term is NaN, as numpy's are; which of
 * two tied zeros of opposite sign it returns may differ from numpy's.
 * The caller checks every array's length. The vectors a function keeps
 * on the stack are d long, against the d x d doubles of a block's W.
 * cone_w2_scatter writes the NT scaling's -(W^2 + reg I) into the values
 * of the IPM's KKT upper triangle. */

#include <math.h>
#include <stddef.h>

/* numpy's minimum and maximum: NaN if either is NaN. */
static double min_nan(double a, double b)
{
    return (b < a || b != b) ? b : a;
}

static double max_nan(double a, double b)
{
    return (b > a || b != b) ? b : a;
}

/* numpy's clip: NaN if x or a bound is NaN, and x where it ties a bound. */
static double clip(double x, double lo, double hi)
{
    double t = (x < lo || lo != lo) ? lo : x;
    return (t > hi || hi != hi) ? hi : t;
}

/* out = W u for one block, in einsum's two lanes. */
static void block_apply(int d, const double *W, const double *u, double *out)
{
    for (int i = 0; i < d; i++, W += d) {
        double lane[2] = {0.0, 0.0};
        for (int j = 0; j < d; j++)
            lane[j & 1] += W[j] * u[j];
        out[i] = lane[0] + lane[1];
    }
}

/* The cone data of k points u: each block's J-norm square u_0^2 - ||u_1||^2
 * (norm_sq), its J-norm floored at 1e-150 (norm) and the block divided by
 * it (bar), and each point's violation (worst): the largest of -u over the
 * orthant rows and ||u_1|| - u_0 over the blocks, as Python's max takes
 * it, in which a NaN loses. */
void cone_points(int k, int n_nn, int n_soc, int d, const double *u,
                 double *norm_sq, double *norm, double *bar, double *worst)
{
    const ptrdiff_t dim = n_nn + (ptrdiff_t)n_soc * d;
    for (int p = 0; p < k; p++, u += dim) {
        double lowest = INFINITY, margin = -INFINITY;
        for (int i = 0; i < n_nn; i++)
            lowest = min_nan(lowest, u[i]);
        for (int b = 0; b < n_soc; b++, norm_sq++, norm++) {
            const double *ub = u + n_nn + (ptrdiff_t)b * d;
            double tail = 0.0;
            for (int j = 1; j < d; j++)
                tail += ub[j] * ub[j];
            double ns = ub[0] * ub[0] - tail;
            double r = sqrt(max_nan(ns, 1e-300));
            *norm_sq = ns;
            *norm = r;
            for (int j = 0; j < d; j++)
                *bar++ = ub[j] / r;
            margin = max_nan(margin, sqrt(tail) - ub[0]);
        }
        double w = -INFINITY;
        if (-lowest > w)
            w = -lowest;
        if (margin > w)
            w = margin;
        worst[p] = w;
    }
}

/* For each of k points u (with norm and bar from cone_points) and its
 * direction du, the largest alpha with u + alpha du in the cones. An
 * orthant row bounds alpha by -u / du where du < 0. An SOC block is taken
 * to the identity by the Lorentz transform of its bar; its transformed
 * direction rho bounds alpha by 1 / (||rho_1|| - rho_0) where that is
 * positive. The blocks' largest ||rho_1|| - rho_0 meets the orthant's
 * bound as Python's min would: a NaN loses. */
void cone_max_steps(int k, int n_nn, int n_soc, int d, const double *u,
                    const double *norm, const double *bar, const double *du,
                    double *alpha)
{
    const ptrdiff_t dim = n_nn + (ptrdiff_t)n_soc * d;
    for (int p = 0; p < k; p++, u += dim, du += dim) {
        double a = INFINITY, worst = -INFINITY;
        for (int i = 0; i < n_nn; i++)
            if (du[i] < 0.0)
                a = min_nan(a, -u[i] / du[i]);
        for (int b = 0; b < n_soc; b++, norm++, bar += d) {
            const double *db = du + n_nn + (ptrdiff_t)b * d;
            double r = *norm, dot = 0.0, tail = 0.0;
            for (int j = 1; j < d; j++)
                dot += bar[j] * (db[j] / r);
            double d0 = db[0] / r;
            double rho0 = bar[0] * d0 - dot;
            double c = (rho0 + d0) / (bar[0] + 1.0);
            for (int j = 1; j < d; j++) {
                double rho = db[j] / r - bar[j] * c;
                tail += rho * rho;
            }
            worst = max_nan(worst, sqrt(tail) - rho0);
        }
        if (worst > 0.0 && 1.0 / worst < a)
            a = 1.0 / worst;
        alpha[p] = a;
    }
}

/* The Nesterov-Todd scaling of the pair u = (s, z), with norm and bar from
 * cone_points: w_nn = sqrt(s / z) on the orthant rows, and on each block
 * W = eta Wbar, Wbar = [[w_0, w_1'], [w_1, I + w_1 w_1' / (1 + w_0)]] for
 * the hyperbolic unit w = (s_bar + J z_bar) / (2 gamma), eta =
 * sqrt(||s|| / ||z||) in J-norms; W^{-1} = J Wbar J / eta and W^2 = W W.
 * lam = W z. */
void cone_nt_scaling(int n_nn, int n_soc, int d, const double *u,
                     const double *norm, const double *bar, double *w_nn,
                     double *W, double *Winv, double *W2, double *lam)
{
    const ptrdiff_t dim = n_nn + (ptrdiff_t)n_soc * d, dd = (ptrdiff_t)d * d;
    const double *s = u, *z = u + dim;
    for (int i = 0; i < n_nn; i++) {
        w_nn[i] = sqrt(s[i] / z[i]);
        lam[i] = w_nn[i] * z[i];
    }
    for (int b = 0; b < n_soc; b++, W += dd, Winv += dd, W2 += dd) {
        const double *sb = bar + (ptrdiff_t)b * d;
        const double *zb = bar + ((ptrdiff_t)n_soc + b) * d;
        double w[d], dot = 0.0;
        for (int j = 0; j < d; j++)
            dot += sb[j] * zb[j];
        double gamma = sqrt((1.0 + dot) / 2.0);
        w[0] = (sb[0] + zb[0]) / (2 * gamma);
        for (int j = 1; j < d; j++)
            w[j] = (sb[j] - zb[j]) / (2 * gamma);
        double eta = sqrt(norm[b] / norm[n_soc + b]);
        for (int i = 0; i < d; i++)
            for (int j = 0; j < d; j++) {
                double wb = i == 0 ? w[j] : j == 0 ? w[i]
                    : (i == j ? 1.0 : 0.0) + w[i] * w[j] / (1.0 + w[0]);
                W[i * d + j] = eta * wb;
                Winv[i * d + j] = ((i == 0) != (j == 0) ? -wb : wb) / eta;
            }
        for (int i = 0; i < d; i++)
            for (int j = 0; j < d; j++) {
                double sum = 0.0;
                for (int l = 0; l < d; l++)
                    sum += W[i * d + l] * W[l * d + j];
                W2[i * d + j] = sum;
            }
        const ptrdiff_t at = n_nn + (ptrdiff_t)b * d;
        block_apply(d, W, z + at, lam + at);
    }
}

/* W (lam \ v): the cone rows of a direction's right-hand side, with
 * lam o x = v solved blockwise from lam and its J-norm squares. */
void cone_rhs(int n_nn, int n_soc, int d, const double *lam,
              const double *lam_norm_sq, const double *w_nn, const double *W,
              const double *v, double *out)
{
    for (int i = 0; i < n_nn; i++)
        out[i] = w_nn[i] * (v[i] / lam[i]);
    for (int b = 0; b < n_soc; b++, W += (ptrdiff_t)d * d) {
        const ptrdiff_t at = n_nn + (ptrdiff_t)b * d;
        const double *lb = lam + at, *vb = v + at;
        double x[d], dot = 0.0;
        for (int j = 1; j < d; j++)
            dot += lb[j] * vb[j];
        x[0] = (lb[0] * vb[0] - dot) / lam_norm_sq[b];
        for (int j = 1; j < d; j++)
            x[j] = (vb[j] - x[0] * lb[j]) / lb[0];
        block_apply(d, W, x, out + at);
    }
}

/* The Jordan product of one block: (u'v, u_0 v_1 + v_0 u_1). */
static void block_product(int d, const double *u, const double *v,
                          double *out)
{
    double dot = 0.0;
    for (int j = 0; j < d; j++)
        dot += u[j] * v[j];
    out[0] = dot;
    for (int j = 1; j < d; j++)
        out[j] = u[0] * v[j] + v[0] * u[j];
}

/* The Jordan product u o v. */
void cone_product(int n_nn, int n_soc, int d, const double *u,
                  const double *v, double *out)
{
    for (int i = 0; i < n_nn; i++)
        out[i] = u[i] * v[i];
    for (ptrdiff_t at = n_nn; at < n_nn + (ptrdiff_t)n_soc * d; at += d)
        block_product(d, u + at, v + at, out + at);
}

/* (W^{-1} u) o (W v). */
void cone_scaled_product(int n_nn, int n_soc, int d, const double *w_nn,
                         const double *W, const double *Winv, const double *u,
                         const double *v, double *out)
{
    const ptrdiff_t dd = (ptrdiff_t)d * d;
    for (int i = 0; i < n_nn; i++)
        out[i] = (u[i] / w_nn[i]) * (w_nn[i] * v[i]);
    for (int b = 0; b < n_soc; b++, W += dd, Winv += dd) {
        const ptrdiff_t at = n_nn + (ptrdiff_t)b * d;
        double wu[d], wv[d];
        block_apply(d, Winv, u + at, wu);
        block_apply(d, W, v + at, wv);
        block_product(d, wu, wv, out + at);
    }
}

/* v with its spectral values clipped to [lo, hi]: each orthant row, and
 * each block's two Jordan eigenvalues v_0 +/- ||v_1||, reassembled along
 * v_1 / ||v_1|| (zero where ||v_1|| <= 1e-300). */
void cone_clip_eigenvalues(int n_nn, int n_soc, int d, double lo, double hi,
                           const double *v, double *out)
{
    for (int i = 0; i < n_nn; i++)
        out[i] = clip(v[i], lo, hi);
    for (ptrdiff_t at = n_nn; at < n_nn + (ptrdiff_t)n_soc * d; at += d) {
        const double *vb = v + at;
        double tail = 0.0;
        for (int j = 1; j < d; j++)
            tail += vb[j] * vb[j];
        double nv = sqrt(tail);
        double e1 = clip(vb[0] + nv, lo, hi), e2 = clip(vb[0] - nv, lo, hi);
        double half = 0.5 * (e1 - e2);
        out[at] = 0.5 * (e1 + e2);
        for (int j = 1; j < d; j++)
            out[at + j] = half * (nv > 1e-300 ? vb[j] / nv : 0.0);
    }
}

/* -(W^2 + reg I), written into the values Kx of a KKT matrix's upper
 * triangle at slots, in the order of the orthant diagonal
 * -(w_nn^2 + reg), then each block's upper triangle row by row, reg added
 * on the diagonal. W^2 is symmetric to the bit (cone_nt_scaling adds the
 * same products in the same order for W2[i][j] and W2[j][i]), so its upper
 * triangle is all of it. */
void cone_w2_scatter(int n_nn, int n_soc, int d, double reg,
                     const double *w_nn, const double *W2, const int *slots,
                     double *Kx)
{
    for (int i = 0; i < n_nn; i++)
        Kx[*slots++] = -(w_nn[i] * w_nn[i] + reg);
    for (int b = 0; b < n_soc; b++, W2 += (ptrdiff_t)d * d)
        for (int i = 0; i < d; i++)
            for (int j = i; j < d; j++)
                Kx[*slots++] = i == j ? -(W2[i * d + j] + reg)
                                      : -W2[i * d + j];
}
