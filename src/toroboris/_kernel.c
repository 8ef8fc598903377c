/* Compiled loops for the closed-form toroidal field family
 *
 *     b = a0 + a1 r + a2 z^2,   E_r = c_e z,   E_z = c_e r.
 *
 * toroboris_two_step_loop is transcribed line for line from
 * boris._generic_loop with the field arithmetic of ToroidalFieldModel.bemod
 * inlined; toroboris_drift_rk4 from drift._rk4_loop with the profile
 * methods of ToroidalFieldModel inlined.  Every expression keeps the operand
 * order of the Python source, and the build flags forbid contraction and
 * fast-math, so both paths produce bitwise equal output.
 *
 * toroboris_format_rows, at the end, writes CSV rows of the bytes that
 * cli._python_rows writes.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { STATUS_OK = 0, STATUS_AXIS = 1, STATUS_DOMAIN = 2, STATUS_RUNAWAY = 3 };

/* Step i advances (x^i, d^i) to (x^{i+1}, d^{i+1}); the centered velocity
 * (d^i + d^{i+1}) / (2h) is recorded whenever i is a multiple of
 * sample_every.  Sample row 0 is filled by the caller.  Returns the status
 * code and stores (rows_written, steps_completed) in result.
 */
int toroboris_two_step_loop(
    int64_t n_steps, int64_t sample_every, double h, double eps, double mu0,
    double a0, double a1, double a2, double c_e, double r_min, double b_min,
    double v_max, const double *x_arr, const double *d_arr, double *out_t,
    double *out_x, double *out_v, int64_t *result)
{
    double x1 = x_arr[0], x2 = x_arr[1], x3 = x_arr[2];
    double d1 = d_arr[0], d2 = d_arr[1], d3 = d_arr[2];
    double half_h = 0.5 * h;
    double h2 = h * h;
    double inv_2h = 1.0 / (2.0 * h);
    double inv_eps = 1.0 / eps;
    double bound = fabs(h) * v_max;
    int64_t k = 1;
    for (int64_t i = 1; i <= n_steps; i++) {
        double r = sqrt(x1 * x1 + x2 * x2);
        if (r < r_min) {
            result[0] = k;
            result[1] = i - 1;
            return STATUS_AXIS;
        }
        double z = x3;
        double inv_r = 1.0 / r;
        double er1 = x1 * inv_r;
        double er2 = x2 * inv_r;
        double bb = a0 + a1 * r + a2 * z * z;
        if (bb <= b_min) {
            result[0] = k;
            result[1] = i - 1;
            return STATUS_DOMAIN;
        }
        double scale = bb * inv_eps;
        double em_r = c_e * z - a1 * inv_eps * mu0;
        double em_z = c_e * r - 2.0 * a2 * z * inv_eps * mu0;
        double B1 = -scale * er2;
        double B2 = scale * er1;
        double B3 = 0.0;
        double em1 = em_r * er1;
        double em2 = em_r * er2;
        double em3 = em_z;
        double cx1 = half_h * B1;
        double cx2 = half_h * B2;
        double cx3 = half_h * B3;
        double q1 = d2 * B3 - d3 * B2;
        double q2 = d3 * B1 - d1 * B3;
        double q3 = d1 * B2 - d2 * B1;
        double r1 = d1 + half_h * q1 + h2 * em1;
        double r2 = d2 + half_h * q2 + h2 * em2;
        double r3 = d3 + half_h * q3 + h2 * em3;
        double dot = cx1 * r1 + cx2 * r2 + cx3 * r3;
        double den = 1.0 / (1.0 + cx1 * cx1 + cx2 * cx2 + cx3 * cx3);
        double dn1 = (r1 - (cx2 * r3 - cx3 * r2) + dot * cx1) * den;
        double dn2 = (r2 - (cx3 * r1 - cx1 * r3) + dot * cx2) * den;
        double dn3 = (r3 - (cx1 * r2 - cx2 * r1) + dot * cx3) * den;
        /* written so that a NaN step fails the guard too */
        if (!(sqrt(dn1 * dn1 + dn2 * dn2 + dn3 * dn3) <= bound)) {
            result[0] = k;
            result[1] = i - 1;
            return STATUS_RUNAWAY;
        }
        if (i % sample_every == 0) {
            out_t[k] = (double)i * h;
            out_x[3 * k + 0] = x1;
            out_x[3 * k + 1] = x2;
            out_x[3 * k + 2] = x3;
            out_v[3 * k + 0] = (d1 + dn1) * inv_2h;
            out_v[3 * k + 1] = (d2 + dn2) * inv_2h;
            out_v[3 * k + 2] = (d3 + dn3) * inv_2h;
            k += 1;
        }
        x1 = x1 + dn1;
        x2 = x2 + dn2;
        x3 = x3 + dn3;
        d1 = dn1;
        d2 = dn2;
        d3 = dn3;
    }
    result[0] = k;
    result[1] = n_steps;
    return STATUS_OK;
}

/* The slow system's closed-form profile and its frozen moment muhat = mu0/eps. */
struct slow_field {
    double muhat, a0, a1, a2, c_e, r_min, b_min;
};

/* drift._rhs: stores the right-hand side in k, or the offending r or b in *bad. */
static int slow_rhs(const struct slow_field *f, double rt, double zt, double vt, double *k,
                    double *bad)
{
    if (rt < f->r_min) {
        *bad = rt;
        return STATUS_AXIS;
    }
    double b = f->a0 + f->a1 * rt + f->a2 * zt * zt;
    if (b <= f->b_min) {
        *bad = b;
        return STATUS_DOMAIN;
    }
    double ez = f->c_e * rt;
    double er = f->c_e * zt;
    double dbr = f->a1;
    double dbz = 2.0 * f->a2 * zt;
    k[0] = (-ez + f->muhat * dbz) / b;
    k[1] = (vt * vt / rt + er - f->muhat * dbr) / b;
    k[2] = (vt / rt) * (ez - f->muhat * dbz) / b;
    return STATUS_OK;
}

/* Fixed-step RK4 of the slow system over the sample grid times[0..n_times),
 * in slow time tau = eps t.  Row k of out (n_times x 3) receives (r, z, v)
 * at times[k]; row 0 holds the initial state, filled by the caller.
 * Returns the status code; on an abort *bad holds the offending r or b.
 */
int toroboris_drift_rk4(
    int64_t n_times, const double *times, double eps, double dtau, double muhat,
    double a0, double a1, double a2, double c_e, double r_min, double b_min,
    double *out, double *bad)
{
    struct slow_field f = {muhat, a0, a1, a2, c_e, r_min, b_min};
    double r = out[0], z = out[1], v = out[2];
    double k1[3], k2[3], k3[3], k4[3];
    int status;
    double tau = times[0] * eps;
    for (int64_t k = 1; k < n_times; k++) {
        double target = times[k] * eps;
        while (tau < target) {
            double step = target - tau;
            if (step > dtau)
                step = dtau;
            double half = 0.5 * step;
            if ((status = slow_rhs(&f, r, z, v, k1, bad)) != STATUS_OK)
                return status;
            if ((status = slow_rhs(&f, r + half * k1[0], z + half * k1[1], v + half * k1[2],
                                   k2, bad)) != STATUS_OK)
                return status;
            if ((status = slow_rhs(&f, r + half * k2[0], z + half * k2[1], v + half * k2[2],
                                   k3, bad)) != STATUS_OK)
                return status;
            if ((status = slow_rhs(&f, r + step * k3[0], z + step * k3[1], v + step * k3[2],
                                   k4, bad)) != STATUS_OK)
                return status;
            double w = step / 6.0;
            r = r + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]);
            z = z + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]);
            v = v + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]);
            tau += step;
            if (target - tau < 1e-15 * fmax(1.0, fabs(target)))
                tau = target;
        }
        out[3 * k + 0] = r;
        out[3 * k + 1] = z;
        out[3 * k + 2] = v;
    }
    return STATUS_OK;
}

/* CSV rows of %.17g fields, byte for byte what Python's "%.17g" % x writes,
 * without printf: its decimal point follows LC_NUMERIC and it writes -nan.
 *
 * A finite normal x = m / 2^s whose decimal exponent X = floor(log10 |x|)
 * lies in [-40, 16] gets its 17 significant digits from the exact integer
 * m 10^(16-X) / 2^s, held in 32-bit limbs and rounded half to even on the
 * exact remainder.  Zeros, infinities and NaN are literals.  Any other value
 * (a subnormal, |x| below 1e-40 or from 1e17 on) is left to the caller.
 */
enum { P10_MAX = 56, P10_LIMBS = 6, PRODUCT_LIMBS = P10_LIMBS + 2 };
/* The longest field, -1.2345678901234567e-40, and its separator. */
enum { FIELD_MAX = 24 };

static const uint64_t E16 = 10000000000000000ULL, E17 = 100000000000000000ULL;

/* p10[j] = 10^j in little-endian 32-bit limbs; 10^56 < 2^192. */
static void pow10_table(uint32_t p10[P10_MAX + 1][P10_LIMBS])
{
    for (int i = 0; i < P10_LIMBS; i++)
        p10[0][i] = 0;
    p10[0][0] = 1;
    for (int j = 1; j <= P10_MAX; j++) {
        uint64_t carry = 0;
        for (int i = 0; i < P10_LIMBS; i++) {
            uint64_t t = (uint64_t)p10[j - 1][i] * 10 + carry;
            p10[j][i] = (uint32_t)t;
            carry = t >> 32;
        }
    }
}

/* floor(m p10 / 2^s), below 2^64 by the caller's choice of p10, with in *up
 * the half-to-even rounding increment of the exact remainder. */
static uint64_t scaled_floor(uint64_t m, int s, const uint32_t *p10, int *up)
{
    uint32_t p[PRODUCT_LIMBS];
    for (int i = 0; i < PRODUCT_LIMBS; i++)
        p[i] = 0;
    for (int i = 0; i < 2; i++) {
        uint64_t mi = i ? m >> 32 : m & 0xffffffffu, carry = 0;
        for (int k = 0; k < P10_LIMBS; k++) {
            uint64_t t = mi * p10[k] + p[i + k] + carry;
            p[i + k] = (uint32_t)t;
            carry = t >> 32;
        }
        p[i + P10_LIMBS] = (uint32_t)carry;
    }
    int limb = s >> 5, off = s & 31;
    uint64_t lo = p[limb];
    uint64_t mid = limb + 1 < PRODUCT_LIMBS ? p[limb + 1] : 0;
    uint64_t hi = limb + 2 < PRODUCT_LIMBS ? p[limb + 2] : 0;
    uint64_t f = off ? lo >> off | mid << (32 - off) | hi << (64 - off) : lo | mid << 32;
    *up = 0;
    if (s > 0) {
        int hb = s - 1;
        int half = (p[hb >> 5] >> (hb & 31)) & 1;
        int sticky = (p[hb >> 5] & ((1u << (hb & 31)) - 1)) != 0;
        for (int i = 0; i < hb >> 5 && !sticky; i++)
            sticky = p[i] != 0;
        *up = half && (sticky || (f & 1));
    }
    return f;
}

/* Writes x's field at w and returns its end, or NULL outside the fast range. */
static char *format_field(double x, char *w, const uint32_t p10[P10_MAX + 1][P10_LIMBS])
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    if (biased == 0x7ff && frac) {
        memcpy(w, "nan", 3);
        return w + 3;
    }
    if (bits >> 63)
        *w++ = '-';
    if (biased == 0x7ff) {
        memcpy(w, "inf", 3);
        return w + 3;
    }
    if (biased == 0) {
        if (frac)
            return NULL;
        *w = '0';
        return w + 1;
    }
    /* |x| lies in [2^(biased-1023), 2^(biased-1022)), so X is est or est + 1 */
    int est = (int)floor((biased - 1023) * 0.30102999566398120);
    int j = 16 - est;
    if (j < 0 || j > P10_MAX + 1)
        return NULL;
    if (j > P10_MAX)
        j = P10_MAX;
    /* x = m / 2^s; est <= 16 keeps a left shift below 5 bits */
    uint64_t m = frac | 1ULL << 52;
    int s = 1075 - biased;
    if (s < 0) {
        m <<= -s;
        s = 0;
    }
    int up;
    uint64_t q = scaled_floor(m, s, p10[j], &up);
    if (q >= E17 && j > 0)
        q = scaled_floor(m, s, p10[--j], &up);
    if (q < E16 || q >= E17)
        return NULL; /* X is -41 (j was clamped) or 17 */
    q += up;
    if (q == E17) {
        q = E16;
        j--;
    }
    int exp10 = 16 - j;
    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + q % 10);
        q /= 10;
    }
    int nd = 17;
    while (d[nd - 1] == '0')
        nd--;
    if (exp10 < -4 || exp10 >= 17) {
        *w++ = d[0];
        if (nd > 1) {
            *w++ = '.';
            memcpy(w, d + 1, nd - 1);
            w += nd - 1;
        }
        *w++ = 'e';
        *w++ = exp10 < 0 ? '-' : '+';
        int a = exp10 < 0 ? -exp10 : exp10;
        *w++ = (char)('0' + a / 10);
        *w++ = (char)('0' + a % 10);
    } else if (exp10 >= 0) {
        /* the integer part: d holds its zeros past nd */
        memcpy(w, d, exp10 + 1);
        w += exp10 + 1;
        if (nd > exp10 + 1) {
            *w++ = '.';
            memcpy(w, d + exp10 + 1, nd - exp10 - 1);
            w += nd - exp10 - 1;
        }
    } else {
        *w++ = '0';
        *w++ = '.';
        for (int i = 0; i < -exp10 - 1; i++)
            *w++ = '0';
        memcpy(w, d, nd);
        w += nd;
    }
    return w;
}

/* Formats rows of cols values (row-major) as CSV lines into out, which holds
 * cap bytes.  Stops before the first row holding a value outside the fast
 * range, or one that might not fit.  Returns the number of rows written and
 * stores the number of bytes in *written.
 */
int64_t toroboris_format_rows(int64_t rows, int64_t cols, const double *values, char *out,
                              int64_t cap, int64_t *written)
{
    uint32_t p10[P10_MAX + 1][P10_LIMBS];
    pow10_table(p10);
    int64_t used = 0, r;
    for (r = 0; r < rows && cap - used >= cols * FIELD_MAX; r++) {
        char *w = out + used;
        for (int64_t c = 0; c < cols; c++) {
            if (!(w = format_field(values[r * cols + c], w, p10)))
                goto stop;
            *w++ = c + 1 < cols ? ',' : '\n';
        }
        used = w - out;
    }
stop:
    *written = used;
    return r;
}
