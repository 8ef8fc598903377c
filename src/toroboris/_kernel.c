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
 * code and stores the steps completed in *steps.  The domain is b > 0, as in bemod.
 */
int toroboris_two_step_loop(
    int64_t n_steps, int64_t sample_every, double h, double eps, double mu0,
    double a0, double a1, double a2, double c_e, double r_min, double v_max,
    const double *x_arr, const double *d_arr, double *out_x, double *out_v, int64_t *steps)
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
            *steps = i - 1;
            return STATUS_AXIS;
        }
        double z = x3;
        double inv_r = 1.0 / r;
        double er1 = x1 * inv_r;
        double er2 = x2 * inv_r;
        double bb = a0 + a1 * r + a2 * z * z;
        if (bb <= 0.0) {
            *steps = i - 1;
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
            *steps = i - 1;
            return STATUS_RUNAWAY;
        }
        if (i % sample_every == 0) {
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
    *steps = n_steps;
    return STATUS_OK;
}

/* The slow system's closed-form profile on b > 0 and its frozen moment muhat = mu0/eps. */
struct slow_field {
    double muhat, a0, a1, a2, c_e, r_min;
};

/* slow_rhs is inlined into the step loop: out of line, gcc -O2 calls it four
 * times a step and passes each k through memory. */
#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

/* drift._rhs: stores the right-hand side in k, or the offending r or b in *bad. */
static ALWAYS_INLINE int slow_rhs(const struct slow_field *f, double rt, double zt, double vt,
                                  double *k, double *bad)
{
    if (rt < f->r_min) {
        *bad = rt;
        return STATUS_AXIS;
    }
    double b = f->a0 + f->a1 * rt + f->a2 * zt * zt;
    if (b <= 0.0) {
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
 * at times[k]; row 0 holds the initial state, filled by the caller.  Interval
 * k starts at tau = times[k-1] eps and takes counts[k-1] steps (_rk4_counts).
 * Returns the status code; on an abort *bad holds the offending r or b.
 */
int toroboris_drift_rk4(
    int64_t n_times, const double *times, const int64_t *counts, double eps, double dtau,
    double muhat, double a0, double a1, double a2, double c_e, double r_min, double *out,
    double *bad)
{
    struct slow_field f = {muhat, a0, a1, a2, c_e, r_min};
    double r = out[0], z = out[1], v = out[2];
    double k1[3], k2[3], k3[3], k4[3];
    int status;
    for (int64_t k = 1; k < n_times; k++) {
        double tau = times[k - 1] * eps;
        double target = times[k] * eps;
        for (int64_t i = 0; i < counts[k - 1]; i++) {
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
 * m 10^(16-X) / 2^s, rounded half to even on the exact remainder: for
 * |x| >= 2^-9, where 10^(16-X) fits one limb, from one 64x64-bit product in
 * two registers, below that from 64-bit limbs.  The digits are written four
 * at a time from a table, in 8-byte stores.  Zeros, infinities and NaN are
 * literals.  Any other value (a subnormal, |x| below 1e-40 or from 1e17 on)
 * is left to the caller.
 */
enum { P10_MAX = 56, P10_LIMBS = 3 };
/* The longest field, -1.2345678901234567e-40, and its separator. */
enum { FIELD_MAX = 24 };

static const uint64_t E16 = 10000000000000000ULL, E17 = 100000000000000000ULL;

/* P10[j] = 10^j in little-endian 64-bit limbs; 10^56 < 2^192. */
static const uint64_t P10[P10_MAX + 1][P10_LIMBS] = {
    {0x0000000000000001, 0x0000000000000000, 0x0000000000000000},
    {0x000000000000000a, 0x0000000000000000, 0x0000000000000000},
    {0x0000000000000064, 0x0000000000000000, 0x0000000000000000},
    {0x00000000000003e8, 0x0000000000000000, 0x0000000000000000},
    {0x0000000000002710, 0x0000000000000000, 0x0000000000000000},
    {0x00000000000186a0, 0x0000000000000000, 0x0000000000000000},
    {0x00000000000f4240, 0x0000000000000000, 0x0000000000000000},
    {0x0000000000989680, 0x0000000000000000, 0x0000000000000000},
    {0x0000000005f5e100, 0x0000000000000000, 0x0000000000000000},
    {0x000000003b9aca00, 0x0000000000000000, 0x0000000000000000},
    {0x00000002540be400, 0x0000000000000000, 0x0000000000000000},
    {0x000000174876e800, 0x0000000000000000, 0x0000000000000000},
    {0x000000e8d4a51000, 0x0000000000000000, 0x0000000000000000},
    {0x000009184e72a000, 0x0000000000000000, 0x0000000000000000},
    {0x00005af3107a4000, 0x0000000000000000, 0x0000000000000000},
    {0x00038d7ea4c68000, 0x0000000000000000, 0x0000000000000000},
    {0x002386f26fc10000, 0x0000000000000000, 0x0000000000000000},
    {0x016345785d8a0000, 0x0000000000000000, 0x0000000000000000},
    {0x0de0b6b3a7640000, 0x0000000000000000, 0x0000000000000000},
    {0x8ac7230489e80000, 0x0000000000000000, 0x0000000000000000},
    {0x6bc75e2d63100000, 0x0000000000000005, 0x0000000000000000},
    {0x35c9adc5dea00000, 0x0000000000000036, 0x0000000000000000},
    {0x19e0c9bab2400000, 0x000000000000021e, 0x0000000000000000},
    {0x02c7e14af6800000, 0x000000000000152d, 0x0000000000000000},
    {0x1bcecceda1000000, 0x000000000000d3c2, 0x0000000000000000},
    {0x161401484a000000, 0x0000000000084595, 0x0000000000000000},
    {0xdcc80cd2e4000000, 0x000000000052b7d2, 0x0000000000000000},
    {0x9fd0803ce8000000, 0x00000000033b2e3c, 0x0000000000000000},
    {0x3e25026110000000, 0x00000000204fce5e, 0x0000000000000000},
    {0x6d7217caa0000000, 0x00000001431e0fae, 0x0000000000000000},
    {0x4674edea40000000, 0x0000000c9f2c9cd0, 0x0000000000000000},
    {0xc0914b2680000000, 0x0000007e37be2022, 0x0000000000000000},
    {0x85acef8100000000, 0x000004ee2d6d415b, 0x0000000000000000},
    {0x38c15b0a00000000, 0x0000314dc6448d93, 0x0000000000000000},
    {0x378d8e6400000000, 0x0001ed09bead87c0, 0x0000000000000000},
    {0x2b878fe800000000, 0x0013426172c74d82, 0x0000000000000000},
    {0xb34b9f1000000000, 0x00c097ce7bc90715, 0x0000000000000000},
    {0x00f436a000000000, 0x0785ee10d5da46d9, 0x0000000000000000},
    {0x098a224000000000, 0x4b3b4ca85a86c47a, 0x0000000000000000},
    {0x5f65568000000000, 0xf050fe938943acc4, 0x0000000000000002},
    {0xb9f5610000000000, 0x6329f1c35ca4bfab, 0x000000000000001d},
    {0x4395ca0000000000, 0xdfa371a19e6f7cb5, 0x0000000000000125},
    {0xa3d9e40000000000, 0xbc627050305adf14, 0x0000000000000b7a},
    {0x6682e80000000000, 0x5bd86321e38cb6ce, 0x00000000000072cb},
    {0x011d100000000000, 0x9673df52e37f2410, 0x0000000000047bf1},
    {0x0b22a00000000000, 0xe086b93ce2f768a0, 0x00000000002cd76f},
    {0x6f5a400000000000, 0xc5433c60ddaa1640, 0x0000000001c06a5e},
    {0x5986800000000000, 0xb4a05bc8a8a4de84, 0x00000000118427b3},
    {0x7f41000000000000, 0x0e4395d69670b12b, 0x00000000af298d05},
    {0xf88a000000000000, 0x8ea3da61e066ebb2, 0x00000006d79f8232},
    {0xb564000000000000, 0x926687d2c40534fd, 0x000000446c3b15f9},
    {0x15e8000000000000, 0xb8014e3ba83411e9, 0x000002ac3a4edbbf},
    {0xdb10000000000000, 0x300d0e549208b31a, 0x00001aba4714957d},
    {0x8ea0000000000000, 0xe0828f4db456ff0c, 0x00010b46c6cdd6e3},
    {0x9240000000000000, 0xc51999090b65f67d, 0x000a70c3c40a64e6},
    {0xb680000000000000, 0xb2fffa5a71fba0e7, 0x006867a5a867f103},
    {0x2100000000000000, 0xfdffc78873d4490d, 0x04140c78940f6a24},
};

/* DIGITS4 + 4 n: the four digits of n < 10^4.  The preprocessor spells the
 * table out, so the library holds it fully formed and no call writes it. */
#define DIGITS_1(p) p "0" p "1" p "2" p "3" p "4" p "5" p "6" p "7" p "8" p "9"
#define DIGITS_2(p) DIGITS_1(p "0") DIGITS_1(p "1") DIGITS_1(p "2") DIGITS_1(p "3") \
    DIGITS_1(p "4") DIGITS_1(p "5") DIGITS_1(p "6") DIGITS_1(p "7") DIGITS_1(p "8") DIGITS_1(p "9")
#define DIGITS_3(p) DIGITS_2(p "0") DIGITS_2(p "1") DIGITS_2(p "2") DIGITS_2(p "3") \
    DIGITS_2(p "4") DIGITS_2(p "5") DIGITS_2(p "6") DIGITS_2(p "7") DIGITS_2(p "8") DIGITS_2(p "9")
static const char DIGITS4[40001] = DIGITS_3("0") DIGITS_3("1") DIGITS_3("2") DIGITS_3("3")
    DIGITS_3("4") DIGITS_3("5") DIGITS_3("6") DIGITS_3("7") DIGITS_3("8") DIGITS_3("9");

/* A digit word: 8 bytes of text from its least significant byte up. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the CSV formatter's digit words need a little-endian machine"
#endif

/* The low 64 bits of a b; the high 64 in *hi. */
static uint64_t mul64(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return mid << 32 | (p00 & 0xffffffffu);
#endif
}

/* The 8 digits of v < 10^8 as a digit word. */
static uint64_t digits8(uint64_t v)
{
    uint32_t hi, lo;
    memcpy(&hi, DIGITS4 + 4 * (v / 10000), 4);
    memcpy(&lo, DIGITS4 + 4 * (v % 10000), 4);
    return hi | (uint64_t)lo << 32;
}

/* The mask of a word's n lowest bytes, n clamped to [0, 8]. */
static uint64_t low_bytes(int n)
{
    return n <= 0 ? 0 : n >= 8 ? ~0ULL : (1ULL << 8 * n) - 1;
}

/* Writes x's field at w and returns its end, or NULL outside the fast range.
 * The digits go out in fixed-size stores, which may write past the field's
 * end up to w[FIELD_MAX - 2], short of its separator's room. */
static char *format_field(double x, char *w)
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
    /* |x| lies in [2^e, 2^(e+1)) for e = biased - 1023, so X is est or est + 1;
     * est = floor(e log10 2) exactly for every e of a double */
    int est = ((biased - 1023) * 78913) >> 18;
    int j = 16 - est;
    if (j < 0 || j > P10_MAX + 1)
        return NULL;
    if (j > P10_MAX)
        j = P10_MAX; /* est = -41: X = -40 gives 17 digits, X = -41 too few */
    /* x = m / 2^s with s >= 1; est <= 16 keeps m below 2^58 */
    uint64_t m = frac | 1ULL << 52;
    int s = 1075 - biased;
    if (s < 1) {
        m <<= 1 - s;
        s = 1;
    }
    /* q = floor(m 10^j / 2^s) < 10^18; half is bit s - 1 of the product, sticky
     * any bit below it */
    uint64_t q, half, sticky;
    if (j <= 19) {
        /* 10^j is one limb and est >= -3 keeps s <= 61: the product is hi:lo */
        uint64_t hi, lo = mul64(m, P10[j][0], &hi);
        q = hi << (64 - s) | lo >> s;
        half = lo >> (s - 1) & 1;
        sticky = (lo & ((1ULL << (s - 1)) - 1)) != 0;
    } else {
        /* p = m 10^j, below 2^(58+187) */
        uint64_t p[P10_LIMBS + 1], hi, carry;
        p[0] = mul64(m, P10[j][0], &carry);
        for (int i = 1; i < P10_LIMBS; i++) {
            p[i] = mul64(m, P10[j][i], &hi) + carry;
            carry = hi + (p[i] < carry);
        }
        p[P10_LIMBS] = carry;
        int limb = s >> 6, off = s & 63, hb = (s - 1) & 63, hl = (s - 1) >> 6;
        q = p[limb] >> off | p[limb + 1] << 1 << (63 - off);
        half = p[hl] >> hb & 1;
        sticky = ((p[hl] & ((1ULL << hb) - 1)) | (hl > 0 ? p[0] : 0) | (hl > 1 ? p[1] : 0)) != 0;
    }
    /* X = est + 1 leaves 18 digits: the last, with the bits below it, decides
     * the rounding of the first 17 */
    int over = q >= E17;
    if (q < E16 || (over && j == 0))
        return NULL; /* X is -41 (j was clamped) or 17 */
    uint64_t q10 = q / 10, digit = q - 10 * q10;
    uint64_t up_over = (digit > 5) | ((digit == 5) & (half | sticky | (q10 & 1)));
    uint64_t up = half & (sticky | (q & 1));
    q = over ? q10 + up_over : q + up;
    int exp10 = 16 - j + over;
    if (q == E17) {
        q = E16;
        exp10++;
    }
    /* the 17 digits: the first, then digits 2-9 and 10-17 as digit words.  nd
     * counts them up to the last that is not 0: bit 8 i + 7 of nz is set where
     * byte i of the word is not '0' (clz is a builtin of GCC and Clang, whose
     * flags the build passes) */
    uint64_t top = q / 100000000, first = top / 100000000;
    uint64_t lo = digits8(top - first * 100000000), hi = digits8(q - top * 100000000);
    uint64_t nz_lo = (lo + 0x4f4f4f4f4f4f4f4fULL) & 0x8080808080808080ULL;
    uint64_t nz_hi = (hi + 0x4f4f4f4f4f4f4f4fULL) & 0x8080808080808080ULL;
    int nd = nz_hi ? 17 - __builtin_clzll(nz_hi) / 8 : nz_lo ? 9 - __builtin_clzll(nz_lo) / 8 : 1;
    char head = (char)('0' + first);
    if (exp10 < -4 || exp10 >= 17) {
        /* d.ddde-XX: 18 bytes stored, then the exponent; at most 22 kept */
        w[0] = head;
        w[1] = '.';
        memcpy(w + 2, &lo, 8);
        memcpy(w + 10, &hi, 8);
        w += nd > 1 ? nd + 1 : 1;
        *w++ = 'e';
        *w++ = exp10 < 0 ? '-' : '+';
        int a = exp10 < 0 ? -exp10 : exp10;
        memcpy(w, DIGITS4 + 4 * a + 2, 2);
        return w + 2;
    }
    if (exp10 < 0) {
        /* 0.000ddd: at most 22 bytes stored and kept */
        memcpy(w, "0.000", 5);
        w += 1 - exp10;
        w[0] = head;
        memcpy(w + 1, &lo, 8);
        memcpy(w + 9, &hi, 8);
        return w + nd;
    }
    /* the point after digit k: byte i of the text is digit i + 1 before it and
     * digit i after it; 18 bytes stored, at most 18 kept */
    int k = exp10 + 1;
    uint64_t at[3] = {(uint64_t)head | lo << 8, lo >> 56 | hi << 8, hi >> 56};
    uint64_t after[3] = {at[0] << 8, lo >> 48 | hi << 16, hi >> 48};
    uint64_t text[3];
    for (int i = 0; i < 3; i++) {
        uint64_t before = low_bytes(k - 8 * i), upto = low_bytes(k + 1 - 8 * i);
        text[i] = (at[i] & before) | (after[i] & ~upto) | (0x2e2e2e2e2e2e2e2eULL & upto & ~before);
    }
    memcpy(w, text, 18);
    return w + (nd > k ? nd + 1 : k);
}

/* Formats rows start .. stop - 1 of cols columns as CSV lines into out, which
 * holds cap bytes; column c's value in row i is columns[c][i * strides[c]].
 * Returns the number of bytes written; -2 when a value of the range lies
 * outside the fast range, so that the caller formats the range itself; -1,
 * writing nothing, when cap is below (stop - start) cols FIELD_MAX.
 */
int64_t toroboris_format_rows(int64_t start, int64_t stop, int64_t cols,
                              const double *const *columns, const int64_t *strides, char *out,
                              int64_t cap)
{
    if (stop < start || cap < (stop - start) * cols * FIELD_MAX)
        return -1;
    char *w = out;
    int64_t r = start;
    for (; r < stop; r++) {
        char *line = w;
        for (int64_t c = 0; c < cols && w; c++) {
            if ((w = format_field(columns[c][r * strides[c]], w)))
                *w++ = c + 1 < cols ? ',' : '\n';
        }
        if (!w) {
            w = line;
            break;
        }
    }
    return r < stop ? -2 : w - out;
}
