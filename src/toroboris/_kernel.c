/* Two-step stepping loop for the closed-form toroidal field family
 *
 *     b = a0 + a1 r + a2 z^2,   E_r = c_e z,   E_z = c_e r,
 *
 * transcribed line for line from boris._generic_loop with the field
 * arithmetic of ToroidalFieldModel.bemod inlined.  Every expression keeps
 * the operand order of the Python source, and the build flags forbid
 * contraction and fast-math, so both paths produce bitwise equal output.
 *
 * Step i advances (x^i, d^i) to (x^{i+1}, d^{i+1}); the centered velocity
 * (d^i + d^{i+1}) / (2h) is recorded whenever i is a multiple of
 * sample_every.  Sample row 0 is filled by the caller.  Returns the status
 * code and stores (rows_written, steps_completed) in result.
 */
#include <math.h>
#include <stdint.h>

enum { STATUS_OK = 0, STATUS_AXIS = 1, STATUS_DOMAIN = 2, STATUS_RUNAWAY = 3 };

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
        if (sqrt(dn1 * dn1 + dn2 * dn2 + dn3 * dn3) > bound) {
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
