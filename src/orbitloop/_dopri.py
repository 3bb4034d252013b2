"""Adaptive Dormand-Prince 4(5) propagation kernel (the hot loop).

One function advances the 12-state closed-loop system — true plant,
observer estimation error, and reference arc — between output grid points,
honoring rtol/atol and landing exactly on every grid time (so piecewise-
constant measurement noise never straddles a sample interval).

The kernel is written once, indexing its 2-D inputs as x[i][j], and
`propagate_grid`, its only wrapper, picks its containers: ndarrays on the
numba path, plain Python floats and lists on the Python path.  Either way
the kernel fills preallocated ndarray outputs and allocates nothing itself,
and `propagate_grid` raises NumericalError for any status but STATUS_OK.

The backend is chosen once, at import, by three cases:

- ORBITLOOP_NO_NUMBA is set (to anything but "", "0", "false" or "no"):
  the pure-Python kernel runs, whether numba is installed or not;
- the flag is unset and numba cannot be imported: the pure-Python kernel
  runs.  numba is an optional extra (``pip install orbitloop[jit]``), so
  this is a supported configuration, not an error;
- the flag is unset and numba imports: the kernel is compiled with @njit.

USING_NUMBA records the outcome, and BACKEND_REASON the case that chose it:
"ORBITLOOP_NO_NUMBA set", "numba missing" or "numba available".  Both
backends run the identical source and must give bit-identical outputs;
perfbench/backends.py checks that on machines that have numba.

State layout, known only to this module: z = [x (true, 4) | e = x - xhat
(4) | reference (4)], which `propagate_grid` takes and returns as three
blocks.  The observer is integrated in (x, e) coordinates, which makes the
error block's arithmetic independent of the applied control for a linear
plant.  The plant's linearization is A = [[0, I], [w2 I, 0]], passed as
w2.  With the switch `control` the RHS writes u = -K (xhat - r) into the
work row `u` (else 0), and with `observe` it moves e (else e keeps its
initial value, 0).  It forces the plant by B u (B = [0; I]) and the run's
constant SRP forcing `gw` = G w.  The first RHS call is at z0, and by FSAL
("first same as last", Dormand & Prince 1980, J. Comput. Appl. Math.
6(1)) each accepted step's last stage, at the new state, is the next
step's first, so `u` holds each sample's control.

The step controller's RMS error norm divides by all 12 states, frozen
blocks included (e without `observe`, a constant reference), so a run is
held to a tolerance looser than its rtol/atol by sqrt(12/8) = sqrt(1.5)
with one frozen block (uncontrolled and LQR runs on a moving reference)
and by sqrt(3) with two (free flight: `drift`, the `lambert` closure).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import NumericalError

_flag = os.environ.get("ORBITLOOP_NO_NUMBA", "").strip().lower()
_DISABLED = _flag not in ("", "0", "false", "no")

USING_NUMBA = False
if _DISABLED:
    BACKEND_REASON = "ORBITLOOP_NO_NUMBA set"
else:
    try:
        from numba import njit

        USING_NUMBA = True
        BACKEND_REASON = "numba available"
    except ImportError:  # numba is optional: fall back to the Python kernel
        BACKEND_REASON = "numba missing"

if USING_NUMBA:
    def _jit(f):
        return njit(cache=True, fastmath=False)(f)
else:
    def _jit(f):
        return f

STATUS_OK = 0
STATUS_SINGULAR_RADIUS = 1
STATUS_STEP_UNDERFLOW = 2
STATUS_NOT_FINITE = 3
STATUS_STEP_BUDGET = 4

_STATUS_MESSAGES = {
    STATUS_SINGULAR_RADIUS: "trajectory radius fell below 1 km",
    STATUS_STEP_UNDERFLOW: "integrator step size underflowed",
    STATUS_NOT_FINITE: "integrator produced a non-finite state",
    STATUS_STEP_BUDGET: "integrator exceeded its step budget",
}

_MAX_STEPS = 50_000_000  # steps one run may take before STATUS_STEP_BUDGET


def _rhs_impl(z, dz, mu, gw, control, observe, plant_linear, ref_moving,
              w2, cm, k, l, nx, ny, u):
    # Reference block: a two-body arc, or frozen for a constant setpoint.
    if ref_moving == 1:
        rp = z[8]
        rq = z[9]
        rr = (rp * rp + rq * rq) ** 0.5
        if rr < 1.0:
            return STATUS_SINGULAR_RADIUS
        rr3 = rr * rr * rr
        dz[8] = z[10]
        dz[9] = z[11]
        dz[10] = -mu * rp / rr3
        dz[11] = -mu * rq / rr3
    else:
        dz[8] = 0.0
        dz[9] = 0.0
        dz[10] = 0.0
        dz[11] = 0.0

    # u = -K (xhat - r), xhat = x - e; e stays 0 without an observer.
    ux = 0.0
    uy = 0.0
    if control == 1:
        for i in range(4):
            dev = z[i] - z[4 + i] - z[8 + i]
            ux -= k[0][i] * dev
            uy -= k[1][i] * dev
    u[0] = ux
    u[1] = uy

    # True plant: nonlinear two-body gravity or the linearized model, forced
    # by B u and G w either way.  Rows of A z start from 0.0, as a summed
    # product does, so a -0.0 term still gives +0.0.
    if plant_linear == 1:
        dz[0] = 0.0 + z[2] + gw[0]
        dz[1] = 0.0 + z[3] + gw[1]
        dz[2] = 0.0 + w2 * z[0] + ux + gw[2]
        dz[3] = 0.0 + w2 * z[1] + uy + gw[3]
    else:
        p = z[0]
        q = z[1]
        r = (p * p + q * q) ** 0.5
        if r < 1.0:
            return STATUS_SINGULAR_RADIUS
        r3 = r * r * r
        dz[0] = z[2] + gw[0]
        dz[1] = z[3] + gw[1]
        dz[2] = -mu * p / r3 + gw[2] + ux
        dz[3] = -mu * q / r3 + gw[3] + uy

    # Estimation-error block:  de = (A - L C) e + (f(x) - A x - B u) - L nu,
    # with f(x) the full forced true dynamics already stored in dz[0:4].  On
    # the linear plant the model-mismatch term reduces to G w exactly; it is
    # computed directly in that form so the error block's arithmetic never
    # depends on the state or control trajectory.
    if observe == 1:
        ce0 = 0.0
        ce1 = 0.0
        for j in range(4):
            ce0 += cm[0][j] * z[4 + j]
            ce1 += cm[1][j] * z[4 + j]
        ce0 += nx
        ce1 += ny
        lin = plant_linear == 1
        m0 = gw[0] if lin else dz[0] - (0.0 + z[2])
        m1 = gw[1] if lin else dz[1] - (0.0 + z[3])
        m2 = gw[2] if lin else dz[2] - (0.0 + w2 * z[0]) - ux
        m3 = gw[3] if lin else dz[3] - (0.0 + w2 * z[1]) - uy
        dz[4] = 0.0 + z[6] - (l[0][0] * ce0 + l[0][1] * ce1) + m0
        dz[5] = 0.0 + z[7] - (l[1][0] * ce0 + l[1][1] * ce1) + m1
        dz[6] = 0.0 + w2 * z[4] - (l[2][0] * ce0 + l[2][1] * ce1) + m2
        dz[7] = 0.0 + w2 * z[5] - (l[3][0] * ce0 + l[3][1] * ce1) + m3
    else:
        for i in range(4):
            dz[4 + i] = 0.0
    return STATUS_OK


def _propagate_impl(z0, t_out, mu, gw, control, observe, plant_linear,
                    ref_moving, w2, cm, k, l, noise, rtol, atol, work,
                    out_state, out_ctrl):
    # Dormand-Prince 5(4) tableau.
    a21 = 1.0 / 5.0
    a31 = 3.0 / 40.0
    a32 = 9.0 / 40.0
    a41 = 44.0 / 45.0
    a42 = -56.0 / 15.0
    a43 = 32.0 / 9.0
    a51 = 19372.0 / 6561.0
    a52 = -25360.0 / 2187.0
    a53 = 64448.0 / 6561.0
    a54 = -212.0 / 729.0
    a61 = 9017.0 / 3168.0
    a62 = -355.0 / 33.0
    a63 = 46732.0 / 5247.0
    a64 = 49.0 / 176.0
    a65 = -5103.0 / 18656.0
    b1 = 35.0 / 384.0
    b3 = 500.0 / 1113.0
    b4 = 125.0 / 192.0
    b5 = -2187.0 / 6784.0
    b6 = 11.0 / 84.0
    e1 = 71.0 / 57600.0
    e3 = -71.0 / 16695.0
    e4 = 71.0 / 1920.0
    e5 = -17253.0 / 339200.0
    e6 = 22.0 / 525.0
    e7 = -1.0 / 40.0

    z = work[0]
    znew = work[1]
    ytmp = work[2]
    k1 = work[3]
    k2 = work[4]
    k3 = work[5]
    k4 = work[6]
    k5 = work[7]
    k6 = work[8]
    k7 = work[9]
    u = work[10]  # the control (ux, uy) at the last RHS evaluation
    for i in range(12):
        z[i] = z0[i]
        out_state[0, i] = z0[i]
    # The first RHS evaluation, at z0, leaves sample 0's control in u.
    st = _rhs_impl(z, k1, mu, gw, control, observe, plant_linear,
                   ref_moving, w2, cm, k, l, noise[0][0], noise[0][1], u)
    if st != STATUS_OK:
        return st
    out_ctrl[0, 0] = u[0]
    out_ctrl[0, 1] = u[1]

    h = -1.0
    steps = 0
    for seg in range(len(t_out) - 1):
        t = t_out[seg]
        t_end = t_out[seg + 1]
        seg_len = t_end - t
        nx = noise[seg][0]
        ny = noise[seg][1]
        if h <= 0.0:
            h = min(seg_len, 1.0)
        # FSAL: k1 holds f(z) unless the held noise sample has just changed.
        if seg > 0 and (nx != noise[seg - 1][0] or ny != noise[seg - 1][1]):
            st = _rhs_impl(z, k1, mu, gw, control, observe, plant_linear,
                           ref_moving, w2, cm, k, l, nx, ny, u)
            if st != STATUS_OK:
                return st
        while t_end - t > 1e-10 * max(1.0, abs(t_end)):
            steps += 1
            if steps > _MAX_STEPS:
                return STATUS_STEP_BUDGET
            remaining = t_end - t
            clamped = h >= remaining
            hs = remaining if clamped else h

            for i in range(12):
                ytmp[i] = z[i] + hs * a21 * k1[i]
            st = _rhs_impl(ytmp, k2, mu, gw, control, observe, plant_linear,
                           ref_moving, w2, cm, k, l, nx, ny, u)
            if st == STATUS_OK:
                for i in range(12):
                    ytmp[i] = z[i] + hs * (a31 * k1[i] + a32 * k2[i])
                st = _rhs_impl(ytmp, k3, mu, gw, control, observe, plant_linear,
                               ref_moving, w2, cm, k, l, nx, ny, u)
            if st == STATUS_OK:
                for i in range(12):
                    ytmp[i] = z[i] + hs * (a41 * k1[i] + a42 * k2[i] + a43 * k3[i])
                st = _rhs_impl(ytmp, k4, mu, gw, control, observe, plant_linear,
                               ref_moving, w2, cm, k, l, nx, ny, u)
            if st == STATUS_OK:
                for i in range(12):
                    ytmp[i] = z[i] + hs * (a51 * k1[i] + a52 * k2[i]
                                           + a53 * k3[i] + a54 * k4[i])
                st = _rhs_impl(ytmp, k5, mu, gw, control, observe, plant_linear,
                               ref_moving, w2, cm, k, l, nx, ny, u)
            if st == STATUS_OK:
                for i in range(12):
                    ytmp[i] = z[i] + hs * (a61 * k1[i] + a62 * k2[i] + a63 * k3[i]
                                           + a64 * k4[i] + a65 * k5[i])
                st = _rhs_impl(ytmp, k6, mu, gw, control, observe, plant_linear,
                               ref_moving, w2, cm, k, l, nx, ny, u)
            if st == STATUS_OK:
                for i in range(12):
                    znew[i] = z[i] + hs * (b1 * k1[i] + b3 * k3[i] + b4 * k4[i]
                                           + b5 * k5[i] + b6 * k6[i])
                st = _rhs_impl(znew, k7, mu, gw, control, observe, plant_linear,
                               ref_moving, w2, cm, k, l, nx, ny, u)

            if st != STATUS_OK:
                # A stage left the admissible region: retry with a smaller
                # step, declaring the singularity only once h underflows.
                h = 0.5 * hs
                if not h >= 1e-12 * max(1.0, abs(t)):
                    return st
                continue

            err_norm2 = 0.0
            for i in range(12):
                err_i = hs * (e1 * k1[i] + e3 * k3[i] + e4 * k4[i]
                              + e5 * k5[i] + e6 * k6[i] + e7 * k7[i])
                big = abs(z[i])
                if abs(znew[i]) > big:
                    big = abs(znew[i])
                scale = atol + rtol * big
                ratio = err_i / scale
                err_norm2 += ratio * ratio
            norm = (err_norm2 / 12.0) ** 0.5

            if norm <= 1.0:
                ok = True
                for i in range(12):
                    if not math.isfinite(znew[i]):
                        ok = False
                if not ok:
                    return STATUS_NOT_FINITE
                t = t_end if clamped else t + hs
                for i in range(12):
                    z[i] = znew[i]
                    k1[i] = k7[i]  # FSAL
                if norm == 0.0:
                    factor = 5.0
                else:
                    factor = 0.9 * norm ** -0.2
                    if factor > 5.0:
                        factor = 5.0
                    elif factor < 0.2:
                        factor = 0.2
                if clamped:
                    grown = hs * factor
                    if grown > h:
                        h = grown
                else:
                    h = hs * factor
            else:
                factor = 0.9 * norm ** -0.2
                if factor < 0.2:
                    factor = 0.2
                h = hs * factor
                # Written so that a NaN step (from a NaN error norm) fails
                # here too, instead of retrying until the step budget.
                if not h >= 1e-12 * max(1.0, abs(t)):
                    return STATUS_STEP_UNDERFLOW

        for i in range(12):
            out_state[seg + 1, i] = z[i]
        # The last RHS call was at z, so u holds the control there.
        out_ctrl[seg + 1, 0] = u[0]
        out_ctrl[seg + 1, 1] = u[1]

    return STATUS_OK


# Rebind the RHS first so the stepper resolves the jitted RHS when numba
# compiles it on first call.
_rhs_impl = _jit(_rhs_impl)
_propagate_impl = _jit(_propagate_impl)


def propagate_grid(x0, t_out, e0, r0, mu, gw, control, observe,
                   plant_linear, ref_moving, w2, cm, k, l, noise, rtol, atol):
    """Propagate the plant state x0, estimation error e0 and reference r0
    across the output grid t_out on the plant with A = [[0, I], [w2 I, 0]],
    under the forcing gw = G w; returns the (n, 4) x, e and r series and
    the (n, 2) control series u, or raises NumericalError with the kernel's
    status if the run fails.  `control` and `observe` are the ints 0 or 1.

    The compiled kernel takes contiguous float ndarrays.  The Python
    kernel takes them as nested lists: an element of a list is a plain
    float, while an element of an ndarray reads back as a numpy scalar,
    whose arithmetic is several times slower."""
    out_state = np.empty((len(t_out), 12))
    out_ctrl = np.empty((len(t_out), 2))
    arrays = [np.ascontiguousarray(a, float) for a in
              (np.concatenate((x0, e0, r0)), t_out, gw, cm, k, l, noise)]
    work = np.zeros((11, 12))
    if not USING_NUMBA:
        arrays = [a.tolist() for a in arrays]
        work = work.tolist()
    z0, t_out, gw, cm, k, l, noise = arrays
    status = _propagate_impl(z0, t_out, float(mu), gw, control, observe,
                             plant_linear, ref_moving, float(w2), cm, k, l,
                             noise, float(rtol), float(atol), work, out_state,
                             out_ctrl)
    if status != STATUS_OK:
        raise NumericalError(_STATUS_MESSAGES[status])
    return (out_state[:, 0:4].copy(), out_state[:, 4:8].copy(),
            out_state[:, 8:12].copy(), out_ctrl)
