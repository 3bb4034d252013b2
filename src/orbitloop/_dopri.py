"""Adaptive Dormand-Prince 4(5) propagation kernel (the hot loop).

A stepper advances the 12-state closed-loop system — true plant,
observer estimation error, and reference arc — honoring rtol/atol.  An
observer run lands exactly on every grid time when its measurement is
noisy, so piecewise-constant measurement noise never straddles a sample
interval, or when its plant is linear, where criterion 6 holds the error
block to a zero-order-hold recursion on the grid, bit for bit.  Every other
run (a free run: `uncontrolled` runs, `drift`, the `lambert` closure check,
every `propagate_two_body`, an `lqr` run, or a noise-free observer run on
the nonlinear plant) steps from the first grid time to the last in one
pass, no step longer than a tenth of the span (_FREE_STEPS) or than
_CLOSED_LOOP_STEP / rho for each closed loop it carries: A - B K with
control, A - L C with an observer.  It records each accepted step as one
row of a reused (_CHUNK, 86) float64 buffer, and whenever the buffer is
full, and once at the end, `_fill_dense` fills the grid rows before the
stepper's time from Shampine's quartic dense output of the Dormand-Prince
pair, so a run's memory follows its output grid, not its step count.  A
filled row's control is u = -K (x - e - r) at its state with control.  The
output grid thus never steers a free run's steps.

The stepper is straight-line code generated from the tableau (`_TABLEAU_*`)
by `_stepper_source`, one function for every run.  It holds the 12 states
and each stage's derivatives in local variables.  Its RHS calls go to
`_rhs_impl`, one hand-written pure function with runtime switches, which
it looks up in this module when it runs: it takes the stage as a 12-tuple
and returns (status, ux, uy, dz_0, ..., dz_11).  `_stepper` builds the
stepper on the first run and caches it: none is built at import.

A block that does not move (e without `observe`, a constant reference) is
stepped like any other: `_rhs_impl` gives it derivative +0.0 at every
stage.  Every stage row and the weights of the new state, the error
estimate and each dense-output coefficient have a positive weight, so each
left-to-right weighted sum of those +0.0s is +0.0, never -0.0, and the
lane's stage inputs and new state are all z_i + 0.0.  A -0.0 in such a
lane thus turns into +0.0 with the first step, in the stepped and the
interpolated rows alike.

The kernel takes plain Python floats and nested lists, indexing its 2-D
inputs as x[i][j], and `propagate_grid`, its only wrapper, converts its
inputs to them: an element of an ndarray reads back as a numpy scalar,
whose arithmetic is several times slower than a float's.  The stepper
writes each sample it lands on as one row (z_0, ..., z_11, ux, uy) of a
preallocated (n, 14) ndarray, packs each step it records into its buffer
with `struct` (assigning a tuple to an ndarray row took twice as long),
and `propagate_grid` raises NumericalError for any status but STATUS_OK.

State layout, known only to this module: z = [x (true, 4) | e = x - xhat
(4) | reference (4)], which `propagate_grid` takes and returns as three
blocks.  The observer is integrated in (x, e) coordinates, which makes the
error block's arithmetic independent of the applied control for a linear
plant.  The plant's linearization is A = [[0, I], [w2 I, 0]], passed as
w2.  With the switch `control` the RHS returns u = -K (xhat - r) as ux,
uy (else 0), and with `observe` it moves e (else e keeps its initial
value, 0).  It forces the plant by B u (B = [0; I]) and the run's constant
SRP forcing `gw` = G w.  The first RHS call is at z0, and by FSAL ("first
same as last", Dormand & Prince 1980, J. Comput. Appl. Math. 6(1)) each
accepted step's last stage, at the new state, is the next step's first,
so the control of the last RHS call is each sample's.

The step controller's RMS error norm divides by all 12 states, but a block
that does not move adds +0.0 terms to its sum, so a run is held to a
tolerance looser than its rtol/atol by sqrt(12/8) = sqrt(1.5) with one
such block (uncontrolled and LQR runs on a moving reference) and by
sqrt(3) with two (`drift`, the `lambert` closure).  Under the step cap of
a free run without an observer, that loosening sets its step sizes.  The
divisor stays 12 so that the default `lambert` closure keeps its steps and
bits: dividing by the moving lanes would move its residual from 9.60e-5 to
6.10e-5 km.
"""

from __future__ import annotations

import functools
import math
import struct
import sys

import numpy as np

from .errors import NumericalError

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
# A free run takes no step longer than its span over this,
# as with ode45's default MaxStep (Shampine & Reichelt 1997, SIAM J. Sci.
# Comput. 18(1)).
_FREE_STEPS = 10
# A free run's steps are also at most this over the spectral radius rho of
# each linearized closed loop it carries, A - B K with control and A - L C
# with an observer (a loop with rho = 0 sets no cap), so that they stay off
# the Dormand-Prince stability limit on the closed-loop poles, to which
# uncapped steps grow.  On the default scenario (rho = 1 /s for LQR) at
# 400 s the capped LQR run ends 9.7254e-10 km from the target in 1519 RHS
# calls, against 9.8244e-10 km at rtol 1e-12 and 2.93e-7 km in 1207 calls
# uncapped; landing on every 0.1 s sample took 24001 calls.  Its observer
# (rho = 4 /s) caps observer runs at 0.5 s, which 87% of the 400 s
# `observer_lqr` run's 891 steps reach; uncapped, its steps grow to the
# stability limit, 0.81 s in the median.
_CLOSED_LOOP_STEP = 2.0
# A free run records this many accepted steps before `_fill_dense` fills
# the grid rows they cover and the buffer is reused.
_CHUNK = 256
# `_fill_dense` fills at most this many grid rows per pass, so that its
# (rows, 12) temporaries stay in cache.
_FILL_ROWS = 2048


# What _rhs_impl returns when the plant or the reference is within 1 km of
# the origin.
_SINGULAR = (STATUS_SINGULAR_RADIUS,) + (0.0,) * 14


def _rhs_impl(z, mu, gw, control, observe, plant_linear, ref_moving, w2, cm,
              k, l, nx, ny):
    x0, x1, x2, x3, e0, e1, e2, e3, r0, r1, r2, r3 = z
    g0, g1, g2, g3 = gw

    # Reference block: a two-body arc, or at rest for a constant setpoint.
    if ref_moving == 1:
        rr = (r0 * r0 + r1 * r1) ** 0.5
        if rr < 1.0:
            return _SINGULAR
        rr3 = rr * rr * rr
        dr0 = r2
        dr1 = r3
        dr2 = -mu * r0 / rr3
        dr3 = -mu * r1 / rr3
    else:
        dr0 = dr1 = dr2 = dr3 = 0.0

    # u = -K (xhat - r), xhat = x - e; e stays 0 without an observer.  The
    # sums start from 0.0, so u is +0.0, never -0.0, when every term is 0.
    ux = 0.0
    uy = 0.0
    if control == 1:
        d0 = x0 - e0 - r0
        d1 = x1 - e1 - r1
        d2 = x2 - e2 - r2
        d3 = x3 - e3 - r3
        k00, k01, k02, k03 = k[0]
        k10, k11, k12, k13 = k[1]
        ux = 0.0 - k00 * d0 - k01 * d1 - k02 * d2 - k03 * d3
        uy = 0.0 - k10 * d0 - k11 * d1 - k12 * d2 - k13 * d3

    # True plant: nonlinear two-body gravity or the linearized model, forced
    # by B u and G w either way.  The velocity rows of A z start from 0.0,
    # as a summed product does, so a -0.0 velocity still gives +0.0.  The
    # acceleration rows need no such start: ux and uy are never -0.0.
    if plant_linear == 1:
        f0 = 0.0 + x2 + g0
        f1 = 0.0 + x3 + g1
        f2 = w2 * x0 + ux + g2
        f3 = w2 * x1 + uy + g3
    else:
        rad = (x0 * x0 + x1 * x1) ** 0.5
        if rad < 1.0:
            return _SINGULAR
        rad3 = rad * rad * rad
        f0 = x2 + g0
        f1 = x3 + g1
        f2 = -mu * x0 / rad3 + g2 + ux
        f3 = -mu * x1 / rad3 + g3 + uy

    # Estimation-error block:  de = (A - L C) e + (f(x) - A x - B u) - L nu,
    # with f(x) the full forced true dynamics f0 to f3.  On the linear plant
    # the model-mismatch term reduces to G w exactly; it is computed directly
    # in that form so the error block's arithmetic never depends on the
    # state or control trajectory.  The mismatch's A x terms need no 0.0
    # start: the sign of a zero there cannot reach de, because the mismatch
    # is added last to a sum that starts from 0.0 and ends in a
    # subtraction, which is never -0.0.
    if observe == 1:
        c00, c01, c02, c03 = cm[0]
        c10, c11, c12, c13 = cm[1]
        ce0 = 0.0 + c00 * e0 + c01 * e1 + c02 * e2 + c03 * e3 + nx
        ce1 = 0.0 + c10 * e0 + c11 * e1 + c12 * e2 + c13 * e3 + ny
        if plant_linear == 1:
            m0 = g0
            m1 = g1
            m2 = g2
            m3 = g3
        else:
            m0 = f0 - x2
            m1 = f1 - x3
            m2 = f2 - w2 * x0 - ux
            m3 = f3 - w2 * x1 - uy
        l00, l01 = l[0]
        l10, l11 = l[1]
        l20, l21 = l[2]
        l30, l31 = l[3]
        de0 = 0.0 + e2 - (l00 * ce0 + l01 * ce1) + m0
        de1 = 0.0 + e3 - (l10 * ce0 + l11 * ce1) + m1
        de2 = 0.0 + w2 * e0 - (l20 * ce0 + l21 * ce1) + m2
        de3 = 0.0 + w2 * e1 - (l30 * ce0 + l31 * ce1) + m3
    else:
        de0 = de1 = de2 = de3 = 0.0
    return (STATUS_OK, ux, uy, f0, f1, f2, f3, de0, de1, de2, de3,
            dr0, dr1, dr2, dr3)


# Dormand & Prince (1980) 5(4) tableau: the stage rows a_sj of stages 2 to
# 6, the fifth-order weights b_j that give the new state (whose derivative
# is stage 7, the next step's stage 1 by FSAL), and the error weights
# e_j = b_j - b*_j.  A zero weight drops its stage from the sum.
_TABLEAU_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_TABLEAU_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_TABLEAU_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
              22 / 525, -1 / 40)

# The stepper's source.  A line "@name" stands for the generated block
# `name`, at that line's indentation; lane i's state is the local z_i, its
# stage-s derivative ks_i, and its new state zn_i.
_STEPPER_TEMPLATE = '''
def stepper(z0, t_out, mu, gw, control, observe, plant_linear, ref_moving,
            w2, cm, k, l, noise, rtol, atol, out, buf, fill, h_max):
    @load_z0
    # The first RHS evaluation, at z0, gives sample 0's control.
    nx = noise[0][0]
    ny = noise[0][1]
    @rhs_k1
    if st != STATUS_OK:
        return st
    @store_sample_0

    h = -1.0
    tries = 0
    recorded = 0
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
            @rhs_k1
            if st != STATUS_OK:
                return st
        while t_end - t > 1e-10 * max(1.0, abs(t_end)):
            tries += 1
            if tries > _MAX_STEPS:
                return STATUS_STEP_BUDGET
            @cap
            remaining = t_end - t
            clamped = h >= remaining
            hs = remaining if clamped else h

            @stages
            if st != STATUS_OK:
                # A stage left the admissible region: retry with a smaller
                # step, declaring the singularity only once h underflows.
                h = 0.5 * hs
                if not h >= 1e-12 * max(1.0, abs(t)):
                    return st
                continue

            @error_norm
            norm = (err_norm2 / 12.0) ** 0.5

            if norm <= 1.0:
                @check_finite
                @record
                t = t_end if clamped else t + hs
                @accept
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

        # The last RHS call was at z, so ux and uy are its control.
        @store_sample

    @fill_rest
    return STATUS_OK
'''

_RHS_ARGS = ("mu, gw, control, observe, plant_linear, ref_moving, w2, cm, k,"
             " l, nx, ny")
# True exactly when zn_i is finite: NaN fails every comparison.
_FINITE = f"{-sys.float_info.max!r} <= zn_{{}} <= {sys.float_info.max!r}"


def _stepper_source():
    """The straight-line stepper of all 12 lanes.  Each weighted sum runs
    left to right, in stage order, over the nonzero weights."""
    lanes = range(12)

    def names(item):
        return ", ".join(map(item.format, lanes))

    def assign(target, values):
        return [f"{target} = (", *(f"    {v}," for v in values), ")"]

    def rhs(s, stage, control="_, _"):
        # An RHS call at the 12-tuple `stage`, its derivatives going to ks_i.
        lhs = ", ".join(["st", control, names(f"k{s}_{{}}")])
        return [f"{lhs} = _rhs_impl((", *(f"    {v}," for v in stage),
                f"), {_RHS_ARGS})"]

    def weighted(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}"
                          for j, w in enumerate(weights, 1) if w)

    def stage_sum(weights, i):
        if sum(1 for w in weights if w) == 1:
            # Stage 2 is z + hs * a21 * k1, which rounds as (hs * a21) * k1.
            return f"z_{i} + hs * {weighted(weights, i)}"
        return f"z_{i} + hs * ({weighted(weights, i)})"

    stages = []
    for s, weights in enumerate(_TABLEAU_A, 2):
        body = rhs(s, [stage_sum(weights, i) for i in lanes])
        stages += body if s == 2 else \
            ["if st == STATUS_OK:", *("    " + line for line in body)]
    body = assign(names("zn_{}"), (stage_sum(_TABLEAU_B, i) for i in lanes)) \
        + rhs(7, [names("zn_{}")], "ux, uy")
    stages += ["if st == STATUS_OK:", *("    " + line for line in body)]

    # max(a, b) is b only when b > a: a NaN z_i makes the norm NaN, and a
    # NaN zn_i is left to the finiteness check.
    error_norm = assign(names("q_{}"), (
        f"hs * ({weighted(_TABLEAU_E, i)})"
        f" / (atol + rtol * max(abs(z_{i}), abs(zn_{i})))" for i in lanes))
    error_norm.append("err_norm2 = 0.0 + "
                      + " + ".join(f"q_{i} * q_{i}" for i in lanes))

    sample = f"{names('z_{}')}, ux, uy"
    blocks = {
        "load_z0": [f"{names('z_{}')} = z0"],
        "rhs_k1": rhs(1, [names("z_{}")], "ux, uy"),
        "store_sample_0": [f"out[0] = {sample}"],
        "stages": stages,
        "error_norm": error_norm,
        "check_finite": [f"if not ({' and '.join(map(_FINITE.format, lanes))}):",
                         "    return STATUS_NOT_FINITE"],
        # Landing runs pass h_max = inf and buf = fill = None.  A free run
        # records each accepted step as one row of buf, for the dense output;
        # when buf is full, fill() first fills the grid rows before t from
        # it, and at the end every row left.
        "cap": ["if h > h_max:", "    h = h_max"],
        "record": [
            "if buf is not None:",
            "    if recorded == _CHUNK:",
            "        fill(recorded, t)",
            "        recorded = 0",
            f"    _STEP.pack_into(buf, recorded * {_STEP.size}, t, hs, "
            f"{names('z_{}')}, "
            + ", ".join(names(f"k{s}_{{}}") for s in _DENSE_STAGES) + ")",
            "    recorded += 1"],
        "accept": [f"{names('z_{}')} = {names('zn_{}')}",
                   f"{names('k1_{}')} = {names('k7_{}')}"],
        "store_sample": [f"out[seg + 1] = {sample}"],
        "fill_rest": ["if buf is not None:", "    fill(recorded, math.inf)"],
    }
    out = []
    for line in _STEPPER_TEMPLATE.splitlines():
        name = line.strip()
        if name.startswith("@"):
            indent = line[:len(line) - len(line.lstrip())]
            out += [indent + block_line for block_line in blocks[name[1:]]]
        else:
            out.append(line)
    return "\n".join(out) + "\n"


@functools.cache
def _stepper():
    """The stepper as a Python function, built on the first run, not at
    import.  Its globals are this module's, so it looks _rhs_impl and
    _MAX_STEPS up here when it runs: perfbench counts RHS calls by
    rebinding _rhs_impl."""
    namespace = {}
    exec(compile(_stepper_source(), "<dopri stepper>", "exec"), globals(),
         namespace)
    return namespace["stepper"]


def propagate_grid(x0, t_out, e0, r0, mu, gw, control, observe,
                   plant_linear, ref_moving, w2, cm, k, l, noise, rtol, atol):
    """Propagate the plant state x0, estimation error e0 and reference r0
    across the output grid t_out on the plant with A = [[0, I], [w2 I, 0]],
    under the forcing gw = G w; returns the (n, 4) x, e and r series and
    the (n, 2) control series u, views of one (n, 14) array, or raises
    NumericalError with the kernel's status if the run fails.  `control`
    and `observe` are the ints 0 or 1.

    An observer run with noisy measurements or a linear plant lands on
    every grid time: its held noise must not straddle a sample, and on the
    linear plant criterion 6 holds its error block to the zero-order-hold
    recursion on the grid.  Every other run is free: it hands the stepper
    only the first and last grid time, under a step cap of a tenth of the
    span (_FREE_STEPS) and of _CLOSED_LOOP_STEP / rho for each closed loop,
    linearized through w2, that it carries (A - B K with control, A - L C
    with an observer, skipping rho = 0).  The stepper records its accepted
    steps _CHUNK at a time, and `_fill_dense` fills the rows between from
    each chunk; a filled row's control is u = -K (x - e - r), summed in
    _rhs_impl's order.  Row 0 is z0 and the last row the stepper's final
    state."""
    n = len(t_out)
    out = np.empty((n, 14))
    rows, buf, fill, h_max = out, None, None, np.inf
    free = observe == 0 or (plant_linear == 0 and not np.any(noise))
    if free:
        t_grid = np.asarray(t_out, float)
        rows, buf = np.empty((2, 14)), np.empty((_CHUNK, _STEP.size // 8))
        fill = functools.partial(_fill_dense, out, t_grid, rows, buf,
                                 np.asarray(k, float) if control else None)
        t_out, noise = t_grid[[0, -1]], np.asarray(noise)[:1]
        h_max = float(t_grid[-1] - t_grid[0]) / _FREE_STEPS
        plant = np.zeros((4, 4))  # A
        plant[0, 2] = plant[1, 3] = 1.0
        plant[2, 0] = plant[3, 1] = w2
        loops = []
        if control == 1:
            b_k = np.zeros((4, 4))
            b_k[2:] = k
            loops.append(plant - b_k)
        if observe == 1:
            loops.append(plant - np.dot(l, cm))
        for loop in loops:
            rho = float(np.abs(np.linalg.eigvals(loop)).max())
            if rho > 0.0:
                h_max = min(h_max, _CLOSED_LOOP_STEP / rho)
    z0, t_out, gw, cm, k, l, noise = (
        np.asarray(a, float).tolist() for a in
        (np.concatenate((x0, e0, r0)), t_out, gw, cm, k, l, noise))
    status = _stepper()(
        z0, t_out, float(mu), gw, control, observe, plant_linear, ref_moving,
        float(w2), cm, k, l, noise, float(rtol), float(atol), rows, buf, fill,
        h_max)
    if status != STATUS_OK:
        raise NumericalError(_STATUS_MESSAGES[status])
    if free:
        out[[0, -1]] = rows
    return out[:, 0:4], out[:, 4:8], out[:, 8:12], out[:, 12:14]


# Shampine's quartic interpolant for the Dormand-Prince pair (Hairer,
# Norsett & Wanner, Solving ODEs I, II.6, with Shampine's optimal c6): in a
# step of size h from y, y(t + theta h) = y + h sum_j b_j(theta) k_j, with
# b_j(theta) = sum_c P[j][c] theta^(c + 1), stage 7 being the FSAL stage at
# the new state.  Stage 2's row is zero, so a step records only the other
# stages (_DENSE_STAGES).
_DENSE_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_DENSE_STAGES = tuple(s for s, p in enumerate(_DENSE_P, 1) if any(p))
# A recorded step, one buffer row: its start time and size, the 12 states at
# its start, and the derivatives of each of _DENSE_STAGES.
_STEP = struct.Struct(f"{14 + 12 * len(_DENSE_STAGES)}d")


def _fill_dense(out, t, rows, buf, k, count, t_stop):
    """Write into the rows of a free run's (n, 14) output, on the grid t,
    between row 0 and row n - 1 whose time is from the start of the first
    of the `count` steps in buf (rows earlier were filled from earlier
    steps) to before t_stop: the 12 lanes of each row from the dense output
    of the step its time falls in, the last step taking every row after
    it, and, with the gain k, the control u = -K (x - e - r) at that state
    in _rhs_impl's order (else +0.0).  Every sum runs elementwise in a fixed
    order, up to _FILL_ROWS rows at a time.  With no step (a span too
    short to step) every such row is the stepper's last row, `rows[-1]`."""
    if count == 0:
        out[1:-1] = rows[-1]
        return
    steps = buf[:count]
    start, h, y = steps[:, 0], steps[:, 1], steps[:, 2:14]
    lo = max(1, int(np.searchsorted(t, start[0])))
    hi = min(len(t) - 1, int(np.searchsorted(t, t_stop)))
    if lo >= hi:
        return  # no grid time falls in these steps
    d_k = steps[:, 14:].reshape(count, len(_DENSE_STAGES), 12)
    # qc = h sum_j P[j][c] k_j, the theta^(c + 1) coefficient of y(theta) - y.
    q0, q1, q2, q3 = (
        h[:, None] * sum(_DENSE_P[s - 1][c] * d_k[:, j]
                         for j, s in enumerate(_DENSE_STAGES)
                         if _DENSE_P[s - 1][c])
        for c in range(4))
    for a in range(lo, hi, _FILL_ROWS):
        b = min(a + _FILL_ROWS, hi)
        s = np.searchsorted(start[1:], t[a:b], side="right")  # each row's step
        th = ((t[a:b] - start[s]) / h[s])[:, None]
        # y + th (q0 + th (q1 + th (q2 + th q3))), in place: a product or a
        # sum rounds the same with its operands swapped.  The accumulator is
        # a contiguous copy: in place in `out`'s strided rows took twice as
        # long.
        acc = q3[s]
        for q in (q2, q1, q0, y):
            acc *= th
            acc += q[s]
        out[a:b, :12] = acc
        if k is None:
            out[a:b, 12:] = 0.0
            continue
        d = acc[:, 0:4] - acc[:, 4:8] - acc[:, 8:12]
        for i, (k0, k1, k2, k3) in enumerate(k):
            out[a:b, 12 + i] = (0.0 - k0 * d[:, 0] - k1 * d[:, 1]
                                - k2 * d[:, 2] - k3 * d[:, 3])
