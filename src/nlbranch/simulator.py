"""Path simulation of the jump SDE by time stepping in the log-state.

Each step freezes the rates at the left endpoint x = e^y and advances

    X' = X (1 + R) exp(s N1) / (1 + s^2 / 2),      s^2 = a1(X) dt / X^2,

where R X = a0(X) dt + (a2(X) dt)^(1/alpha) S + sum of atom jumps is the
x-space Euler increment of everything but the diffusion.  On the full
support U = (0, inf) this heavy-jump part is exact under frozen rates:
S is spectrally positive stable, E exp(-lam S) = exp(lam^alpha), one
Chambers-Mallows-Stuck draw from two uniforms.  A support cut at u_max
splits it at a cutoff eps^(-alpha) = u_max^(-alpha) + alpha K / (c a2(X) dt)
that each lane takes from its step: a Poisson(K = 1) count of
inverse-CDF tail draws above eps, a variance-matched Gaussian N2 below
it and the compensation drift -a2(X) m_eps (Asmussen and Rosinski 2001),
so dt is the only knob.  Atoms add z_j N_j, one exact Poisson(a3(X) w_j
dt) count per atom location z_j in order, all of a step's counts drawn
as one block, by Poisson splitting the law of a Poisson(a3(X) nu(U^c) dt)
count of draws from the normalized nu.  Heavy jumps add each lane's
draws in jump order, whatever the other lanes of the block draw.

So y' = y + log1p(R) + s N1 - log1p(s^2 / 2).  The diffusion factor is the
exact log-Gaussian one under frozen log-variance, and the drift enters as
log1p(a0 dt / X) beside log1p(s^2 / 2): whenever the Ito drift of ln X,
a0/X - a1/(2 X^2), vanishes the two terms cancel exactly and a driftless
log-martingale stays driftless, while a pure drift still steps to
X + a0 dt.  A step with R <= -1 lands at or below zero.

A rate over the k-th power of the state enters in log form, b exp((r -
k) y) for a power law and exp(ln f(x) - k y) for a table, so no rate
overflows below the cap: the cap is a float level that may lie far
beyond the range where a1 itself is representable.  Zero and the cap
level are absorbing: once a path lands at or below the zero floor
(clamped to 0) or at or above the cap it is frozen, and where it
stopped tells how it ended.

With ``adaptive`` the per-lane step comes from the local law of y: the
standard deviation of y per step stays below max(0.14, d/10), where d is
the distance in y to the nearest level (crossing barrier, cap or
positive zero floor), its drift below a tenth of that, and the stable
scale (a2 dt)^(1/alpha)/x below 0.14, which bounds every a2 term.  The
variance of y per unit time is a1/x^2 plus the atoms' share,
a3 sum_j w_j log1p(z_j/x)^2; no count of atoms limits the step.

Barrier crossings are detected at grid points only, which biases passage
probabilities low: from x0 = 100 to a = 1 by t = 1 with a0 = x^2,
a1 = 2x^3 and adaptive steps (dt <= 1e-2) it reads 0.591 against
0.6259, the exact law of the capped process the simulator runs, -10.2
standard errors at 20k paths.

The engine steps every lane of a bundle as numpy vectors.  Lane i always
consumes random stream i regardless of scheduling, so results are
bit-identical for any thread count or block size.  A block steps only its
live lanes, held contiguous with their streams; lanes that finish leave
the live set on the iteration they finish, so each iteration costs what
its live lanes cost, not what the block does.  Few live lanes draw each
step's fixed words (N1, then the stable pair or N2) up to 64 steps ahead
in one hash pass; each is still the word at its lane's counter.  Under
scale-free rates (a0 = b0 x, a1 = b1 x^2, a2 = b2 x^alpha on full support,
no atoms) ln X is a random walk: a fixed step's growth X'/X is a function
of its draws alone, so such a block steps the whole buffer at once.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from .criteria import TestFunction, generator_values
from .model import PowerLaw, ValidatedModel, ValidationError
from .numerics.rng import StreamBundle

__all__ = [
    "SimConfig",
    "trace_path",
    "martingale_residual",
]

# adaptive step targets: per-step s.d. of the log-state near a level, and
# the fraction of the distance to the nearest level allowed further away
# (also the drift per step as a fraction of the s.d.).  No limit is
# floored: each step moves y by a resolvable amount, so the lanes they
# slow still finish, however close the cap.
_LOG_SD = 0.14
_FAR = 0.1

# expected heavy jumps per lane-step on a cut support: sets the cutoff
_HEAVY_JUMPS = 1.0

# draw-ahead depth when no step draws a Poisson count: k = min(64, 4096
# // live lanes) steps, so each (k, lanes) slot stays in cache while a
# few live lanes pay one hash pass per 64 steps
_AHEAD_STEPS = 64
_AHEAD_BUDGET = 4096

# exponents (r - k) y and ln f(x) - k y are clamped here before exp, so no
# scaled rate overflows even past the cap or near zero
_LOG_SCALE_MAX = 700.0


@dataclass(frozen=True)
class SimConfig:
    """Discretization and truncation controls.

    ``eps_cut`` and ``eps_rule`` are checked but read by nothing, so that
    run files and callers that set them still load: a cut support takes
    its jump cutoff from each step.  ``adaptive`` shrinks the step per
    lane from the local law of the log-state (see the module docstring).
    ``cap_b`` is the explosion proxy; its default lies far beyond any
    level a non-explosive model reaches, while keeping the state a float.
    """
    dt: float = 1e-3
    eps_cut: float = 1e-4
    horizon_t: float = 1.0
    cap_b: float = 1e300
    floor_zero: float = 0.0
    adaptive: bool = False
    eps_rule: str = "absolute"
    step_budget: int = 10_000_000

    def __post_init__(self):
        for name, failed, rule in (
                ("dt", not self.dt > 0.0, "must be positive"),
                ("eps_cut", not self.eps_cut > 0.0, "must be positive"),
                ("horizon_t", not 0.0 < self.horizon_t < np.inf,
                 "must be positive and finite"),
                ("cap_b", not self.cap_b > 0.0, "must be positive"),
                ("floor_zero", not self.floor_zero >= 0.0, "must be >= 0"),
                ("floor_zero", not self.floor_zero < self.cap_b,
                 "must be below cap_b"),
                ("step_budget", not self.step_budget >= 1, "must be >= 1"),
                ("eps_rule", self.eps_rule not in ("absolute", "relative"),
                 "must be 'absolute' or 'relative'")):
            if failed:
                raise ValidationError(name, f"{name} {rule}")


def _zero(term) -> bool:
    """Whether a rate term is the scalar 0.0 of an inactive channel (an
    array is never skipped): adding or subtracting it changes no bit, so
    the array pass is left out."""
    return isinstance(term, float) and term == 0.0


def _cutoff_terms(a, c, eps, u_max):
    """Cutoff constants of the stable density c z**(-1-a) on U per unit
    rate, for a scalar or an array of cutoffs eps: the mean m of the
    jumps above eps (also the compensation drift) and the variance
    sigma2 of the Gaussian stand-in for the jumps below it.

    With full support m = c eps^(1-a) / (a-1) and sigma2 = c eps^(2-a) /
    (2-a).  A support cut at u_max truncates the tail piece; a cutoff at
    or above u_max leaves no heavy jumps.
    """
    m = c * eps ** (1.0 - a) / (a - 1.0)
    sigma2 = c * eps ** (2.0 - a) / (2.0 - a)
    if u_max is not None:
        cut = eps < u_max
        m = np.where(cut, m - c * u_max ** (1.0 - a) / (a - 1.0), 0.0)
        sigma2 = np.where(cut, sigma2, c * u_max ** (2.0 - a) / (2.0 - a))
    return m, sigma2


def _stable_unit(alpha, u1, u2):
    """Chambers-Mallows-Stuck draw of S, E exp(-lam S) = exp(lam^alpha),
    from uniforms in (0, 1); w = pi u1 keeps every power's base positive."""
    w = np.pi * u1
    return (-np.sin(alpha * w) / np.sin(w) ** (1.0 / alpha)
            * (np.sin((alpha - 1.0) * w) / -np.log(u2))
            ** ((1.0 - alpha) / alpha))


@functools.cache
def _ahead_offsets(w, k):
    """Counter offsets of k steps of w words, shape (w, k, 1): word s of
    step j at j * w + s, so that each word's (k, lanes) draws are
    contiguous.  Read-only, as every caller shares it."""
    offsets = np.arange(w, dtype=np.uint64)[:, None, None] \
        + w * np.arange(k, dtype=np.uint64)[:, None]
    offsets.setflags(write=False)
    return offsets


def _jump_sums(bundle, counts, size):
    """Each lane's sum of its ``counts`` jumps, and the lanes' streams
    advanced past them.

    Jump j of a lane is ``size(u)`` of the uniform at its counter plus j.
    The block steps in lockstep, one jump index at a time, and adds a
    lane's jumps in jump order, so its sum does not depend on the other
    lanes of its block.  The counts are Poisson(1), so lockstep costs
    about what the lanes' own jumps cost.
    """
    sums = np.zeros(counts.shape)
    for j in range(int(counts.max(initial=0))):
        sums += np.where(counts > j, size(bundle.uniforms_at(j)), 0.0)
    bundle.advance(counts)
    return sums


class _Scaled:
    """Rates over powers of the state, f(x) / x**k, for one vector of lanes.

    A power law is b exp((r - k) y) with y = ln x taken once per step, and
    equal exponents share one exp, so no rate overflows and a drift that
    balances its diffusion does so to the last bit.  A tabulated rate is
    exp(ln f(x) - k y), its exponent clamped as a power law's, at every
    x and k; a zero rate stays 0.
    """

    def __init__(self, x):
        self.x = x
        self._y = None
        self._powers = {}

    @property
    def y(self):
        if self._y is None:
            self._y = np.log(self.x)
        return self._y

    def __call__(self, f, k):
        if f.is_zero:
            return 0.0
        if not isinstance(f, PowerLaw):
            with np.errstate(divide="ignore"):
                return np.exp(np.minimum(np.log(f(self.x)) - k * self.y,
                                         _LOG_SCALE_MAX))
        e = f.r - k
        if e == 0.0:
            return f.b
        power = self._powers.get(e)
        if power is None:
            power = e * self.y
            np.minimum(power, _LOG_SCALE_MAX, out=power)
            self._powers[e] = np.exp(power, out=power)
        return f.b * power


class _Engine:
    """Vectorized stepping over a block of lanes.

    ``levels`` are the crossing barriers of the run; with the cap and a
    positive zero floor they set the adaptive step's distance rule.
    """

    def __init__(self, model: ValidatedModel, cfg: SimConfig, levels=()):
        self.model = model
        self.cfg = cfg
        self.alpha = model.alpha
        spec = model.spec
        self.a1_active = not spec.a1.is_zero
        self.a2_active = not spec.a2.is_zero
        # the atom locations z and weights w of nu; none where a3 is 0
        self.atoms = () if spec.a3.is_zero else tuple(
            zip(model.nu_z.tolist(), model.nu_w.tolist()))
        # one exact stable draw per step on full support
        self.stable = self.a2_active and model.u_max is None
        # the words every step of every lane draws, in stream order,
        # before any Poisson count; a count's words vary step to step, so
        # a step that draws one is never drawn ahead
        self.prefix = ("n1",) * self.a1_active + (
            ("u1", "u2") if self.stable else ("n2",) * self.a2_active)
        self.poisson = self.a2_active and not self.stable or bool(self.atoms)
        # a0 = b0 x, a1 = b1 x^2 and a2 = b2 x^alpha on full support with
        # no atoms scale to the scalars b: a step's growth X'/X is then a
        # function of its draws alone (see step_ahead)
        rates = [_Scaled(np.ones(1))(f, k) for f, k in (
            (spec.a0, 1.0), (spec.a1, 2.0), (spec.a2, self.alpha))]
        self.free_rates = (None if self.poisson or any(map(np.ndim, rates))
                           else rates)
        self.log_levels = np.log([v for v in (*levels, cfg.cap_b,
                                              cfg.floor_zero)
                                  if 0.0 < v < np.inf])

    def _adaptive_dt(self, y, drift, var, stable):
        """Largest step within the log-state targets."""
        dist = np.inf
        for level in self.log_levels:
            dist = np.minimum(dist, np.abs(y - level))
        sd = np.maximum(_LOG_SD, _FAR * dist)
        lim = np.inf   # each limit of a zero term would be inf
        with np.errstate(divide="ignore"):
            if not _zero(var):
                lim = sd * sd / var
            if not _zero(drift):
                lim = np.minimum(lim, _FAR * sd / np.abs(drift))
            if self.a2_active:  # linear in x: the near-level target anywhere
                lim = np.minimum(lim, _LOG_SD ** self.alpha / stable)
        return lim

    def draw_ahead(self, bundle, k):
        """The prefix draws of the bundle's next k steps from one
        ``uniforms_at`` pass, shape (draws, k, lanes): N1 first, then the
        stable unit S or N2.  Step j reads the words k steps one at a
        time would read."""
        u = bundle.uniforms_at(_ahead_offsets(len(self.prefix), k))
        if self.stable:
            u[-2] = _stable_unit(self.alpha, u[-2], u[-1])
            u = u[:-1]
        normals = u[:-1] if self.stable else u
        ndtri(normals, out=normals)
        return u

    def advance(self, x, t, bundle, row=None):
        """One step for the lanes of ``bundle``; returns (x', t', dt,
        hit_horizon).  ``row`` is the step's prefix draws,
        ``draw_ahead(...)[:, j]`` (None: drawn here); either way the
        counters then move past the prefix."""
        cfg = self.cfg
        spec = self.model.spec
        scaled = _Scaled(x)
        mu = scaled(spec.a0, 1.0)
        var = scaled(spec.a1, 2.0)
        stable = scaled(spec.a2, self.alpha) if self.a2_active else 0.0
        a3 = scaled(spec.a3, 0.0) if self.atoms else 0.0

        dt = cfg.dt
        if cfg.adaptive:
            drift_y = mu if _zero(var) else mu - 0.5 * var
            if self.stable:
                drift_y = drift_y - self.model.gamma_alpha * stable
            var_y = var
            for z, w in self.atoms:
                var_y = var_y + a3 * w * np.log1p(z / x) ** 2
            dt = np.minimum(dt, self._adaptive_dt(
                scaled.y, drift_y, var_y, stable))
        remaining = cfg.horizon_t - t
        hit_horizon = dt >= remaining
        dt = np.where(hit_horizon, remaining, dt)

        if row is None:
            row = self.draw_ahead(bundle, 1)[:, 0]
        bundle.advance(len(self.prefix))

        def jumps(rel):
            if self.a2_active and not self.stable:
                # K heavy jumps expected above eps, eps^-a = u_max^-a + gap,
                # drawn by inverse CDF; none where a2 dt is 0 (or gap
                # overflows), where eps = u_max leaves nothing below it
                a, um = self.alpha, self.model.u_max
                a2dt = np.broadcast_to(scaled(spec.a2, 0.0) * dt, x.shape)
                with np.errstate(divide="ignore", over="ignore"):
                    gap = a * _HEAVY_JUMPS / (self.model.c_alpha * a2dt)
                hot = gap < np.inf
                eps = np.where(hot, (um ** -a + gap) ** (-1.0 / a), um)
                m, s2 = _cutoff_terms(a, self.model.c_alpha, eps, um)
                rel = rel + (np.sqrt(s2 * a2dt) * row[-1] - m * a2dt) / x
                rel = rel + _jump_sums(
                    bundle, bundle.poissons(_HEAVY_JUMPS * hot),
                    lambda u: (um ** -a + (1.0 - u) * gap)
                    ** (-1.0 / a)) / x
            if self.atoms:   # one count per atom location, in order
                counts = bundle.poissons(self.model.nu_w[:, None] * (a3 * dt))
                rel = rel + sum(z * n for (z, _), n in zip(self.atoms,
                                                          counts)) / x
            return rel

        return (self._growth(x, mu, var, stable, dt, row, jumps), t + dt, dt,
                hit_horizon)

    def _growth(self, x, mu, var, stable, dt, row, jumps=None):
        """x times a step's growth X'/X, from the scaled rates, the step
        length dt and prefix draws ``row``, ``jumps(rel)`` adding any
        Poisson-counted jumps to rel; dt of shape (k, 1) and rows (draws,
        k, lanes) give k steps."""
        rel = mu * dt
        if self.stable:
            rel = rel + (stable * dt) ** (1.0 / self.alpha) * row[-1]
        if self.poisson:
            rel = jumps(rel)
        grow = 1.0 + rel
        # a step past the float range lands on the cap
        with np.errstate(over="ignore"):
            if self.a1_active:
                v = var * dt
                grow = grow / (1.0 + 0.5 * v) * np.exp(np.sqrt(v) * row[0])
            return x * grow

    def step_ahead(self, x, t, bundle, k):
        """Up to k fixed steps of scale-free rates from lanes x all at
        time t, on the ``draw_ahead`` rows of ``bundle`` to the horizon:
        the states after each row (rows, lanes), each row's (t', dt) and
        whether the last reaches it, every bit as ``advance`` steps them."""
        clock, hit = [], False
        while not hit and len(clock) < k:
            remaining = self.cfg.horizon_t - t
            hit = self.cfg.dt >= remaining
            dt = remaining if hit else self.cfg.dt
            t = t + dt
            clock.append((t, dt))
        path = self._growth(np.ones(x.size), *self.free_rates,
                            np.array(clock)[:, 1:],
                            self.draw_ahead(bundle, len(clock)))
        with np.errstate(over="ignore", invalid="ignore"):
            path[0] *= x
            if len(path) > 1:   # costs a pass per lane even on one row
                np.multiply.accumulate(path, axis=0, out=path)
        return path, clock, hit


def _check_start(cfg, x0, t=None, t_name="t"):
    """Reject a start x0 outside (floor_zero, cap_b), where every path
    would end before its first step, and a horizon t outside
    (0, horizon_t]; nan fails both."""
    if not cfg.floor_zero < x0 < cfg.cap_b:
        raise ValueError(f"x0 must be finite and in (floor_zero, cap_b) = "
                         f"({cfg.floor_zero!r}, {cfg.cap_b!r}), got {x0!r}")
    if t is not None and not 0.0 < t <= cfg.horizon_t:
        raise ValueError(f"{t_name} must be in (0, horizon_t = "
                         f"{cfg.horizon_t!r}], got {t!r}")


def _run_block(model, cfg, x0, a, b, bundle, horizon=None, on_step=None):
    """Simulate one block of lanes to crossing/absorption/cap/horizon.

    Only the live lanes are stepped, held contiguous with their streams in
    a ``StreamBundle.take`` of ``bundle``, so every draw and every array
    operation covers whole arrays with no gather or scatter.  A lane
    freezes at its first event: on an iteration where some lanes finish,
    their state, time and stream counter are written back to the caller's
    arrays and ``bundle`` once, and the live set is compacted, with the
    unread rows of the live lanes' drawn-ahead prefix
    (``_Engine.draw_ahead``, refilled when it runs out), or of the states
    ``_Engine.step_ahead`` made of those up to the horizon, when the block
    moves from one row where lanes finish to the next at once.  Lanes
    still live when ``step_budget`` runs out are written back the same way,
    and a state that turns nan raises ``FloatingPointError``.

    ``on_step(lanes, x_left, x, t, dt)``, when given, is called after
    every step and before any finished lane leaves the live set:
    ``lanes`` are the caller's indices of the live lanes, ``x_left`` their
    states before the step and ``x``, ``t``, ``dt`` after it.  It must not
    write to these arrays.

    Returns a dict of per-lane arrays and the ints ``iterations`` (steps
    taken) and ``lane_steps`` (summed lanes).  ``unfinished`` lanes were
    cut off by the step budget; every other outcome follows from where a
    lane stopped, at ``t``: ``absorbed`` at or below the zero floor (its
    ``x`` reads 0), ``capped`` at or above the cap, and crossed below a
    or above b at ``tau_a`` or ``tau_b``, nan where it did not cross.
    """
    horizon = cfg.horizon_t if horizon is None else float(horizon)
    eng = _Engine(model, replace(cfg, horizon_t=horizon), levels=(a, b))
    n = bundle.size
    x = np.full(n, float(x0))
    t = np.zeros(n)
    unfinished = np.zeros(n, dtype=bool)

    # the live lanes: caller's index, state and streams
    lanes = np.arange(n)
    xl, tl = x.copy(), t.copy()
    live = bundle.take(lanes)
    # a lane stays live while one lower and one upper test both hold: a
    # lane at or below the zero floor is below a barrier above the floor,
    # and a lane at or above the cap is above a barrier below the cap.  A
    # nan fails both, so a state that turns nan finishes and raises below
    floor, cap = cfg.floor_zero, cfg.cap_b
    low = (lambda v: v >= a) if a > floor else (lambda v: v > floor)
    high = (lambda v: v <= b) if b < cap else (lambda v: v < cap)

    def finished(v):
        return ~(low(v) & high(v))

    # scale-free fixed steps: each refill steps its whole buffer at once
    at_once = eng.free_rates is not None and not cfg.adaptive
    iterations = lane_steps = 0
    row = depth = 0   # the next unread row of the live lanes' prefix
    now = 0.0         # the live lanes' time, when they share one
    while lanes.size and iterations < cfg.step_budget:
        if row == depth:
            row, depth = 0, 1 if eng.poisson else min(
                _AHEAD_STEPS, max(1, _AHEAD_BUDGET // lanes.size))
            if at_once:   # only the rows up to the horizon are drawn
                path, clock, hit = eng.step_ahead(xl, now, live, depth)
                depth = len(clock)
                ends = finished(path)
                ends[-1] |= hit
            else:
                ahead = eng.draw_ahead(live, depth)
        x_left = xl
        if at_once:
            if row == 0:   # a new or compacted buffer: its first end row
                finish = min(np.flatnonzero(ends.any(1)).tolist(), default=depth)
            # on to the next row where lanes finish, the end or the budget
            stop = row + 1 if on_step is not None else min(
                finish + 1, depth, row + cfg.step_budget - iterations)
            iterations += stop - row
            lane_steps += (stop - row) * lanes.size
            live.advance((stop - row) * len(eng.prefix))
            row = stop
            xl, done = path[row - 1], ends[row - 1]
            now, dt = clock[row - 1]
            if row <= finish and on_step is None and \
                    iterations < cfg.step_budget:
                continue
            tl, dt = np.full(lanes.size, now), np.full(lanes.size, dt)
        else:
            iterations += 1
            lane_steps += lanes.size
            # row positional: perfbench's trace hook reads it as args[4]
            xl, tl, dt, hit_horizon = eng.advance(xl, tl, live, ahead[:, row])
            row += 1
            done = finished(xl) | hit_horizon
        if on_step is not None:
            on_step(lanes, x_left, xl, tl, dt)
        if not done.any():
            continue

        # few lanes finish at once: index them by position, not by mask
        sel = np.flatnonzero(done)
        fin = lanes[sel]
        x_fin = xl[sel]
        if np.isnan(x_fin).any():
            k = sel[np.isnan(x_fin).argmax()]
            raise FloatingPointError(
                f"lane {lanes[k]} stepped from x = {float(x_left[k])!r} to "
                f"nan at step {iterations} (t = {float(tl[k])!r})")
        x[fin] = x_fin
        t[fin] = tl[sel]
        bundle.put(fin, live.take(sel))
        keep = ~done
        lanes, xl, tl = lanes[keep], xl[keep], tl[keep]
        live = live.take(keep)
        if row < depth:
            if at_once:
                path, ends, clock = (path[row:, keep], ends[row:, keep],
                                     clock[row:])
            else:
                ahead = ahead[:, row:, keep]
            row, depth = 0, depth - row

    # lanes the step budget cut off
    unfinished[lanes] = True
    x[lanes] = xl
    t[lanes] = tl
    bundle.put(lanes, live)
    # each lane stopped at its first event, and a lane the budget cut off
    # is inside both end tests, so where a lane stopped tells how it ended
    absorbed = x <= floor
    x[absorbed] = 0.0
    return {
        "x": x, "t": t, "tau_a": np.where(x < a, t, np.nan),
        "tau_b": np.where(x > b, t, np.nan), "absorbed": absorbed,
        "capped": x >= cap, "unfinished": unfinished,
        "iterations": iterations, "lane_steps": lane_steps,
    }


def trace_path(model: ValidatedModel, cfg: SimConfig, x0: float, seed: int,
               max_points: int = 10_000):
    """One path trace on stream 0 of ``seed`` as (t, x) arrays, thinned to
    at most max_points, and whether the step budget cut it off.

    The path is the lane's (t, x) after every step, from (0, x0) to its
    first event or last step; a state at or below the zero floor reads 0.
    """
    _check_start(cfg, x0)
    if max_points < 2:
        raise ValueError(f"max_points must be >= 2, got {max_points}")
    pts = [(0.0, float(x0))]

    def record(lanes, x_left, x, t, dt):
        pts.append((float(t[0]),
                    0.0 if x[0] <= cfg.floor_zero else float(x[0])))

    out = _run_block(model, cfg, x0, a=-1.0, b=np.inf,
                     bundle=StreamBundle(seed, np.zeros(1, dtype=np.uint64)),
                     on_step=record)
    stride = max(1, int(math.ceil(len(pts) / (max_points - 1))))
    thinned = pts[::stride]
    if thinned[-1] != pts[-1]:
        thinned.append(pts[-1])
    ts = np.array([p[0] for p in thinned])
    xs = np.array([p[1] for p in thinned])
    return ts, xs, bool(out["unfinished"][0])


def martingale_residual(model: ValidatedModel, cfg: SimConfig,
                        g: TestFunction, x0: float, t: float, a: float,
                        b: float, n_paths: int, seed: int,
                        quad_tol: float = 1e-8):
    """Sample mean of g(X at t or first crossing) - g(x0) - integral of
    the generator along the path; near zero when the stopped process is a
    martingale.

    The generator integral is accumulated per step at the left endpoint,
    which matches the stepping scheme exactly: a step callback adds
    (L g)(x_left) dt to each live lane's integral.
    """
    _check_start(cfg, x0, t)
    if not (0.0 < a < x0 < b):
        raise ValueError("need 0 < a < x0 < b")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    g.check_derivatives([a, x0, min(b, 10.0 * x0)])
    n = int(n_paths)
    lg_integral = np.zeros(n)

    def integrate(lanes, x_left, _x, _t, dt):
        lg_integral[lanes] += generator_values(model, g, x_left, quad_tol) * dt

    out = _run_block(model, cfg, x0, a, b,
                     StreamBundle(seed, np.arange(n, dtype=np.uint64)),
                     horizon=t, on_step=integrate)
    g_final = np.asarray(g.g(out["x"]), dtype=float)
    if not np.all(np.isfinite(g_final)):
        raise FloatingPointError(
            "test function not finite at a stopped state; tighten (a, b)")
    residuals = g_final - float(g.g(x0)) - lg_integral
    residual = float(residuals.mean())
    stderr = float(residuals.std(ddof=1) / math.sqrt(len(residuals)))
    return {"residual": residual, "stderr": stderr}
