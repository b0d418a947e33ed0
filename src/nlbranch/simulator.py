"""Path simulation of the jump SDE by time stepping in the log-state.

Each step freezes the rates at the left endpoint x = e^y and advances

    X' = X (1 + R) exp(s N1) / (1 + s^2 / 2),      s^2 = a1(X) dt / X^2,

where R X = a0(X) dt + (a2(X) dt)^(1/alpha) S + sum of atom jumps is the
x-space Euler increment of everything but the diffusion.  On the full
support U = (0, inf) this heavy-jump part is exact under frozen rates:
S is spectrally positive stable, E exp(-lam S) = exp(lam^alpha), one
Chambers-Mallows-Stuck draw from two uniforms.  A support cut at u_max
splits it at a cutoff eps instead (``stable_step_params``): a Poisson
count of inverse-CDF tail draws above eps, a variance-matched Gaussian
N2 below it and the compensation drift -a2(X) m_eps.

So y' = y + log1p(R) + s N1 - log1p(s^2 / 2).  The diffusion factor is the
exact log-Gaussian one under frozen log-variance, and the drift enters as
log1p(a0 dt / X) beside log1p(s^2 / 2): whenever the Ito drift of ln X,
a0/X - a1/(2 X^2), vanishes the two terms cancel exactly and a driftless
log-martingale stays driftless, while a pure drift still steps to
X + a0 dt.  A step with R <= -1 lands at or below zero.

Power-law rates enter as b exp((r - k) y), a rate over the k-th power of
the state, so no rate overflows below the cap: the cap is a float level
that may lie far beyond the range where a1 itself is representable.
Zero and the cap level are absorbing: once a path lands at or below the
zero floor (clamped to 0) or at or above the cap it is frozen.

With ``adaptive`` the per-lane step comes from the local law of y: the
standard deviation of y per step stays below max(0.14, d/10), where d is
the distance in y to the nearest level (crossing barrier, cap or
positive zero floor), its drift below a tenth of that, the stable scale
(a2 dt)^(1/alpha)/x, linear in x, below 0.14, and the expected count of
cut-support heavy jumps and atoms per step below 0.01.

Barrier crossings are detected at grid points only, which biases passage
probabilities low: from x0 = 100 to a = 1 by t = 1 with a0 = x^2,
a1 = 2x^3 and adaptive steps it reads 0.595 against the exact 0.629,
about -10 standard errors at 20k paths.

The engine advances whole lanes of paths as numpy vectors.  Lane i always
consumes random stream i regardless of scheduling, so results are
bit-identical for any thread count or block size.  A block steps only its
live lanes, held contiguous with their streams; lanes that finish leave
the live set on the iteration they finish, so each iteration costs what
its live lanes cost, not what the block does.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .criteria import TestFunction, generator_values
from .model import PowerLaw, StableMeasure, ValidatedModel
from .numerics.rng import RngStream, StreamBundle

__all__ = [
    "SimConfig",
    "PathState",
    "PassageRecord",
    "StableStepParams",
    "stable_step_params",
    "step",
    "simulate_until",
    "trace_path",
    "martingale_residual",
]

# adaptive step targets: per-step s.d. of the log-state near a level, the
# fraction of the distance to the nearest level allowed further away
# (also the drift per step as a fraction of the s.d.), and the expected
# jump count per step
_LOG_SD = 0.14
_FAR = 0.1
_JUMPS_PER_STEP = 0.01

# floor of the jump-count limit on the adaptive step; together with the
# step budget it guards against a stalled clock when jumps are dense but
# small.  The log-variance and drift limits are not floored: each of
# their steps moves y by a resolvable amount, so the lanes they slow
# still finish, however close the cap.
_DT_FLOOR = 1e-15

# exponents (r - k) y are clamped here before exp, so no scaled rate
# overflows even past the cap or near zero
_LOG_SCALE_MAX = 700.0


@dataclass(frozen=True)
class SimConfig:
    """Discretization and truncation controls.

    ``eps_cut`` is the small-jump cutoff of a stable support cut at u_max
    (full support takes one exact draw per step); ``eps_rule`` "relative"
    scales it to ``eps_cut * X``, bounding the jumps per step over decades.
    ``adaptive`` shrinks the step per lane from the local law of the
    log-state (see the module docstring).  ``cap_b`` is the explosion
    proxy; its default lies far beyond any level a non-explosive model
    reaches, while keeping the state a float.
    """
    dt: float
    eps_cut: float
    horizon_t: float
    cap_b: float = 1e300
    floor_zero: float = 0.0
    adaptive: bool = False
    eps_rule: str = "absolute"
    step_budget: int = 10_000_000

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.eps_cut > 0.0:
            raise ValueError("eps_cut must be positive")
        if not self.horizon_t > 0.0:
            raise ValueError("horizon_t must be positive")
        if not self.cap_b > 0.0:
            raise ValueError("cap_b must be positive")
        if self.floor_zero < 0.0:
            raise ValueError("floor_zero must be >= 0")
        if self.eps_rule not in ("absolute", "relative"):
            raise ValueError("eps_rule must be 'absolute' or 'relative'")


@dataclass
class PathState:
    t: float
    x: float
    absorbed_zero: bool = False
    capped: bool = False

    @property
    def frozen(self) -> bool:
        return self.absorbed_zero or self.capped


@dataclass
class PassageRecord:
    """First-crossing times of one path (None where never crossed)."""
    tau_a_minus: Optional[float]
    tau_b_plus: Optional[float]
    tau_zero: Optional[float]
    capped_at: Optional[float]
    final: PathState


@dataclass(frozen=True)
class StableStepParams:
    """Per-unit-rate constants of the cutoff decomposition on a cut support.

    lam_eps: intensity of jumps above the cutoff; m_eps: their mean (also
    the compensation drift); sigma2_eps: variance of the Gaussian stand-in
    for the jumps below the cutoff.
    """
    lam_eps: float
    m_eps: float
    sigma2_eps: float


def stable_step_params(alpha: float, eps: float,
                       u_max: Optional[float] = None,
                       c_alpha: Optional[float] = None) -> StableStepParams:
    """Closed-form cutoff constants for the stable density on U.

    With full support: lam = c eps^-a / a, m = c eps^(1-a) / (a-1),
    sigma2 = c eps^(2-a) / (2-a).  A support cut at u_max truncates the
    tail pieces accordingly; a cutoff at or above u_max leaves no heavy
    jumps at all.
    """
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (1, 2)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    c = StableMeasure(alpha).c_alpha() if c_alpha is None else c_alpha
    lam, m, sigma2 = _cutoff_terms(alpha, c, eps, u_max)
    return StableStepParams(float(lam), float(m), float(sigma2))


def _cutoff_terms(a, c, eps, u_max):
    """(lam, m, sigma2) of ``stable_step_params`` for a scalar or an array
    of cutoffs."""
    lam = c * eps ** (-a) / a
    m = c * eps ** (1.0 - a) / (a - 1.0)
    sigma2 = c * eps ** (2.0 - a) / (2.0 - a)
    if u_max is not None:
        cut = eps < u_max
        lam = np.where(cut, lam - c * u_max ** (-a) / a, 0.0)
        m = np.where(cut, m - c * u_max ** (1.0 - a) / (a - 1.0), 0.0)
        sigma2 = np.where(cut, sigma2, c * u_max ** (2.0 - a) / (2.0 - a))
    return lam, m, sigma2


def _stable_unit(alpha, u1, u2):
    """Chambers-Mallows-Stuck draw of S, E exp(-lam S) = exp(lam^alpha),
    from uniforms in (0, 1); w = pi u1 keeps every power's base positive."""
    w = np.pi * u1
    return (-np.sin(alpha * w) / np.sin(w) ** (1.0 / alpha)
            * (np.sin((alpha - 1.0) * w) / -np.log(u2))
            ** ((1.0 - alpha) / alpha))


class _Scaled:
    """Rates over powers of the state, f(x) / x**k, for one vector of lanes.

    A power law is b exp((r - k) y) with y = ln x taken once per step, and
    equal exponents share one exp, so no rate overflows and a drift that
    balances its diffusion does so to the last bit.
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
            return np.asarray(f(self.x), dtype=float) / self.x ** k
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
        self.nu_active = not model.nu_empty and not spec.a3.is_zero
        if self.nu_active:
            self.nu_mass = model.nu_mass
            self.nu_cum = np.cumsum(model.nu_w) / self.nu_mass
            self.nu_z = model.nu_z
        else:
            self.nu_mass = 0.0
        # one exact stable draw per step on full support
        self.stable = self.a2_active and model.u_max is None
        self.log_levels = np.log([v for v in (*levels, cfg.cap_b,
                                              cfg.floor_zero)
                                  if 0.0 < v < np.inf])

    def _adaptive_dt(self, y, drift, var, jump_rate, stable):
        """Largest step within the log-state and jump-count targets."""
        dist = np.inf
        for level in self.log_levels:
            dist = np.minimum(dist, np.abs(y - level))
        sd = np.maximum(_LOG_SD, _FAR * dist)
        with np.errstate(divide="ignore"):
            lim = np.minimum(sd * sd / var, _FAR * sd / np.abs(drift))
            if self.stable:  # linear in x: the near-level target anywhere
                lim = np.minimum(lim, _LOG_SD ** self.alpha / stable)
            lim_jump = np.divide(_JUMPS_PER_STEP, jump_rate)
        return np.minimum(lim, np.maximum(lim_jump, _DT_FLOOR))

    def _heavy_jump(self, eps, u):
        """Inverse-CDF draw from the cut stable tail above the cutoff."""
        a = self.alpha
        um = self.model.u_max
        lo = eps ** (-a)
        hi = um ** (-a)
        return (lo - u * (lo - hi)) ** (-1.0 / a)

    def advance(self, x, t, bundle, idx):
        """One step for the lanes ``idx`` of ``bundle`` (None: all of its
        lanes, in order); returns (x', t', dt, hit_horizon)."""
        cfg = self.cfg
        spec = self.model.spec
        scaled = _Scaled(x)
        mu = scaled(spec.a0, 1.0)
        var = scaled(spec.a1, 2.0)
        stable = rate_big = comp = var_jump = 0.0
        if self.stable:
            stable = scaled(spec.a2, self.alpha)
        elif self.a2_active:
            # per-lane cutoff, then heavy-jump rate, compensation drift
            # over x and small-jump variance over x**2
            eps = cfg.eps_cut * x if cfg.eps_rule == "relative" \
                else np.full_like(x, cfg.eps_cut)
            lam, m, s2 = _cutoff_terms(self.alpha, self.model.c_alpha, eps,
                                       self.model.u_max)
            rate_big, comp, var_jump = (lam * scaled(spec.a2, 0.0),
                                        m * scaled(spec.a2, 1.0),
                                        s2 * scaled(spec.a2, 2.0))
        rate_nu = scaled(spec.a3, 0.0) * self.nu_mass if self.nu_active \
            else 0.0

        dt = cfg.dt
        if cfg.adaptive:
            # variance and drift of y (between cut-support heavy jumps)
            var_y = var + var_jump
            drift_y = mu - comp - 0.5 * var_y - self.model.gamma_alpha * stable
            dt = np.minimum(dt, self._adaptive_dt(
                scaled.y, drift_y, var_y, rate_big + rate_nu, stable))
        remaining = cfg.horizon_t - t
        hit_horizon = dt >= remaining
        dt = np.where(hit_horizon, remaining, dt)

        rel = mu * dt
        if self.a1_active:
            n1 = bundle.normals(idx)
        if self.stable:
            s = _stable_unit(self.alpha, bundle.uniforms(idx),
                             bundle.uniforms(idx))
            rel = rel + (stable * dt) ** (1.0 / self.alpha) * s
        elif self.a2_active:
            n2 = bundle.normals(idx)
            rel = rel - comp * dt + np.sqrt(var_jump * dt) * n2
            n_big = bundle.poissons(rate_big * dt, idx)
            top = int(n_big.max()) if n_big.size else 0
            if top > 256:
                # huge per-step counts: sum each lane's jumps in one flat
                # pass instead of lock-stepping the whole block top times
                jump_sum = np.zeros_like(x)
                lane_idx = np.arange(x.size) if idx is None else idx
                for k in range(x.size):
                    nk = int(n_big[k])
                    if nk == 0:
                        continue
                    offs = np.arange(nk, dtype=np.uint64)
                    u = bundle.uniforms_at(offs, lane_idx[k:k + 1])
                    jump_sum[k] = float(np.sum(self._heavy_jump(eps[k], u)))
                bundle.advance(n_big, idx)
                rel = rel + jump_sum / x
            elif top > 0:
                jump_sum = np.zeros_like(x)
                for j in range(top):
                    has = n_big > j
                    u = bundle.uniforms_at(j, idx)
                    jump_sum += np.where(has, self._heavy_jump(eps, u), 0.0)
                bundle.advance(n_big, idx)
                rel = rel + jump_sum / x
        if self.nu_active:
            n_nu = bundle.poissons(rate_nu * dt, idx)
            top = int(n_nu.max()) if n_nu.size else 0
            if top > 0:
                atom_sum = np.zeros_like(x)
                for j in range(top):
                    has = n_nu > j
                    u = bundle.uniforms_at(j, idx)
                    k = np.searchsorted(self.nu_cum, u)
                    atom_sum += np.where(has, self.nu_z[np.minimum(
                        k, self.nu_z.size - 1)], 0.0)
                bundle.advance(n_nu, idx)
                rel = rel + atom_sum / x
        grow = 1.0 + rel
        # a step past the float range lands on the cap
        with np.errstate(over="ignore"):
            if self.a1_active:
                v = var * dt
                grow = grow / (1.0 + 0.5 * v) * np.exp(np.sqrt(v) * n1)
            return x * grow, t + dt, dt, hit_horizon


def _run_block(model, cfg, x0, a, b, bundle, horizon=None,
               g: Optional[TestFunction] = None, quad_tol: float = 1e-8,
               trace: bool = False):
    """Simulate one block of lanes to crossing/absorption/cap/horizon.

    Only the live lanes are stepped, held contiguous with their streams in
    a ``StreamBundle.take`` of ``bundle``, so every draw and every array
    operation covers whole arrays with no gather or scatter.  A lane
    freezes at its first event: on an iteration where some lanes finish,
    their event times, flags, state and stream counters are written back
    to the caller's arrays and ``bundle`` once, and the live set is
    compacted.  Lanes still live when ``step_budget`` runs out are written
    back the same way.

    Returns a dict of per-lane arrays (crossing times are nan when the
    event never happened, ``unfinished`` marks lanes the step budget cut
    off), the generator integral when g is given, and the ints
    ``iterations`` (steps taken) and ``lane_steps`` (lanes summed over
    them).
    """
    horizon = cfg.horizon_t if horizon is None else float(horizon)
    eng = _Engine(model, replace(cfg, horizon_t=horizon), levels=(a, b))
    n = bundle.size
    x = np.full(n, float(x0))
    t = np.zeros(n)
    tau_a = np.full(n, np.nan)
    tau_b = np.full(n, np.nan)
    tau_zero = np.full(n, np.nan)
    capped_at = np.full(n, np.nan)
    absorbed = np.zeros(n, dtype=bool)
    capped = np.zeros(n, dtype=bool)
    unfinished = np.zeros(n, dtype=bool)
    lg_integral = np.zeros(n) if g is not None else None
    path = [(0.0, float(x0))] if trace else None

    # the live lanes: caller's index, state, generator integral, streams
    lanes = np.arange(n)
    xl, tl = x.copy(), t.copy()
    lgl = np.zeros(n) if g is not None else None
    live = bundle.take(lanes)
    iterations = lane_steps = 0
    while lanes.size and iterations < cfg.step_budget:
        iterations += 1
        lane_steps += lanes.size
        if g is not None:
            lg = _generator_values(model, g, xl, quad_tol)
        # idx positional: perfbench's trace hook reads it as args[4]
        xl, tl, dt, hit_horizon = eng.advance(xl, tl, live, None)
        if g is not None:
            lgl += lg * dt

        absorbed_now = xl <= cfg.floor_zero
        xl = np.where(absorbed_now, 0.0, xl)
        capped_now = xl >= cfg.cap_b  # an absorbed lane sits at 0
        cross_a = xl < a
        cross_b = xl > b
        if trace:
            path.append((float(tl[0]), float(xl[0])))
        done = absorbed_now | capped_now | cross_a | cross_b | hit_horizon
        if not done.any():
            continue

        # few lanes finish at once: index them by position, not by mask
        sel = np.flatnonzero(done)
        fin = lanes[sel]
        t_fin = tl[sel]
        for times, flags in ((tau_a, cross_a), (tau_b, cross_b),
                             (tau_zero, absorbed_now), (capped_at, capped_now)):
            times[fin] = np.where(flags[sel], t_fin, np.nan)
        absorbed[fin] = absorbed_now[sel]
        capped[fin] = capped_now[sel]
        x[fin] = xl[sel]
        t[fin] = t_fin
        bundle.put(fin, live.take(sel))
        keep = ~done
        lanes, xl, tl = lanes[keep], xl[keep], tl[keep]
        live = live.take(keep)
        if g is not None:
            lg_integral[fin] = lgl[sel]
            lgl = lgl[keep]

    # lanes the step budget cut off
    unfinished[lanes] = True
    x[lanes] = xl
    t[lanes] = tl
    bundle.put(lanes, live)
    if g is not None:
        lg_integral[lanes] = lgl

    out = {
        "x": x, "t": t, "tau_a": tau_a, "tau_b": tau_b,
        "tau_zero": tau_zero, "capped_at": capped_at,
        "absorbed": absorbed, "capped": capped, "unfinished": unfinished,
        "iterations": iterations, "lane_steps": lane_steps,
    }
    if g is not None:
        out["lg_integral"] = lg_integral
    if trace:
        out["trace"] = path
    return out


def _generator_values(model, g, u_vec, quad_tol):
    """Generator of g at a vector of states (left-endpoint evaluation):
    ``criteria.generator_values``, so the heavy-jump integrals of all
    lanes share one quadrature run per step."""
    return generator_values(model, g, u_vec, quad_tol)


def step(state: PathState, model: ValidatedModel, cfg: SimConfig,
         rng: RngStream) -> PathState:
    """Advance a single path state by one step."""
    if state.frozen:
        raise ValueError("cannot step a frozen path state")
    eng = _Engine(model, cfg)
    x_new, t_new, _, _ = eng.advance(np.array([state.x]),
                                     np.array([state.t]), rng.bundle, None)
    x1, t1 = float(x_new[0]), float(t_new[0])
    if x1 <= cfg.floor_zero:
        return PathState(t=t1, x=0.0, absorbed_zero=True)
    if x1 >= cfg.cap_b:
        return PathState(t=t1, x=x1, capped=True)
    return PathState(t=t1, x=x1)


def simulate_until(model: ValidatedModel, cfg: SimConfig, x0: float,
                   a: float, b: float, rng: RngStream) -> PassageRecord:
    """Run one path until crossing below a / above b, absorption, cap or
    the configured horizon."""
    if not (0.0 <= a < x0 < b <= cfg.cap_b):
        raise ValueError("need 0 <= a < x0 < b <= cap_b")
    out = _run_block(model, cfg, x0, a, b, rng.bundle)

    def scalar(arr):
        v = float(arr[0])
        return None if math.isnan(v) else v

    final = PathState(t=float(out["t"][0]), x=float(out["x"][0]),
                      absorbed_zero=bool(out["absorbed"][0]),
                      capped=bool(out["capped"][0]))
    return PassageRecord(
        tau_a_minus=scalar(out["tau_a"]),
        tau_b_plus=scalar(out["tau_b"]),
        tau_zero=scalar(out["tau_zero"]),
        capped_at=scalar(out["capped_at"]),
        final=final,
    )


def trace_path(model: ValidatedModel, cfg: SimConfig, x0: float,
               rng: RngStream, max_points: int = 10_000):
    """One path trace as (t, x) arrays, thinned to at most max_points."""
    out = _run_block(model, cfg, x0, a=-1.0, b=np.inf, bundle=rng.bundle,
                     trace=True)
    pts = out["trace"]
    stride = max(1, int(math.ceil(len(pts) / (max_points - 1))))
    thinned = pts[::stride]
    if thinned[-1] != pts[-1]:
        thinned.append(pts[-1])
    ts = np.array([p[0] for p in thinned])
    xs = np.array([p[1] for p in thinned])
    return ts, xs


def martingale_residual(model: ValidatedModel, cfg: SimConfig,
                        g: TestFunction, x0: float, t: float, a: float,
                        b: float, n_paths: int, seed: int,
                        quad_tol: float = 1e-8):
    """Sample mean of g(X at t or first crossing) - g(x0) - integral of
    the generator along the path; near zero when the stopped process is a
    martingale.

    The generator integral is accumulated per step at the left endpoint,
    which matches the stepping scheme exactly.
    """
    if not (0.0 < a < x0 < b):
        raise ValueError("need 0 < a < x0 < b")
    if t > cfg.horizon_t:
        raise ValueError("t must not exceed the configured horizon")
    g.check_derivatives([a, x0, min(b, 10.0 * x0)])
    bundle = StreamBundle(seed, np.arange(int(n_paths), dtype=np.uint64))
    out = _run_block(model, cfg, x0, a, b, bundle, horizon=t,
                     g=g, quad_tol=quad_tol)
    g_final = np.asarray(g.g(out["x"]), dtype=float)
    if not np.all(np.isfinite(g_final)):
        raise FloatingPointError(
            "test function not finite at a stopped state; tighten (a, b)")
    residuals = g_final - float(g.g(x0)) - out["lg_integral"]
    residual = float(residuals.mean())
    stderr = float(residuals.std(ddof=1) / math.sqrt(len(residuals)))
    return {"residual": residual, "stderr": stderr}
