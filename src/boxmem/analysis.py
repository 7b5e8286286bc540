"""Nonlinear decay-curve fitting and extrema extraction.

Exponential models are fit by Gauss-Newton with Levenberg damping,
initialized from a log-linear regression.  Parameter standard errors come
from the Jacobian at the optimum.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FitResult:
    model: str                      # "exp" | "dexp"
    params: dict                    # name -> value (times in seconds)
    errors: dict                    # name -> 1-sigma standard error
    rss: float
    converged: bool
    degenerate: bool = False


@dataclass
class ExtremaReport:
    """Alternating minima/maxima of a curve: list of (time, value, kind)."""
    extrema: list = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")
def _levenberg_marquardt(residuals, jacobian, p0, max_iter=200, tol=1e-8):
    """Minimize sum(residuals(p)^2).  Returns (p, rss, converged, cov).

    Damped Gauss-Newton; the returned residual never exceeds the
    initializer's.  A non-finite optimum, such as an rss whose squared
    residuals overflow, is never reported as converged, and warns nothing.
    """
    p = np.asarray(p0, dtype=float)
    r = residuals(p)
    rss = float(r @ r)
    lam = 1e-3
    converged = False
    for _ in range(max_iter):
        J = jacobian(p)
        JtJ = J.T @ J
        g = J.T @ r
        stepped = False
        for _ in range(20):
            A = JtJ + lam * np.diag(np.maximum(np.diag(JtJ), 1e-30))
            try:
                delta = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + delta
            r_new = residuals(p_new)
            rss_new = float(r_new @ r_new)
            if np.isfinite(rss_new) and rss_new <= rss:
                rel = np.max(np.abs(delta) / np.maximum(np.abs(p_new), 1e-300))
                p, r, rss = p_new, r_new, rss_new
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                if rel < tol:
                    converged = True
                break
            lam *= 10.0
        if converged or not stepped:
            converged = converged or not stepped
            break
    converged = (converged and bool(np.all(np.isfinite(p)))
                 and math.isfinite(rss))

    J = jacobian(p)
    dof = max(len(r) - len(p), 1)
    try:
        cov = np.linalg.inv(J.T @ J) * rss / dof
    except np.linalg.LinAlgError:
        cov = np.full((len(p), len(p)), np.nan)
    return p, rss, converged, cov


def _prepare(points_t, points_y, min_points):
    """The checked arrays t and y, and the log-linear initializer: the
    intercept of the straight line through (t, ln y) and its decay time."""
    t = np.asarray(points_t, dtype=float)
    y = np.asarray(points_y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("t and y must be finite")
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    if len(t) < min_points:
        raise ValueError(f"at least {min_points} points are required")
    if np.any(y <= 0):
        raise ValueError("y must be positive for the log-space initializer")
    slope, intercept = np.polyfit(t, np.log(y), 1)
    tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0] + 1e-30)
    return t, y, intercept, tau0


def fit_exponential(points_t, points_y, offset: bool = False) -> FitResult:
    """Fit y = A exp(-t/tau) (+ C with ``offset``) by damped Gauss-Newton."""
    t, y, intercept, tau0 = _prepare(points_t, points_y, 3)
    try:
        A0 = math.exp(intercept)
    except OverflowError:
        raise ValueError(
            f"the log-linear amplitude exp({intercept:.6g}) at t = 0 "
            "overflows a float") from None
    p0 = [A0, tau0, 0.0] if offset else [A0, tau0]

    def residuals(p):
        return p[0] * np.exp(-t / p[1]) + (p[2] if offset else 0.0) - y

    def jacobian(p):
        e = np.exp(-t / p[1])
        cols = [e, p[0] * t / p[1] ** 2 * e]
        if offset:
            cols.append(np.ones_like(t))
        return np.column_stack(cols)

    p, rss, converged, cov = _levenberg_marquardt(residuals, jacobian, p0)
    names = ["amplitude", "tau"] + (["offset"] if offset else [])
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if p[1] <= 0:
        converged = False
    return FitResult("exp", dict(zip(names, map(float, p))),
                     dict(zip(names, map(float, err))), rss, converged)


def fit_double_exponential(points_t, points_y) -> FitResult:
    """Fit y = f exp(-t/tau1) + (1-f) exp(-t/tau2), tau1 < tau2.

    Three starts dodge the f <-> 1-f symmetric local minimum; flags a
    degenerate fit when the two recovered constants agree within 10%
    (unless one amplitude vanished and the model collapsed to a single
    exponential).
    """
    t, y, _, tau_g = _prepare(points_t, points_y, 6)
    starts = [
        (0.5, tau_g / 3.0, 3.0 * tau_g),
        (0.2, tau_g / 2.0, 2.0 * tau_g),
        (0.8, tau_g / 2.0, 2.0 * tau_g),
    ]

    def residuals(p):
        f, t1, t2 = p
        return f * np.exp(-t / t1) + (1.0 - f) * np.exp(-t / t2) - y

    def jacobian(p):
        f, t1, t2 = p
        e1 = np.exp(-t / t1)
        e2 = np.exp(-t / t2)
        return np.column_stack([
            e1 - e2,
            f * t / t1**2 * e1,
            (1.0 - f) * t / t2**2 * e2,
        ])

    p, rss, converged, cov = min(
        (_levenberg_marquardt(residuals, jacobian, p0) for p0 in starts),
        key=lambda fit: fit[1])

    f, t1, t2 = p
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    ef, e1, e2 = err
    if t1 > t2:
        t1, t2 = t2, t1
        e1, e2 = e2, e1
        f = 1.0 - f
    degenerate = (min(abs(f), abs(1.0 - f)) > 1e-3
                  and abs(t1 - t2) <= 0.1 * max(abs(t1), abs(t2)))
    if t1 <= 0 or t2 <= 0:
        converged = False
    params = {"fast_fraction": float(f), "tau1": float(t1), "tau2": float(t2)}
    errors = {"fast_fraction": float(ef), "tau1": float(e1), "tau2": float(e2)}
    return FitResult("dexp", params, errors, rss, converged, degenerate)


def find_extrema(times, values, window: int = 5,
                 noise_floor: float = 0.0) -> ExtremaReport:
    """Alternating extrema of a sampled curve.

    Moving-average smoothing with an odd ``window``, sign flips of the
    discrete derivative, then noise pruning: adjacent extremum pairs less
    than ``noise_floor`` apart annihilate (smallest first).  Each extremum
    is named by the slope into it (a max after a rise, a min after a fall),
    so maxima and minima alternate.  A flat extremum is reported where it
    first arises: at the earliest candidate of its kind that a walk back
    through candidates less than ``noise_floor`` from it reaches, so the
    curve between stays inside that band.  Times are refined by a parabola
    through the three nearest points.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 5:
        raise ValueError("at least 5 points are required")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("times and values must be finite")
    if (isinstance(window, bool) or not isinstance(window, (int, np.integer))
            or window < 1 or window % 2 == 0 or window > len(t)):
        raise ValueError("window must be an odd integer in [1, len(times)]")
    if not (math.isfinite(noise_floor) and noise_floor >= 0):
        raise ValueError("noise_floor must be finite and non-negative")

    pad = window // 2
    yp = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
    ys = np.convolve(yp, np.ones(window) / window, mode="valid")

    d = np.diff(ys)
    # a flat step carries the slope before it: a candidate is the sample
    # where the last non-zero step's sign flips, named by the slope into it
    steps = np.flatnonzero(d)
    rising = d[steps] > 0
    flips = np.flatnonzero(rising[1:] != rising[:-1])
    raw = steps[flips + 1]
    idx = raw.tolist()
    kinds = np.where(rising[flips], "max", "min").tolist()

    # noise pruning by pair annihilation; curve endpoints act as fixed
    # virtual extrema so a lone wiggle near a boundary is also pruned
    while idx:
        levels = [ys[0]] + [ys[i] for i in idx] + [ys[-1]]
        gaps = np.abs(np.diff(levels))
        j = int(np.argmin(gaps))
        if gaps[j] >= noise_floor:
            break
        if j == 0:                       # against the left endpoint
            del idx[0], kinds[0]
        elif j == len(gaps) - 1:         # against the right endpoint
            del idx[-1], kinds[-1]
        else:                            # interior min/max pair annihilates
            del idx[j - 1:j + 1], kinds[j - 1:j + 1]

    out = []
    for i, kind in zip(idx, kinds):
        # walk back through the noise band; parity keeps the survivor's kind
        k = j = int(np.searchsorted(raw, i))
        while j > 0 and abs(ys[raw[j - 1]] - ys[i]) < noise_floor:
            j -= 1
        i = raw[j + (k - j) % 2]
        tt = t[i - 1:i + 2]              # every candidate has two neighbours
        vv = ys[i - 1:i + 2]
        a, b, _ = np.polyfit(tt, vv, 2)
        tv = -b / (2.0 * a) if a != 0 else t[i]
        if not tt[0] <= tv <= tt[-1]:
            tv = t[i]
        out.append((float(tv), float(y[i]), kind))
    return ExtremaReport(out)
