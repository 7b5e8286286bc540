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

    best = None
    for k, p0 in enumerate(starts):
        p, rss, converged, cov = _levenberg_marquardt(residuals, jacobian, p0)
        if best is None or rss < best[1]:
            best = (p, rss, converged, cov, k)
    p, rss, converged, cov, _ = best

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

    Moving-average smoothing with an odd ``window``, sign changes of the
    discrete derivative, then noise pruning: adjacent extremum pairs whose
    level difference is below ``noise_floor`` annihilate (smallest first),
    so only features that rise above the noise survive.  A flat extremum
    (a run of same-kind candidates agreeing within the noise floor) is
    reported where it first arises.  Times are refined by a parabolic fit
    through the three nearest points.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if len(t) < 5:
        raise ValueError("at least 5 points are required")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("times and values must be finite")
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and positive")
    if not (math.isfinite(noise_floor) and noise_floor >= 0):
        raise ValueError("noise_floor must be finite and non-negative")
    if np.ptp(y) == 0:
        return ExtremaReport([])

    if window > 1:
        kernel = np.ones(window) / window
        pad = window // 2
        yp = np.concatenate([np.full(pad, y[0]), y, np.full(pad, y[-1])])
        ys = np.convolve(yp, kernel, mode="valid")
    else:
        ys = y.copy()

    d = np.diff(ys)
    sign = np.sign(d)
    # carry the previous sign through flat segments
    for i in range(1, len(sign)):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    idx = [i + 1 for i in range(len(sign) - 1)
           if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]]
    kinds = ["max" if ys[i] >= ys[i - 1] else "min" for i in idx]
    raw_idx, raw_kinds = list(idx), list(kinds)

    def merge_same_kind():
        # same-kind neighbors can appear after a single removal; keep the
        # more extreme one, or the earlier one when they tie within noise
        j = 1
        while j < len(idx):
            if kinds[j] == kinds[j - 1]:
                a, b = ys[idx[j - 1]], ys[idx[j]]
                if abs(a - b) < noise_floor:
                    drop = j                       # tie: keep the earlier
                elif (b > a) == (kinds[j] == "max"):
                    drop = j - 1
                else:
                    drop = j
                del idx[drop], kinds[drop]
            else:
                j += 1

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
            merge_same_kind()
        elif j == len(gaps) - 1:         # against the right endpoint
            del idx[-1], kinds[-1]
            merge_same_kind()
        else:                            # interior min/max pair annihilates
            del idx[j - 1:j + 1], kinds[j - 1:j + 1]

    out = []
    for pos, (i, kind) in enumerate(zip(idx, kinds)):
        # a flat extremum is reported where it first arises: earliest raw
        # candidate of the same kind, within the noise floor of the
        # survivor, between the surviving alternation neighbors
        left = idx[pos - 1] if pos > 0 else -1
        right = idx[pos + 1] if pos + 1 < len(idx) else len(t)
        for r, rk in zip(raw_idx, raw_kinds):
            if left < r < right and rk == kind \
                    and abs(ys[r] - ys[i]) <= noise_floor:
                i = r
                break
        lo = max(i - 1, 0)
        if lo + 2 >= len(t):
            lo = len(t) - 3
        tt = t[lo:lo + 3]
        vv = ys[lo:lo + 3]
        a, b, c = np.polyfit(tt, vv, 2)
        if a != 0:
            tv = -b / (2.0 * a)
            if not tt[0] <= tv <= tt[-1]:
                tv = t[i]
        else:
            tv = t[i]
        out.append((float(tv), float(y[i]), kind))
    return ExtremaReport(out)
