import math

import numpy as np
import pytest

from boxmem.analysis import (_levenberg_marquardt, find_extrema,
                             fit_double_exponential, fit_exponential)


def test_exponential_exact_recovery():
    t = np.linspace(0.0, 0.1, 60)
    y = 0.83 * np.exp(-t / 0.025)
    res = fit_exponential(t, y)
    assert res.converged
    assert res.params["amplitude"] == pytest.approx(0.83, rel=1e-6)
    assert res.params["tau"] == pytest.approx(0.025, rel=1e-6)
    assert res.rss < 1e-12


def test_exponential_with_offset():
    t = np.linspace(0.0, 0.2, 80)
    y = 0.6 * np.exp(-t / 0.03) + 0.05
    res = fit_exponential(t, y, offset=True)
    assert res.converged
    assert res.params["tau"] == pytest.approx(0.03, rel=1e-6)
    assert res.params["offset"] == pytest.approx(0.05, rel=1e-5)


def test_exponential_noisy_recovery():
    rng = np.random.default_rng(0)
    taus = []
    for _ in range(50):
        t = np.linspace(0.0, 0.1, 40)
        y = np.exp(-t / 0.028) + rng.normal(scale=0.01, size=len(t))
        y = np.clip(y, 1e-6, None)
        taus.append(fit_exponential(t, y).params["tau"])
    assert np.median(taus) == pytest.approx(0.028, rel=0.05)


def test_exponential_input_validation():
    with pytest.raises(ValueError):
        fit_exponential([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_exponential([0.0, 1.0, 2.0], [1.0, -0.5, 0.2])
    with pytest.raises(ValueError):
        fit_exponential([-1.0, 1.0, 2.0], [1.0, 0.5, 0.2])
    for t, y in (([0.0, 1.0, 2.0], [1.0, math.nan, 0.2]),
                 ([0.0, 1.0, math.inf], [1.0, 0.5, 0.2])):
        with pytest.raises(ValueError, match="finite"):
            fit_exponential(t, y)
        with pytest.raises(ValueError, match="finite"):
            fit_double_exponential(t, y)


@pytest.mark.filterwarnings("error")
def test_fits_reject_equal_times():
    # np.polyfit would warn and LAPACK complain before any error was raised
    for fit, n in ((fit_exponential, 3), (fit_double_exponential, 6)):
        with pytest.raises(ValueError, match="equal"):
            fit(np.full(n, 2e-3), np.linspace(1.0, 0.5, n))
    # times that repeat or run backwards still fit: the model has no order
    fit_exponential([0.0, 2e-3, 1e-3, 1e-3], [1.0, 0.8, 0.9, 0.9])


def test_fit_never_converged_with_nonfinite_result():
    # every residual is NaN, so no step is ever taken
    t = np.linspace(0.0, 1.0, 10)
    p, rss, converged, _ = _levenberg_marquardt(
        lambda p: np.full_like(t, np.nan),
        lambda p: np.column_stack([np.exp(-t / p[1]), t * np.exp(-t / p[1])]),
        [1.0, 1.0])
    assert not converged and math.isnan(rss)
    assert np.array_equal(p, [1.0, 1.0])


def test_double_exponential_recovery():
    t = np.linspace(0.0, 1.0, 200)
    y = 0.5 * np.exp(-t / 0.16) + 0.5 * np.exp(-t / 0.58)
    res = fit_double_exponential(t, y)
    assert res.converged
    assert not res.degenerate
    assert res.params["tau1"] == pytest.approx(0.16, rel=1e-3)
    assert res.params["tau2"] == pytest.approx(0.58, rel=1e-3)
    assert res.params["fast_fraction"] == pytest.approx(0.5, rel=1e-3)
    assert res.params["tau1"] < res.params["tau2"]


def test_double_exponential_degenerate_flagged():
    # a single exponential, and a noisy one whose best fit is two near-equal
    # constants with cancelling amplitudes (f = 7.62, taus 0.756, 0.765 ms)
    t = np.linspace(0.0, 1.0, 100)
    t_noisy = np.arange(0.0, 5.0001e-3, 1e-4)
    noise = 1.0 + 0.02 * np.random.default_rng(0).standard_normal(len(t_noisy))
    for t, y in ((t, np.exp(-t / 0.3)),
                 (t_noisy, np.abs(np.exp(-t_noisy / 0.7e-3) * noise) + 1e-6)):
        res = fit_double_exponential(t, y)
        # either collapses to one component or reports tau1 ~ tau2
        f = res.params["fast_fraction"]
        collapsed = min(abs(f), abs(1.0 - f)) <= 1e-3
        assert res.degenerate or collapsed


def test_double_exponential_noisy_medians():
    rng = np.random.default_rng(1)
    t1s, t2s = [], []
    for _ in range(30):
        t = np.linspace(0.0, 1.2, 120)
        y = 0.5 * np.exp(-t / 0.16) + 0.5 * np.exp(-t / 0.58)
        y = np.clip(y + rng.normal(scale=0.005, size=len(t)), 1e-6, None)
        res = fit_double_exponential(t, y)
        t1s.append(res.params["tau1"])
        t2s.append(res.params["tau2"])
    assert np.median(t1s) == pytest.approx(0.16, rel=0.10)
    assert np.median(t2s) == pytest.approx(0.58, rel=0.10)


def test_extrema_of_clean_sine():
    t = np.linspace(0.0, 2.0, 801)
    y = np.sin(2.0 * math.pi * t)            # extrema at 0.25, 0.75, 1.25, ...
    rep = find_extrema(t, y, window=1)
    kinds = [k for _, _, k in rep.extrema]
    ts = [tt for tt, _, _ in rep.extrema]
    assert kinds == ["max", "min", "max", "min"]
    assert ts == pytest.approx([0.25, 0.75, 1.25, 1.75], abs=1e-3)


def test_extrema_alternate():
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 1.0, 400)
    y = np.cos(6 * math.pi * t) + rng.normal(scale=0.02, size=len(t))
    rep = find_extrema(t, y, window=7, noise_floor=0.2)
    kinds = [k for _, _, k in rep.extrema]
    for a, b in zip(kinds, kinds[1:]):
        assert a != b

    # tied neighbouring samples (flat bottoms, flat tops, stairs): each
    # extremum is named by the slope into it, so a flat-bottomed dip is a
    # min, and every min lies below the maxima next to it
    tied = [([5, 4, 3, 3, 4, 5, 6, 5, 4], 0.0),
            ([0, 1, 2, 2, 2, 1, 0, 0, 1, 2, 2, 1], 0.0),
            ([3, 1, 1, 2, 2, 0, 0, 3, 3, 1], 0.5),
            ([2, 0, 0, 0, 1, 1, 3, 3, 2, 2, 0, 1], 0.0),
            ([4, 1, 0, 2, 1, 1, 4, 2, 3, 2, 1, 1, 3, 3, 4, 4, 4], 2.5)]
    tied_kinds = []
    for values, noise_floor in tied:
        ext = find_extrema(np.arange(len(values)) * 1e-3, values, window=1,
                           noise_floor=noise_floor).extrema
        assert ext
        for (_, va, ka), (_, vb, kb) in zip(ext, ext[1:]):
            assert ka != kb
            assert va < vb if ka == "min" else va > vb
        tied_kinds.append([k for _, _, k in ext])
    assert tied_kinds[0] == ["min", "max"]


def test_extrema_noise_pruning():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 500)
    y = 1.0 + rng.normal(scale=0.01, size=len(t))   # pure noise
    rep = find_extrema(t, y, window=5, noise_floor=0.05)
    assert rep.extrema == []


def test_extrema_keeps_large_feature_among_noise():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 500)
    y = np.exp(-((t - 0.5) ** 2) / (2 * 0.05**2))   # one clear bump
    y = y + rng.normal(scale=0.005, size=len(t))
    rep = find_extrema(t, y, window=7, noise_floor=0.05)
    maxima = [(tt, v) for tt, v, k in rep.extrema if k == "max"]
    assert len(maxima) == 1
    assert maxima[0][0] == pytest.approx(0.5, abs=0.02)


def test_extrema_monotone_curve_empty():
    t = np.linspace(0.0, 1.0, 100)
    rep = find_extrema(t, np.exp(-t), window=5)
    assert rep.extrema == []


def test_extrema_flat_plateau_reported_at_onset():
    # a dip, then a rise onto a long flat top with a tiny late wiggle:
    # the maximum should be reported where the plateau first arises
    t = np.linspace(0.0, 10.0, 1001)
    y = np.where(t < 2.0, 1.0 - 0.4 * np.sin(math.pi * t / 2.0), 1.0)
    y = np.where((t >= 2.0) & (t < 4.0),
                 0.6 + 0.4 * np.sin(math.pi * (t - 1.0) / 2.0) + 0.4, y)
    # plateau at 1.0 from t=4 with a +0.002 bump at t=8
    bump = 0.002 * np.exp(-((t - 8.0) ** 2) / 0.1)
    y = np.where(t >= 4.0, 1.0 + bump[np.newaxis, :], y[np.newaxis, :])[0]
    rep = find_extrema(t, y, window=1, noise_floor=0.01)
    maxima = [tt for tt, _, k in rep.extrema if k == "max"]
    assert len(maxima) == 1
    assert maxima[0] < 5.0                   # onset, not the late wiggle

    # the onset is searched only inside the noise band: the earlier top at
    # 2 lies across a dip to 0, deeper than the floor, from the peak of 3
    rep = find_extrema(np.arange(10) * 1e-3, [1, 2, 2, 0, 0, 2, 1, 1, 3, 0],
                       window=1, noise_floor=1.5)
    assert [(v, k) for _, v, k in rep.extrema] == [(3.0, "max")]
    assert rep.extrema[0][0] == pytest.approx(7.9e-3, abs=0.05e-3)


def test_extrema_shift_invariance():
    t = np.linspace(0.0, 1.0, 300)
    y = np.cos(4 * math.pi * t)
    a = find_extrema(t, y, window=5)
    b = find_extrema(t, y + 10.0, window=5)
    assert [k for _, _, k in a.extrema] == [k for _, _, k in b.extrema]
    assert [tt for tt, _, _ in a.extrema] == pytest.approx(
        [tt for tt, _, _ in b.extrema], abs=1e-9)


@pytest.mark.parametrize("window", [4, 0, 101, 3.0, True],
                         ids=["even", "zero", "past-the-curve", "float",
                              "bool"])
def test_extrema_rejects_bad_window(window):
    t = np.linspace(0.0, 1.0, 100)
    with pytest.raises(ValueError, match="window"):
        find_extrema(t, np.cos(t), window=window)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_ms", [
    [0, 0.4, 0.2, 1.2, 0.8, 1.6, 1.4],     # printed a max before its min
    [0.5] * 7,                              # polyfit warned, LAPACK failed
    [0, 0.2, 0.4, 0.4, 0.8, 1.0, 1.2],
    [1.2, 1.0, 0.8, 0.6, 0.4, 0.2, 0],
])
def test_extrema_rejects_times_that_do_not_strictly_increase(t_ms):
    y = [1.0, 0.5, 0.9, 0.2, 0.8, 0.1, 0.7]
    with pytest.raises(ValueError, match="strictly increase"):
        find_extrema(np.array(t_ms) * 1e-3, y, window=1)


def test_extrema_validation():
    t = np.linspace(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        find_extrema(t[:3], np.ones(3))
    for floor in (np.nan, np.inf, -np.inf, -0.01):
        with pytest.raises(ValueError, match="noise_floor"):
            find_extrema(t, np.cos(10 * t), noise_floor=floor)
    for bad in (np.nan, np.inf):
        y = np.cos(10 * t)
        y[20] = bad
        with pytest.raises(ValueError, match="finite"):
            find_extrema(t, y)
        with pytest.raises(ValueError, match="finite"):
            find_extrema(np.where(t == t[20], bad, t), np.cos(10 * t))
    assert find_extrema(t, np.ones_like(t)).extrema == []
