"""Command-line surface.

Subcommands: simulate, fit, extrema, compensation, render.
Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""

import argparse
import math
import sys
from dataclasses import replace

from .analysis import find_extrema, fit_double_exponential, fit_exponential
from .config import parse_scenario_file
from .errors import CalibrationError, NumericalError
from .lightshift import optimal_compensation_power, residual_lifetime
from .pipeline import PRESETS, preset, read_curve_csv, run_scenario, write_curve_csv
from .render import write_svg
from .spinwave import CURVE_COLUMNS, TOTAL_COLUMN, curve_column

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boxmem",
        description="Spin-wave memory simulator for a blue-detuned box trap")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and emit CSV")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS))
    src.add_argument("--config", help="scenario file ([scenario] key=value)")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--atoms", type=int)
    sim.add_argument("--out", default="curve.csv")

    fit = sub.add_parser("fit", help="fit a decay model to a curve CSV")
    fit.add_argument("--input", required=True)
    fit.add_argument("--model", choices=["exp", "dexp"], default="exp")
    fit.add_argument("--column", default=TOTAL_COLUMN, choices=CURVE_COLUMNS)
    fit.add_argument("--offset", action="store_true",
                     help="add a constant background term (exp model only)")

    ext = sub.add_parser("extrema", help="locate minima/maxima of a curve CSV")
    ext.add_argument("--input", required=True)
    ext.add_argument("--window", type=int, default=5)
    ext.add_argument("--noise-floor", type=float, default=0.0)
    ext.add_argument("--column", default=TOTAL_COLUMN, choices=CURVE_COLUMNS)

    comp = sub.add_parser("compensation",
                          help="compensation-beam power and lifetime budget")
    comp.add_argument("--power", type=float, required=True, help="trap power (W)")
    comp.add_argument("--trap-nm", type=float, required=True,
                      help="trap wavelength (nm)")
    comp.add_argument("--tau0-ms", type=float, default=0.67,
                      help="uncompensated dephasing time (ms)")

    ren = sub.add_parser("render", help="render a curve CSV to SVG")
    ren.add_argument("--input", required=True)
    ren.add_argument("--out", required=True)
    ren.add_argument("--log-y", action="store_true")
    ren.add_argument("--columns", nargs="+", default=[TOTAL_COLUMN],
                     choices=CURVE_COLUMNS)
    return p


def _cmd_simulate(args) -> int:
    cfg = (preset(args.preset) if args.preset
           else parse_scenario_file(args.config))
    overrides = {k: getattr(args, k) for k in ("seed", "atoms")
                 if getattr(args, k) is not None}
    cfg = replace(cfg, **overrides)
    result = run_scenario(cfg)
    write_curve_csv(result.curve, args.out)
    print(f"wrote {args.out} ({len(result.curve.times)} rows)")
    return 0


def _cmd_fit(args) -> int:
    curve = read_curve_csv(args.input)
    t, y = curve.times, curve_column(curve, args.column)
    if args.model == "exp":
        res = fit_exponential(t, y, offset=args.offset)
    elif args.offset:
        raise ValueError("--offset applies to the exp model only")
    else:
        res = fit_double_exponential(t, y)
    lines, numbers = [f"model={res.model} column={args.column}"], [res.rss]
    for name, value in res.params.items():
        err = res.errors[name]
        if name.startswith("tau"):
            name, value, err = f"{name}_ms", value * 1e3, err * 1e3
        lines.append(f"{name}={value:.6g} {name}_err={err:.3g}")
        numbers += [value, err]
    if args.model == "dexp":
        lines.append(f"degenerate={'true' if res.degenerate else 'false'}")
    lines.append(f"rss={res.rss:.6g}")
    if not all(map(math.isfinite, numbers)):     # then print nothing
        raise NumericalError("non-finite fit: " + "; ".join(lines[1:]))
    lines.append(f"converged={'true' if res.converged else 'false'}")
    print("\n".join(lines))
    return 0


def _cmd_extrema(args) -> int:
    curve = read_curve_csv(args.input)
    report = find_extrema(curve.times, curve_column(curve, args.column),
                          window=args.window, noise_floor=args.noise_floor)
    if not report.extrema:
        print("no extrema above the noise floor")
        return 0
    for t, v, kind in report.extrema:
        print(f"kind={kind} t_ms={t * 1e3:.4g} value={v:.6g}")
    return 0


def _cmd_compensation(args) -> int:
    power = optimal_compensation_power(args.power, args.trap_nm * 1e-9)
    tau0 = args.tau0_ms * 1e-3
    # every input and scaled result is checked before the first print
    scaled = {"optimal_comp_power_uW": power * 1e6,
              "uncompensated_tau_ms": tau0 * 1e3}
    for eps in (0.01, 0.024, 0.10):
        scaled[f"epsilon={eps:.3g} residual_tau_ms"] = \
            residual_lifetime(tau0, eps) * 1e3
    lines = [f"{name}={value:.4g}" for name, value in scaled.items()]
    if not all(map(math.isfinite, scaled.values())):   # then print nothing
        raise NumericalError("non-finite result: " + "; ".join(lines))
    print(f"trap_power_W={args.power:.6g}")
    print(f"trap_wavelength_nm={args.trap_nm:.6g}")
    print("\n".join(lines))
    return 0


def _cmd_render(args) -> int:
    curve = read_curve_csv(args.input)
    write_svg(curve, args.out, columns=tuple(args.columns), log_y=args.log_y)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "fit": _cmd_fit,
                "extrema": _cmd_extrema, "compensation": _cmd_compensation,
                "render": _cmd_render}
    try:
        return handlers[args.command](args)
    # ConfigurationError, NearResonanceError, GridCoverageError,
    # EmptyModeError and np.linalg.LinAlgError are all ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OverflowError, ZeroDivisionError and FloatingPointError are
    # ArithmeticErrors
    except (NumericalError, CalibrationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
