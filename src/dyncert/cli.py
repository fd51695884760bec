"""Command-line entry point.

Commands: bounds, score, simulate, wigner, make-figures. Options come
from flags, which override a flat ``key = value`` config file, which
overrides built-in defaults. Exit codes: 0 success, 2 usage error,
3 numerical failure; errors are emitted as one-line JSON records.
"""

import argparse
import concurrent.futures
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import models, phasespace, protocol, simulate, spectra
from .classical import energy_window, trapping_times
from .errors import DomainError, DyncertError

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _json_safe(x):
    """Strict JSON has no Infinity literal; encode it as a string."""
    if isinstance(x, float) and not np.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return x


def _error_json(exc):
    return json.dumps({"error": {"type": type(exc).__name__,
                                 "message": str(exc)}})


def _emit(text, output):
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def read_config_file(path):
    """Flat ``key = value`` pairs; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(args, argv, parser, commands):
    """Re-parse argv with the config file's values as the subcommand's
    defaults, so explicit flags still win and argparse applies each
    flag's type to the file's strings."""
    if not getattr(args, "config", None):
        return args
    sub = commands[args.command]
    defaults = {}
    for key, raw in read_config_file(args.config).items():
        if key == "lambda":
            key = "lambda_"
        if key in ("command", "func") or key not in vars(args):
            raise DomainError(f"unknown config key {key!r}")
        if isinstance(sub.get_default(key), bool):
            raw = raw.lower() in ("1", "true", "yes")
        defaults[key] = raw
    sub.set_defaults(**defaults)
    try:
        return parser.parse_args(argv)
    except SystemExit:
        raise DomainError(f"bad value in config file {args.config}") from None


def build_model(args):
    kind = args.model
    if kind is None:
        raise DomainError("--model is required")
    if kind == "harmonic":
        return models.harmonic()
    if kind == "kerr":
        if args.alpha is None:
            raise DomainError("kerr requires --alpha")
        return models.kerr(args.alpha)
    if kind == "pendulum":
        if args.alpha is None:
            raise DomainError("pendulum requires --alpha")
        return models.pendulum(args.alpha)
    if kind == "morse":
        if getattr(args, "lambda_", None) is None:
            raise DomainError("morse requires --lambda")
        return models.morse(args.lambda_)
    if kind == "well":
        return models.infinite_well()
    raise DomainError(f"unknown model {kind!r}")


def _cache_dir(args):
    path = args.cache or os.environ.get("DYNCERT_CACHE_DIR")
    if path:
        Path(path).mkdir(parents=True, exist_ok=True)
    return path


def cached_slice(model, window, cache_dir, check=False):
    if not cache_dir:
        return spectra.spectrum_slice(model, window, check=check)
    key = spectra.slice_cache_key(model, window)
    path = Path(cache_dir) / f"slice-{key}.json"
    if path.exists():
        return spectra.SpectrumSlice.load(path, model)
    slc = spectra.spectrum_slice(model, window, check=check)
    slc.save(path)
    return slc


def _state_for(args, model):
    """Resolve --state psi6 | psi4 | file:PATH into a QuantumState."""
    spec_str = args.state
    if spec_str in ("psi6", "psi4"):
        n_hat = 6 if spec_str == "psi6" else 4
        slc = protocol.truncated_slice(model, n_hat, check=False)
        return protocol.reference_state(spec_str, slc)
    if spec_str.startswith("file:"):
        data = json.loads(Path(spec_str[5:]).read_text())
        if data.get("model") not in (None, model.describe()):
            raise DomainError("state file was produced for a different model")
        indices = np.array(data["indices"], dtype=int)
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        slc = protocol.truncated_slice(model, int(indices.max()), check=False)
        full = np.zeros(slc.dim, dtype=complex)
        pos_of = {int(n): i for i, n in enumerate(slc.indices)}
        for n, a in zip(indices, amps):
            full[pos_of[int(n)]] = a
        full /= np.linalg.norm(full)
        return protocol.QuantumState(slc, full)
    raise DomainError(f"unknown state {spec_str!r}; use psi6, psi4 or file:PATH")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_bounds(args):
    model = build_model(args)
    window = energy_window(model, args.tau) if args.tau is not None else None
    lo, hi = model.energy_range()
    if window is not None:
        e_lo = window.e_min if np.isfinite(window.e_min) else lo
        e_hi = window.e_max if np.isfinite(window.e_max) else e_lo + 10.0
    else:
        e_lo, e_hi = lo, hi
    if not np.isfinite(e_lo):
        e_lo = -10.0
    if not np.isfinite(e_hi):
        e_hi = 10.0
    margin = 0.25 * (e_hi - e_lo) if e_hi > e_lo else 1.0
    es = np.linspace(max(lo, e_lo - margin) + 1e-9,
                     min(hi, e_hi + margin) - 1e-9, args.energy_points)
    rows = []
    for e in es:
        try:
            ts = trapping_times(model, float(e))
            rows.append({"energy": float(e),
                         "dt_plus": _json_safe(ts.dt_plus),
                         "dt_minus": _json_safe(ts.dt_minus)})
        except DyncertError as exc:
            rows.append({"energy": float(e), "error": str(exc)})
    record = {"model": model.describe(), "tau": args.tau,
              "window": (None if window is None
                         else [_json_safe(window.e_min),
                               _json_safe(window.e_max)]),
              "trapping_times": rows}
    _emit(json.dumps(record, indent=2), args.output)
    return 0


def _tau_grid(args):
    if args.tau_points < 1:
        raise DomainError("--tau-points must be positive")
    if args.tau_min is not None and args.tau_max is not None:
        return np.linspace(args.tau_min, args.tau_max, args.tau_points)
    if args.tau is not None:
        return np.linspace(0.5 * args.tau, min(2.0 * args.tau, 3.0),
                           args.tau_points)
    raise DomainError("--scan needs --tau-min/--tau-max or --tau")


def cmd_score(args):
    model = build_model(args)
    cache = _cache_dir(args)
    if args.scenario:
        if args.nhat is None:
            raise DomainError("--scenario requires --nhat")
        results = protocol.scenario_compare(model, args.nhat)
        _emit(protocol.scenarios_to_json(model, args.nhat, results),
              args.output)
        return 0
    if args.scan:
        grid = _tau_grid(args)
        policy = args.window_policy
        window = None
        if policy == "fixed" and args.nmax is None:
            base_tau = args.tau if args.tau is not None else float(grid[0])
            window = energy_window(model, base_tau)
        points = run_scan(model, grid, policy, window, args.workers,
                          args.nmax)
        if all(p.error for p in points):
            raise DyncertError(f"all {len(points)} scan points failed; "
                               f"first: {points[0].error}")
        _emit(protocol.scan_to_csv(points), args.output)
        return 0
    if args.tau is None:
        raise DomainError("score requires --tau")
    if args.nmax is not None:
        slc = protocol.truncated_slice(model, args.nmax, check=False)
        result = protocol.max_score(slc, args.tau)
    else:
        window = energy_window(model, args.tau)
        slc = cached_slice(model, window, cache)
        result = protocol.max_score(slc, args.tau, window=window)
    _emit(json.dumps(result.to_json_dict(), indent=2), args.output)
    return 0


def run_scan(model, tau_grid, policy, window, workers, n_hat):
    """Scan a tau grid, optionally in parallel; order fixed by the grid."""
    if workers is None:
        workers = os.cpu_count() or 1

    def scan(taus):
        return protocol.scan_tau(model, taus, window_policy=policy,
                                 window=window, n_hat=n_hat)

    if workers <= 1 or len(tau_grid) < 4:
        return scan(tau_grid)
    chunks = np.array_split(np.asarray(tau_grid), workers)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(scan, [c for c in chunks if c.size]))
    return [p for part in parts for p in part]


def cmd_simulate(args):
    model = build_model(args)
    if args.rounds < 1:
        raise DomainError("--rounds must be positive")
    if args.tau is None:
        raise DomainError("simulate requires --tau")
    state = _state_for(args, model)
    estimate = simulate.run_protocol(state, args.tau, args.rounds, args.seed,
                                     workers=args.workers or 1)
    _emit(estimate.to_json(), args.output)
    return 0


def cmd_wigner(args):
    model = build_model(args)
    if args.tau is None:
        raise DomainError("wigner requires --tau")
    if model.kind == models.PENDULUM and not args.angular:
        raise DomainError("pendulum states need --angular")
    if model.kind != models.PENDULUM and args.angular:
        raise DomainError("--angular applies only to the pendulum")
    state = _state_for(args, model)
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.angular:
        phis = np.linspace(-np.pi, np.pi, args.grid_points)
        grid = phasespace.wigner_angular(state, phis,
                                         phasespace.default_m_range(state))
        kind = "angular"
        marg_axis = phis
    else:
        q_axis, p_axis = phasespace.default_axes(
            state, n_q=args.grid_points, n_p=args.grid_points)
        grid = phasespace.wigner_cartesian(state, q_axis, p_axis)
        kind = "cartesian"
        marg_axis = q_axis
    (out_dir / "wigner.csv").write_text(phasespace.wigner_to_csv(grid))
    (out_dir / "wigner.json").write_text(
        phasespace.sidecar_json(state, args.tau, kind))
    for k, frac in enumerate((0.0, 1.0 / 3.0, 2.0 / 3.0)):
        dens = simulate.marginal_density(state, frac, args.tau, marg_axis)
        lines = ["q,density"] + [f"{q!r},{v!r}"
                                 for q, v in zip(dens.points, dens.values)]
        (out_dir / f"marginal-t{k}.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_make_figures(args):
    """Regenerate the curve/grid data behind the standard figures."""
    root = Path(args.output or "figures")
    root.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("harmonic-score", "data.json",
         ["score", "--model", "harmonic", "--tau", "1", "--nmax", "6"]),
        ("harmonic-scan", "data.csv",
         ["score", "--model", "harmonic", "--scan", "--nmax", "6",
          "--tau-min", "0.75", "--tau-max", "1.5", "--tau-points", "31"]),
        ("well-scan", "data.csv",
         ["score", "--model", "well", "--scan", "--tau-min", "0.1",
          "--tau-max", "1.0", "--tau-points", "31"]),
        ("kerr-scenarios", "data.json",
         ["score", "--model", "kerr", "--alpha", "-0.02", "--scenario",
          "--nhat", "6"]),
        ("morse-bounds", "data.json",
         ["bounds", "--model", "morse", "--lambda", "10", "--tau", "1"]),
        ("psi6-wigner", None,
         ["wigner", "--model", "harmonic", "--state", "psi6", "--tau", "1",
          "--grid-points", "121"]),
        ("pendulum-wigner", None,
         ["wigner", "--model", "pendulum", "--alpha", "-0.02", "--state",
          "psi6", "--tau", "1", "--angular", "--grid-points", "121"]),
    ]
    for name, filename, argv in jobs:
        out = root / name
        out.mkdir(parents=True, exist_ok=True)
        target = str(out / filename) if filename else str(out)
        code = main(argv + ["--output", target])
        if code != 0:
            return code
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--model",
                   choices=["harmonic", "kerr", "pendulum", "morse", "well"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--cache", help="slice cache directory "
                   "(or DYNCERT_CACHE_DIR)")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--workers", type=int)


def build_parser():
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="dyncert",
        description="Dynamics-based quantumness certification")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="trapping times and energy window")
    _add_common(p)
    p.add_argument("--energy-points", type=int, default=50)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("score", help="maximum quantum score")
    _add_common(p)
    p.add_argument("--nmax", type=int, help="fixed truncation 0..nmax")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--tau-min", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--tau-points", type=int, default=41)
    p.add_argument("--window-policy", choices=["from_tau", "fixed"],
                   default="from_tau")
    p.add_argument("--scenario", action="store_true")
    p.add_argument("--nhat", type=int, choices=[4, 6])
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("simulate", help="Monte Carlo protocol run")
    _add_common(p)
    p.add_argument("--state", default="psi6")
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("wigner", help="Wigner grid and marginals")
    _add_common(p)
    p.add_argument("--state", default="psi6")
    p.add_argument("--angular", action="store_true")
    p.add_argument("--grid-points", type=int, default=201)
    p.set_defaults(func=cmd_wigner)

    p = subs.add_parser("make-figures", help="regenerate all figure data")
    _add_common(p)
    p.set_defaults(func=cmd_make_figures)
    return parser, subs.choices


def main(argv=None):
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args = _merge_config(args, argv, parser, commands)
        return args.func(args)
    except (DomainError, ValueError, OSError) as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_USAGE
    except DyncertError as exc:
        sys.stderr.write(_error_json(exc) + "\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
