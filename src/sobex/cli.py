"""Command-line front end: config parsing, subcommands, deterministic reports.

Subcommands:
  constants         closed-form tube constants for curvature bounds (K, H)
  regularity        sampled regularity certificate for a domain and radius
  verify-extension  operator-norm check of the extension on random fields
  heat              discrete Neumann spectrum / kernel diagnostics
  sweep             constants over a parameter range

Reports are JSON with sorted keys and 17-significant-digit floats, so
identical configurations produce byte-identical files.  Exit codes:
0 all checks passed, 1 a certified bound or check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import comparison, extension, heat
from .errors import (
    AssemblyError,
    ComparisonBreakdownError,
    ConfigError,
    FocalPointError,
    InvalidDomainError,
    InvalidSurfaceError,
    ParameterError,
    RegularityError,
    SobexError,
)
from .fermi import DomainSpec, FermiChart, GeodesicDisk, RadialProfile, check_regularity
from .surfaces import ModelSurface, poly_cosh_mix_profile

_DEFAULTS = dict(quad=64, resolution=256, G=3.0, seed=42)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical_json(obj, indent=0):
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {canonical_json(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{canonical_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _fmt(obj)


def write_report(path, payload):
    text = canonical_json(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(path, header, rows):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


_SURFACE_KEYS = {"kind", "kappa", "profile"}
_PROFILE_KEYS = {"type", "coeffs"}
_DOMAIN_KEYS = {"type", "center", "radius", "coeffs_cos", "coeffs_sin", "L"}
_SWEEP_KEYS = {"from", "to", "steps"}
_TOP_KEYS = {
    "surface", "domain", "r", "G", "quad", "resolution", "modes", "samples",
    "seed", "t_min", "t_max", "t_steps", "K", "H", "n", "sweep", "report", "csv",
}
_SWEEP_PARAMS = {"K", "H", "r", "R0"}


@dataclass
class RunConfig:
    """Validated run configuration with defaults applied."""

    surface: dict | None = None
    domain: dict | None = None
    r: float | None = None
    G: float = _DEFAULTS["G"]
    quad: int = _DEFAULTS["quad"]
    resolution: int = _DEFAULTS["resolution"]
    modes: int | None = None
    samples: int = 16
    seed: int = _DEFAULTS["seed"]
    t_min: float = 1e-3
    t_max: float | None = None
    t_steps: int = 16
    K: float | None = None
    H: float | None = None
    n: int = 2
    sweep: dict = dc_field(default_factory=dict)
    report: str | None = None
    csv: str | None = None


def _object(value, where, allowed):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return value


def _real(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite")
    return value


def _reals(value, where):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [_real(v, f"{where}[{k}]") for k, v in enumerate(value)]


def _integer(value, where):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    return value


def _decode(text, where):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {where}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration (strict: unknown keys rejected)."""
    return _parse(_decode(text, "configuration"))


def _parse(raw) -> RunConfig:
    """Validate a decoded configuration; files and command-line flags both end here."""
    raw = _object(raw, "configuration", _TOP_KEYS)
    cfg = RunConfig()
    if "surface" in raw:
        cfg.surface = dict(_object(raw["surface"], "surface", _SURFACE_KEYS))
        if "kappa" in cfg.surface:
            cfg.surface["kappa"] = _real(cfg.surface["kappa"], "surface.kappa")
        if "profile" in cfg.surface:
            prof = dict(_object(cfg.surface["profile"], "surface.profile", _PROFILE_KEYS))
            if "coeffs" in prof:
                prof["coeffs"] = _reals(prof["coeffs"], "surface.profile.coeffs")
            cfg.surface["profile"] = prof
    if "domain" in raw:
        cfg.domain = dom = dict(_object(raw["domain"], "domain", _DOMAIN_KEYS))
        for key in ("radius", "L"):
            if key in dom:
                dom[key] = _real(dom[key], f"domain.{key}")
        for key in ("center", "coeffs_cos", "coeffs_sin"):
            if key in dom:
                dom[key] = _reals(dom[key], f"domain.{key}")
        if len(dom.get("center", (0.0, 0.0))) != 2:
            raise ConfigError("domain.center must hold two chart coordinates")
        if not dom.get("coeffs_cos", (1.0,)):
            raise ConfigError("domain.coeffs_cos must not be empty")
        if dom.get("type") == "interval" and dom.get("L", 1.0) <= 0.0:
            raise ConfigError("interval length L must be positive")
    if "sweep" in raw:
        sweep = _object(raw["sweep"], "sweep", _SWEEP_PARAMS)
        for param, spec in sweep.items():
            where = f"sweep.{param}"
            spec = _object(spec, where, _SWEEP_KEYS)
            if set(spec) != _SWEEP_KEYS:
                raise ConfigError(f"{where} needs 'from', 'to' and 'steps'")
            cfg.sweep[param] = {"from": _real(spec["from"], f"{where}.from"),
                                "to": _real(spec["to"], f"{where}.to"),
                                "steps": _integer(spec["steps"], f"{where}.steps")}
            if cfg.sweep[param]["steps"] < 1:
                raise ConfigError(f"{where}.steps must be a positive integer")
    for key in ("r", "G", "t_min", "t_max", "K", "H"):
        if raw.get(key) is not None:
            setattr(cfg, key, _real(raw[key], key))
    for key in ("quad", "resolution", "modes", "samples", "seed", "t_steps", "n"):
        if raw.get(key) is not None:
            setattr(cfg, key, _integer(raw[key], key))
    for key in ("report", "csv"):
        if raw.get(key) is not None:
            if not isinstance(raw[key], str):
                raise ConfigError(f"{key} must be a path")
            setattr(cfg, key, raw[key])
    for key in ("r", "t_min", "t_max"):
        if getattr(cfg, key) is not None and getattr(cfg, key) <= 0.0:
            raise ConfigError(f"{key} must be positive")
    if cfg.quad < 16 or cfg.resolution < 16:
        raise ConfigError("quad and resolution must be at least 16")
    for key in ("modes", "samples", "t_steps"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    return cfg


def build_surface(cfg: RunConfig) -> ModelSurface:
    spec = cfg.surface or {"kind": "constant", "kappa": 0.0}
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return ModelSurface.constant_curvature(spec.get("kappa", 0.0), cfg.n)
    if kind == "warped":
        prof = spec.get("profile", {})
        ptype = prof.get("type", "poly_cosh_mix")
        if ptype == "poly_cosh_mix":
            return ModelSurface.warped(poly_cosh_mix_profile(prof.get("coeffs", [1.0])))
        raise ConfigError(f"unknown warp profile type {ptype!r}")
    raise ConfigError(f"unknown surface kind {kind!r}")


def build_domain(cfg: RunConfig) -> DomainSpec:
    """The configured domain; one the surface cannot carry is a :class:`ConfigError`."""
    dom = cfg.domain or {"type": "disk", "center": [0.0, 0.0], "radius": 1.0}
    dtype = dom.get("type", "disk")
    try:
        surface = build_surface(cfg)
        if dtype == "disk":
            center = tuple(dom.get("center", (0.0, 0.0)))
            return DomainSpec(surface, GeodesicDisk(center, dom.get("radius", 1.0)))
        if dtype == "fourier":
            return DomainSpec(surface, RadialProfile(tuple(dom.get("coeffs_cos", (1.0,))),
                                                     tuple(dom.get("coeffs_sin", ()))))
    except (InvalidSurfaceError, InvalidDomainError, ParameterError) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown domain type {dtype!r} (use 'disk' or 'fourier')")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _constants_payload(K, H, n, r, G):
    if K is None or H is None:
        raise ConfigError("constants needs K and H (flags or config)")
    r0 = comparison.focal_radius(K, H)
    r_adm = comparison.admissible_rolling_radius(K, H)
    r_use = float(r) if r is not None else min(r_adm, 0.95 * r0)
    data = comparison.CurvatureData(k_lower=-K, K_upper=K, H_min=-H, H_max=H, n=n)
    try:
        profile = comparison.ComparisonProfile.from_curvature(data, r_use)
    except ComparisonBreakdownError as exc:  # a radius at or past r0
        raise ConfigError(str(exc)) from exc
    dist = comparison.distortion_factor(profile, n, r_use)
    bound = comparison.extension_norm_bound(dist, G, r_use)
    grid = np.linspace(0.0, r_use, 33)
    d_vals, D_vals = comparison.volume_ratio_bounds(data, grid)
    return {
        "K": K,
        "H": H,
        "n": n,
        "G": G,
        "r": r_use,
        "r0": r0,
        "r_admissible": r_adm,
        "distortion": dist,
        "norm_bound": bound,
        "profile_s": grid,
        "profile_d": d_vals,
        "profile_D": D_vals,
    }, profile, r_use


def cmd_constants(cfg: RunConfig) -> int:
    payload, profile, r_use = _constants_payload(cfg.K, cfg.H, cfg.n, cfg.r, cfg.G)
    write_report(cfg.report, payload)
    if cfg.csv:
        grid = np.linspace(0.0, r_use, 129)
        rows = np.stack([
            grid,
            profile.d_base(grid),
            profile.D_base(grid),
            profile.d(grid, cfg.n),
            profile.D(grid, cfg.n),
        ], axis=-1)
        write_csv(cfg.csv, ["s", "d_base", "D_base", "d", "D"], rows)
    return 0


def cmd_regularity(cfg: RunConfig) -> int:
    if cfg.r is None:
        raise ConfigError("regularity needs a tube radius r")
    domain = build_domain(cfg)
    report = check_regularity(domain, cfg.r)
    write_report(cfg.report, report.to_dict())
    return 0 if report.admissible else 1


def cmd_verify_extension(cfg: RunConfig) -> int:
    if cfg.r is None:
        raise ConfigError("verify-extension needs a tube radius r")
    domain = build_domain(cfg)
    cutoff = extension.smoothstep_cutoff(cfg.G)
    rng = np.random.default_rng(cfg.seed)
    fields = extension.random_smooth_fields(rng, cfg.samples)
    try:
        chart = FermiChart(domain, cfg.r)
        payload = extension.operator_norm_estimate(chart, cutoff, fields,
                                                   quad=cfg.quad).to_dict()
    except (FocalPointError, RegularityError) as exc:
        payload = {"passed": False, "reason": str(exc)}
    code = 0 if payload["passed"] else 1
    payload["samples"] = cfg.samples
    payload["seed"] = cfg.seed
    payload["quad"] = cfg.quad
    payload["G"] = cfg.G
    payload["r"] = cfg.r
    write_report(cfg.report, payload)
    if cfg.csv and code == 0:
        fld = fields[0]
        ext = extension.ExtendedField(chart, fld, cutoff)
        s = np.linspace(-0.9 * cfg.r, 0.9 * cfg.r, 41)
        th = np.linspace(0.0, 2.0 * math.pi, 65, endpoint=False)
        S, T = np.meshgrid(s, th, indexing="ij")
        pts = chart.map_unchecked(S.ravel(), T.ravel())
        vals = ext(pts)
        rows = np.stack([S.ravel(), T.ravel(), vals], axis=-1)
        write_csv(cfg.csv, ["s", "theta", "value"], rows)
    return code


def cmd_heat(cfg: RunConfig) -> int:
    dom_cfg = cfg.domain or {}
    if dom_cfg.get("type") == "interval":
        domain = heat.DiscreteDomain.interval(float(dom_cfg.get("L", 1.0)), cfg.resolution)
    else:
        try:
            domain = heat.DiscreteDomain.disk_like(build_domain(cfg), cfg.resolution,
                                                   cfg.resolution)
        except AssemblyError as exc:  # a domain the heat grids cannot carry
            raise ConfigError(str(exc)) from exc
    diam = domain.diameter()
    t_max = cfg.t_max if cfg.t_max is not None else diam**2
    if cfg.t_min > t_max:
        raise ConfigError(f"t_min {cfg.t_min:g} must not exceed t_max {t_max:g}")
    system = heat.assemble(domain)
    if cfg.modes is not None:
        system.mode_cap = cfg.modes
    n_eigs = min(cfg.modes if cfg.modes is not None else 16, system.size - 2)
    lam, _ = system.eigenpairs(n_eigs, vectors=False)
    t_grid = np.geomspace(cfg.t_min, t_max, cfg.t_steps)

    checks = {}
    # the solvers pin lam_0 = 0 and phi_0 = 1/sqrt(V); this is the identity they rest on
    A = system.stiffness
    checks["constant_null"] = bool(np.max(np.abs(A @ np.ones(system.size)))
                                   <= 1e-12 * np.max(np.abs(A.diagonal())))
    probe = min(system.size, 400)
    idx = domain.sample_indices(probe)
    t_probe = float(t_grid[len(t_grid) // 2])
    # the kernel's row sums at the probes are the semigroup applied to 1
    rowsums = system.semigroup_apply(t_probe, np.ones(system.size))[idx]
    checks["stochastic"] = bool(np.max(np.abs(rowsums - 1.0)) < 1e-9)
    sym = system.heat_kernel(t_probe, idx[:, None], idx[None, :])
    checks["symmetric"] = bool(np.max(np.abs(sym - sym.T)) < 1e-12)
    equil = system.heat_kernel(10.0 * diam**2, int(idx[0]), int(idx[-1]))
    checks["equilibrium"] = bool(abs(equil - 1.0 / system.volume) < 1e-10)

    diag = heat.diagonal_bound_check(domain, system, t_grid)
    eta1, scaled = heat.eigenvalue_diagnostic(system, domain)
    checks["diagonal_finite"] = bool(np.isfinite(diag.c_obs))

    payload = {
        "size": domain.size,
        "volume": system.volume,
        "diameter": diam,
        "eigenvalues": lam,
        "eta1": eta1,
        "eta1_diam_sq": scaled,
        "checks": checks,
        "diagonal": diag.to_dict(),
        "eigensolver": {
            "path": system.solver,
            "modes": system.modes_used,
            "mode_cap": system.mode_cap,
            "truncation": system.truncation,
        },
    }
    write_report(cfg.report, payload)
    if cfg.csv:
        rows = [(t, v) for t, v in diag.table]
        write_csv(cfg.csv, ["t", "max_diag_product"], rows)
    return 0 if all(checks.values()) else 1


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep needs a 'sweep' section in the config")
    if len(cfg.sweep) != 1:
        raise ConfigError("sweep supports exactly one parameter at a time")
    param, spec = next(iter(cfg.sweep.items()))
    values = np.linspace(spec["from"], spec["to"], spec["steps"])

    base = dict(K=cfg.K if cfg.K is not None else 0.0,
                H=cfg.H if cfg.H is not None else 0.0,
                n=cfg.n, r=cfg.r, G=cfg.G)

    points = []
    for index, value in enumerate(values):
        kw = dict(base)
        if param == "R0":
            kw["H"] = 1.0 / value
        else:
            kw[param] = value
        constants, _, _ = _constants_payload(kw["K"], kw["H"], kw["n"], kw["r"], kw["G"])
        for key in ("profile_s", "profile_d", "profile_D"):
            constants.pop(key)
        points.append({"index": index, "value": float(value), "constants": constants})
    payload = {"parameter": param, "points": points}
    write_report(cfg.report, payload)
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    """The config file's entries with the flags that were given laid over them."""
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = _object(_decode(fh.read(), args.config), "configuration", _TOP_KEYS)
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            raw[key] = _decode(val, "--domain") if key == "domain" else val
    return _parse(raw)


def _add_common(sub):
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--report", help="write the JSON report here (default stdout)")
    sub.add_argument("--csv", help="write a CSV table here")
    sub.add_argument("--seed", type=int, default=None)


def build_parser():
    p = argparse.ArgumentParser(prog="sobex", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)

    c = subs.add_parser("constants", help="closed-form tube constants")
    _add_common(c)
    c.add_argument("--K", type=float, default=None)
    c.add_argument("--H", type=float, default=None)
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--r", type=float, default=None)
    c.add_argument("--G", type=float, default=None)

    g = subs.add_parser("regularity", help="regularity certificate")
    _add_common(g)
    g.add_argument("--domain", help="domain JSON")
    g.add_argument("--r", type=float, default=None)

    v = subs.add_parser("verify-extension", help="operator-norm verification")
    _add_common(v)
    v.add_argument("--domain", help="domain JSON")
    v.add_argument("--r", type=float, default=None)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--quad", type=int, default=None)
    v.add_argument("--G", type=float, default=None)

    h = subs.add_parser("heat", help="Neumann heat diagnostics")
    _add_common(h)
    h.add_argument("--domain", help="domain JSON")
    h.add_argument("--resolution", type=int, default=None)
    h.add_argument("--modes", type=int, default=None)
    h.add_argument("--t-min", dest="t_min", type=float, default=None)
    h.add_argument("--t-max", dest="t_max", type=float, default=None)
    h.add_argument("--t-steps", dest="t_steps", type=int, default=None)

    s = subs.add_parser("sweep", help="constants over a parameter range")
    _add_common(s)
    return p


_COMMANDS = {
    "constants": cmd_constants,
    "regularity": cmd_regularity,
    "verify-extension": cmd_verify_extension,
    "heat": cmd_heat,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SobexError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
