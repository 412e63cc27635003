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
from dataclasses import field as dc_field, make_dataclass

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


# every scalar setting: key -> (type, least value, default); type str is a
# path, and the least value None is no bound, "positive" a strict bound of 0
_SETTINGS = {
    "r": (float, "positive", None),
    "G": (float, None, 3.0),
    "t_min": (float, "positive", 1e-3),
    "t_max": (float, "positive", None),
    "K": (float, None, None),
    "H": (float, None, None),
    "quad": (int, 16, 64),
    "resolution": (int, 16, 256),
    "modes": (int, 1, 16),
    "samples": (int, 1, 16),
    "seed": (int, 0, 42),
    "t_steps": (int, 1, 16),
    "n": (int, None, 2),
    "report": (str, None, None),
    "csv": (str, None, None),
}
_TOP_KEYS = {"surface", "domain", "sweep"} | set(_SETTINGS)
_SWEEP_PARAMS = {"K", "H", "r", "R0"}

RunConfig = make_dataclass(
    "RunConfig",
    [("surface", dict | None, None), ("domain", dict | None, None),
     ("sweep", dict, dc_field(default_factory=dict))]
    + [(key, kind | None, default) for key, (kind, _, default) in _SETTINGS.items()])
RunConfig.__doc__ = "Validated run configuration: the nested sections and every _SETTINGS key."


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


def _path(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a path")
    return value


_CHECKS = {float: _real, int: _integer, str: _path}


def _section(value, where, table):
    """A copy of the JSON object ``value`` with each entry checked by ``table``,
    which maps every key it allows to its check, to the table of a nested
    section, or to ``None``, which leaves the value to the builder.  A table
    ``(key, default, variants)`` first reads the variant ``value[key]`` (else
    ``default``) and then allows that key and the keys of ``variants[variant]``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    named = ""
    if isinstance(table, tuple):
        selector, default, variants = table
        variant = value.get(selector, default)
        if not isinstance(variant, str) or variant not in variants:
            raise ConfigError(f"unknown {where} {selector} {variant!r}")
        table = {selector: None, **variants[variant]}
        named = f" ({selector} {variant!r})"
    out = {}
    for key, item in value.items():
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {where}{named}")
        check = table[key]
        if isinstance(check, (dict, tuple)):
            item = _section(item, f"{where}.{key}", check)
        elif check is not None:
            item = check(item, f"{where}.{key}")
        out[key] = item
    return out


def _range(value, where):
    """One swept parameter: ``from``, ``to`` and a positive number of ``steps``."""
    value = _section(value, where, {"from": _real, "to": _real, "steps": _integer})
    if len(value) != 3:
        raise ConfigError(f"{where} needs 'from', 'to' and 'steps'")
    if value["steps"] < 1:
        raise ConfigError(f"{where}.steps must be a positive integer")
    return value


# the nested sections' tables (see _section): each kind of surface, warp
# profile and domain allows only the keys its builder reads
_SECTIONS = {
    "surface": ("kind", "constant", {
        "constant": {"kappa": _real},
        "warped": {"profile": ("type", "poly_cosh_mix", {"poly_cosh_mix": {"coeffs": _reals}})},
    }),
    "domain": ("type", "disk", {"disk": {"center": _reals, "radius": _real},
                                "fourier": {"coeffs_cos": _reals, "coeffs_sin": _reals},
                                "interval": {"L": _real}}),
    "sweep": dict.fromkeys(_SWEEP_PARAMS, _range),
}


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
    raw = _section(raw, "configuration", dict.fromkeys(_TOP_KEYS))
    cfg = RunConfig()
    for key, table in _SECTIONS.items():
        if key in raw:
            setattr(cfg, key, _section(raw[key], key, table))
    for key, (kind, least, _) in _SETTINGS.items():
        if raw.get(key) is None:
            continue
        value = _CHECKS[kind](raw[key], key)
        if least == "positive":
            if value <= 0.0:
                raise ConfigError(f"{key} must be positive")
        elif least is not None and value < least:
            raise ConfigError(f"{key} must be at least {least}")
        setattr(cfg, key, value)
    return cfg


def build_surface(cfg: RunConfig) -> ModelSurface:
    """The configured surface; ``_SECTIONS`` has checked its kind and profile type."""
    spec = cfg.surface or {}
    if spec.get("kind", "constant") == "constant":
        return ModelSurface.constant_curvature(spec.get("kappa", 0.0))
    return ModelSurface.warped(poly_cosh_mix_profile(spec.get("profile", {}).get("coeffs", [1.0])))


def build_domain(cfg: RunConfig) -> DomainSpec:
    """The configured domain; one the surface cannot carry is a :class:`ConfigError`."""
    dom = cfg.domain or {}
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
    raise ConfigError("an interval domain serves only heat (use 'disk' or 'fourier')")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _constants_payload(K, H, n, r, G):
    """The closed-form constants for ``(K, H)`` in dimension ``n`` and their profile."""
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
    dist = comparison.distortion_factor(profile)
    return {
        "K": K,
        "H": H,
        "n": n,
        "G": G,
        "r": r_use,
        "r0": r0,
        "r_admissible": r_adm,
        "distortion": dist,
        "norm_bound": comparison.extension_norm_bound(dist, G, r_use),
    }, profile


def cmd_constants(cfg: RunConfig) -> int:
    payload, profile = _constants_payload(cfg.K, cfg.H, cfg.n, cfg.r, cfg.G)
    grid = np.linspace(0.0, profile.r, 33)
    payload.update(profile_s=grid, profile_d=profile.d(grid), profile_D=profile.D(grid))
    write_report(cfg.report, payload)
    if cfg.csv:
        grid = np.linspace(0.0, profile.r, 129)
        rows = np.stack([grid, profile.d_base(grid), profile.D_base(grid),
                         profile.d(grid), profile.D(grid)], axis=-1)
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
        spec, diam = None, float(dom_cfg.get("L", 1.0))
    else:
        spec = build_domain(cfg)
        diam = spec.diameter()
    diam_sq = diam * diam
    # the equilibrium check runs at 10 diam^2; checked before the grids, which
    # a domain this large overflows
    if not math.isfinite(10.0 * diam_sq):
        raise ConfigError(f"domain diameter {diam:g} overflows the heat time scale")
    try:  # a domain the heat grids cannot carry
        if spec is None:
            domain = heat.DiscreteDomain.interval(diam, cfg.resolution)
        else:
            domain = heat.DiscreteDomain.disk_like(spec, cfg.resolution, cfg.resolution)
        system = heat.assemble(domain)
    except AssemblyError as exc:
        raise ConfigError(str(exc)) from exc
    t_max = cfg.t_max if cfg.t_max is not None else diam_sq
    if cfg.t_min > t_max:
        raise ConfigError(f"t_min {cfg.t_min:g} must not exceed t_max {t_max:g}")
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
    rowsums = system.semigroup(np.ones(system.size), t_probe)(t_probe)[idx]
    checks["stochastic"] = bool(np.max(np.abs(rowsums - 1.0)) < 1e-9)
    sym = system.heat_kernel(t_probe, idx[:, None], idx[None, :])
    checks["symmetric"] = bool(np.max(np.abs(sym - sym.T)) < 1e-12)
    equil = system.heat_kernel(10.0 * diam_sq, int(idx[0]), int(idx[-1]))
    checks["equilibrium"] = bool(abs(equil - 1.0 / system.volume) < 1e-10)

    diag = heat.diagonal_bound_check(domain, system, t_grid)
    eta1, scaled = heat.eigenvalue_diagnostic(system, domain)
    # after the kernel sums, so the spectrum they solved serves these too;
    # cfg.modes only sizes this list (the solver caps it), every sum runs at
    # the solver's own cap
    lam, _ = system.eigenpairs(cfg.modes, vectors=False)
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
    if param == "R0" and np.any(values <= 0.0):
        raise ConfigError(f"sweep.R0 must be positive, got {float(np.min(values)):g}")

    base = dict(K=cfg.K if cfg.K is not None else 0.0,
                H=cfg.H if cfg.H is not None else 0.0,
                n=cfg.n, r=cfg.r, G=cfg.G)

    points = []
    for index, value in enumerate(values):
        kw = dict(base)
        if param == "R0":
            kw["H"] = 1.0 / float(value)
        else:
            kw[param] = value
        constants, _ = _constants_payload(kw["K"], kw["H"], kw["n"], kw["r"], kw["G"])
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
            raw = _section(_decode(fh.read(), args.config), "configuration",
                           dict.fromkeys(_TOP_KEYS))
    for key, val in vars(args).items():
        if key not in ("command", "config") and val is not None:
            raw[key] = _decode(val, "--domain") if key == "domain" else val
    return _parse(raw)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are :class:`ConfigError`, not exits."""

    def error(self, message):
        raise ConfigError(message)


# subcommand -> (help, the keys of the flags it reads); every subcommand
# first takes --config and --report
_FLAGS = {
    "constants": ("closed-form tube constants", ("csv", "K", "H", "n", "r", "G")),
    "regularity": ("regularity certificate", ("domain", "r")),
    "verify-extension": ("operator-norm verification",
                         ("csv", "seed", "domain", "r", "samples", "quad", "G")),
    "heat": ("Neumann heat diagnostics",
             ("csv", "domain", "resolution", "modes", "t_min", "t_max", "t_steps")),
    "sweep": ("constants over a parameter range", ()),
}
_FLAG_HELP = {"config": "JSON configuration file", "domain": "domain JSON",
              "report": "write the JSON report here (default stdout)",
              "csv": "write a CSV table here"}


def build_parser():
    p = _Parser(prog="sobex", description=__doc__.splitlines()[0])
    subs = p.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _FLAGS.items():
        sub = subs.add_parser(command, help=help_text)
        for key in ("config", "report") + keys:
            kind = _SETTINGS.get(key, (str,))[0]
            sub.add_argument("--" + key.replace("_", "-"), type=None if kind is str else kind,
                             help=_FLAG_HELP.get(key))
    return p


_COMMANDS = {
    "constants": cmd_constants,
    "regularity": cmd_regularity,
    "verify-extension": cmd_verify_extension,
    "heat": cmd_heat,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError, ValueError, MemoryError) as exc:  # bad input, or too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except SobexError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
