import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

import sobex
from sobex import cli, extension, heat
from sobex.errors import ConfigError, EvaluationError


def test_parse_config_defaults():
    cfg = cli.parse_config('{"domain": {"type": "disk", "radius": 1.0}}')
    assert cfg.quad == 64
    assert cfg.resolution == 256
    assert cfg.G == 3.0
    assert cfg.seed == 42


def test_parse_config_rejects_bad_r():
    with pytest.raises(ConfigError, match="r must be positive"):
        cli.parse_config('{"r": -1.0}')


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        cli.parse_config('{"bogus": 1}')
    with pytest.raises(ConfigError, match="surface"):
        cli.parse_config('{"surface": {"kind": "constant", "oops": 2}}')


def test_parse_config_sweep_enumeration(tmp_path):
    cfg = cli.parse_config(
        '{"K": 0.0, "H": 1.0,'
        ' "sweep": {"r": {"from": 0.1, "to": 0.5, "steps": 5}}}'
    )
    report = tmp_path / "sweep.json"
    cfg.report = str(report)
    assert cli.cmd_sweep(cfg) == 0
    data = json.loads(report.read_text())
    assert len(data["points"]) == 5
    assert data["points"][0]["value"] == pytest.approx(0.1)
    assert data["points"][-1]["value"] == pytest.approx(0.5)


def test_constants_cli(tmp_path, capsys):
    rc = cli.main(["constants", "--K", "0", "--H", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["r0"] == pytest.approx(1.0)
    assert data["r_admissible"] == pytest.approx(0.5)
    assert data["distortion"] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K, H", [(1e300, 1), (1, 1e300), (0, 1e300), (1e300, 1e300)])
def test_constants_extreme_curvature(capsys, K, H):
    """Huge finite bounds leave a working radius near 1e-300: the bound is inf, not an error."""
    assert cli.main(["constants", "--K", str(K), "--H", str(H)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["norm_bound"] == "inf"


@pytest.mark.parametrize("argv", [["heat", "--resolution", "abc"], ["heat", "--bogus", "1"], []])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"surface": ')
    assert cli.main(["constants", "--config", str(bad)]) == 2
    assert cli.main(["regularity", "--domain", "{oops", "--r", "0.5"]) == 2


def test_regularity_exit_codes(tmp_path):
    dom = '{"type": "disk", "center": [0, 0], "radius": 1.0}'
    rep = tmp_path / "reg.json"
    assert cli.main(["regularity", "--domain", dom, "--r", "0.5",
                     "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["admissible"] is True
    assert cli.main(["regularity", "--domain", dom, "--r", "1.5",
                     "--report", str(rep)]) == 1
    assert json.loads(rep.read_text())["admissible"] is False


def test_verify_extension_cli(tmp_path):
    dom = '{"type": "disk", "center": [0, 0], "radius": 1.0}'
    rep = tmp_path / "vx.json"
    rc = cli.main(["verify-extension", "--domain", dom, "--r", "0.4",
                   "--samples", "2", "--quad", "20", "--report", str(rep)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True
    assert data["max_ratio"] <= data["bound"]
    # how it was computed: analytic gradients; 20 radial nodes per segment
    # (one in the domain, two in the tube) times 64 angles
    assert data["gradient"] == {"omega": "analytic", "tube": "analytic"}
    assert data["quadrature_nodes"] == {"omega": 20 * 64, "tube": 2 * 20 * 64}


def test_verify_extension_bound_violation_keeps_report(tmp_path, monkeypatch):
    monkeypatch.setattr(extension, "extension_norm_bound", lambda *args: 1.0)
    rep = tmp_path / "vx.json"
    rc = cli.main(["verify-extension", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--r", "0.4", "--samples", "2", "--quad", "16", "--report", str(rep)])
    assert rc == 1
    data = json.loads(rep.read_text())
    assert data["passed"] is False and data["bound"] == 1.0
    assert len(data["per_sample"]) == 2 and data["max_ratio"] == max(data["per_sample"]) > 1.0
    assert data["quadrature_nodes"] == {"omega": 16 * 64, "tube": 2 * 16 * 64}


def test_verify_extension_focal_radius_keeps_report(tmp_path, capsys):
    """A tube radius at the focal reach fails the chart's certificate: the report
    says so with a reason, as ``sobex regularity`` does, and the exit is 1."""
    rep = tmp_path / "vx.json"
    rc = cli.main(["verify-extension", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--r", "1.5", "--report", str(rep)])
    assert rc == 1 and capsys.readouterr().err == ""
    data = json.loads(rep.read_text())
    assert data["passed"] is False
    assert data["reason"] == "tube radius 1.5 reaches a focal point (reach 1)"


_WARPED_DISK = {"surface": {"kind": "warped", "profile": {"type": "poly_cosh_mix",
                                                        "coeffs": [1.0, 0.12, -0.05]}},
                "domain": {"type": "disk", "radius": 0.8}}


@pytest.mark.parametrize("config, names", [
    # past the focal radius r0 = 0.6502 of the CLI defaults' warped disk
    (dict(_WARPED_DISK, r=0.7), "r0 = 0.650243"),
    # the exterior ball centres round onto the unit circle
    ({"domain": {"type": "disk", "radius": 1.0}, "r": 1e-300}, "exterior ball centres"),
])
def test_inadmissible_chart_says_why(tmp_path, config, names):
    """A chart that fails a regularity condition names it: the regularity report
    has a note for it, and verify-extension's reason carries the note."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reg, vx = tmp_path / "reg.json", tmp_path / "vx.json"
    assert cli.main(["regularity", "--config", str(cfg), "--report", str(reg)]) == 1
    data = json.loads(reg.read_text())
    assert data["admissible"] is False and data["notes"]
    assert any(names in note for note in data["notes"])
    assert cli.main(["verify-extension", "--config", str(cfg), "--samples", "1", "--quad", "16",
                     "--report", str(vx)]) == 1
    reason = json.loads(vx.read_text())["reason"]
    assert reason.startswith("chart is not admissible: [") and names in reason


@pytest.mark.filterwarnings("error")
def test_verify_extension_huge_gradient_budget_is_quiet(tmp_path):
    """A cutoff band of width 1.5e-300 neither overflows nor warns: the bound is inf."""
    rep = tmp_path / "vx.json"
    assert cli.main(["verify-extension", "--domain", '{"type": "disk", "radius": 1.0}',
                     "--r", "0.4", "--samples", "1", "--quad", "16", "--G", "1e300",
                     "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True and data["bound"] == "inf"


def test_failed_check_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    """A toolkit error that escapes a command is a failed check: exit 1, one
    stderr line, no traceback and no report."""
    def fail(*args, **kwargs):
        raise EvaluationError("non-finite value at a quadrature node")

    monkeypatch.setattr(extension, "operator_norm_estimate", fail)
    rep = tmp_path / "vx.json"
    rc = cli.main(["verify-extension", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--r", "0.4", "--samples", "1", "--report", str(rep)])
    assert rc == 1
    assert capsys.readouterr().err == "check failed: non-finite value at a quadrature node\n"
    assert not rep.exists()


def test_heat_accepts_equal_time_bounds(tmp_path):
    rep = tmp_path / "heat.json"
    rc = cli.main(["heat", "--domain", '{"type": "interval", "L": 1.0}', "--resolution", "64",
                   "--t-min", "0.5", "--t-max", "0.5", "--t-steps", "3", "--report", str(rep)])
    assert rc == 0
    assert [t for t, _ in json.loads(rep.read_text())["diagonal"]["profile"]] == [0.5] * 3


def _fresh_interpreter(code):
    """Stdout of ``code`` run by a fresh interpreter that imports this sobex."""
    src = str(pathlib.Path(sobex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_import_leaves_optimize_and_integrate_unloaded():
    """``scipy.optimize`` and ``scipy.integrate`` load only where they are used;
    the tube distortion is closed-form even where the exterior Jacobi factor
    peaks inside the tube (at atan(1/2) for this data)."""
    code = ("import sys, sobex, sobex.cli; from sobex import comparison as C; "
            "C.distortion_factor(C.ComparisonProfile.from_curvature("
            "C.CurvatureData(1, 1, -0.5, -0.5), 0.8), 2, 0.8); "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    assert _fresh_interpreter(code).strip() == "[]"


def test_cli_runs_load_no_spatial_or_special():
    """Distances are numpy sweeps, so neither ``scipy.spatial`` nor the
    ``scipy.special`` it pulls in loads during a flat ``heat`` run or a blob
    ``verify-extension`` run; ``scipy.linalg`` loads with ``sobex.heat``, not
    inside the first eigensolve."""
    code = textwrap.dedent("""\
        import os, sys, sobex.heat
        linalg = "scipy.linalg" in sys.modules
        import sobex, sobex.cli
        rc = [sobex.cli.main(["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                              "--resolution", "16", "--report", os.devnull]),
              sobex.cli.main(["verify-extension", "--domain",
                              '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}',
                              "--r", "0.3", "--samples", "2", "--quad", "16",
                              "--report", os.devnull])]
        loaded = [m for m in ("scipy.spatial", "scipy.special", "scipy.optimize",
                              "scipy.integrate") if m in sys.modules]
        print(linalg, rc, loaded)
        """)
    assert _fresh_interpreter(code).splitlines()[-1] == "True [0, 0] []"


def test_heat_cli(tmp_path):
    rep = tmp_path / "heat.json"
    csv = tmp_path / "heat.csv"
    rc = cli.main(["heat", "--domain", '{"type": "interval", "L": 1.0}',
                   "--resolution", "128", "--t-steps", "5",
                   "--report", str(rep), "--csv", str(csv)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["checks"] == dict.fromkeys(
        ["constant_null", "stochastic", "symmetric", "equilibrium", "diagonal_finite"], True)
    assert data["eta1_diam_sq"] == pytest.approx(math.pi**2, rel=1e-2)
    assert data["eigensolver"]["path"] == "separable"
    assert data["eigensolver"]["truncation"] == 0.0  # the whole spectrum is kept
    assert csv.read_text().startswith("t,")


def test_heat_constant_null_fails_when_constants_carry_energy(tmp_path, monkeypatch):
    """``constant_null`` checks ``A 1 = 0``, the identity the pinned constant
    mode rests on; a stiffness with a grounded node fails it."""
    assemble = heat.assemble

    def grounded(domain):
        system = assemble(domain)
        ground = np.zeros(system.size)
        ground[0] = 1e-6
        system.stiffness = (system.stiffness + sps.diags(ground)).tocsr()
        return system

    monkeypatch.setattr(heat, "assemble", grounded)
    rep = tmp_path / "heat.json"
    rc = cli.main(["heat", "--domain", '{"type": "interval", "L": 1.0}',
                   "--resolution", "64", "--report", str(rep)])
    assert rc == 1 and json.loads(rep.read_text())["checks"]["constant_null"] is False


def test_heat_constant_null_alone_reads_a_stiffness_the_spectrum_ignores(tmp_path, monkeypatch):
    """A separable disk solves its spectrum from its factors, not from its
    stiffness: one diagonal entry raised by 1e-6 of the largest leaves every
    kernel check passing, and ``constant_null`` alone fails (exit 1)."""
    assemble = heat.assemble

    def raised(domain):
        system = assemble(domain)
        assert system.solver == "separable"
        bump = np.zeros(system.size)
        bump[0] = 1e-6 * np.max(np.abs(system.stiffness.diagonal()))
        system.stiffness = (system.stiffness + sps.diags(bump)).tocsr()
        return system

    monkeypatch.setattr(heat, "assemble", raised)
    rep = tmp_path / "heat.json"
    rc = cli.main(["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--resolution", "16", "--report", str(rep)])
    checks = json.loads(rep.read_text())["checks"]
    assert rc == 1 and checks.pop("constant_null") is False
    assert checks and all(checks.values()), checks


def test_heat_modes_only_sizes_the_eigenvalue_list(tmp_path):
    """``--modes`` sets how many eigenvalues the report lists and nothing else:
    the kernel sums, the checks and the eigensolver block run at the
    solver's own mode cap with or without it."""
    reports = []
    for flags in ([], ["--modes", "4"]):
        rep = tmp_path / "heat.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the capped sums warn
            assert cli.main(["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                             "--resolution", "48", *flags, "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    default, four = reports
    for block in ("diagonal", "checks", "eigensolver"):
        assert four[block] == default[block], block
    assert len(default["eigenvalues"]) == 16 and len(four["eigenvalues"]) == 4
    assert four["eigenvalues"] == default["eigenvalues"][:4]


def test_heat_default_resolution_disk(tmp_path, unit_disk):
    """The unit disk at the default resolution 256 (65 536 nodes) passes every
    check, and its allocations peak below 64 MiB (19 MiB measured): the
    separable spectrum is never formed as a 65 536 x 384 matrix, nor the
    probe rows as a 400 x 65 536 one, nor the ball volumes from a
    96 x 65 536 distance table."""
    rep = tmp_path / "heat.json"
    tracemalloc.start()
    try:
        rc = cli.main(["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                       "--report", str(rep)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    data = json.loads(rep.read_text())
    assert rc == 0
    assert data["size"] == 256 * 256
    assert data["checks"] and all(data["checks"].values())
    solver = data["eigensolver"]
    # the truncation level is the largest one the capped sums ran at: t = t_min
    system = heat.assemble(heat.DiscreteDomain.disk_like(unit_disk, 256, 256))
    lam, _ = system.eigenpairs(384, vectors=False)
    assert solver.pop("truncation") == math.exp(-float(lam[-1]) * 1e-3)
    assert solver == {"path": "separable", "modes": 384, "mode_cap": 384}


@pytest.mark.parametrize("flags, config", [
    (["--modes", "0"], {"modes": 0}),
    (["--resolution", "8"], {"resolution": 8}),
    (["--domain", '{"type": "interval", "L": -1}'], {"domain": {"type": "interval", "L": -1}}),
    (["--domain", '{"type": "interval", "L": NaN}'], {"domain": {"type": "interval", "L": math.nan}}),
])
def test_heat_rejects_bad_input(tmp_path, capsys, flags, config):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    for argv in (["heat"] + flags, ["heat", "--config", str(cfg_file)]):
        assert cli.main(argv + ["--report", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("domain, flags, n_eigs, path", [
    ('{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}', [], 16, "sparse"),
    # two reported eigenvalues; the sums run at the separable solver's cap
    ('{"type": "disk", "radius": 1.0}', ["--modes", "2"], 2, "separable"),
])
def test_heat_solves_once(tmp_path, monkeypatch, domain, flags, n_eigs, path):
    """The reported eigenvalues read the spectrum the kernel sums solved:
    one solve per run above the dense limit."""
    monkeypatch.setattr(heat.NeumannSystem, "DENSE_LIMIT", 100)
    solve = heat.NeumannSystem._solve
    calls = []

    def counted(self, keep):
        calls.append(keep)
        return solve(self, keep)

    monkeypatch.setattr(heat.NeumannSystem, "_solve", counted)
    rep = tmp_path / "heat.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the truncated sums warn
        assert cli.main(["heat", "--domain", domain, "--resolution", "16", *flags,
                         "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["eigensolver"]["path"] == path and len(data["eigenvalues"]) == n_eigs
    assert len(calls) == 1


_DISK = {"type": "disk", "radius": 1.0}
_WARP_ZERO = {"kind": "warped", "profile": {"type": "poly_cosh_mix", "coeffs": [1.0, 0.0, -1.0]}}
_PAST_ZERO = {"type": "disk", "radius": 1.6165}
_HYPERBOLIC = {"kind": "constant", "kappa": -1}
_HUGE_DISK = {"type": "disk", "radius": 800}


@pytest.mark.parametrize("command, flags, config", [
    ("constants", ["--K", "1", "--H", "nan"], {"K": 1, "H": math.nan}),
    ("constants", ["--K", "1", "--H", "1", "--r", "inf"], {"K": 1, "H": 1, "r": math.inf}),
    ("verify-extension", ["--domain", json.dumps(_DISK), "--r", "0.3", "--G", "nan"],
     {"domain": _DISK, "r": 0.3, "G": math.nan}),
    ("heat", ["--resolution", "16", "--t-min", "nan"], {"resolution": 16, "t_min": math.nan}),
    ("heat", ["--resolution", "16", "--t-steps", "0"], {"resolution": 16, "t_steps": 0}),
    ("verify-extension", ["--domain", json.dumps(_DISK), "--r", "0.3", "--samples", "0"],
     {"domain": _DISK, "r": 0.3, "samples": 0}),
    ("regularity", ["--domain", '{"type": "disk", "radius": -1}', "--r", "0.3"],
     {"domain": {"type": "disk", "radius": -1}, "r": 0.3}),
    ("regularity", ["--domain", "5", "--r", "0.3"], {"domain": 5, "r": 0.3}),
    ("regularity", None, {"surface": 5, "r": 0.3}),
    ("constants", None, {"K": 1, "H": 1, "sweep": {"r": 5}}),
    ("sweep", None, {"K": 1, "H": 1, "sweep": {"r": {"to": 0.2, "steps": 3}}}),
    ("heat", ["--domain", '{"type": "disk", "center": [0.1, 0], "radius": 0.5}'],
     {"domain": {"type": "disk", "center": [0.1, 0], "radius": 0.5}}),
    # a radius at or past the degeneration radius r0 of the profiles
    ("constants", ["--K", "1", "--H", "1", "--r", "5"], {"K": 1, "H": 1, "r": 5}),
    ("constants", ["--K", "0", "--H", "2", "--r", "0.5"], {"K": 0, "H": 2, "r": 0.5}),
    ("sweep", None, {"K": 1, "H": 1, "sweep": {"r": {"from": 0.1, "to": 5, "steps": 3}}}),
    # a disk past the warp's zero at 1.616138: the chart stops before it
    ("regularity", None, {"surface": _WARP_ZERO, "domain": _PAST_ZERO, "r": 0.3}),
    ("heat", None, {"surface": _WARP_ZERO, "domain": _PAST_ZERO, "resolution": 16}),
    # t_min above the default t_max = diam^2 = 4 of the unit disk
    ("heat", ["--resolution", "16", "--t-min", "10", "--t-steps", "4"],
     {"resolution": 16, "t_min": 10, "t_steps": 4}),
    # finite domains whose diameter squared overflows
    ("heat", ["--resolution", "16", "--domain", '{"type": "disk", "radius": 1e200}'],
     {"resolution": 16, "domain": {"type": "disk", "radius": 1e200}}),
    ("heat", ["--resolution", "16", "--domain", '{"type": "interval", "L": 1e300}'],
     {"resolution": 16, "domain": {"type": "interval", "L": 1e300}}),
    ("heat", ["--resolution", "16", "--domain", '{"type": "fourier", "coeffs_cos": [1e200]}'],
     {"resolution": 16, "domain": {"type": "fourier", "coeffs_cos": [1e200]}}),
    # a hyperbolic disk whose metric sinh(radius)^2 overflows
    ("heat", None, {"surface": _HYPERBOLIC, "domain": _HUGE_DISK, "resolution": 16}),
    ("regularity", None, {"surface": _HYPERBOLIC, "domain": _HUGE_DISK, "r": 0.3}),
    # a sweep of the focal scale R0 = 1/H through 0
    ("sweep", None, {"K": 0, "r": 0.3, "sweep": {"R0": {"from": 0.0, "to": 1.0, "steps": 3}}}),
])
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_2(tmp_path, capsys, command, flags, config):
    """Flags and config files go through one validation: exit 2, one line, no report,
    no warning."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    runs = [["--config", str(cfg_file)]] + ([flags] if flags is not None else [])
    for argv in runs:
        assert cli.main([command] + argv + ["--report", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


_SCALARS = (st.none() | st.booleans() | st.integers(-10**400, 10**400)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                       max_leaves=8)
_NUMBERS = st.floats(-3.0, 3.0) | st.integers(-3, 300)
_LISTS = st.lists(_NUMBERS, max_size=4)


def _maybe(valid):
    """Mostly a value of the right shape, sometimes any JSON value."""
    return st.one_of(valid, valid, _VALUES)


def _object(**fields):
    return st.fixed_dictionaries({}, optional={k: _maybe(v) for k, v in fields.items()})


_CONFIGS = _object(
    surface=_object(kind=st.sampled_from(["constant", "warped"]), kappa=_NUMBERS,
                    profile=_object(type=st.sampled_from(["poly_cosh_mix", "cosh"]),
                                    coeffs=_LISTS)),
    domain=_object(type=st.sampled_from(["disk", "fourier", "interval"]), center=_LISTS,
                   radius=_NUMBERS, coeffs_cos=_LISTS, coeffs_sin=_LISTS, L=_NUMBERS),
    sweep=st.dictionaries(st.sampled_from(sorted(cli._SWEEP_PARAMS)),
                          _object(**{"from": _NUMBERS, "to": _NUMBERS, "steps": _NUMBERS}),
                          max_size=2),
    **{key: st.floats(-1.0, 3.0) for key in ("r", "G", "t_min", "t_max", "K", "H")},
    **{key: st.integers(-1, 80) for key in ("quad", "resolution", "modes", "samples",
                                            "seed", "t_steps", "n")},
)


@settings(max_examples=300)
@given(raw=_CONFIGS)
def test_parse_and_build_raise_only_config_errors(raw):
    """Every configuration is either accepted and buildable or a ConfigError."""
    try:
        cli.build_domain(cli.parse_config(json.dumps(raw)))
    except ConfigError:
        pass


_JUNK = st.none() | st.booleans() | st.text(max_size=4) | st.lists(_NUMBERS, max_size=2)
_DOMAINS = st.fixed_dictionaries({"type": st.sampled_from(["disk", "fourier", "interval"])}, optional={
    "center": st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2), "radius": _NUMBERS,
    "coeffs_cos": st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=4),
    "coeffs_sin": st.lists(st.floats(-0.5, 0.5), max_size=3), "L": _NUMBERS})
_SURFACES = st.fixed_dictionaries({"kind": st.sampled_from(["constant", "warped"])}, optional={
    "kappa": st.floats(-2.0, 2.0),
    "profile": st.fixed_dictionaries({"type": st.sampled_from(["poly_cosh_mix", "cosh"])},
                                     optional={"coeffs": st.lists(st.floats(-1.0, 2.0), max_size=3)})})
# every size is small, so no run builds a large grid
_SIZES = {"resolution": st.integers(16, 24), "samples": st.integers(1, 2), "quad": st.just(16),
          "t_steps": st.integers(1, 6), "modes": st.integers(1, 40), "n": st.integers(2, 3),
          "seed": st.integers(0, 2**64)}
_VALID_RUNS = st.fixed_dictionaries(
    {"r": st.floats(0.05, 1.0), "K": st.floats(0.0, 2.0), "H": st.floats(0.0, 3.0),
     "resolution": _SIZES["resolution"], "samples": _SIZES["samples"], "quad": _SIZES["quad"],
     "t_steps": _SIZES["t_steps"]},
    optional={"surface": _SURFACES, "domain": _DOMAINS, "G": st.floats(3.0, 8.0),
              "modes": _SIZES["modes"], "seed": _SIZES["seed"], "n": _SIZES["n"],
              "t_min": st.floats(1e-4, 1.0), "t_max": st.floats(1e-3, 10.0),
              "sweep": st.dictionaries(
                  st.sampled_from(sorted(cli._SWEEP_PARAMS)),
                  st.fixed_dictionaries({"from": st.floats(0.05, 2.0), "to": st.floats(0.05, 2.0),
                                         "steps": st.integers(1, 4)}),
                  min_size=1, max_size=1)})


@st.composite
def _runs(draw):
    """A valid configuration; half the time one entry is any JSON value instead.

    A size is only ever replaced by a value that is not an integer.
    """
    raw = draw(_VALID_RUNS)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(cli._TOP_KEYS - {"report", "csv"})))
        raw[key] = draw(_JUNK if key in _SIZES else _VALUES)
    return raw


@settings(max_examples=100)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), raw=_runs(),
       domain_flag=st.none() | _DOMAINS | _VALUES)
def test_main_exits_0_1_or_2(command, raw, domain_flag):
    """Any configuration, through any subcommand: an exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        (out / "cfg.json").write_text(json.dumps(raw))
        argv = [command, "--config", str(out / "cfg.json"), "--report", str(out / "out.json"),
                "--csv", str(out / "out.csv")]
        if domain_flag is not None and command in ("regularity", "verify-extension", "heat"):
            argv += ["--domain", json.dumps(domain_flag)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(argv) in (0, 1, 2)


def test_report_determinism(tmp_path):
    dom = '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'
    paths = []
    for tag in ("a", "b"):
        rep = tmp_path / f"det_{tag}.json"
        rc = cli.main(["verify-extension", "--domain", dom, "--r", "0.3",
                       "--samples", "2", "--quad", "20", "--seed", "7",
                       "--report", str(rep)])
        assert rc == 0
        paths.append(rep.read_bytes())
    assert paths[0] == paths[1]


def test_canonical_json_floats():
    text = cli.canonical_json({"x": 0.1, "n": 3, "flag": True, "s": "hi",
                               "arr": [1.0 / 3.0]})
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    again = cli.canonical_json(json.loads(text))
    assert json.loads(again) == json.loads(text)


@pytest.mark.parametrize("reason, line", [
    ("Unable to allocate 512. GiB for an array", "error: Unable to allocate 512. GiB for an array"),
    ("", "error: out of memory"),
])
def test_allocation_failure_exits_2(tmp_path, capsys, monkeypatch, reason, line):
    """A grid too large to allocate is bad input: exit 2, one line, no report."""
    def too_large(*args):
        raise MemoryError(reason)

    monkeypatch.setattr(heat.DiscreteDomain, "disk_like", too_large)
    rep = tmp_path / "heat.json"
    assert cli.main(["heat", "--resolution", "100000", "--report", str(rep)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not rep.exists()


def test_heat_failed_dense_solve_exits_2(tmp_path, capsys, monkeypatch):
    """A tridiagonal solve that reports failure on a dense blob is an error,
    not a report certified from garbage eigenpairs: exit 2, one line, no
    report."""
    from scipy.linalg import lapack

    solve = lapack.dstevd
    monkeypatch.setattr(lapack, "dstevd", lambda *a, **k: solve(*a, **k)[:2] + (1,))
    rep = tmp_path / "heat.json"
    assert cli.main(["heat", "--domain", '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}',
                     "--resolution", "16", "--report", str(rep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "dstevd" in err
    assert not rep.exists()


@pytest.mark.parametrize("config, message", [
    ({"quad": 8}, "quad must be at least 16"),
    ({"resolution": 15}, "resolution must be at least 16"),
    ({"seed": -1}, "seed must be at least 0"),
    ({"t_steps": 0}, "t_steps must be at least 1"),
    ({"t_max": 0}, "t_max must be positive"),
    ({"report": 3}, "report must be a path"),
    ({"n": 2.5}, "n must be an integer"),
])
def test_settings_bounds(config, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        cli.parse_config(json.dumps(config))


def test_flags_follow_the_settings_table():
    """Each subcommand's flags, in order, with the argparse type of their setting
    (``None``, the raw string, for paths and JSON)."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if a.dest == "command").choices
    flags = {name: [(a.option_strings[0], a.type) for a in sub._actions if a.dest != "help"]
             for name, sub in subs.items()}
    common = [("--config", None), ("--report", None), ("--csv", None), ("--seed", int)]
    assert flags == {
        "constants": common + [("--K", float), ("--H", float), ("--n", int), ("--r", float),
                               ("--G", float)],
        "regularity": common + [("--domain", None), ("--r", float)],
        "verify-extension": common + [("--domain", None), ("--r", float), ("--samples", int),
                                      ("--quad", int), ("--G", float)],
        "heat": common + [("--domain", None), ("--resolution", int), ("--modes", int),
                          ("--t-min", float), ("--t-max", float), ("--t-steps", int)],
        "sweep": common,
    }
