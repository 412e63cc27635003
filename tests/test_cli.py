import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sobex import cli
from sobex.errors import ConfigError


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
    # how it was computed: the step is 1e-5 * diameter; 20 radial nodes per
    # segment (one in the domain, two in the tube) times 64 angles
    assert data["gradient"] == {"omega": "analytic", "tube": "finite-difference",
                                "fd_step": 2e-5}
    assert data["quadrature_nodes"] == {"omega": 20 * 64, "tube": 2 * 20 * 64}


def test_heat_cli(tmp_path):
    rep = tmp_path / "heat.json"
    csv = tmp_path / "heat.csv"
    rc = cli.main(["heat", "--domain", '{"type": "interval", "L": 1.0}',
                   "--resolution", "128", "--t-steps", "5",
                   "--report", str(rep), "--csv", str(csv)])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert all(data["checks"].values())
    assert data["eta1_diam_sq"] == pytest.approx(math.pi**2, rel=1e-2)
    assert data["eigensolver"]["path"] == "separable"
    assert csv.read_text().startswith("t,")


def test_heat_default_resolution_disk(tmp_path):
    """The unit disk at the default resolution 256 (65 536 nodes) passes every check."""
    rep = tmp_path / "heat.json"
    rc = cli.main(["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--report", str(rep)])
    data = json.loads(rep.read_text())
    assert rc == 0
    assert data["size"] == 256 * 256
    assert data["checks"] and all(data["checks"].values())
    assert data["eigensolver"] == {"path": "separable", "modes": 384, "mode_cap": 384}


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


_DISK = {"type": "disk", "radius": 1.0}


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
])
def test_bad_input_exits_2(tmp_path, capsys, command, flags, config):
    """Flags and config files go through one validation: exit 2, one line, no report."""
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw=_CONFIGS)
def test_parse_and_build_raise_only_config_errors(raw):
    """Every configuration is either accepted and buildable or a ConfigError."""
    try:
        cli.build_domain(cli.parse_config(json.dumps(raw)))
    except ConfigError:
        pass


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
