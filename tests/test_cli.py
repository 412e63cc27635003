import json
import math

import pytest

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
