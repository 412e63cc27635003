"""Golden CLI reports: small ``sobex`` runs whose reports are kept in ``tests/golden/``.

``test_golden.py`` reruns each of ``RUNS`` and compares its report with
the file of the same name: integers, flags and strings must match
exactly, floats to ``RTOL`` relative.  Running this file rewrites every
file and prints each value that moved against the old one:

    PYTHONPATH=src python tests/golden_reports.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from sobex import cli, heat

GOLDEN = pathlib.Path(__file__).with_name("golden")
RTOL = 1e-13

_BLOB = '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'
# the CLI defaults' warped disk; runs name it by ``WARPED_CONFIG``, which
# ``run`` replaces with the path of a file holding it
_WARPED = ('{"surface": {"kind": "warped", "profile": {"type": "poly_cosh_mix", '
           '"coeffs": [1.0, 0.12, -0.05]}}, "domain": {"type": "disk", "radius": 0.8}}')

WARPED_CONFIG = "<warped config>"

# name -> (argv, DENSE_LIMIT override or None)
RUNS = {
    "constants": (["constants", "--K", "1", "--H", "0.7"], None),
    "regularity-disk": (["regularity", "--domain", '{"type": "disk", "radius": 1.0}',
                         "--r", "0.45"], None),
    "regularity-offcentre": (["regularity", "--domain", '{"type": "disk", "center": '
                              '[0.3, 0.2], "radius": 0.6}', "--r", "0.2"], None),
    "regularity-blob": (["regularity", "--domain", _BLOB, "--r", "0.3"], None),
    "regularity-warped": (["regularity", "--config", WARPED_CONFIG, "--r", "0.3"], None),
    "verify-extension": (["verify-extension", "--domain", _BLOB, "--r", "0.3",
                          "--samples", "3", "--quad", "24", "--seed", "9"], None),
    "heat-interval": (["heat", "--domain", '{"type": "interval", "L": 1.0}',
                       "--resolution", "64"], None),
    "heat-disk": (["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--resolution", "24"], None),
    "heat-warped": (["heat", "--config", WARPED_CONFIG, "--resolution", "24"], None),
    "heat-blob": (["heat", "--domain", _BLOB, "--resolution", "20"], None),
    "heat-blob-sparse": (["heat", "--domain", _BLOB, "--resolution", "16"], 100),
}


def run(name):
    """Exit code and report text of the run ``name``."""
    argv, dense_limit = RUNS[name]
    saved = heat.NeumannSystem.DENSE_LIMIT
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        config = tmp / "config.json"
        config.write_text(_WARPED)
        argv = [str(config) if a == WARPED_CONFIG else a for a in argv]
        report = tmp / "report.json"
        if dense_limit is not None:
            heat.NeumannSystem.DENSE_LIMIT = dense_limit
        try:
            code = cli.main(argv + ["--report", str(report)])
        finally:
            heat.NeumannSystem.DENSE_LIMIT = saved
        return code, report.read_text()


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved(old, new, path=""):
    """``(path, old, new)`` for every value of ``new`` that differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for key in sorted(set(old) | set(new))
                for m in moved(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for k, (a, b) in enumerate(zip(old, new))
                for m in moved(a, b, f"{path}[{k}]")]
    if _number(old) and _number(new):
        if isinstance(old, int) and isinstance(new, int):
            same = old == new
        else:  # a float that happens to be integral prints without a point
            same = abs(old - new) <= RTOL * max(abs(old), abs(new))
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [(path, old, new)]


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name in RUNS:
        code, text = run(name)
        if code != 0:
            print(f"{name}: exit {code}")
        target = GOLDEN / f"{name}.json"
        if target.exists():
            for path, old, new in moved(json.loads(target.read_text()), json.loads(text)):
                print(f"{name}{path}: {old!r} -> {new!r}")
        target.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
