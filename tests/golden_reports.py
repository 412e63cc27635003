"""Golden CLI reports: small ``sobex`` runs whose reports are kept in ``tests/golden/``.

``test_golden.py`` reruns each of ``RUNS`` and compares its report with
the file of the same name: integers, flags and strings must match
exactly, floats to ``RTOL`` relative.  Running this file rewrites every
file and, for each file whose bytes change, prints how many values moved
bitwise, the largest relative move, and every move, marking those above
``RTOL``:

    PYTHONPATH=src python tests/golden_reports.py

With ``--out DIR`` it writes the reports to ``DIR`` instead and leaves
``tests/golden/`` as it is; it still prints the moves against the
committed files.

A regeneration need not match the committed files byte for byte when the
host differs from the one that wrote them: on a 2-vCPU Xeon VM with numpy
2.4 and OpenBLAS, ``heat-blob.json`` moves six ``diagonal.profile`` values
by at most 3.5e-16 relative with no change to the code (well inside
``RTOL``).  So to show that a change keeps every report byte-identical,
regenerate on one host at the parent commit and at the change, each in
its own checkout, and compare the two regenerations, not a regeneration
with the committed files:

    PYTHONPATH=src python tests/golden_reports.py --out /tmp/golden-change
    # the same from the parent's checkout, with --out /tmp/golden-parent
    diff -r /tmp/golden-parent /tmp/golden-change
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
import tempfile

from sobex import cli, heat

GOLDEN = pathlib.Path(__file__).with_name("golden")
RTOL = 1e-13

_BLOB = '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'
_DISK = '{"type": "disk", "radius": 1.0}'

# config files; runs name each by its key, which ``run`` replaces with the
# path of a file holding the text
WARPED_CONFIG = "<warped config>"
CAP_CONFIG = "<cap config>"
HYPERBOLIC_CONFIG = "<hyperbolic config>"
SWEEP_CONFIG = "<sweep config>"
CONFIGS = {
    # the CLI defaults' warped disk
    WARPED_CONFIG: ('{"surface": {"kind": "warped", "profile": {"type": "poly_cosh_mix", '
                    '"coeffs": [1.0, 0.12, -0.05]}}, "domain": {"type": "disk", "radius": 0.8}}'),
    # the spherical cap of radius pi/4 about the pole
    CAP_CONFIG: ('{"surface": {"kind": "constant", "kappa": 1.0}, '
                 '"domain": {"type": "disk", "radius": 0.7853981633974483}}'),
    # the README config's disk: radius 0.8 about the pole of curvature -1
    HYPERBOLIC_CONFIG: ('{"surface": {"kind": "constant", "kappa": -1.0}, '
                        '"domain": {"type": "disk", "center": [0, 0], "radius": 0.8}}'),
    # the README's config example, which its ``sweep`` command reads
    SWEEP_CONFIG: ('{"surface": {"kind": "constant", "kappa": -1.0}, '
                   '"domain": {"type": "disk", "center": [0, 0], "radius": 0.8}, "r": 0.3, '
                   '"sweep": {"r": {"from": 0.1, "to": 0.5, "steps": 5}}, "K": 0.0, "H": 1.0}'),
}
_EXT = ["--samples", "3", "--quad", "24", "--seed", "9"]

# name -> (argv, DENSE_LIMIT override or None)
RUNS = {
    "constants": (["constants", "--K", "1", "--H", "0.7"], None),
    "regularity-disk": (["regularity", "--domain", '{"type": "disk", "radius": 1.0}',
                         "--r", "0.45"], None),
    "regularity-offcentre": (["regularity", "--domain", '{"type": "disk", "center": '
                              '[0.3, 0.2], "radius": 0.6}', "--r", "0.2"], None),
    "regularity-blob": (["regularity", "--domain", _BLOB, "--r", "0.3"], None),
    "regularity-warped": (["regularity", "--config", WARPED_CONFIG, "--r", "0.3"], None),
    "verify-extension": (["verify-extension", "--domain", _BLOB, "--r", "0.3"] + _EXT, None),
    "verify-extension-disk": (["verify-extension", "--domain", _DISK, "--r", "0.45"] + _EXT,
                              None),
    "verify-extension-cap": (["verify-extension", "--config", CAP_CONFIG, "--r", "0.3"] + _EXT,
                             None),
    "verify-extension-offcentre": (["verify-extension", "--domain", '{"type": "disk", '
                                    '"center": [0.3, 0.2], "radius": 0.6}', "--r", "0.2"]
                                   + _EXT, None),
    "verify-extension-warped": (["verify-extension", "--config", WARPED_CONFIG, "--r", "0.3"]
                                + _EXT, None),
    "heat-interval": (["heat", "--domain", '{"type": "interval", "L": 1.0}',
                       "--resolution", "64"], None),
    "heat-disk": (["heat", "--domain", '{"type": "disk", "radius": 1.0}',
                   "--resolution", "24"], None),
    "heat-warped": (["heat", "--config", WARPED_CONFIG, "--resolution", "24"], None),
    "heat-cap": (["heat", "--config", CAP_CONFIG, "--resolution", "24"], None),
    "heat-hyperbolic": (["heat", "--config", HYPERBOLIC_CONFIG, "--resolution", "24"], None),
    "heat-blob": (["heat", "--domain", _BLOB, "--resolution", "20"], None),
    "heat-blob-sparse": (["heat", "--domain", _BLOB, "--resolution", "16"], 100),
    # the README's five commands, without their output flags
    "readme-constants": (["constants", "--K", "0", "--H", "1"], None),
    "readme-regularity": (["regularity", "--domain", '{"type": "disk", "center": [0,0], '
                           '"radius": 1.0}', "--r", "0.5"], None),
    "readme-verify-extension": (["verify-extension", "--domain", _BLOB, "--r", "0.3",
                                 "--samples", "25", "--quad", "64", "--seed", "42"], None),
    "readme-heat": (["heat", "--domain", '{"type": "interval", "L": 3.14159}',
                     "--resolution", "1000", "--t-min", "1e-3", "--t-steps", "16"], None),
    "readme-sweep": (["sweep", "--config", SWEEP_CONFIG], None),
}


def run(name):
    """Exit code and report text of the run ``name``."""
    argv, dense_limit = RUNS[name]
    saved = heat.NeumannSystem.DENSE_LIMIT
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        paths = {}
        for k, (key, text) in enumerate(CONFIGS.items()):
            paths[key] = tmp / f"config{k}.json"
            paths[key].write_text(text)
        argv = [str(paths.get(a, a)) for a in argv]
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


def moved(old, new, path="", rtol=RTOL):
    """``(path, old, new)`` for every value of ``new`` that differs from ``old``
    by more than ``rtol`` relative; ``rtol=0`` lists every bitwise move."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for key in sorted(set(old) | set(new))
                for m in moved(old.get(key), new.get(key), f"{path}.{key}", rtol)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for k, (a, b) in enumerate(zip(old, new))
                for m in moved(a, b, f"{path}[{k}]", rtol)]
    if _number(old) and _number(new):
        if isinstance(old, int) and isinstance(new, int):
            same = old == new
        else:  # a float that happens to be integral prints without a point
            same = abs(old - new) <= rtol * max(abs(old), abs(new))
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [(path, old, new)]


def _relative(old, new):
    """The relative size of a move; a change of type or of a string counts as infinite."""
    if _number(old) and _number(new):
        return abs(old - new) / max(abs(old), abs(new))
    return math.inf


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the golden CLI reports.")
    parser.add_argument("--out", type=pathlib.Path, default=GOLDEN,
                        help="directory the reports are written to (default: tests/golden)")
    out = parser.parse_args(argv).out
    out.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        code, text = run(name)
        if code != 0:
            print(f"{name}: exit {code}")
        target = GOLDEN / f"{name}.json"
        if not target.exists():
            print(f"{name}: new file")
        elif target.read_text() != text:
            moves = moved(json.loads(target.read_text()), json.loads(text), rtol=0.0)
            worst = max((_relative(old, new) for _, old, new in moves), default=0.0)
            print(f"{name}: {len(moves)} bitwise moves, largest relative {worst:.2g}")
            for path, old, new in moves:
                mark = f"  (above RTOL {RTOL:g})" if moved(old, new) else ""
                print(f"  {path}: {old!r} -> {new!r}{mark}")
        (out / target.name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
