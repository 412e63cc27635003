"""The benchmark's tracer wraps names that exist where it looks for them."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_trace_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the hooks; installs nothing
    for mod_name, attr, _ in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(mod_name), attr), (mod_name, attr)
    for mod_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert attr in vars(cls), (mod_name, cls_name, attr)
    heat = importlib.import_module("sobex.heat")
    assert "modes_for" in vars(heat.NeumannSystem)


_TRACED_HEAT = r"""
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()
from sobex import cli, heat

assemble = heat.assemble  # the traced one


def capped(domain):
    system = assemble(domain)
    system.mode_cap = 40  # capped, as the refined blob of heat-refine is by the 2000-mode cap
    return system


heat.assemble = capped
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for domain in ('{"type": "disk", "radius": 1.0}',
                   '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'):
        code = cli.main(["heat", "--domain", domain, "--resolution", "16",
                         "--report", sys.argv[2]])
        assert code == 0, code
tracer.counts["heat.truncations"] = sum(
    str(w.message).startswith("spectral truncation") for w in caught)
print(json.dumps(tracer.metrics(0.0)))
"""


def test_traced_heat_runs_read_every_heat_gate(tmp_path):
    """A separable and a dense ``sobex heat``, traced in a fresh interpreter as
    the benchmark traces its workloads, read nonzero on the heat gates."""
    src = str(TRACER.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _TRACED_HEAT, str(TRACER.parent),
                          str(tmp_path / "heat.json")],
                         env=env, capture_output=True, text=True, check=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])
    for gate in ("heat.eigensolve.solves", "heat.kernel.s", "heat.truncations",
                 "heat.modes_used"):
        assert layers[gate] > 0, gate


_TRACED_DENSE_BOUND = r"""
import json, sys, warnings
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

tracer = Tracer()
tracer.install()
from sobex import heat
from sobex.fermi import DomainSpec, RadialProfile
from sobex.surfaces import ModelSurface

spec = DomainSpec(ModelSurface.constant_curvature(0.0), RadialProfile(cos_coeffs=(1.0, 0.0, 0.15)))
dom = heat.DiscreteDomain.disk_like(spec, 16, 32)
system = heat.assemble(dom)
system.mode_cap = 40  # capped, as the refined blob of heat-refine is by the 2000-mode cap
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    heat.diagonal_bound_check(dom, system, np.geomspace(1e-3, dom.diameter() ** 2, 15))
assert system.solver == "dense"
assert "_factor" not in vars(system.spectrum)  # only the sampled rows were back-transformed
tracer.counts["heat.truncations"] = sum(
    str(w.message).startswith("spectral truncation") for w in caught)
print(json.dumps(tracer.metrics(0.0)))
"""


def test_traced_dense_bound_check_reads_every_heat_gate():
    """``diagonal_bound_check`` alone on a capped dense blob, heat-refine's
    path, traced in a fresh interpreter: it forms no all-node eigenvector
    rows and reads nonzero on the heat gates.  The tracer counts solves by
    the identity of ``_lam``, so a spectrum that reused its eigenvalue
    array would read zero solves."""
    src = str(TRACER.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _TRACED_DENSE_BOUND, str(TRACER.parent)],
                         env=env, capture_output=True, text=True, check=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])
    for gate in ("heat.eigensolve.solves", "heat.kernel.s", "heat.modes_used",
                 "heat.truncations"):
        assert layers[gate] > 0, gate


_TRACED_VERIFY = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from tracer import Tracer

tracer = Tracer()
tracer.install()
workloads.cli_instrument(None, tracer)
code = workloads.cli.main(["verify-extension", "--domain",
                           '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}',
                           "--r", "0.3", "--samples", "2", "--quad", "16",
                           "--report", sys.argv[2]])
assert code == 0, code
print(json.dumps(tracer.metrics(0.0)))
"""


def test_traced_verify_extension_reads_every_extension_gate(tmp_path):
    """A ``verify-extension`` run with the benchmark's field counters, traced in a
    fresh interpreter, reads nonzero on the extension and map gates."""
    src = str(TRACER.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _TRACED_VERIFY, str(TRACER.parent),
                          str(tmp_path / "verify.json")],
                         env=env, capture_output=True, text=True, check=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])
    for gate in ("extension.field_eval.points", "extension.field_partials.points",
                 "extension.h1_omega.s", "extension.h1_tube.s", "fermi.map.points"):
        assert layers[gate] > 0, gate
