"""The benchmark's workloads: seeded inputs, the timed calls, acceptance checks.

Each workload has ``make_inputs(seed, workdir)``, which builds the
seeded inputs (timed as set-up), and ``run(inputs)``, which makes every
program call from scratch and returns an :class:`Outcome`.  ``run`` builds
its own domains, charts and systems; nothing is shared between units, and
each unit runs in a fresh interpreter.  Seed 0 gives the inputs of the
acceptance test C07 and the CLI's default ``--seed 42``; other seeds draw
other inputs of the same size.

Every certified check is recorded as ``(name, passed)``.  An exception in a
case counts as one failed check for that case.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from sobex import cli
from sobex import extension as E
from sobex import heat as H
from sobex.fermi import DomainSpec, GeodesicDisk, RadialProfile
from sobex.surfaces import ModelSurface

# Sizes chosen so one unit takes seconds, not minutes, on 2 CPUs (README.md).
HEAT_BASE = (17, 34)       # refined to (34, 68): 2312 nodes, dense, capped
SPARSE_RESOLUTION = 72     # 5184 nodes: above DENSE_LIMIT, so eigsh


@dataclasses.dataclass
class Outcome:
    outputs: dict = dataclasses.field(default_factory=dict)
    checks: list = dataclasses.field(default_factory=list)

    def case(self, name, fn):
        """Run one case; an exception is recorded as a failed check."""
        try:
            fn()
        except Exception as exc:  # boundary: a failing case must not stop the unit
            self.checks.append((f"{name}: raised {type(exc).__name__}: {exc}", False))


# ---------------------------------------------------------------------------
# heat-refine: C07 diagonal-bound refinement pair
# ---------------------------------------------------------------------------


def heat_inputs(seed, workdir):
    if seed == 0:
        radius, blob = 1.0, (1.0, 0.0, 0.15)
    else:
        rng = np.random.default_rng(seed)
        radius = float(rng.uniform(0.75, 1.25))
        blob = (1.0, float(rng.uniform(-0.05, 0.05)), float(rng.uniform(0.08, 0.2)))
    flat = ModelSurface.constant_curvature(0.0)
    return {"domains": [("disk", flat, GeodesicDisk((0.0, 0.0), radius)),
                        ("blob", flat, RadialProfile(cos_coeffs=blob))]}


def heat_run(inputs):
    out = Outcome()
    for name, surface, boundary in inputs["domains"]:
        def case(name=name, surface=surface, boundary=boundary):
            dom = H.DiscreteDomain.disk_like(DomainSpec(surface, boundary), *HEAT_BASE)
            t_grid = np.geomspace(1e-3, dom.diameter() ** 2, 15)
            coarse = H.diagonal_bound_check(dom, H.assemble(dom), t_grid)
            fine_dom = dom.refine()
            fine = H.diagonal_bound_check(fine_dom, H.assemble(fine_dom), t_grid)
            finite = bool(np.isfinite(coarse.c_obs) and np.isfinite(fine.c_obs))
            drift = abs(coarse.c_obs - fine.c_obs) / fine.c_obs
            out.outputs[f"{name}.c_obs_coarse"] = coarse.c_obs
            out.outputs[f"{name}.c_obs"] = fine.c_obs
            out.outputs[f"{name}.drift"] = drift
            out.checks.append((f"{name}: c_obs finite", finite))
            out.checks.append((f"{name}: drift < 0.20", bool(drift < 0.20)))
        out.case(name, case)
    return out


# ---------------------------------------------------------------------------
# cli-defaults: the sobex CLI, in process, at its default settings
# ---------------------------------------------------------------------------


def cli_inputs(seed, workdir):
    os.makedirs(workdir, exist_ok=True)
    warped = os.path.join(workdir, "warped.json")
    with open(warped, "w", encoding="utf-8") as fh:
        json.dump({"surface": {"kind": "warped",
                               "profile": {"type": "poly_cosh_mix",
                                           "coeffs": [1.0, 0.12, -0.05]}},
                   "domain": {"type": "disk", "radius": 0.8}, "r": 0.3}, fh)
    blob = '{"type": "fourier", "coeffs_cos": [1.0, 0.0, 0.15]}'
    disk = '{"type": "disk", "radius": 1.0}'
    runs = [
        ("regularity", ["regularity", "--config", warped]),
        ("heat-warped", ["heat", "--config", warped, "--resolution", "48"]),
        ("verify-extension", ["verify-extension", "--domain", blob, "--r", "0.3",
                              "--samples", "16", "--quad", "64",
                              "--seed", str(42 + seed)]),
        ("heat-sparse", ["heat", "--domain", disk,
                         "--resolution", str(SPARSE_RESOLUTION)]),
    ]
    for name, argv in runs:
        argv += ["--report", os.path.join(workdir, f"{name}.json")]
    return {"runs": runs}


def _cli_exit(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 2


def cli_run(inputs):
    out = Outcome()
    for name, argv in inputs["runs"]:
        def case(name=name, argv=argv):
            code = _cli_exit(argv)
            out.checks.append((f"{name}: exit code {code}", code == 0))
            with open(argv[-1], encoding="utf-8") as fh:
                report = json.load(fh)
            out.outputs[name] = report
            for check, ok in sorted(report.get("checks", {}).items()):
                out.checks.append((f"{name}: {check}", bool(ok)))
            if name == "verify-extension":  # C04's two conditions
                ratio, bound = report["max_ratio"], report["bound"]
                out.checks.append((f"{name}: max_ratio <= bound", bool(ratio <= bound)))
                out.checks.append((f"{name}: max_ratio < 0.05*bound",
                                   bool(ratio < 0.05 * bound)))
        out.case(name, case)
    return out


def cli_instrument(inputs, tracer):
    """Count the points the CLI's sample fields evaluate (traced units only).

    ``cmd_verify_extension`` draws its fields through
    ``extension.random_smooth_fields``; the fields it gets back count every
    point passed to ``evaluate`` and ``partials``.
    """
    draw = E.random_smooth_fields

    def points(args, result):
        return int(np.atleast_2d(np.asarray(args[0])).shape[0])

    def counted_fields(*args, **kwargs):
        return [dataclasses.replace(
                    f,
                    evaluate=tracer.counter(f.evaluate, "extension.field_eval.points",
                                            points),
                    partials=tracer.counter(f.partials, "extension.field_partials.points",
                                            points))
                for f in draw(*args, **kwargs)]

    E.random_smooth_fields = counted_fields
    return inputs


@dataclasses.dataclass(frozen=True)
class Workload:
    make_inputs: object
    run: object
    instrument: object = None


WORKLOADS = {
    "heat-refine": Workload(heat_inputs, heat_run),
    "cli-defaults": Workload(cli_inputs, cli_run, cli_instrument),
}
