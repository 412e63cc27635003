"""One unit of one workload in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  The unit times its
set-up (importing sobex and building the seeded inputs) and its run (first
program call to certified result), records the certified outputs and
checks, its peak resident memory and the program's warnings.  With
``--trace 1`` it wraps the program's layers first and writes its spans to
``--spans``.  ``--setup-only 1`` stops after the set-up; ``--provenance 1``
prints library versions and the BLAS build instead.
"""

import argparse
import json
import resource
import sys
import time
import warnings

_TRUNCATION = "spectral truncation"


def provenance():
    import numpy
    import scipy

    import sobex
    import tracer  # noqa: F401  (imported once to warm caches before any timing)
    import workloads  # noqa: F401

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sobex": sobex.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", type=int, default=0)
    p.add_argument("--provenance", type=int, default=0)
    p.add_argument("--workdir", default=".")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    if args.provenance:
        print(json.dumps(provenance()))
        return 0

    t0 = time.perf_counter()
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    inputs = spec.make_inputs(args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if spec.instrument is not None:
            inputs = spec.instrument(inputs, tracer)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t1 = time.perf_counter()
        outcome = spec.run(inputs)
        run_s = time.perf_counter() - t1

    kinds = {}
    for w in caught:
        key = str(w.message)
        key = _TRUNCATION if key.startswith(_TRUNCATION) else key
        kinds[key] = kinds.get(key, 0) + 1
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outcome.outputs,
        "checks": outcome.checks,
        "warnings": kinds,
    }
    if tracer is not None:
        tracer.counts["heat.truncations"] = kinds.get(_TRUNCATION, 0)
        result["layers"] = tracer.metrics(run_s)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result, default=lambda o: o.item()))  # numpy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())
