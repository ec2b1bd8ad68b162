"""Run one expfbm CLI command with a span around every call into the traced
functions of each module, then write the spans as JSON.

    python3 perfbench/trace_cli.py SPANS.json <expfbm arguments>

The package is imported unchanged; each traced function is replaced by a
wrapper at every name it is bound to inside the package (for example
`malliavin.conditional_law` is the same object as `paths.conditional_law`),
so calls made between modules are traced as well. Spans stay in memory and
are written once, when the command ends. The exit status is the command's.
"""
from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# module -> traced public names ("Class.method" for methods)
TRACED = {
    "kernel": ("build_kernel_table", "save_table", "load_table"),
    "paths": ("sample_fbm_volterra", "sample_bm_increments", "fbm_from_bm",
              "conditional_law", "sample_fbm_cholesky"),
    "functional": ("estimate_mean_lnF", "functional_F", "write_samples_csv",
                   "refinement_diffs"),
    "malliavin": ("phi_x_batch", "conditional_dx_at", "dx", "d2x",
                  "phi_lower_bound_terms", "clark_ocone_residual",
                  "dphi_bound_check"),
    "density": ("sample_X_batch", "kde_log_domain", "verify_envelopes",
                "verify_gaussian_tail", "verify_mgf", "estimate_w_X",
                "induced_density_F"),
    "reports": ("BoundReport.to_dict", "BoundReport.write_csv", "summarize"),
    "cli": ("main", "kernel_checks"),
}

# per-layer rates: traced name -> (metric suffix, unit, scale, work done by
# one call: paths, or bytes written)
RATES = {
    "density.sample_X_batch":
        ("paths_per_s", "1/s", 1.0, lambda args, result: len(result.F)),
    "malliavin.phi_x_batch":
        ("paths_per_s", "1/s", 1.0, lambda args, result: len(result.phi)),
    "malliavin.clark_ocone_residual":
        ("paths_per_s", "1/s", 1.0, lambda args, result: len(result)),
    "functional.write_samples_csv":
        ("mb_per_s", "MB/s", 1e-6, lambda args, result: os.path.getsize(args[0])),
}


class Tracer:
    """Collects (name, parent, start, end) spans plus the process CPU time
    and minor page faults spent inside each span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        work = RATES[name][3] if name in RATES else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ru = resource.getrusage(resource.RUSAGE_SELF)
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(),
                    "cpu_s": ru.ru_utime + ru.ru_stime,
                    "minflt": ru.ru_minflt}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                ru = resource.getrusage(resource.RUSAGE_SELF)
                span["cpu_s"] = ru.ru_utime + ru.ru_stime - span["cpu_s"]
                span["minflt"] = ru.ru_minflt - span["minflt"]
                self._stack.pop()
            if work is not None:
                span["work"] = work(args, result)
            return result

        return traced


def install(tracer):
    """Wrap every traced function at each of its bindings in the package."""
    import expfbm.cli  # noqa: F401  (imports every package module)

    package = [m for name, m in sys.modules.items()
               if name == "expfbm" or name.startswith("expfbm.")]
    for module_name, names in TRACED.items():
        module = sys.modules[f"expfbm.{module_name}"]
        for qualname in names:
            traced_name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, tracer.wrap(traced_name, cls.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = tracer.wrap(traced_name, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from expfbm import cli

    status = 1
    try:
        status = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
