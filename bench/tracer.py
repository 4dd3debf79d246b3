"""Outside-in span tracer for the nsfourier benchmark.

The solver is not instrumented.  Instead the tracer replaces public
functions at the names the calling module looks them up by (modules bind
them with ``from ... import``), records one span per call and restores
the originals afterwards.  Spans stay in memory as
``[name, start, end, parent, failed]`` and are written out once, at the
end of the run.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from time import perf_counter

# (module, attribute, span name): every call site the layer metrics read.
# The solver modules bind these with `from ... import`, so each caller's
# own binding is wrapped.
WRAPPED = [
    ("nsfourier.coupler", "build_basis", "basis.build_basis"),
    ("nsfourier.coupler", "fixed_point_step", "coupler.fixed_point_step"),
    ("nsfourier.coupler", "advect_density", "transport.advect_density"),
    ("nsfourier.coupler", "step_momentum", "momentum.step_momentum"),
    ("nsfourier.coupler", "step_temperature", "thermal.step_temperature"),
    ("nsfourier.coupler", "reconstruct_velocity", "basis.reconstruct_velocity"),
    ("nsfourier.coupler", "energy_report", "diagnostics.energy_report"),
    ("nsfourier.coupler", "step_sinks", "diagnostics.step_sinks"),
    ("nsfourier.momentum", "assemble_weighted_gram", "basis.assemble_weighted_gram"),
    ("nsfourier.momentum", "assemble_viscous", "basis.assemble_viscous"),
    ("nsfourier.momentum", "assemble_advection_matrix",
     "basis.assemble_advection_matrix"),
    ("nsfourier.momentum", "reconstruct_velocity", "basis.reconstruct_velocity"),
    ("nsfourier.state", "reconstruct_velocity", "basis.reconstruct_velocity"),
    ("nsfourier.thermal", "neumann_divgrad", "thermal.neumann_divgrad"),
    ("nsfourier.thermal", "advect_values", "transport.advect_values"),
    ("nsfourier.degiorgi", "level_energy", "degiorgi.level_energy"),
    ("nsfourier.cli", "write_diagnostics_csv", "diagnostics.write_diagnostics_csv"),
    ("nsfourier.cli", "write_snapshot", "grid.write_snapshot"),
]

ASSEMBLY = ("basis.assemble_weighted_gram", "basis.assemble_viscous",
            "basis.assemble_advection_matrix")


def assembly_work(name: str, args) -> tuple[float, float]:
    """Computed (flop, byte) cost of one Galerkin assembly call.

    Counted as the weighted-GEMM form of each contraction: a multiply-add
    per (i, j, component, node) plus the weighting, and every operand read
    once and the n x n result written once, 8 bytes per value.  These are
    derived from operand shapes, not measured, and ignore cache misses.
    """
    basis = args[0]
    n = basis.n_modes
    p = basis.eta.shape[-2] * basis.eta.shape[-1]
    out = 8.0 * n * n
    if name == "basis.assemble_weighted_gram":
        flop = 2.0 * n * n * 2 * p + n * 2 * p
        byte = 8.0 * (n * 2 * p + 2 * p) + out
    elif name == "basis.assemble_viscous":
        terms = 2 if args[2] > 0 else 1
        flop = terms * (2.0 * n * n * 4 * p + n * 4 * p) + n * 4 * p
        byte = 8.0 * (n * 4 * p + 2 * p) + out
    else:
        flop = 2.0 * n * 2 * 2 * p + 2.0 * n * n * 2 * p + n * 2 * p
        byte = 8.0 * (n * 2 * p + n * 4 * p + 3 * p) + out
    return flop, byte


class Tracer:
    """Span recorder; `install` wraps `WRAPPED` and CG, `restore` undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.cg_iters = 0
        self.flop = 0.0
        self.byte = 0.0
        self.snapshot_bytes = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except Exception:
            rec[4] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in ASSEMBLY:
                flop, byte = assembly_work(name, args)
                self.flop += flop
                self.byte += byte
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "grid.write_snapshot":
                self.snapshot_bytes += os.path.getsize(args[0])
            return result

        self._undo.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import importlib

        import scipy.sparse.linalg as spla

        for module, attr, name in WRAPPED:
            self._wrap(importlib.import_module(module), attr, name)
        cg = spla.cg

        @functools.wraps(cg)
        def traced_cg(A, b, *args, callback=None, **kwargs):
            def count(xk):
                self.cg_iters += 1
                if callback is not None:
                    callback(xk)
            with self.span("thermal.cg"):
                return cg(A, b, *args, callback=count, **kwargs)

        # thermal looks cg up through the scipy.sparse.linalg module object
        self._undo.append((spla, "cg", cg))
        spla.cg = traced_cg

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Per-layer totals, self times and counts from the recorded spans."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur

        def t(name):
            return total.get(name, 0.0)

        def c(name):
            return calls.get(name, 0)

        def under(name, ancestor):
            n = 0
            for rec in self.spans:
                if rec[0] != name:
                    continue
                p = rec[3]
                while p >= 0 and self.spans[p][0] != ancestor:
                    p = self.spans[p][3]
                n += p >= 0
            return n

        failed_steps = sum(1 for s in self.spans
                           if s[0] == "coupler.fixed_point_step" and s[4])
        assembly_s = sum(t(n) for n in ASSEMBLY)
        newton = c("thermal.cg")
        return {
            "coupler.steps": c("coupler.fixed_point_step") - failed_steps,
            "coupler.picard_sweeps": under("momentum.step_momentum",
                                           "coupler.fixed_point_step"),
            "coupler.dt_halvings": failed_steps,
            "coupler.step_s": t("coupler.fixed_point_step"),
            "coupler.self_s": self_s.get("coupler.fixed_point_step", 0.0),
            "momentum.step_s": t("momentum.step_momentum"),
            "momentum.calls": c("momentum.step_momentum"),
            "momentum.self_s": self_s.get("momentum.step_momentum", 0.0),
            "basis.gram_s": t("basis.assemble_weighted_gram"),
            "basis.viscous_s": t("basis.assemble_viscous"),
            "basis.advection_s": t("basis.assemble_advection_matrix"),
            "basis.assembly_calls": sum(c(n) for n in ASSEMBLY),
            "basis.assembly_gflop": self.flop / 1e9,
            "basis.assembly_gbyte": self.byte / 1e9,
            "basis.assembly_gflop_per_s": self.flop / 1e9 / assembly_s,
            "basis.reconstruct_s": t("basis.reconstruct_velocity"),
            "basis.reconstruct_calls": c("basis.reconstruct_velocity"),
            "basis.build_s": t("basis.build_basis"),
            "transport.advect_density_s": t("transport.advect_density"),
            "transport.advect_density_calls": c("transport.advect_density"),
            "transport.advect_values_s": t("transport.advect_values"),
            "thermal.step_s": t("thermal.step_temperature"),
            "thermal.self_s": self_s.get("thermal.step_temperature", 0.0),
            "thermal.operator_s": t("thermal.neumann_divgrad"),
            "thermal.cg_s": t("thermal.cg"),
            "thermal.newton_iters": newton,
            "thermal.cg_iters": self.cg_iters,
            "thermal.cg_iters_per_solve": self.cg_iters / newton,
            "diagnostics.record_s": (t("diagnostics.energy_report")
                                     + t("diagnostics.step_sinks")),
            "diagnostics.energy_check_s": t("diagnostics.check_energy_inequality"),
            "diagnostics.apriori_s": t("diagnostics.apriori_monitor"),
            "diagnostics.renorm_s": t("diagnostics.renorm_report"),
            "diagnostics.csv_write_s": t("diagnostics.write_diagnostics_csv"),
            "degiorgi.ladder_s": t("degiorgi.ladder_run"),
            "degiorgi.level_energy_calls": c("degiorgi.level_energy"),
            "degiorgi.reconstruct_calls": under("basis.reconstruct_velocity",
                                                "degiorgi.ladder_run"),
            "grid.snapshot_write_s": t("grid.write_snapshot"),
            "grid.snapshot_bytes": self.snapshot_bytes,
            "trace.spans": len(self.spans),
        }
