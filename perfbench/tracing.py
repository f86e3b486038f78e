"""Per-layer counters and spans, recorded from outside the program.

Tracer.install() replaces each traced function by a wrapper, bound on the
module where its caller looks the name up (for example
`fock_oracle.jacobi_eigh`, which fock_oracle imported from kernels), and
uninstall() puts the originals back.  A wrapper counts calls and wall time;
time spent in traced callees is kept apart, so that a layer's self time is
its own time minus its children's.  Spans stay in memory; dump() returns
plain data that a parent process can merge().
"""

from __future__ import annotations

import importlib
import re
import statistics
import time

# (metric prefix, module, attribute); the module is where callers look it up.
TRACED = (
    ("cli.main", "bhent.cli", "main"),
    ("sweep.run_sweep", "bhent.sweep", "run_sweep"),
    ("sweep.evaluate_cell", "bhent.sweep", "evaluate_cell"),
    ("sweep.resolve_geometry", "bhent.sweep", "resolve_geometry"),
    ("geometry.rotating_horizon", "bhent.geometry", "rotating_horizon"),
    ("modes.squeeze", "bhent.modes", "squeeze"),
    ("channels.log_negativity_boson", "bhent.channels", "log_negativity_boson"),
    ("mpmath.polylog", "mpmath", "polylog"),
    ("fock_oracle.bell_state_bosonic", "bhent.fock_oracle", "bell_state_bosonic"),
    ("fock_oracle.bob_post_state_bosonic", "bhent.fock_oracle", "bob_post_state_bosonic"),
    ("fock_oracle.TruncatedDensityMatrix", "bhent.fock_oracle", "TruncatedDensityMatrix"),
    ("fock_oracle.partial_transpose", "bhent.fock_oracle", "partial_transpose"),
    ("fock_oracle.fidelity_numeric", "bhent.fock_oracle", "fidelity_numeric"),
    ("kernels.jacobi_eigh", "bhent.fock_oracle", "jacobi_eigh"),
    ("reports.negativity_rows", "bhent.reports", "negativity_rows"),
    ("reports.eigenvalue_rows", "bhent.reports", "eigenvalue_rows"),
    ("reports.fermion_rows", "bhent.reports", "fermion_rows"),
    ("reports.fidelity_boson_rows", "bhent.reports", "fidelity_boson_rows"),
    ("reports.write_report_csv", "bhent.reports", "write_report_csv"),
)

# Per-layer metrics in the order they are printed: (name, unit).
LAYER_METRICS = (
    ("import.bhent_cli_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("import.modules", "count"),
    ("cli.main.ms", "ms"),
    ("sweep.run_sweep.calls", "count"),
    ("sweep.run_sweep.ms", "ms"),
    ("sweep.run_sweep.self_ms", "ms"),
    ("sweep.evaluate_cell.calls", "count"),
    ("sweep.evaluate_cell.us_per_call", "us"),
    ("sweep.resolve_geometry.us_per_call", "us"),
    ("geometry.rotating_horizon.calls", "count"),
    ("geometry.rotating_horizon.us_per_call", "us"),
    ("modes.squeeze.calls", "count"),
    ("modes.squeeze.us_per_call", "us"),
    ("channels.log_negativity_boson.calls", "count"),
    ("channels.log_negativity_boson.ms", "ms"),
    ("channels.log_negativity_boson.terms", "count"),
    ("channels.log_negativity_boson.polylog_calls", "count"),
    ("fock_oracle.bell_state_bosonic.ms", "ms"),
    ("fock_oracle.bob_post_state_bosonic.calls", "count"),
    ("fock_oracle.bob_post_state_bosonic.ms", "ms"),
    ("fock_oracle.TruncatedDensityMatrix.calls", "count"),
    ("fock_oracle.TruncatedDensityMatrix.ms", "ms"),
    ("fock_oracle.partial_transpose.calls", "count"),
    ("fock_oracle.partial_transpose.ms", "ms"),
    ("fock_oracle.fidelity_numeric.ms", "ms"),
    ("fock_oracle.dense_mb_computed", "MB"),
    ("kernels.jacobi_eigh.calls", "count"),
    ("kernels.jacobi_eigh.ms", "ms"),
    ("kernels.jacobi_eigh.max_dim", "count"),
    ("reports.negativity_rows.ms", "ms"),
    ("reports.eigenvalue_rows.ms", "ms"),
    ("reports.fermion_rows.ms", "ms"),
    ("reports.fidelity_boson_rows.ms", "ms"),
    ("reports.write_report_csv.ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, seconds, seconds in traced callees]
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name, _, _ in TRACED}
        # sum of terms_used; largest Jacobi input; largest assembled matrix (bytes)
        self.extra = {"terms": 0, "max_dim": 0, "dense_bytes": 0}
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "channels.log_negativity_boson":
            self.extra["terms"] += result.terms_used
        elif name == "kernels.jacobi_eigh":
            self.extra["max_dim"] = max(self.extra["max_dim"], len(args[0]))
        elif name == "fock_oracle.TruncatedDensityMatrix":
            n = len(result.basis)
            self.extra["dense_bytes"] = max(self.extra["dense_bytes"], n * n * 8)

    def wrap(self, name: str, fn):
        span = self.spans[name]

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                span[0] += 1
                span[1] += dt
                span[2] += children[0]
            self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is not None:
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "extra": self.extra}

    def merge(self, data: dict) -> None:
        for name, (calls, total, children) in data["spans"].items():
            span = self.spans[name]
            span[0] += calls
            span[1] += total
            span[2] += children
        self.extra["terms"] += data["extra"]["terms"]
        for key in ("max_dim", "dense_bytes"):
            self.extra[key] = max(self.extra[key], data["extra"][key])

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer figures: counts and milliseconds are per op."""
        out: dict[str, float] = {}
        for name, (calls, total, children) in self.spans.items():
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.ms"] = total * 1e3 / ops
            out[f"{name}.self_ms"] = (total - children) * 1e3 / ops
            out[f"{name}.us_per_call"] = total * 1e6 / calls if calls else 0.0
        out["channels.log_negativity_boson.terms"] = self.extra["terms"] / ops
        out["channels.log_negativity_boson.polylog_calls"] = out["mpmath.polylog.calls"]
        out["kernels.jacobi_eigh.max_dim"] = self.extra["max_dim"]
        out["fock_oracle.dense_mb_computed"] = self.extra["dense_bytes"] / 2**20
        return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative milliseconds of `bhent.cli` and of scipy from `-X importtime`.

    The output lists each import after its children, indented one step
    deeper per level.  scipy's figure sums the cumulative time of every
    scipy module that was imported by a module outside scipy.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e3))
    bhent_ms = scipy_ms = 0.0
    stack: list[tuple[int, str]] = []  # enclosing imports, outermost first
    for level, name, cumulative_ms in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "bhent.cli":
            bhent_ms = cumulative_ms
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_ms += cumulative_ms
        stack.append((level, name))
    return {"import.bhent_cli_ms": bhent_ms, "import.scipy_ms": scipy_ms}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
