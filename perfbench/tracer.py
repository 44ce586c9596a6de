"""Span tracing of the qfano layers from outside the package.

Tracing replaces the public functions of each `qfano` module with timing
wrappers for one job and restores them afterwards; no file of the
package changes.  Every binding of a wrapped function is replaced, so a
name imported into another module (`lefschetz.nullspace`,
`cli.reconstruct`) is traced too.  In `qfano.cli` only `main` is wrapped:
its self time is the whole CLI layer (argument parsing, formatting,
writes).

A span's self time is its duration minus the durations of its child
spans.  Size counts are taken from a function's arguments and returned
object after its span closes; that time, and the job time no span
covers, is the harness gap.  By construction the self times of all
spans plus the gap equal the traced job's wall time.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "ring", "schubert", "seeds", "reconstruct", "qde",
          "lefschetz", "linalg", "opparse", "fixtures_io")


def max_bits(values):
    """Largest numerator or denominator bit length among Fractions."""
    out = 0
    for x in values:
        out = max(out, x.numerator.bit_length(), x.denominator.bit_length())
    return out


def _frame_entries(frames):
    for frame in frames.values():
        for row in frame:
            yield from row


def _size_j_series(stat, args, js):
    stat["frames"] += len(js.frames)
    stat["nnz"] += sum(1 for x in _frame_entries(js.frames) if x)
    stat["max_bits"] = max(stat["max_bits"],
                           max_bits(_frame_entries(js.frames)))


def _size_identity_series(stat, args, table):
    stat["entries"] += len(table)
    stat["max_bits"] = max(stat["max_bits"], max_bits(table.values()))


def _size_nullspace(stat, args, basis):
    mat = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else (
        len(mat[0]) if mat else 0)
    stat["rows"] += len(mat)
    stat["cols"] += ncols
    stat["kernel_dim"] += len(basis)


def _size_period_sequence(stat, args, seq):
    stat["max_bits"] = max(stat["max_bits"], max_bits(seq))


def _size_reconstruct(stat, args, matrices):
    for mat in matrices:
        for j in range(mat.spec.size):
            for qp in mat.column(j).values():
                stat["max_bits"] = max(stat["max_bits"], max_bits(qp.values()))


# Size counts per traced function: stat keys and the function that fills them.
SIZERS = {
    "qde.j_series": (("frames", "nnz", "max_bits"), _size_j_series),
    "qde.identity_series": (("entries", "max_bits"), _size_identity_series),
    "linalg.nullspace": (("rows", "cols", "kernel_dim"), _size_nullspace),
    "lefschetz.period_sequence": (("max_bits",), _size_period_sequence),
    "reconstruct.reconstruct": (("max_bits",), _size_reconstruct),
}


class Tracer:
    """Aggregates spans per function name: calls, self time, size counts.

    `clock` is injectable so the self-time arithmetic can be tested with
    a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []
        self.job_s = 0.0
        self.gap_s = 0.0

    def _stat(self, name):
        if name not in self.stats:
            keys = SIZERS.get(name, ((), None))[0]
            self.stats[name] = dict({"calls": 0, "self_s": 0.0},
                                    **{k: 0 for k in keys})
        return self.stats[name]

    def wrap(self, name, fn):
        stat = self._stat(name)
        sizer = SIZERS.get(name, ((), None))[1]
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if sizer is not None:
                start = clock()
                sizer(stat, args, result)
                sized = clock() - start
                if stack:
                    stack[-1][0] += sized
                self.gap_s += sized
            return result

        return traced

    def job(self, body):
        """Run body() as the root span; its uncovered time is the gap."""
        children = [0.0]
        self._stack.append(children)
        start = self.clock()
        try:
            return body()
        finally:
            duration = self.clock() - start
            self._stack.pop()
            self.job_s += duration
            self.gap_s += duration - children[0]

    def accounted_s(self):
        """Self times of every span plus the gap; equals job_s."""
        return sum(s["self_s"] for s in self.stats.values()) + self.gap_s


def public_functions(module):
    """(name, function) pairs defined in the module itself, not imported."""
    if module.__name__ == "qfano.cli":
        return [("main", module.main)]
    return [(name, obj) for name, obj in sorted(vars(module).items())
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def load_layers(package="qfano"):
    return [importlib.import_module("%s.%s" % (package, name))
            for name in LAYERS]


class Patch:
    """Context manager that routes every layer function through a Tracer."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self.tracer.wrap(
                    "%s.%s" % (layer, name), fn))
        package = importlib.import_module(
            self.modules[0].__name__.rsplit(".", 1)[0])
        for module in [package] + list(self.modules):
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, name, obj))
                    setattr(module, name, hit[1])
        return self.tracer

    def __exit__(self, *exc):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved = []
        return False


# Per-function metrics reported by a traced run, as (function, stats).
METRIC_FIELDS = (
    ("qde.j_series", ("calls", "self_s", "frames", "nnz", "max_bits")),
    ("qde.check_operator", ("self_s",)),
    ("qde.apply_operator", ("calls", "self_s")),
    ("qde.check_homogeneity", ("self_s",)),
    ("qde.identity_coefficients", ("self_s",)),
    ("qde.apery_table", ("self_s",)),
    ("qde.parse_operator", ("self_s",)),
    ("qde.identity_series", ("calls", "self_s", "entries", "max_bits")),
    ("linalg.nullspace", ("calls", "self_s", "rows", "cols", "kernel_dim")),
    ("lefschetz.find_annihilator", ("self_s",)),
    ("lefschetz.hypergeometric_modify", ("self_s",)),
    ("lefschetz.mirror_map_correction", ("self_s",)),
    ("lefschetz.period_sequence", ("self_s", "max_bits")),
    ("lefschetz.regularize", ("self_s",)),
    ("lefschetz.pf_apply", ("self_s",)),
    ("reconstruct.reconstruct", ("calls", "self_s", "max_bits")),
    ("seeds.seed_columns", ("self_s",)),
    ("ring.make_bundle", ("self_s",)),
    ("ring.load_bundle_config", ("self_s",)),
    ("cli.main", ("self_s",)),
)

# Layers reported as whole-module self time; with cli.main.self_s and
# harness.gap_s these add up to the traced job time.
MODULE_TOTALS = ("ring", "schubert", "seeds", "reconstruct", "qde",
                 "lefschetz", "linalg", "opparse", "fixtures_io")

# Metrics that count work rather than time it; they must repeat exactly.
COUNT_KEYS = ("calls", "frames", "nnz", "max_bits", "entries", "rows",
              "cols", "kernel_dim", "output_bytes")


def is_count(metric):
    return metric.rsplit(".", 1)[-1] in COUNT_KEYS


def unit(metric):
    stat = metric.rsplit(".", 1)[-1]
    return {"self_s": "s", "gap_s": "s", "max_bits": "bits",
            "output_bytes": "bytes", "trace_overhead": "ratio"}.get(
                stat, "count")


def layer_metrics(stats, gap_s, output_bytes, overhead):
    """The per-layer metric values of one traced job, by metric name."""
    out = {}
    for name, keys in METRIC_FIELDS:
        for key in keys:
            out["%s.%s" % (name, key)] = stats.get(name, {}).get(key, 0)
    for layer in MODULE_TOTALS:
        out["%s.self_s" % layer] = sum(
            stat["self_s"] for name, stat in stats.items()
            if name.split(".", 1)[0] == layer)
    out["cli.output_bytes"] = output_bytes
    out["harness.gap_s"] = gap_s
    out["trace_overhead"] = overhead
    return out
