"""Span tracing of stjac from outside the library.

``Tracer.install`` wraps the public functions named in ``SPANS`` and
rebinds *every* name that refers to them: the defining module, each module
that imported the function (``pointcount.jacobi_sum_compact``,
``stmatrix.make_field``, ``groupid.build_matrix``, ...), the package
namespace and, for ``CycloElt`` methods, every class attribute that holds
them (``__mul__`` and ``__rmul__``).  ``Tracer.uninstall`` puts each
original object back.

Each call becomes a span (name, start, end, parent, request id), kept in
flat in-memory arrays and written out once at the end.  Counters are
computed from a call's arguments and result after its span has closed,
so their cost lands in the parent's self time, as tracing overhead.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

from workloads import column_count

# span name -> (module, attribute path of the original object)
SPANS = {
    "primes.prime_range": ("stjac.primes", "prime_range"),
    "ffield.make_field": ("stjac.ffield", "make_field"),
    "_accel.dlog_table": ("stjac._accel", "dlog_table"),
    "_accel.char_pair_histogram": ("stjac._accel", "char_pair_histogram"),
    "charsums.jacobi_sum_compact": ("stjac.charsums", "jacobi_sum_compact"),
    "cyclo.CycloElt.mul": ("stjac.cyclo", "CycloElt.__mul__"),
    "cyclo.CycloElt.add": ("stjac.cyclo", "CycloElt.__add__"),
    "cyclo.CycloElt.lift": ("stjac.cyclo", "CycloElt.lift"),
    "cyclo.CycloElt.from_int_coeffs": ("stjac.cyclo", "CycloElt.from_int_coeffs"),
    "cyclo.is_root_of_unity": ("stjac.cyclo", "is_root_of_unity"),
    "pointcount.count_formula": ("stjac.pointcount", "count_formula"),
    "pointcount.trace_sweep": ("stjac.pointcount", "trace_sweep"),
    "stmatrix.build_matrix": ("stjac.stmatrix", "build_matrix"),
    "stmatrix.validate_matrix": ("stjac.stmatrix", "validate_matrix"),
    "stmatrix.right_kernel": ("stjac.stmatrix", "right_kernel"),
    "stmatrix.frobenius_factor": ("stjac.stmatrix", "frobenius_factor"),
    "stmatrix.verify_relation": ("stjac.stmatrix", "verify_relation"),
    "intlinalg.kernel_basis": ("stjac.intlinalg", "kernel_basis"),
    "intlinalg.snf_invariant_factors": ("stjac.intlinalg", "snf_invariant_factors"),
    "intlinalg.hnf_rows": ("stjac.intlinalg", "hnf_rows"),
    "groupid.generic_primes": ("stjac.groupid", "generic_primes"),
    "groupid.weight_classes": ("stjac.groupid", "weight_classes"),
    "groupid.torus_dimension": ("stjac.groupid", "torus_dimension"),
    "groupid.identify_st0": ("stjac.groupid", "identify_st0"),
}

REQUEST = "request"  # root span the benchmark opens around each request

COUNTERS = (
    "ffield.make_field.table_bytes",
    "_accel.char_pair_histogram.elements",
    "_accel.char_pair_histogram.bytes_computed",
    "pointcount.count_formula.columns",
    "cyclo.max_conductor",
    "stmatrix.build_matrix.cells",
    "stmatrix.build_matrix.useful_ratio",
    "stmatrix.verify_relation.exact",
    "stmatrix.verify_relation.torsion",
    "stmatrix.verify_relation.fail",
    "spans.errors",
)


def _raw(value):
    """The function behind a binding (a staticmethod holds it in __func__)."""
    return value.__func__ if isinstance(value, staticmethod) else value


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return _raw(obj)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names = [REQUEST, *SPANS]
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.error = bytearray()
        self.stack = [-1]
        self.request_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.build_keys: dict[int, set] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.last_patched: list[str] = []  # bindings the last install touched

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        sid = self.names.index(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        request, error, stack = self.request, self.error, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            request.append(self.request_id)
            end.append(0)
            error.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__perfbench_original__ = fn
        return traced

    def run_request(self, request_id: int, fn, *args):
        """Run one request under a root span tagged with its id."""
        self.request_id = request_id
        try:
            return self.wrap(fn, REQUEST)(*args)
        finally:
            self.request_id = -1

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {name: _resolve(module, path) for name, (module, path) in SPANS.items()}
        # keyed by id: the originals stay alive in `originals` meanwhile
        wrappers = {id(fn): self.wrap(fn, name, _HOOKS.get(name)) for name, fn in originals.items()}
        for owner in _binding_owners():
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(_raw(value)))
                if wrapper is None:
                    continue
                setattr(owner, attr, staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper)
                self._patches.append((owner, attr, value))
        self.last_patched = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in self._patches]

    def uninstall(self) -> None:
        """Put every original binding back, then check that none was missed."""
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner in _binding_owners()
            for attr, value in vars(owner).items()
            if hasattr(_raw(value), "__perfbench_original__")
        ]
        if left:
            raise RuntimeError(f"traced bindings left after uninstall: {left}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s and errors; plus counters.

        busy is a span's duration, self its duration minus the time its
        direct children cover.  Times are integer nanoseconds until the
        final division, so self >= 0 holds exactly for properly nested
        spans; a negative value raises.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                if self.name_id[par] == self.name_id[i]:
                    raise AssertionError(f"span {self.names[self.name_id[i]]} nests in itself")
                child[par] += dur[i]
        spans = {name: {"calls": 0, "busy_s": 0, "self_s": 0, "errors": 0} for name in self.names}
        for i in range(n):
            own = dur[i] - child[i]
            if own < 0:
                raise AssertionError(f"negative self time in span {i}")
            agg = spans[self.names[self.name_id[i]]]
            agg["calls"] += 1
            agg["busy_s"] += dur[i]
            agg["self_s"] += own
            agg["errors"] += self.error[i]
        for agg in spans.values():
            agg["busy_s"] /= 1e9
            agg["self_s"] /= 1e9
        counts = dict(self.counts)
        builds = spans["stmatrix.build_matrix"]["calls"]
        distinct = sum(len(keys) for keys in self.build_keys.values())
        # no build at all wastes nothing
        counts["stmatrix.build_matrix.useful_ratio"] = distinct / builds if builds else 1.0
        counts["spans.errors"] = sum(
            agg["errors"] for name, agg in spans.items() if name != REQUEST
        )
        return {"spans": spans, "counters": counts}

    def dump(self, path) -> None:
        """Write every span as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "columns": ["name_id", "start_ns", "end_ns", "parent", "request", "error"],
            "name_id": self.name_id.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "error": list(self.error),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _binding_owners():
    """Every stjac module and every class defined in one (deduplicated)."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "stjac" or name.startswith("stjac.")):
            continue
        for owner in (module, *vars(module).values()):
            if id(owner) in seen:
                continue
            if owner is module or (
                isinstance(owner, type) and owner.__module__.startswith("stjac")
            ):
                seen.add(id(owner))
                yield owner


# -- counters -----------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _make_field(tr, args, kwargs, out):
    tr.counts["ffield.make_field.table_bytes"] += 8 * out.p


def _histogram(tr, args, kwargs, out):
    n = int(_arg(args, kwargs, 3, "n"))
    tr.counts["_accel.char_pair_histogram.elements"] += n - 1
    # model: two 8-byte dlog gathers per element plus the int64 histogram
    tr.counts["_accel.char_pair_histogram.bytes_computed"] += 16 * (n - 1) + 8 * n


def _count_formula(tr, args, kwargs, out):
    fld, spec = _arg(args, kwargs, 0, "fld"), _arg(args, kwargs, 1, "spec")
    tr.counts["pointcount.count_formula.columns"] += column_count(fld.p, spec.d, spec.family)


def _conductor(tr, args, kwargs, out):
    if out.n > tr.counts["cyclo.max_conductor"]:
        tr.counts["cyclo.max_conductor"] = out.n


def _build_matrix(tr, args, kwargs, out):
    tr.counts["stmatrix.build_matrix.cells"] += len(out.rows) * len(out.cols)
    tr.build_keys.setdefault(tr.request_id, set()).add((out.p, out.d, out.family))


def _verify_relation(tr, args, kwargs, out):
    tr.counts[f"stmatrix.verify_relation.{out.kind}"] += 1


_HOOKS = {
    "ffield.make_field": _make_field,
    "_accel.char_pair_histogram": _histogram,
    "pointcount.count_formula": _count_formula,
    "cyclo.CycloElt.mul": _conductor,
    "cyclo.CycloElt.add": _conductor,
    "cyclo.CycloElt.lift": _conductor,
    "cyclo.CycloElt.from_int_coeffs": _conductor,
    "stmatrix.build_matrix": _build_matrix,
    "stmatrix.verify_relation": _verify_relation,
}
