"""Spans around the calls into each fraclap layer, recorded from outside.

``Tracer.install`` replaces each public function listed in ``TARGETS`` at
every ``fraclap`` module namespace that bound it (including names bound by
``from ... import``), and ``CholeskyFactor.solve`` at its class.  While an
op is open, each call records a span: name, start, end, parent span and op
id.  Calls listed as hot (about 1e5 per op inside ``pgd_solve``) are not
kept as spans; they add a call count and busy time to their parent span,
so tracing does not swamp the op.  A target that no longer exists is
skipped with a note.  Spans stay in memory until ``write_jsonl``.
"""

import hashlib
import json
import os
import sys
import time
from collections import defaultdict

# (metric name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("cli.main", "fraclap.cli", "main"),
    ("cli.write_csv", "fraclap.cli", "write_csv"),
    ("control.eigen_solve", "fraclap.control", "eigen_solve_control"),
    ("control.pgd", "fraclap.control", "pgd_solve"),
    ("control.reduced_cost", "fraclap.control", "reduced_cost"),
    ("discretize.assemble", "fraclap.discretize", "assemble_fractional"),
    ("discretize.assemble", "fraclap.discretize", "assemble_classical"),
    ("forward.solve_poisson", "fraclap.forward", "solve_poisson"),
    ("forward.poincare", "fraclap.forward", "poincare_constant"),
    ("forward.cross_seminorm", "fraclap.forward", "cross_seminorm"),
    ("limitlab.run_sweep", "fraclap.limitlab", "run_sweep"),
    ("limitlab.gamma", "fraclap.limitlab", "recovery_sequence_check"),
    ("limitlab.gamma", "fraclap.limitlab", "liminf_check"),
    ("linalg.eig", "fraclap.linalg", "eig_extreme"),
    ("linalg.factor", "fraclap.linalg", "cholesky_factor"),
    ("linalg.solve", "fraclap.linalg", "CholeskyFactor.solve"),
    ("specfun.frac_constant", "fraclap.specfun", "frac_constant"),
    ("specfun.gamma", "fraclap.specfun", "gamma"),
)
HOT = frozenset({"linalg.solve"})


def operator_key(a) -> str:
    """Identity of an assembled operator, from its first row.

    Every fraclap operator is symmetric Toeplitz, so the first row fixes
    it; hashing one row keeps the key cheap at n = 4096.
    """
    m = getattr(a, "matrix", a)
    row = m[0] if getattr(m, "ndim", 0) == 2 else m
    return hashlib.blake2b(memoryview(row.tobytes()), digest_size=8).hexdigest()


def _annotate(name: str, args, kwargs, result) -> dict:
    """Counts recorded on a span: operator identity, iterations, sizes.

    Read with defaults, so that a later change to a result type loses a
    count rather than failing the op.
    """
    if name == "linalg.eig":
        which = kwargs.get("which", args[1] if len(args) > 1 else "largest")
        return {"op_key": operator_key(args[0]), "which": which,
                "iters": int(getattr(result, "iterations", 0)),
                "converged": bool(getattr(result, "converged", True))}
    if name == "linalg.factor":
        n = getattr(args[0], "matrix", args[0]).shape[0]
        return {"op_key": operator_key(args[0]), "flops": n**3 / 3.0}
    if name == "discretize.assemble":
        n = result.grid.n
        index = 8 * n * n if result.kind == "fractional" else 0
        matrix = getattr(result, "matrix", None)
        return {"n": n, "bytes": (matrix.nbytes if matrix is not None else 0) + index}
    if name == "control.pgd":
        return {"iters": int(getattr(result, "iters", 0)),
                "converged": bool(getattr(result, "converged", True))}
    if name == "cli.write_csv":
        path = kwargs.get("path", args[0] if args else None)
        return {"bytes": os.path.getsize(path)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.notes = []
        self.op = None
        self._stack = []
        self._patches = []
        self._next_id = 0

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fraclap" or name.startswith("fraclap."))]
        for metric, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, method, None) if holder is not None else None
            if original is None:
                self.notes.append(f"skipped {module_name}.{attr}: not found")
                continue
            wrapper = self._wrap(metric, original)
            if owner:
                self._patch(holder, method, original, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._patches.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _wrap(self, metric, original):
        tracer = self
        hot = metric in HOT

        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            if hot:
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    agg = tracer._stack[-1]["agg"].setdefault(metric, [0, 0.0])
                    agg[0] += 1
                    agg[1] += time.perf_counter() - t0
            span = tracer._open(metric)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            try:
                span["attrs"] = _annotate(metric, args, kwargs, result)
            except (AttributeError, IndexError, TypeError, OSError) as exc:
                span["attrs"] = {"annotate_error": f"{type(exc).__name__}: {exc}"}
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", metric)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        self._next_id += 1
        span = {"id": self._next_id, "parent": self._stack[-1]["id"] if self._stack else None,
                "op": self.op, "name": name, "start": time.perf_counter(), "end": None,
                "agg": {}, "attrs": {}}
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def begin_op(self, op_id: int, label: str) -> None:
        self.op = op_id
        self._open("op")["attrs"] = {"label": label}

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.op = None

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for note in self.notes:
                out.write(json.dumps({"note": note}) + "\n")
            for span in sorted(self.spans, key=lambda sp: sp["id"]):
                out.write(json.dumps(span) + "\n")


# -- aggregation ---------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# Per-op metrics, summed over the traced pass and divided by its op count.
PER_OP_UNITS = {
    "linalg.eig.calls": "count",
    "linalg.eig.busy_s": "s",
    "linalg.eig.iters": "count",
    "linalg.eig.unconverged": "count",
    "linalg.factor.calls": "count",
    "linalg.factor.busy_s": "s",
    "linalg.factor.flops": "flop",
    "linalg.solve.calls": "count",
    "linalg.solve.busy_s": "s",
    "discretize.assemble.calls": "count",
    "discretize.assemble.busy_s": "s",
    "discretize.assemble.bytes": "B",
    "control.eigen_solve.busy_s": "s",
    "control.pgd.busy_s": "s",
    "control.pgd.iters": "count",
    "control.pgd.unconverged": "count",
    "control.self_s": "s",
    "forward.solve_poisson.busy_s": "s",
    "forward.poincare.busy_s": "s",
    "forward.self_s": "s",
    "limitlab.run_sweep.busy_s": "s",
    "limitlab.gamma.busy_s": "s",
    "limitlab.self_s": "s",
    "cli.self_s": "s",
    "cli.write_csv.busy_s": "s",
    "cli.write_csv.bytes": "B",
    "specfun.frac_constant.calls": "count",
    "specfun.busy_s": "s",
}


def layer_metrics(spans: list, ops: int) -> dict:
    """Per-op layer metrics, as {name: (value, unit)}, from ``ops`` whole ops.

    ``<name>.busy_s`` is the inclusive time of the outermost spans of a name
    (a name nested in itself counts once) and ``<layer>.busy_s`` the same
    for a layer; ``<layer>.self_s`` is its spans' time minus the time of
    their child spans and aggregated hot calls.  The useful ratios are
    distinct (operator, which) per eigen solve and distinct operators per
    factorization, counted within each op.
    """
    by_id = {sp["id"]: sp for sp in spans}
    children = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]] += sp["end"] - sp["start"]

    def has_ancestor(sp, pred) -> bool:
        parent = by_id.get(sp["parent"])
        while parent is not None:
            if pred(parent):
                return True
            parent = by_id.get(parent["parent"])
        return False

    total = defaultdict(float)
    distinct = {"linalg.eig": set(), "linalg.factor": set()}
    for sp in spans:
        name = sp["name"]
        dur = sp["end"] - sp["start"]
        agg_busy = 0.0
        for hot, (count, hot_busy) in sp["agg"].items():
            total[hot + ".calls"] += count
            total[hot + ".busy_s"] += hot_busy
            agg_busy += hot_busy
        if name == "op":
            continue
        layer = _layer(name)
        total[name + ".calls"] += 1
        total[layer + ".self_s"] += dur - children[sp["id"]] - agg_busy
        if not has_ancestor(sp, lambda p: p["name"] == name):
            total[name + ".busy_s"] += dur
        if not has_ancestor(sp, lambda p: _layer(p["name"]) == layer):
            total[layer + ".busy_s"] += dur
        attrs = sp["attrs"]
        for key in ("iters", "flops", "bytes"):
            total[f"{name}.{key}"] += attrs.get(key, 0)
        if not attrs.get("converged", True):
            total[name + ".unconverged"] += 1
        if name in distinct:
            distinct[name].add((sp["op"], attrs.get("op_key"), attrs.get("which")))

    metrics = {name: (total[name] / ops, unit) for name, unit in PER_OP_UNITS.items()}
    for name in distinct:
        calls = total[name + ".calls"]
        metrics[name + ".useful_ratio"] = (len(distinct[name]) / calls if calls else 1.0, "1")
    return metrics
