"""In-process span tracing of randattract, installed from outside the library.

``install`` wraps every public function of the library modules, in every
module namespace that holds it (``cli`` does ``from .evolution import
build_chain``, so patching ``evolution`` alone would miss those calls), plus
``PropagatorChain.node_operator``, the ``OutputSink`` writers and
``numpy.linalg.eigh``.  Each call records a span (id, parent id, name, start,
end, error flag) in memory; ``summarize`` turns the spans and the counters the
hooks collect into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("noise", "operators", "evolution", "pathwise", "ou", "attractor", "cli")

# metric group -> span names whose self time and calls it sums
GROUPS = {
    "noise.sample": ("noise.sample_two_sided_path",),
    "noise.shift": ("noise.wiener_shift",),
    "operators.driver": ("operators.evaluate_driver", "operators.driver_values"),
    "operators.assemble": ("operators.assemble_operator",),
    "operators.fractional_norm": (
        "operators.fractional_norm",
        "operators.fractional_apply",
        "operators.fixed_laplacian_symbols",
    ),
    "evolution.build_chain": ("evolution.build_chain",),
    "evolution.eigh": ("evolution.eigh",),
    "evolution.node_operator": ("evolution.PropagatorChain.node_operator",),
    "pathwise.integrate": ("pathwise.integrate_semilinear",),
    "pathwise.nemytskii": ("pathwise.nemytskii",),
    "ou.construct_initial": ("ou.construct_initial",),
    "ou.propagate": ("ou.propagate",),
    "attractor.pullback": ("attractor.pullback_estimate",),
    "attractor.cloud_diag": ("attractor.cloud_diameter", "attractor.hausdorff_distance"),
    "cli.command": (
        "cli.cmd_simulate",
        "cli.cmd_ou_diagnose",
        "cli.cmd_attractor_pullback",
        "cli.cmd_convergence",
        "cli.cmd_verify",
    ),
    "cli.emit": (
        "cli.OutputSink.write_text",
        "cli.OutputSink.write_csv",
        "cli.OutputSink.write_json",
        "cli.OutputSink.manifest",
        "cli.fmt",
    ),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # flat rows of (id, parent, name id, start, end, error); one extend per
        # span is a single C call, so rows from worker threads never interleave
        self.rows = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.step_keys: set[tuple[int, int]] = set()
        self._pinned: dict[int, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name``; ``hook(args, kwargs,
        result)`` runs after a successful call to update counters."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        rows, ids, clock, stack_of = self.rows, self._ids, time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            failed = 1.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = 0.0
            finally:
                t1 = clock()
                stack.pop()
                rows.extend((sid, parent, nid, t0, t1, failed))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def pin_step_keys(self, base, first: int, n: int) -> None:
        """Record steps [first, first + n) of the path base array ``base``.

        The array is kept alive so its id cannot be reused by a later path.
        """
        with self._lock:
            self._pinned[id(base)] = base
            self.step_keys.update((id(base), first + k) for k in range(n))


def install(tracer: Tracer) -> None:
    """Patch the library and numpy.linalg.eigh for the life of the process."""
    import numpy

    pkg = importlib.import_module("randattract")
    mods = {name: importlib.import_module(f"randattract.{name}") for name in MODULES}
    namespaces = [pkg, importlib.import_module("randattract.config"), *mods.values()]
    hooks = _hooks(tracer, mods)

    def replace(original, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
            ):
                continue
            name = f"{short}.{attr}"
            wrapped = (
                _traced_map_ordered(tracer, obj)
                if name == "cli.map_ordered"
                else tracer.wrap(name, obj, hooks.get(name))
            )
            replace(obj, wrapped)

    commands = getattr(mods["cli"], "_COMMANDS", {})
    for key, fn in list(commands.items()):
        commands[key] = getattr(mods["cli"], fn.__name__, fn)

    chain_cls = mods["evolution"].PropagatorChain
    if hasattr(chain_cls, "node_operator"):
        _wrap_node_operator(tracer, chain_cls)
    sink_cls = mods["cli"].OutputSink
    for method in ("write_text", "write_csv", "write_json", "manifest"):
        if hasattr(sink_cls, method):
            name = f"cli.OutputSink.{method}"
            setattr(
                sink_cls,
                method,
                tracer.wrap(name, getattr(sink_cls, method), hooks.get(name)),
            )

    numpy.linalg.eigh = tracer.wrap(
        "evolution.eigh", numpy.linalg.eigh, hooks["evolution.eigh"]
    )


def _hooks(tracer: Tracer, mods: dict) -> dict:
    count = tracer.count
    pathwise = mods["pathwise"]

    def window(field, dt) -> int:
        return int(round(field.driver_horizon / dt)) + 1

    def evaluate_driver(args, kwargs, result):
        path, field = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 2, "field")
        count("operators.driver.points", window(field, path.dt))

    def driver_values(args, kwargs, result):
        field, path = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "path")
        count("operators.driver.points", len(result) * window(field, path.dt))

    def build_chain(args, kwargs, chain):
        n = chain.steps.shape[0]
        count("evolution.steps_built", n)
        path, grid = _arg(args, kwargs, 1, "path"), _arg(args, kwargs, 2, "grid")
        if path is not None:
            first = path.base_origin + int(round(grid.t0 / grid.dt))
            tracer.pin_step_keys(path.base, first, n)

    def eigh(args, kwargs, result):
        shape = _arg(args, kwargs, 0, "a").shape
        count("evolution.eigh.matrices", math.prod(shape[:-2]))

    def integrate(args, kwargs, traj):
        count("pathwise.steps", traj.states.shape[0] - 1)
        count("pathwise.blowups", traj.status == "blowup")

    def nemytskii(args, kwargs, result):
        nl, vec = _arg(args, kwargs, 0, "nonlinearity"), _arg(args, kwargs, 1, "vec")
        if nl.kind is pathwise.NonlinearityKind.ZERO:
            return
        m = vec.shape[-1]
        n_sub = args[2] if len(args) > 2 else kwargs.get("n_sub")
        if n_sub is None:
            n_sub = pathwise.dealias_node_count(m, nl.rho)
        count("pathwise.nemytskii.flops", 4 * n_sub * m)

    def construct_initial(args, kwargs, result):
        path, a = _arg(args, kwargs, 1, "path"), _arg(args, kwargs, 2, "a")
        count("ou.history_steps", int(round(a / path.dt)))

    def propagate(args, kwargs, traj):
        count("ou.propagate.steps", traj.states.shape[0] - 1)

    def pullback(args, kwargs, estimate):
        for alive in estimate.survivors:
            count("attractor.members", alive.size)
            count("attractor.survivors", int(alive.sum()))

    def write_text(args, kwargs, target):
        count("cli.emit.bytes", len(_arg(args, kwargs, 2, "text").encode()))

    def manifest(args, kwargs, result):
        count("cli.emit.bytes", (args[0].out_dir / "manifest.json").stat().st_size)

    return {
        "operators.evaluate_driver": evaluate_driver,
        "operators.driver_values": driver_values,
        "evolution.build_chain": build_chain,
        "evolution.eigh": eigh,
        "pathwise.integrate_semilinear": integrate,
        "pathwise.nemytskii": nemytskii,
        "ou.construct_initial": construct_initial,
        "ou.propagate": propagate,
        "attractor.pullback_estimate": pullback,
        "cli.OutputSink.write_text": write_text,
        "cli.OutputSink.manifest": manifest,
    }


def _wrap_node_operator(tracer: Tracer, chain_cls) -> None:
    traced = tracer.wrap(
        "evolution.PropagatorChain.node_operator", chain_cls.node_operator
    )

    @functools.wraps(chain_cls.node_operator)
    def node_operator(self, k, *args, **kwargs):
        if k in getattr(self, "_node_cache", ()):
            tracer.count("evolution.node_operator.hits")
        return traced(self, k, *args, **kwargs)

    chain_cls.node_operator = node_operator


def _traced_map_ordered(tracer: Tracer, original):
    """map_ordered whose items run as spans under the map span in any thread,
    with per-item busy time for the busy fraction."""

    def map_ordered(fn, items, threads):
        map_sid = tracer._stack()[-1]

        def item(x):
            local = tracer._local
            saved = getattr(local, "stack", None)
            local.stack = [map_sid]
            t0 = time.perf_counter()
            try:
                return traced_item(x)
            finally:
                tracer.count("cli.map_ordered.busy_s", time.perf_counter() - t0)
                local.stack = saved

        traced_item = tracer.wrap("cli.map_item", fn)
        workers = threads if threads > 1 and len(items) > 1 else 1
        workers = min(workers, max(len(items), 1))
        t0 = time.perf_counter()
        try:
            return original(item, items, threads)
        finally:
            tracer.count("cli.map_ordered.capacity_s", workers * (time.perf_counter() - t0))

    return tracer.wrap("cli.map_ordered", functools.wraps(original)(map_ordered))


# ---------------------------------------------------------------------------


def self_times(rows) -> tuple[list[float], list[float]]:
    """Per span: (duration, self time).  Self time is the duration minus the
    union of the intervals its child spans cover (children running in
    parallel threads are counted once)."""
    n = len(rows) // 6
    index = {int(rows[6 * i]): i for i in range(n)}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i in range(n):
        parent = int(rows[6 * i + 1])
        if parent in index:
            children[index[parent]].append((rows[6 * i + 3], rows[6 * i + 4]))
    durations, selfs = [], []
    for i in range(n):
        start, end = rows[6 * i + 3], rows[6 * i + 4]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        durations.append(end - start)
        selfs.append(end - start - covered)
    return durations, selfs


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics: group calls and self times, counters, ratios, and
    per-module self time and escaped exceptions.

    A group's calls count entries into the group: spans of its members whose
    parent span is not itself a member (fractional_norm calling
    fractional_apply is one call)."""
    rows = tracer.rows
    durations, selfs = self_times(rows)
    group_of = {m: g for g, members in GROUPS.items() for m in members}
    name_of = {int(rows[6 * i]): int(rows[6 * i + 2]) for i in range(len(durations))}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    for i in range(len(durations)):
        name = tracer.names[int(rows[6 * i + 2])]
        parent = name_of.get(int(rows[6 * i + 1]))
        group = group_of.get(name)
        if group is not None and (
            parent is None or group_of.get(tracer.names[parent]) != group
        ):
            calls[group] += 1
        self_s[name] += selfs[i]
        total_s[name] += durations[i]
        if rows[6 * i + 5]:
            errors[name.split(".")[0]] += 1

    out: dict[str, float] = {}
    for group, members in GROUPS.items():
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_s"] = sum(self_s[m] for m in members)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == module
        )
        out[f"{module}.errors"] = errors[module]

    c = tracer.counts
    for key in (
        "operators.driver.points",
        "evolution.steps_built",
        "evolution.eigh.matrices",
        "pathwise.steps",
        "pathwise.blowups",
        "pathwise.nemytskii.flops",
        "ou.history_steps",
        "ou.propagate.steps",
        "cli.emit.bytes",
    ):
        out[key] = int(c[key])
    out["evolution.eigh.s"] = total_s["evolution.eigh"]
    steps_built = c["evolution.steps_built"]
    out["evolution.steps_unique_frac"] = (
        len(tracer.step_keys) / steps_built if steps_built else 0.0
    )
    node_calls = out["evolution.node_operator.calls"]
    out["evolution.node_operator.hit_frac"] = (
        c["evolution.node_operator.hits"] / node_calls if node_calls else 0.0
    )
    members = c["attractor.members"]
    out["attractor.survivor_frac"] = c["attractor.survivors"] / members if members else 0.0
    capacity = c["cli.map_ordered.capacity_s"]
    out["cli.map_ordered.busy_frac"] = c["cli.map_ordered.busy_s"] / capacity if capacity else 0.0
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans as CSV: run_id, span_id, parent_id, name, start_s, end_s, error."""
    rows, names, run_id = tracer.rows, tracer.names, tracer.run_id
    with path.open("w") as fh:
        fh.write("run_id,span_id,parent_id,name,start_s,end_s,error\n")
        for i in range(len(rows) // 6):
            r = rows[6 * i : 6 * i + 6]
            fh.write(
                f"{run_id},{int(r[0])},{int(r[1])},{names[int(r[2])]},"
                f"{r[3]:.9f},{r[4]:.9f},{int(r[5])}\n"
            )
