"""Per-layer tracing of fairslice from outside the package.

Each module of `src/fairslice/` is one layer.  `Tracer.install` replaces
the module's public functions, the public methods, properties and
`__init__` of its classes, and every other reference to them (module
globals, dict values such as the CLI's mechanism table, and any extra
namespaces given) with wrappers; `uninstall` puts the originals back.
Nothing under `src/` changes.

A layer is timed at its outermost entry only: a call into a layer that is
already on the stack is counted but opens no span.  A span's self time is
its duration minus the durations of the spans opened directly inside it,
so the self times of one request add up to the durations of its root
spans.  Spans are aggregated as they close rather than stored, because the
revelation workload crosses layer boundaries millions of times.
"""

import functools
import importlib
import inspect
import time

LAYERS = (
    "cli", "scenario", "generator", "intervals", "valuation", "oracle",
    "mechanisms", "audit", "uniform", "equilibrium", "simplex", "optimal",
)

COUNTS = (
    "cli.requests", "scenario.parse_calls",
    "intervals.sets_built", "intervals.ops",
    "valuation.evals", "valuation.cuts", "valuation.measures", "valuation.inexact_cuts",
    "oracle.queries", "mechanisms.runs",
    "audit.allocations_built", "audit.equity_cells",
    "uniform.subsets_scored", "uniform.rounds",
    "equilibrium.best_responses", "equilibrium.improving", "equilibrium.candidates_scored",
    "equilibrium.nonconverged",
    "simplex.solves", "simplex.pivots", "simplex.rows", "simplex.vars", "simplex.max_den_bits",
    "optimal.segments",
)


def _den_bits(solution):
    numbers = list(solution.x or ()) + list(solution.duals or ())
    if solution.value is not None:
        numbers.append(solution.value)
    return max((q.denominator.bit_length() for q in numbers), default=0)


def _hooks():
    # Count updates keyed by the wrapped callable, applied after it returns:
    # hook(counts, args, result).
    def add(name, amount=1):
        def hook(counts, args, result):
            counts[name] += amount
        return hook

    # Hooks read plain attributes only: a wrapped property would open a span.
    def equity_cells(counts, args, result):
        counts["audit.equity_cells"] += len(result.entries) ** 2

    def cut(counts, args, result):
        counts["valuation.cuts"] += 1
        counts["valuation.inexact_cuts"] += not result.exact

    def subsets(counts, args, result):
        counts["uniform.rounds"] += 1
        counts["uniform.subsets_scored"] += 2 ** len(tuple(args[1])) - 1

    def best_response(counts, args, result):
        counts["equilibrium.best_responses"] += 1
        counts["equilibrium.improving"] += result[1] > 0

    def candidates(counts, args, result):
        counts["equilibrium.candidates_scored"] += len(result)

    def dynamics(counts, args, result):
        counts["equilibrium.nonconverged"] += not result[1]

    def solve(counts, args, result):
        counts["simplex.solves"] += 1
        counts["simplex.pivots"] += result.pivots
        counts["simplex.rows"] += len(args[0].rows)
        counts["simplex.vars"] += len(args[0].objective)
        counts["simplex.max_den_bits"] = max(counts["simplex.max_den_bits"], _den_bits(result))

    def segments(counts, args, result):
        counts["optimal.segments"] += len(result)

    ops = add("intervals.ops")
    runs = add("mechanisms.runs")
    queries = add("oracle.queries")
    return {
        "cli.main": add("cli.requests"),
        "scenario.parse_scenario": add("scenario.parse_calls"),
        "intervals.IntervalSet.__init__": add("intervals.sets_built"),
        "intervals.IntervalSet.union": ops,
        "intervals.IntervalSet.intersect": ops,
        "intervals.IntervalSet.difference": ops,
        "intervals.IntervalSet.complement": ops,
        "intervals.IntervalSet.overlaps": ops,
        "intervals.union_all": ops,
        "valuation.Valuation.eval": add("valuation.evals"),
        "valuation.Valuation.cut": cut,
        "valuation.Valuation.measure": add("valuation.measures"),
        "oracle.Recorder.eval": queries,
        "oracle.Recorder.cut": queries,
        "mechanisms.cut_and_choose": runs,
        "mechanisms.last_diminisher": runs,
        "mechanisms.selfridge": runs,
        "mechanisms.even_paz": runs,
        "audit.Allocation.__init__": add("audit.allocations_built"),
        "audit.equity_table": equity_cells,
        "uniform.min_average_subset": subsets,
        "equilibrium.best_response": best_response,
        "equilibrium._candidates": candidates,
        "equilibrium.best_response_dynamics": dynamics,
        "simplex.lp_solve": solve,
        "optimal.segment": segments,
    }


def _targets(module, layer):
    """(owner, attribute, callable, key) for everything to wrap in one module."""
    prefix = module.__name__
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == prefix:
            if not name.startswith("_") or name == "_candidates":
                yield module, name, obj, "%s.%s" % (layer, name)
        elif inspect.isclass(obj) and obj.__module__ == prefix:
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                key = "%s.%s.%s" % (layer, name, attr)
                if isinstance(member, property) and member.fget is not None:
                    yield obj, attr, member, key
                elif isinstance(member, (classmethod, staticmethod)):
                    yield obj, attr, member, key
                elif inspect.isfunction(member):
                    yield obj, attr, member, key


class Tracer:
    """Counts and per-layer self time for code run while installed."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.root_s = 0.0
        self._depth = dict.fromkeys(LAYERS, 0)
        # Open spans: [start, time covered by direct child spans].
        self._stack = []
        self._patched = []

    def reset(self):
        self.counts = dict.fromkeys(COUNTS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.root_s = 0.0

    def _wrap(self, fn, layer, hook):
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[layer]:
                result = fn(*args, **kwargs)
            else:
                depth[layer] = 1
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    depth[layer] = 0
                    tracer.self_s[layer] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                    else:
                        tracer.root_s += duration
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self, extra_namespaces=()):
        hooks = _hooks()
        modules = [importlib.import_module("fairslice." + layer) for layer in LAYERS]
        replacements = {}
        for module, layer in zip(modules, LAYERS):
            for owner, attr, obj, key in _targets(module, layer):
                hook = hooks.get(key)
                if isinstance(obj, property):
                    new = property(self._wrap(obj.fget, layer, hook), obj.fset, obj.fdel, obj.__doc__)
                elif isinstance(obj, (classmethod, staticmethod)):
                    new = type(obj)(self._wrap(obj.__func__, layer, hook))
                else:
                    new = self._wrap(obj, layer, hook)
                    replacements[id(obj)] = new
                if inspect.isclass(owner):
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, new)
        namespaces = modules + [importlib.import_module("fairslice")] + list(extra_namespaces)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    self._patched.append((namespace, name, value))
                    setattr(namespace, name, replacements[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in replacements:
                            self._patched.append((value, k, v))
                            value[k] = replacements[id(v)]
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self):
        """The per-layer metrics of everything traced since the last reset."""
        c = self.counts
        metrics = {name: (value, "bits" if name.endswith("bits") else "count")
                   for name, value in c.items() if name != "equilibrium.improving"}
        metrics["uniform.subsets_per_round"] = (
            c["uniform.subsets_scored"] / c["uniform.rounds"] if c["uniform.rounds"] else 0.0,
            "ratio")
        metrics["equilibrium.improving_ratio"] = (
            c["equilibrium.improving"] / c["equilibrium.best_responses"]
            if c["equilibrium.best_responses"] else 0.0, "ratio")
        metrics["simplex.pivots_per_solve"] = (
            c["simplex.pivots"] / c["simplex.solves"] if c["simplex.solves"] else 0.0, "ratio")
        for layer, seconds in self.self_s.items():
            name = "scenario.parse_s" if layer == "scenario" else layer + ".self_s"
            metrics[name] = (seconds, "s")
        return metrics
