"""Call tracing for the qkig layers, installed from outside the library.

Every public function of each layer module, and the constructors of
``RingElement`` and ``Plane2``, is replaced by a timing wrapper.  The
wrapper is rebound under every name that any ``qkig`` module holds for the
function, so a call from ``ring`` into ``pairs.require_valid`` (imported
into ``ring`` by name) is caught as a ring -> pairs call.

A span per call would not fit in memory: one cycle of the verify suites
makes about half a million calls into ``pairs``.  Calls are aggregated instead: count and inclusive time per
function, count and time per (caller layer -> callee layer) edge, and self
time per layer.  Self time is inclusive time minus the time of traced
children and of the tracer's own counting hooks, less the calibrated cost of
the wrappers the layer called.
"""

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("pairs", "ring", "neighborhoods", "chi", "linalg", "oracle",
          "verify", "cli")
BENCH = len(LAYERS)  # frame index of the benchmark's own code
CALLER_NAMES = LAYERS + ("bench",)

# constructor name -> (layer module, class name); counted apart from calls
CONSTRUCTORS = {"ring.RingElement": ("ring", "RingElement"),
                "oracle.Plane2": ("oracle", "Plane2")}


# linalg routine -> how many leading arguments are matrices entering it
CELL_ARGS = {"rank": 1, "rref": 1, "nullspace": 1, "intersect_rowspaces": 2}


def _cells_hook(count):
    """Pre-hook returning the rows x cols of the matrices a call receives."""
    def cells(args, kwargs):
        mats = args[:count]
        if len(mats) < count or not all(
                isinstance(m, (list, tuple)) and m for m in mats):
            return 0
        return sum(len(m) for m in mats) * len(mats[0][0])
    return cells


class Tracer:
    """Aggregating tracer; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        nl = len(LAYERS) + 1
        self.self_s = [0.0] * nl
        self.edge_calls = [[0] * nl for _ in range(nl)]
        self.edge_s = [[0.0] * nl for _ in range(nl)]
        self.slots = []          # "layer.function" per wrapped callable
        self.slot_layer = []
        self.fn_calls = []
        self.fn_incl = []
        self.cells_in = 0
        self.terms_out = 0
        self.wrapper_s = 0.0     # calibrated cost of one wrapped call
        self._stack = [[BENCH, 0.0]]
        self._ring_element = None  # set by install
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _slot(self, name, layer):
        self.slots.append(name)
        self.slot_layer.append(layer)
        self.fn_calls.append(0)
        self.fn_incl.append(0.0)
        return len(self.slots) - 1

    def _wrap(self, fn, layer, slot, pre=None, post=None):
        stack, self_s = self._stack, self.self_s
        ecalls, es = self.edge_calls, self.edge_s
        fcalls, fincl = self.fn_calls, self.fn_incl
        clock = perf_counter

        # a hook runs in the caller's frame; its time is booked as a child
        # of that frame, so it counts as no layer's self time
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if pre is not None:
                h0 = clock()
                self.cells_in += pre(args, kwargs)
                parent[1] += clock() - h0
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                self_s[layer] += dt - frame[1]
                caller = parent[0]
                ecalls[caller][layer] += 1
                es[caller][layer] += dt
                fcalls[slot] += 1
                fincl[slot] += dt
            if post is not None and caller != layer:
                h0 = clock()
                post(result)
                parent[1] += clock() - h0
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _count_terms(self, result):
        if isinstance(result, self._ring_element):
            self.terms_out += len(result.sorted_terms())

    def install(self):
        mods = [importlib.import_module("qkig." + name) for name in LAYERS]
        self._ring_element = mods[LAYERS.index("ring")].RingElement
        wrapped = {}  # id(original) -> (original, wrapper)
        for li, mod in enumerate(mods):
            for name, obj in vars(mod).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                pre = _cells_hook(CELL_ARGS[name]) \
                    if LAYERS[li] == "linalg" and name in CELL_ARGS else None
                post = self._count_terms if LAYERS[li] == "ring" else None
                slot = self._slot(f"{LAYERS[li]}.{name}", li)
                wrapped[id(obj)] = (obj, self._wrap(obj, li, slot, pre, post))
        for modname, module in list(sys.modules.items()):
            if modname != "qkig" and not modname.startswith("qkig."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, entry[1])
        for key, (layer, cls_name) in CONSTRUCTORS.items():
            li = LAYERS.index(layer)
            cls = getattr(mods[li], cls_name)
            init = cls.__init__
            self._patches.append((cls, "__init__", init))
            cls.__init__ = self._wrap(init, li, self._slot(key, li))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def calibrate(self, calls=100_000):
        """Measure the cost of one wrapped call against a plain call."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe._wrap(noop, 0, probe._slot("probe", 0))
        best = None
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            cost = ((t2 - t1) - (t1 - t0)) / calls
            best = cost if best is None else min(best, cost)
        self.wrapper_s = max(best, 0.0)

    # -- results ----------------------------------------------------------

    def calls(self, name):
        return self.fn_calls[self.slots.index(name)]

    def incl_s(self, name):
        return self.fn_incl[self.slots.index(name)]

    def layer_calls(self, layer):
        li = LAYERS.index(layer)
        return sum(c for s, l, c in zip(self.slots, self.slot_layer,
                                        self.fn_calls)
                   if l == li and s not in CONSTRUCTORS)

    def layer_self_s(self, layer):
        li = LAYERS.index(layer)
        made = sum(self.edge_calls[li])
        return max(self.self_s[li] - made * self.wrapper_s, 0.0)

    def total_calls(self):
        return sum(self.fn_calls)

    def edges(self):
        out = []
        for ci, row in enumerate(self.edge_calls):
            for li, count in enumerate(row):
                if count:
                    out.append({"caller": CALLER_NAMES[ci],
                                "callee": LAYERS[li], "calls": count,
                                "incl_s": self.edge_s[ci][li]})
        return out

    def functions(self):
        rows = [{"fn": s, "calls": c, "incl_s": t}
                for s, c, t in zip(self.slots, self.fn_calls, self.fn_incl)
                if c]
        return sorted(rows, key=lambda r: -r["calls"])
