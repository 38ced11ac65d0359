"""Per-layer tracing applied from outside the package.

Tracer.install() wraps the public functions of each kropina layer module,
plus a few methods that build the pointwise bundles, and rebinds every
module attribute that refers to the original function, so that calls
made through ``from .x import f`` bindings are traced too.  uninstall()
puts the originals back.  Nothing under ``src/`` is edited.

Each wrapped function, and each group of functions, counts its calls
and its inclusive time; a call made while the same function or group is
already on the stack is counted in neither.  A layer's self
time is the time of its wrapped functions minus the wrapped functions
they call.  Jet multiplies are only counted, per (nvars, order), since
timing each one would cost more than the multiply itself.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "scenarios", "expr", "jets", "riemann", "forms",
    "generic", "einstein", "workbench", "reports",
)

# Recursive per-node helpers: wrapping them would time every tree node.
# print_expr, which calls print_node, is traced instead.
_SKIP = {"expr.print_node"}

# (module, class, attribute, kind); kind is "method" or "classmethod"
_METHODS = [
    ("scenarios", "Scenario", "space", "method"),
    ("riemann", "MetricPoint", "__init__", "method"),
    ("riemann", "MetricPoint", "from_exprs", "classmethod"),
    ("forms", "KropinaSpace", "from_nav", "classmethod"),
    ("forms", "KropinaSpace", "from_ab", "classmethod"),
    ("forms", "AbFields", "__init__", "method"),
    ("reports", "ReportDocument", "to_json", "method"),
]
# classes whose cached properties count as part of building the bundle:
# (module, class, group)
_CACHED_OF = [
    ("riemann", "MetricPoint", "riemann.metric_point"),
    ("forms", "AbFields", "forms.ab_fields"),
]

_CLOSED_FORMS = {
    "kropina_spray_closed", "kropina_ricci_closed", "s_bh_closed",
    "s_closed", "s_dot_closed", "hess_f_closed", "nav_spray",
    "nav_riemann_isotropic", "nav_ricci_isotropic", "sigma_bh", "rs_from_RS",
}
_GENERIC_CURVATURE = {
    "fundamental_tensor", "spray_generic", "riemann_generic", "ricci_generic",
    "distortion", "s_curvature_generic", "sdot_generic", "hess_form",
    "hess_F", "curvature_sample",
}

# group name -> qualified names of the functions that enter it.  A
# group's time is the time any of its members is on the stack.
GROUPS = {
    "expr.parse": {"expr.parse_expr"},
    "expr.print": {"expr.print_expr"},
    "jets.det": {"jets.jet_det"},
    "jets.solve": {"jets.jet_solve"},
    "riemann.metric_point": {
        "riemann.MetricPoint.__init__", "riemann.MetricPoint.from_exprs",
    },
    "forms.ab_fields": {"forms.AbFields.__init__"},
    "forms.closed": {f"forms.{n}" for n in _CLOSED_FORMS},
    "forms.from_nav": {"forms.KropinaSpace.from_nav"},
    "forms.nav_to_ab": {"forms.nav_to_ab"},
    "generic.curvature": {f"generic.{n}" for n in _GENERIC_CURVATURE},
    "generic.bh_density": {"generic.bh_density"},
    "einstein.thm41": {"einstein.thm41_check"},
    "einstein.thm44": {"einstein.thm44_check"},
    "einstein.thm51": {"einstein.thm51_check"},
    "einstein.thm61": {"einstein.thm61_check"},
    "scenarios.load": {"scenarios.load_scenario"},
    "scenarios.samples": {"scenarios.scenario_samples"},
    "workbench.check": {"workbench.run_check"},
    "workbench.verify": {"workbench.run_verify"},
    "workbench.convert": {"workbench.run_convert"},
    "workbench.all": {
        "workbench.run_check", "workbench.run_verify", "workbench.run_convert",
    },
    "reports.to_json": {"reports.ReportDocument.to_json"},
    # what convert-roundtrip is expected to spend its time on
    "io": {"scenarios.load_scenario", "expr.parse_expr", "expr.print_expr"},
}


class _Group:
    __slots__ = ("calls", "depth", "start", "total")

    def __init__(self):
        self.calls = 0
        self.depth = 0
        self.start = 0.0
        self.total = 0.0


class Tracer:
    """Counts and times the kropina layers while installed."""

    def __init__(self):
        self.groups = {}       # group or qualified function name -> _Group
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.mul_counts = {}   # JetSpace -> jet-by-jet multiplies
        self._stack = []       # child-time accumulators of open calls
        self._undo = []
        self._originals = []

    def group(self, name):
        g = self.groups.get(name)
        if g is None:
            g = self.groups[name] = _Group()
        return g

    def _groups_for(self, qualname, extra=()):
        names = [qualname, *extra] + sorted(
            g for g, members in GROUPS.items() if qualname in members
        )
        return tuple(self.group(n) for n in names)

    def _wrap(self, fn, layer, qualname, classify=None, extra=()):
        groups = self._groups_for(qualname, extra)
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            gs = groups if classify is None else groups + classify(args)
            t0 = clock()
            for g in gs:
                if g.depth == 0:
                    g.calls += 1
                    g.start = t0
                g.depth += 1
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                for g in gs:
                    g.depth -= 1
                    if g.depth == 0:
                        g.total += t1 - g.start

        return functools.update_wrapper(traced, fn)

    def _eval_classifier(self):
        """Sorts eval_expr calls by the kind of environment they get."""
        import numpy as np
        from kropina.jets import Jet

        jet = (self.group("expr.eval.jet"),)
        array = (self.group("expr.eval.array"),)
        flt = (self.group("expr.eval.float"), self.group("io"))

        def classify(args):
            env = args[1] if len(args) > 1 else ()
            head = env[0] if len(env) else None
            if isinstance(head, Jet):
                return jet
            if isinstance(head, np.ndarray):
                return array
            return flt

        return classify

    def install(self):
        modules = {m: importlib.import_module(f"kropina.{m}") for m in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                qualname = f"{layer}.{name}"
                if (name.startswith("_") or qualname in _SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                classify = None
                if qualname == "expr.eval_expr":
                    classify = self._eval_classifier()
                replaced[obj] = self._wrap(obj, layer, qualname, classify)
        self._originals = list(replaced)
        # rebind in every kropina module, so imported names are traced too
        for modname, mod in list(sys.modules.items()):
            if modname != "kropina" and not modname.startswith("kropina."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, name, replaced[obj])
        for layer, clsname, attr, kind in _METHODS:
            cls = getattr(modules[layer], clsname)
            orig = cls.__dict__[attr]
            qualname = f"{layer}.{clsname}.{attr}"
            if kind == "classmethod":
                new = classmethod(self._wrap(orig.__func__, layer, qualname))
            else:
                new = self._wrap(orig, layer, qualname)
            self._set(cls, attr, new)
        for layer, clsname, bundle in _CACHED_OF:
            cls = getattr(modules[layer], clsname)
            for attr, orig in list(vars(cls).items()):
                if not isinstance(orig, functools.cached_property):
                    continue
                qualname = f"{layer}.{clsname}.{attr}"
                new = functools.cached_property(
                    self._wrap(orig.func, layer, qualname, extra=(bundle,))
                )
                new.__set_name__(cls, attr)
                self._set(cls, attr, new)
        self._count_jet_multiplies(modules["jets"].Jet)
        return self

    def _count_jet_multiplies(self, jet_cls):
        orig = jet_cls.__dict__["__mul__"]
        counts = self.mul_counts

        def counted(a, b):
            if b.__class__ is jet_cls:
                sp = a.space
                counts[sp] = counts.get(sp, 0) + 1
            return orig(a, b)

        self._set(jet_cls, "__mul__", counted)
        self._set(jet_cls, "__rmul__", counted)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def bypasses(self):
        """Places in kropina that still hold an untraced original: module
        attributes, module-level containers and function defaults."""
        originals = {id(fn) for fn in self._originals}
        found = []
        for modname, mod in sys.modules.items():
            if modname != "kropina" and not modname.startswith("kropina."):
                continue
            for name, obj in vars(mod).items():
                held = [obj]
                if isinstance(obj, dict):
                    held = list(obj.values())
                elif isinstance(obj, (list, tuple, set, frozenset)):
                    held = list(obj)
                elif inspect.isfunction(obj):
                    held = [obj, *(obj.__defaults__ or ()),
                            *(obj.__kwdefaults__ or {}).values()]
                if any(id(h) in originals for h in held):
                    found.append(f"{modname}.{name}")
        return found

    def metrics(self):
        """Flat {name: value} of group calls, times and multiply counts."""
        out = {}
        for name, g in self.groups.items():
            out[f"{name}.calls"] = g.calls
            out[f"{name}.s"] = g.total
        for layer, s in self.self_s.items():
            out[f"self.{layer}.s"] = s
        total = 0
        for sp, count in self.mul_counts.items():
            out[f"jets.mul.calls.n{sp.nvars}o{sp.order}"] = count
            total += count
        out["jets.mul.calls"] = total
        for name, init in (
            ("riemann.metric_point.builds", "riemann.MetricPoint.__init__"),
            ("forms.ab_fields.builds", "forms.AbFields.__init__"),
        ):
            out[name] = self.group(init).calls
        return out


def node_counts(spaces):
    """Expression sizes over every view of the given Kropina spaces.

    tree: nodes counted as a tree, shared subtrees once per use;
    objects: distinct node objects; unique: structurally distinct nodes.
    """
    from dataclasses import fields, is_dataclass

    roots = []
    for sp in spaces:
        for metric in (sp.a, sp.h):
            roots.extend(e for row in metric.exprs for e in row)
        roots.extend(sp.b)
        roots.extend(sp.b_up)
        roots.extend(sp.w)
        roots.extend(e for e in (sp.gauge, sp.rho, sp.weight) if e is not None)

    size = {}    # id(node) -> tree size
    canon = {}   # id(node) -> structural id
    keys = {}    # structural key -> structural id
    keep = []    # hold nodes so ids stay valid

    def visit(node):
        nid = id(node)
        if nid in size:
            return
        keep.append(node)
        total = 1
        key = [type(node).__name__]
        for f in fields(node):
            value = getattr(node, f.name)
            if is_dataclass(value):
                visit(value)
                total += size[id(value)]
                key.append(("n", canon[id(value)]))
            else:
                key.append(value)
        size[nid] = total
        canon[nid] = keys.setdefault(tuple(key), len(keys))

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        tree = 0
        for ast in roots:
            visit(ast.root)
            tree += size[id(ast.root)]
    finally:
        sys.setrecursionlimit(limit)
    return {
        "expr.tree_nodes": tree,
        "expr.object_nodes": len(size),
        "expr.unique_nodes": len(keys),
    }
