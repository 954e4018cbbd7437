"""Per-layer tracing of meshpoly from outside the package.

install() replaces the public functions listed in SPANNED and COUNTED
with timing or counting wrappers, without editing anything under src/.
Modules bind names directly (interlace imports root_profile, harness
imports class_membership, cli imports run_search, ...), so a function is
replaced in every loaded meshpoly module namespace that holds it, and a
method is replaced on its class.  uninstall() puts every original back.

A spanned call records its duration; its self time is that duration
minus the time covered by the spanned calls it made.  Hot kernels in
COUNTED are only counted: timing them would cost more than their work.
Everything is kept in memory and aggregated as it arrives.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# layer -> dotted names inside meshpoly.<layer>; the metric name is
# "<layer>.<last component>", with Polynomial.__mul__ reported as "mul"
SPANNED = {
    "intpoly": ("isolate", "IsolatedRoot.try_rational"),
    "poly": ("Polynomial.shift", "Polynomial.to_basis", "Polynomial.__mul__"),
    "roots": ("root_profile", "is_hyperbolic", "mesh_numeric", "mesh_at_least"),
    "interlace": ("class_membership", "proper_position", "nonneg_on_reals"),
    "operators": ("FiniteDifferenceOperator.apply", "diagonal_apply",
                  "bullet_product"),
    "fixtures": ("gen_fixture",),
    "verify": ("check_mesh_monotone", "dms_test", "classical_multiplier_probe"),
    "harness": ("run_search", "replay_certificate"),
    "serialize": ("dumps",),
    "cli": ("main",),
}
COUNTED = {
    "intpoly": ("sturm_chain", "gcd", "sign_at", "IsolatedRoot.refine"),
}

# spanned names whose truthy (or non-None) results are also counted, and
# the ratio metric each gives: useful outcomes over calls
OUTCOMES = {
    "intpoly.try_rational": ("intpoly.probe_hit_ratio", lambda r: r is not None),
    "interlace.class_membership": ("interlace.class_membership.member_ratio",
                                   bool),
}


def metric_name(layer: str, dotted: str) -> str:
    short = dotted.rsplit(".", 1)[-1]
    return f"{layer}.{'mul' if short == '__mul__' else short}"


class Tracer:
    """Call counts, self times and OUTCOMES hits for one traced phase."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.hits: Counter = Counter()
        self._child_time = [0.0]  # one accumulator per open span
        self._restore: list = []

    def _spanned(self, name: str, fn):
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = child_time.pop()
                child_time[-1] += took
                self_s[name] += took - inner
                calls[name] += 1
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _outcome(self, name: str, fn):
        hits, useful = self.hits, OUTCOMES[name][1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if useful(result):
                hits[name] += 1
            return result
        return wrapper

    def _replace(self, layer: str, dotted: str, make) -> None:
        module = importlib.import_module(f"meshpoly.{layer}")
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, make(original))
            self._restore.append((cls, attr, original))
            return
        original = getattr(module, dotted)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "meshpoly"
                                   or mod_name.startswith("meshpoly.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for layer, names in COUNTED.items():
            for dotted in names:
                name = metric_name(layer, dotted)
                self._replace(layer, dotted,
                              lambda fn, name=name: self._counted(name, fn))
        for layer, names in SPANNED.items():
            for dotted in names:
                name = metric_name(layer, dotted)
                if name in OUTCOMES:
                    make = (lambda fn, name=name:
                            self._spanned(name, self._outcome(name, fn)))
                else:
                    make = lambda fn, name=name: self._spanned(name, fn)
                self._replace(layer, dotted, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def merge(self, other: dict) -> None:
        """Add a snapshot() taken in another process."""
        self.calls.update(other["calls"])
        for name, secs in other["self_s"].items():
            self.self_s[name] += secs
        self.hits.update(other["hits"])

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "hits": dict(self.hits)}


def layer_metrics(tracer: Tracer) -> dict:
    """Every traced name as <name>.calls and, when spanned, <name>.self_s."""
    out = {}
    for layer, names in COUNTED.items():
        for dotted in names:
            name = metric_name(layer, dotted)
            out[f"{name}.calls"] = (tracer.calls[name], "count")
    for layer, names in SPANNED.items():
        for dotted in names:
            name = metric_name(layer, dotted)
            out[f"{name}.calls"] = (tracer.calls[name], "count")
            out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name, (ratio, _) in OUTCOMES.items():
        calls = tracer.calls[name]
        out[ratio] = (tracer.hits[name] / calls if calls else 0.0, "ratio")
    return out
