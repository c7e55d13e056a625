"""Per-layer spans recorded from outside flagrep.

The tracer replaces functions and methods at flagrep's module boundaries
with timing wrappers, without editing the package.  A span's self time is
its duration minus the time of the spans that ran inside it, so the self
times of all layers add up to at most the traced wall time.

Robustness rules, because the wrapped code keeps changing:

* a function is replaced under every name that binds it in any loaded
  ``flagrep`` module (``cli`` imports ``schur`` and ``parse`` by value,
  ``realize`` imports ``weight_multiplicities``);
* modules are found through ``sys.modules``: ``flagrep.schur`` as an
  attribute is the function the package re-exports, not the submodule;
* a generator function's result is consumed inside its span;
* a name that no longer exists is reported as an absent layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


def _len(result, args):
    return len(result)


def _terms_of_self(result, args):
    return len(args[0].terms)


def _certified(result, args):
    return int(type(result).__name__ == "Certificate")


#: (span name, module, attribute, counter, consume) for module-level functions.
FUNCTIONS = (
    ("cartan.build", "flagrep.cartan", "custom_cartan", None, False),
    ("characters.support", "flagrep.characters", "_dominant_support", _len, False),
    ("kernels.freudenthal", "flagrep._kernels", "freudenthal", _len, False),
    ("kernels.orbit_terms", "flagrep._kernels", "orbit_terms", _len, False),
    ("characters.weight_multiplicities", "flagrep.characters", "weight_multiplicities", None, False),
    ("characters.decompose", "flagrep.characters", "decompose", None, False),
    ("characters.dimension", "flagrep.characters", "dimension", None, False),
    ("characters.omega", "flagrep.characters", "omega_n_enumerate", _len, True),
    ("charpoly.render", "flagrep.charpoly", "render", _len, False),
    ("charpoly.parse", "flagrep.charpoly", "parse", None, False),
    ("schur.ssyt", "flagrep.schur", "ssyt_contents", _len, False),
    ("schur.schur", "flagrep.schur", "schur", None, False),
    ("schur.alpha", "flagrep.schur", "alpha", None, False),
    ("schur.render_ypoly", "flagrep.schur", "render_ypoly", None, False),
    ("realize.s_map", "flagrep.realize", "s_map", None, False),
    ("realize.check", "flagrep.realize", "check_realizable", _certified, False),
    ("realize.realize_schur", "flagrep.realize", "realize_schur", None, False),
    ("cli.main", "flagrep.cli", "main", None, False),
)

#: (span name, module, class, method, counter) for methods set on classes.
METHODS = (
    ("charpoly.init", "flagrep.charpoly", "CharPoly", "__init__", _terms_of_self),
    ("schur.ypoly_init", "flagrep.schur", "YPoly", "__init__", None),
    ("realize.cohom_validate", "flagrep.realize", "CohomHom", "__post_init__", None),
)

LAYERS = tuple(spec[0] for spec in FUNCTIONS + METHODS)


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_ns: int = 0
    self_ns: int = 0
    count: int = 0
    parents: Counter = field(default_factory=Counter)


class Tracer:
    """Installs the wrappers, aggregates spans per layer, and restores."""

    def __init__(self, functions=FUNCTIONS, methods=METHODS):
        self.functions = functions
        self.methods = methods
        self.stats = {spec[0]: SpanStats() for spec in functions + methods}
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, attr, count, consume in self.functions:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count, consume)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "flagrep" and not mod_name.startswith("flagrep."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, cls_name, method, count in self.methods:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = vars(cls).get(method) if isinstance(cls, type) else None
            if original is None:
                self.absent.append(name)
                continue
            self._set(cls, method, self._wrap(name, original, count, False))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, count, consume):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    stat.parents[parent[0]] += 1
            if count is not None:
                stat.count += count(result, args)
            return iter(result) if consume else result

        return traced

    def metrics(self) -> dict[str, float]:
        """Flat per-layer numbers of the default layers: self time, calls,
        errors, counters and ratios."""
        s = self.stats
        out: dict[str, float] = {}
        for name, st in s.items():
            out[f"{name}.self_ms"] = st.self_ns / 1e6
            out[f"{name}.calls"] = st.calls
            out[f"{name}.errors"] = st.errors
        for name, unit in COUNTS.items():
            out[f"{name}.{unit}"] = s[name].count
        wm = s["characters.weight_multiplicities"]
        misses = s["characters.support"].parents["characters.weight_multiplicities"]
        out["characters.cache_hit_ratio"] = (wm.calls - misses) / wm.calls if wm.calls else 0.0
        out["characters.decompose.steps"] = wm.parents["characters.decompose"]
        checks = s["realize.check"]
        out["realize.certified_ratio"] = checks.count / checks.calls if checks.calls else 0.0
        return out

    def self_ms_total(self) -> float:
        return sum(st.self_ns for st in self.stats.values()) / 1e6


#: Layers whose counter is reported, and the counter's name.
COUNTS = {
    "characters.support": "weights",
    "kernels.freudenthal": "weights",
    "kernels.orbit_terms": "terms",
    "characters.omega": "certificates",
    "charpoly.init": "terms",
    "charpoly.render": "bytes",
    "schur.ssyt": "tableaux",
}
