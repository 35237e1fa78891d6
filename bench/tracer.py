"""Outside-in tracer: wraps every public function of the trinogen modules.

Nothing in the package changes.  ``install`` replaces each public function
with a timing wrapper in every ``trinogen`` module namespace that holds it,
which covers aliases made by ``from .exactnum import trial_factor`` and the
like; ``uninstall`` puts the originals back.  Each layer records its calls,
its self time (elapsed minus the time spent in other wrapped functions it
called) and, for the outermost activation, its inclusive time.  A few layers
also record counters that say how much of their work was useful.

Pool workers forked while the tracer is installed start from zeroed records
and write them to a spool directory when they exit; ``merge_spool`` adds
them to the parent's records.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util

MODULES = ("exactnum", "polyring", "ffactor", "newton", "ore", "monogenity", "cli")

# Counters kept beside the per-layer records, keyed "<layer>.<counter>".
_COUNTERS = (
    "ffactor.factor.self_ns.p2", "ffactor.factor.self_ns.p_odd",
    "ffactor.factor.self_ns.ext", "ffactor.factor.self_ns.deg_le4",
    "ffactor.factor.self_ns.deg_5_16", "ffactor.factor.self_ns.deg_gt16",
    "exactnum.trial_factor.returned", "exactnum.trial_factor.exhausted",
    "ore.factor_p.returned", "ore.factor_p.regular",
    "monogenity.irreducibility_certificate.returned",
    "monogenity.irreducibility_certificate.certified",
    "monogenity.squarefree_status.returned", "monogenity.squarefree_status.unknown",
)


def public_functions() -> dict[str, object]:
    """``{"module.function": function}`` for the public functions of MODULES."""
    out = {}
    for modname in MODULES:
        mod = sys.modules[f"trinogen.{modname}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__
                and getattr(obj, "__name__", None) == name
            ):
                out[f"{modname}.{name}"] = obj
    return out


class Tracer:
    def __init__(self, spool_dir: str | None = None):
        self.originals = public_functions()
        self.records = {name: [0, 0, 0, 0] for name in self.originals}  # calls, self, incl, depth
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.distinct = {"exactnum.trial_factor": set(), "ore.factor_p": set()}
        self.spool_dir = spool_dir
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._hooks = {
            "ffactor.factor": self._on_factor,
            "exactnum.trial_factor": self._on_trial_factor,
            "ore.factor_p": self._on_factor_p,
            "monogenity.irreducibility_certificate": self._on_irreducibility,
            "monogenity.squarefree_status": self._on_squarefree,
        }
        if spool_dir is not None:
            mp_util.register_after_fork(self, Tracer._start_child)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        rec = self.records[name]
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            rec[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                rec[3] -= 1
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - child
                if rec[3] == 0:
                    rec[2] += elapsed
            if hook is not None:
                hook(elapsed - child, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "trinogen" and not modname.startswith("trinogen."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._rebound.append((mod, attr, value))
        missing = [n for n, fn in self.originals.items()
                   if not any(orig is fn for _, _, orig in self._rebound)]
        if missing:  # pragma: no cover - every original lives in its module
            raise RuntimeError(f"tracer could not rebind {missing}")

    def uninstall(self) -> None:
        for mod, attr, value in self._rebound:
            setattr(mod, attr, value)
        self._rebound.clear()

    # -- per-layer counters -------------------------------------------------------

    def _on_factor(self, self_ns: int, args, _result) -> None:
        f = args[0]
        field = f.field
        if field.deg > 1:
            kind = "ext"
        else:
            kind = "p2" if field.p == 2 else "p_odd"
        deg = f.degree
        bucket = "deg_le4" if deg <= 4 else ("deg_5_16" if deg <= 16 else "deg_gt16")
        c = self.counters
        c[f"ffactor.factor.self_ns.{kind}"] += self_ns
        c[f"ffactor.factor.self_ns.{bucket}"] += self_ns

    def _on_trial_factor(self, _self_ns: int, args, result) -> None:
        t, bound = abs(args[0]), args[1]
        self.distinct["exactnum.trial_factor"].add(hash((t, bound)))
        self.counters["exactnum.trial_factor.returned"] += 1
        primes = self.originals["exactnum.primes_below"](bound)
        if primes:
            # Division only stops early once p*p exceeds what is left of t,
            # so the last prime was tried iff its square fits in that rest.
            last = primes[-1]
            rest = t
            for p, e in result[0]:
                if p <= last:
                    rest //= p**e
            if rest >= last * last:
                self.counters["exactnum.trial_factor.exhausted"] += 1

    def _on_factor_p(self, _self_ns: int, args, result) -> None:
        F, p = args[0], args[1]
        self.distinct["ore.factor_p"].add(hash((F.coeffs, p)))
        self.counters["ore.factor_p.returned"] += 1
        self.counters["ore.factor_p.regular"] += result.regular

    def _on_irreducibility(self, _self_ns: int, _args, result) -> None:
        self.counters["monogenity.irreducibility_certificate.returned"] += 1
        self.counters["monogenity.irreducibility_certificate.certified"] += result is not None

    def _on_squarefree(self, _self_ns: int, _args, result) -> None:
        self.counters["monogenity.squarefree_status.returned"] += 1
        self.counters["monogenity.squarefree_status.unknown"] += result.value == "Unknown"

    # -- pool workers ---------------------------------------------------------------

    def _reset(self) -> None:
        self._stack.clear()
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0]
        for key in self.counters:
            self.counters[key] = 0
        for keys in self.distinct.values():
            keys.clear()

    def _start_child(self) -> None:
        # Runs in a forked worker: forget the parent's numbers and the parent's
        # open activations, and write this worker's numbers when it exits.
        self._reset()
        mp_util.Finalize(self, self._dump_child, exitpriority=10)

    def _dump_child(self) -> None:
        state = {
            "records": {k: v[:3] for k, v in self.records.items()},
            "counters": self.counters,
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)

    def merge_spool(self) -> int:
        """Add the numbers of exited workers; returns how many were merged."""
        merged = 0
        for entry in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as fh:
                state = json.load(fh)
            os.remove(path)
            for name, (calls, self_ns, incl_ns) in state["records"].items():
                rec = self.records[name]
                rec[0] += calls
                rec[1] += self_ns
                rec[2] += incl_ns
            for key, value in state["counters"].items():
                self.counters[key] += value
            for key, values in state["distinct"].items():
                self.distinct[key].update(values)
            merged += 1
        return merged

    # -- read-out -------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.records[name][0]

    def self_s(self, name: str) -> float:
        return self.records[name][1] / 1e9

    def incl_s(self, name: str) -> float:
        return self.records[name][2] / 1e9

    def counter_s(self, key: str) -> float:
        return self.counters[key] / 1e9

    def ratio(self, num: str, den: str) -> float:
        d = self.counters[den]
        return self.counters[num] / d if d else 0.0

    def distinct_ratio(self, name: str) -> float:
        n = self.counters[f"{name}.returned"]
        return len(self.distinct[name]) / n if n else 0.0
