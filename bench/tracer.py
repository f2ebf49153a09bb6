"""Per-module spans and counters for one traced ``valq`` pass.

The tracer wraps public names of the ``valq`` modules from outside the
package.  A module-level function is rebound in every ``valq`` module
that holds it, so ``from .reps import count_all_subreps`` call sites see
the wrapper; a method is rebound on its class; a verification check is
rebound in ``valq.verify.REGISTRY``.  A listed name that no longer
exists is reported as absent and its metrics read 0.

A span records calls and time.  Self time is a span's duration minus the
time of the spans it encloses; total time counts only the outermost of
nested spans of one name.  A counter records calls only, and its time
stays in the self time of the span that encloses it.  Spans are
aggregated in memory per name and written once, when the pass ends.
"""

import functools
import importlib
import sys
import time

CHECKS = (
    "denominators",
    "tropical",
    "sign-coherence",
    "distinct-d",
    "d-basis",
    "g-formula",
    "sink-source-reflection",
    "principal-source",
    "rs310",
    "fz4144",
    "characters",
    "reflection",
)


def _seed_total(rec, result):
    rec.items += len(result.seeds)


def _tower_key(tower, p, degrees, *args, **kwargs):
    return (int(p), tuple(sorted(set(int(d) for d in degrees))))


def _rigid_key(quiver, dims, *args, **kwargs):
    return (quiver.p, quiver.b, tuple(int(v) for v in dims))


# (record name, "module:qualified name", kind, distinct key, result hook);
# kind is "span", "count" (calls only) or "gen" (calls and items yielded)
TARGETS = (
    ("classical.walk", "valq.classical:enumerate_exchange_graph", "span", None, _seed_total),
    ("classical.mutate", "valq.classical:ClassicalSeed.mutate", "span", None, None),
    ("qtorus.walk", "valq.qtorus:enumerate_quantum_seeds", "span", None, None),
    ("qtorus.mutate", "valq.qtorus:QuantumSeed.mutate", "span", None, None),
    ("qtorus.mul", "valq.qtorus:QTorusElem.__mul__", "count", None, None),
    ("qtorus.div_right", "valq.qtorus:QTorusElem.div_right", "span", None, None),
    ("laurent.exact_div", "valq.laurent:exact_div", "span", None, None),
    ("laurent.qcoeff_mul", "valq.laurent:QCoeff.__mul__", "count", None, None),
    ("finfield.tower", "valq.finfield:FieldTower.__init__", "span", _tower_key, None),
    ("finfield.subspace_enum", "valq.finfield:enumerate_subspaces_containing", "gen", None, None),
    ("finfield.rref", "valq.finfield:f_rref", "span", None, None),
    ("reps.rigid", "valq.reps:build_rigid_rep", "span", _rigid_key, None),
    ("reps.rigid_test", "valq.reps:is_rigid", "count", None, None),
    ("reps.hom_dim", "valq.reps:hom_dim", "span", None, None),
    ("reps.count", "valq.reps:count_all_subreps", "span", None, None),
    ("reps.apply_arrow", "valq.reps:ValuedRep.apply_arrow", "count", None, None),
    ("reps.reflect", "valq.reps:reflect", "span", None, None),
    ("characters.generic", "valq.characters:generic_character", "count", None, None),
    ("characters.interpolate", "valq.characters:interpolate_counts", "span", None, None),
    ("characters.assemble", "valq.characters:character_in_seed", "span", None, None),
)


class Record:
    __slots__ = ("calls", "total", "self_time", "items", "keys", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.keys = set()
        self.depth = 0

    def to_dict(self):
        return {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "items": self.items,
            "distinct": len(self.keys),
        }


class Tracer:
    def __init__(self):
        self.stack = []
        self.records = {}
        self.absent = []

    def install(self):
        """Import valq and rebind every listed name to its wrapper."""
        verify = importlib.import_module("valq.verify")
        for check in CHECKS:
            name = "verify." + check
            if check in verify.REGISTRY:
                verify.REGISTRY[check] = self._span(name, verify.REGISTRY[check])
            else:
                self.absent.append(name)
        for name, path, kind, key, after in TARGETS:
            try:
                owner, attr, original = _resolve(path)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if kind == "span":
                wrapper = self._span(name, original, key, after)
            elif kind == "gen":
                wrapper = self._gen(name, original)
            else:
                wrapper = self._count(name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind_everywhere(original, wrapper)

    def report(self):
        return {
            "records": {name: rec.to_dict() for name, rec in self.records.items()},
            "absent": list(self.absent),
        }

    def _record(self, name):
        return self.records.setdefault(name, Record())

    def _span(self, name, fn, key=None, after=None):
        rec = self._record(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            if key is not None:
                rec.keys.add(key(*args, **kwargs))
            inner = [0.0]
            stack.append(inner)
            rec.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec.depth -= 1
                if stack:
                    stack[-1][0] += elapsed
                rec.self_time += elapsed - inner[0]
                if rec.depth == 0:
                    rec.total += elapsed
            if after is not None:
                after(rec, result)
            return result

        return wrapper

    def _count(self, name, fn):
        rec = self._record(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gen(self, name, fn):
        rec = self._record(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls += 1
            for item in fn(*args, **kwargs):
                rec.items += 1
                yield item

        return wrapper


def _resolve(path):
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind_everywhere(original, wrapper):
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "valq" or module_name.startswith("valq.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records):
    """Per-layer metric values of one traced pass, by metric name;
    absent records read 0."""
    empty = Record().to_dict()

    def get(name, field):
        return records.get(name, empty)[field]

    out = {"verify.%s.s" % c: get("verify." + c, "total") for c in CHECKS}
    out.update({
        "classical.walk.s": get("classical.walk", "total"),
        "classical.seeds": get("classical.walk", "items"),
        "classical.mutate.calls": get("classical.mutate", "calls"),
        "classical.mutate.self_s": get("classical.mutate", "self"),
        "qtorus.walk.s": get("qtorus.walk", "total"),
        "qtorus.mutate.calls": get("qtorus.mutate", "calls"),
        "qtorus.mutate.self_s": get("qtorus.mutate", "self"),
        "qtorus.mul.calls": get("qtorus.mul", "calls"),
        "qtorus.div_right.calls": get("qtorus.div_right", "calls"),
        "qtorus.div_right.self_s": get("qtorus.div_right", "self"),
        "laurent.exact_div.calls": get("laurent.exact_div", "calls"),
        "laurent.exact_div.self_s": get("laurent.exact_div", "self"),
        "laurent.qcoeff_mul.calls": get("laurent.qcoeff_mul", "calls"),
        "finfield.tower.builds": get("finfield.tower", "calls"),
        "finfield.tower.distinct": get("finfield.tower", "distinct"),
        "finfield.tower.self_s": get("finfield.tower", "self"),
        "finfield.tower.useful_ratio": _ratio(
            get("finfield.tower", "distinct"), get("finfield.tower", "calls")
        ),
        "finfield.subspace_enum.calls": get("finfield.subspace_enum", "calls"),
        "finfield.subspaces": get("finfield.subspace_enum", "items"),
        "finfield.rref.calls": get("finfield.rref", "calls"),
        "finfield.rref.self_s": get("finfield.rref", "self"),
        "reps.rigid.builds": get("reps.rigid", "calls"),
        "reps.rigid.tests": get("reps.rigid_test", "calls"),
        "reps.rigid.self_s": get("reps.rigid", "self"),
        "reps.hom_dim.self_s": get("reps.hom_dim", "self"),
        "reps.rigid.useful_ratio": _ratio(
            get("reps.rigid", "distinct"), get("reps.rigid", "calls")
        ),
        "reps.rigid.hit_ratio": _ratio(
            get("reps.rigid", "calls"), get("reps.rigid_test", "calls")
        ),
        "reps.count.calls": get("reps.count", "calls"),
        "reps.count.self_s": get("reps.count", "self"),
        "reps.apply_arrow.calls": get("reps.apply_arrow", "calls"),
        "reps.reflect.calls": get("reps.reflect", "calls"),
        "reps.reflect.self_s": get("reps.reflect", "self"),
        "characters.generic.calls": get("characters.generic", "calls"),
        "characters.interpolate.self_s": get("characters.interpolate", "self"),
        "characters.assemble.calls": get("characters.assemble", "calls"),
        "characters.assemble.self_s": get("characters.assemble", "self"),
    })
    return out
