"""Layer tracing from outside the library.

The tracer wraps public functions and methods at matroidlab's layer
boundaries.  Coarse boundaries (searches, procedures, census drivers, ...)
record one span each: layer, start, end, parent span and op id.  The hot
boundaries (the rank oracle, eliminations, closure, points) are called
millions of times per op, so they only keep aggregated counts and busy
time.  Both kinds sit on one call stack, so every boundary's self time is
its duration minus the time of the boundaries it called.

A function bound elsewhere with `from ... import ...` is patched in every
loaded matroidlab module that holds the same object.  A boundary that no
longer exists (renamed by a later change) is recorded as missing and the
metrics built on it are reported as missing.
"""

import importlib
import sys
import time

perf = time.perf_counter

# (layer, "module" or "module:Class", attribute, keep spans?)
BOUNDARIES = [
    ("field.make", "matroidlab.field", "field_make", True),
    ("geometry.pg_build", "matroidlab.geometry", "pg", True),
    ("geometry.recognizer", "matroidlab.geometry", "is_projective_geometry", True),
    ("certificates.verify", "matroidlab.certificates", "verify_certificate", True),
    ("minors.search", "matroidlab.minors", "max_line_minor", True),
    ("procedures.skew_dense", "matroidlab.procedures", "skew_dense_subset", True),
    ("procedures.round_restriction", "matroidlab.procedures", "round_restriction", True),
    ("harness.catalogs.build", "matroidlab.harness.catalogs", "build_catalog", True),
    ("harness.oracles.spot_check", "matroidlab.harness.oracles",
     "oracle_rank_axioms_sampled", True),
    ("harness.census.driver", "matroidlab.harness.census", "check_kung_bound", True),
    ("harness.census.driver", "matroidlab.harness.census", "density_profile", True),
    ("harness.census.driver", "matroidlab.harness.census", "extremal_census", True),
    ("harness.census.json", "matroidlab.harness.census:CensusReport", "to_json", True),
    ("core.roundness", "matroidlab.core:Matroid", "roundness", True),
    ("core.closure", "matroidlab.core:Matroid", "closure", False),
    ("core.points_generic", "matroidlab.core:Matroid", "_points_impl", False),
    ("core.points_linear", "matroidlab.core:LinearMatroid", "_points_impl", False),
    ("core.linear_init", "matroidlab.core:LinearMatroid", "__init__", False),
    ("core.rank", "matroidlab.core:LinearMatroid", "_rank_impl", False),
    ("core.elim_gf2", "matroidlab.core:LinearMatroid", "_rank_gf2", False),
    ("core.elim_tables", "matroidlab.core:LinearMatroid", "_rank_tables", False),
]

OP_LAYER = "op"


def _search_hook(tracer, args, kwargs, result):
    tracer.counters["minors.nodes"] += getattr(result, "nodes", 0)
    stop_at = kwargs.get("stop_at", args[2] if len(args) > 2 else None)
    if stop_at is not None and getattr(result, "points", 0) >= stop_at:
        tracer.counters["minors.early_exits"] += 1


def _census_hook(tracer, args, kwargs, result):
    tracer.counters["harness.census.members"] += len(getattr(result, "records", ()))


def _init_hook(tracer, args, kwargs, result):
    tracer.op_matroids.append(args[0])


HOOKS = {"minors.search": _search_hook, "harness.census.driver": _census_hook,
         "core.linear_init": _init_hook}


class Tracer:
    """Spans and per-layer aggregates for one benchmark process."""

    def __init__(self):
        self.on = False
        self.layers = {}        # layer -> [calls, busy seconds, self seconds]
        self.counters = {"minors.nodes": 0, "minors.early_exits": 0,
                         "harness.census.members": 0}
        self.memo_peak = 0      # largest memo total of one op
        self.memo_missing = False
        self.op_matroids = []
        self.spans = []         # (op id, span id, parent id, layer, start, end)
        self.stack = []         # frames: [child seconds, span id]
        self.missing = []
        self._restore = []
        self._ids = 0
        self._op = 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every boundary that exists; remember the ones that do not."""
        for layer, where, attr, keep in BOUNDARIES:
            modname, _, clsname = where.partition(":")
            try:
                owner = importlib.import_module(modname)
                if clsname:
                    owner = getattr(owner, clsname)
                    orig = owner.__dict__[attr]
                else:
                    orig = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{layer} ({where}.{attr})")
                continue
            wrapped = self._wrap(layer, orig, keep, HOOKS.get(layer))
            if clsname:
                self._patch(owner, attr, orig, wrapped)
            else:
                for name, mod in list(sys.modules.items()):
                    if name == "matroidlab" or name.startswith("matroidlab."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def has(self, layer) -> bool:
        return not any(m.startswith(layer + " ") for m in self.missing)

    def _wrap(self, layer, fn, keep, hook):
        agg = self.layers.setdefault(layer, [0, 0.0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][1]
            frame = [0.0, 0]
            if keep:
                tracer._ids += 1
                frame[1] = tracer._ids
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if keep:
                    tracer.spans.append((tracer._op, frame[1], parent, layer, t0, t1))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops -------------------------------------------------------------------

    def begin_op(self):
        """Open the root span of one op; every boundary span below it
        carries the op id."""
        self._op += 1
        self._ids += 1
        self.stack = [[0.0, self._ids]]
        self.op_matroids = []
        self._op_start = perf()
        self.on = True

    def end_op(self):
        t1 = perf()
        self.on = False
        frame = self.stack.pop()
        dt = t1 - self._op_start
        agg = self.layers.setdefault(OP_LAYER, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[0]
        self.spans.append((self._op, frame[1], 0, OP_LAYER, self._op_start, t1))
        try:
            total = sum(len(m._cache) for m in self.op_matroids)
        except AttributeError:
            self.memo_missing = True
        else:
            self.memo_peak = max(self.memo_peak, total)
        self.op_matroids = []

    def counts(self) -> dict:
        """Calls per layer and the counters so far; per-pass differences of
        these must repeat exactly on identical passes."""
        out = {layer: v[0] for layer, v in self.layers.items()}
        out.update(self.counters)
        return out
