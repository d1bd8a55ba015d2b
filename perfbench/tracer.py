"""Spans around each layer's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
extmcg layers with a wrapper that records a span (name, start, end,
parent, op id) while an op is running, and ``uninstall`` puts the
originals back.  No file of the package changes.  A reference bound
before installation (a dict or tuple holding the function object itself)
bypasses the wrapper; ``find_gaps`` lists those, and ``trace.coverage``
reports the share of op time that did fall inside a span.

Spans are kept in memory, up to ``SPAN_CAP`` records, and written out
when the run ends; the per-name totals below cover every span.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

from extmcg import (ambient_geom, classifier, cli, f2_forms, homotopy_tables, sl2z, smallgrp,
                    verify)

LAYERS = {"f2_forms": f2_forms, "sl2z": sl2z, "smallgrp": smallgrp,
          "ambient_geom": ambient_geom, "homotopy_tables": homotopy_tables,
          "classifier": classifier, "verify": verify, "cli": cli}

# public builders (and quotient): the calls that construct a MulTableGroup
BUILDERS = {f"smallgrp.{n}" for n in ("cyclic", "klein", "dihedral", "quaternion",
                                      "direct_product", "semidirect_product",
                                      "build_E_even", "quotient")}

SPAN_CAP = 200_000


class Frame:
    __slots__ = ("name", "start", "child_ns", "desc", "inner_orders", "sid")

    def __init__(self, name, start, sid):
        self.name, self.start, self.sid = name, start, sid
        self.child_ns = 0
        self.desc: dict[str, int] = {}
        self.inner_orders: set[int] = set()


class Tracer:
    """Spans and per-name totals for one traced run.

    `timeout_type` is the exception the run raises at an op's time limit,
    counted as a deadline miss when it ends an `is_isomorphic` span.
    """

    def __init__(self, timeout_type: type):
        self.timeout_type = timeout_type
        self.active = False
        self.op_id = -1
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_sid = 0
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.top_ns = 0
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every public function of each layer; return the trace gaps."""
        originals = {}
        for layer, mod in LAYERS.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapped)
                originals[fn] = wrapped
        # run_all iterates this tuple, so the checks are traced through it
        self._saved.append((verify, "ALL_CHECKS", verify.ALL_CHECKS))
        verify.ALL_CHECKS = tuple(originals.get(c, c) for c in verify.ALL_CHECKS)
        return find_gaps(originals)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.exit(frame, result, exc)

        return traced

    # -- recording ----------------------------------------------------------

    def enter(self, name) -> Frame:
        frame = Frame(name, time.perf_counter_ns(), self.next_sid)
        self.next_sid += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame, result, exc):
        end = time.perf_counter_ns()
        self.stack.pop()
        name = frame.name
        dur = end - frame.start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame.child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.top_ns += dur
        else:
            parent.child_ns += dur
        for f in self.stack:
            f.desc[name] = f.desc.get(name, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.sid, name, frame.start, end,
                               parent.sid if parent else None, self.op_id))
        else:
            self.dropped += 1
        self.count(frame, parent, result, exc)

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def count(self, frame: Frame, parent, result, exc):
        """Work counts measured at the span boundary, from results, errors and child spans."""
        name = frame.name
        if name == "f2_forms.enumerate_sp" and exc is None:
            self.add("f2_forms.enumerate_sp.elements", len(result))
        elif name in ("f2_forms.stabilizer", "f2_forms.orbit") and exc is None:
            self.add(f"{name}.kept", len(result))
            self.add(f"{name}.scanned", frame.desc.get("f2_forms.transport", 0))
        elif name == "sl2z.decompose" and exc is None:
            self.add("sl2z.decompose.letters",
                     sum(1 if g == "V" else abs(e) for g, e in result.tokens))
        elif name in BUILDERS and exc is None:
            # n^3 associativity triples for the builder that made the table,
            # not for a wrapper whose child builder returned the same order
            if parent is not None and parent.name in BUILDERS:
                parent.inner_orders.add(result.order)
            if result.order not in frame.inner_orders:
                self.add("smallgrp.build.assoc_triples", result.order ** 3)
        elif name == "smallgrp.todd_coxeter" and isinstance(exc, smallgrp.CosetCapacityError):
            self.add("smallgrp.todd_coxeter.cap_hits", 1)
        elif name == "smallgrp.is_isomorphic" and isinstance(exc, self.timeout_type):
            self.add("smallgrp.is_isomorphic.deadline_misses", 1)
        elif name == "classifier.classify":
            self.add("classifier.classify.subgroup_searches",
                     frame.desc.get("smallgrp.all_subgroups", 0))

    def reset_stack(self):
        """Drop frames left open by an op that was stopped at its time limit."""
        self.stack.clear()

    # -- results ------------------------------------------------------------

    def layer_self_s(self, layer) -> float:
        return sum(v for k, v in self.self_ns.items() if k.startswith(layer + ".")) / 1e9

    def per_pass(self, passes: int, op_ns: int) -> dict[str, float]:
        """The per-layer metrics, per traced pass (counts and seconds)."""
        def calls(n):
            return self.calls.get(n, 0) / passes

        def self_s(n):
            return self.self_ns.get(n, 0) / 1e9 / passes

        def cnt(n):
            return self.counts.get(n, 0) / passes

        def ratio(name):
            scanned = self.counts.get(f"{name}.scanned", 0)
            return self.counts.get(f"{name}.kept", 0) / scanned if scanned else 0.0

        m = {
            "f2_forms.self_s": self.layer_self_s("f2_forms") / passes,
            "f2_forms.enumerate_sp.self_s": self_s("f2_forms.enumerate_sp"),
            "f2_forms.enumerate_sp.elements": cnt("f2_forms.enumerate_sp.elements"),
            "f2_forms.transport.calls": calls("f2_forms.transport"),
            "f2_forms.is_symplectic.calls": calls("f2_forms.is_symplectic"),
            "f2_forms.is_symplectic.self_s": self_s("f2_forms.is_symplectic"),
            "f2_forms.stabilizer.useful_ratio": ratio("f2_forms.stabilizer"),
            "f2_forms.orbit.useful_ratio": ratio("f2_forms.orbit"),
            "f2_forms.arf.self_s": self_s("f2_forms.arf"),
            "f2_forms.arf_by_majority.self_s": self_s("f2_forms.arf_by_majority"),
            "sl2z.self_s": self.layer_self_s("sl2z") / passes,
            "sl2z.decompose.calls": calls("sl2z.decompose"),
            "sl2z.decompose.self_s": self_s("sl2z.decompose"),
            "sl2z.decompose.letters": cnt("sl2z.decompose.letters"),
            "sl2z.eval_word.self_s": self_s("sl2z.eval_word"),
            "sl2z.verify_presentation.self_s": self_s("sl2z.verify_presentation"),
            "smallgrp.self_s": self.layer_self_s("smallgrp") / passes,
            "smallgrp.build.calls": sum(calls(n) for n in BUILDERS),
            "smallgrp.build.self_s": sum(self_s(n) for n in BUILDERS),
            "smallgrp.build.assoc_triples": cnt("smallgrp.build.assoc_triples"),
            "smallgrp.todd_coxeter.calls": calls("smallgrp.todd_coxeter"),
            "smallgrp.todd_coxeter.self_s": self_s("smallgrp.todd_coxeter"),
            "smallgrp.todd_coxeter.cap_hits": cnt("smallgrp.todd_coxeter.cap_hits"),
            "smallgrp.is_isomorphic.calls": calls("smallgrp.is_isomorphic"),
            "smallgrp.is_isomorphic.self_s": self_s("smallgrp.is_isomorphic"),
            "smallgrp.is_isomorphic.deadline_misses":
                cnt("smallgrp.is_isomorphic.deadline_misses"),
            "smallgrp.all_subgroups.calls": calls("smallgrp.all_subgroups"),
            "smallgrp.all_subgroups.self_s": self_s("smallgrp.all_subgroups"),
            "smallgrp.has_complement.self_s": self_s("smallgrp.has_complement"),
            "classifier.classify.calls": calls("classifier.classify"),
            "classifier.classify.self_s": self_s("classifier.classify"),
            "classifier.classify.subgroup_searches":
                cnt("classifier.classify.subgroup_searches"),
            "classifier.cross_validate.self_s": self_s("classifier.cross_validate"),
            "ambient_geom.self_s": self.layer_self_s("ambient_geom") / passes,
            "homotopy_tables.self_s": self.layer_self_s("homotopy_tables") / passes,
        }
        for check in verify.ALL_CHECKS:
            name = f"verify.{check.__name__}"
            m[f"{name}.s"] = self.total_ns.get(name, 0) / 1e9 / passes
        m["verify.self_s"] = self.layer_self_s("verify") / passes
        m["cli.main.self_s"] = self.layer_self_s("cli") / passes
        m["trace.coverage"] = self.top_ns / op_ns if op_ns else 0.0
        return m

    def dump(self, path, gaps):
        with open(path, "w") as f:
            f.write("# sid\tname\tstart_ns\tend_ns\tparent\top\n")
            for gap in gaps:
                f.write(f"# gap: {gap}\n")
            if self.dropped:
                f.write(f"# {self.dropped} spans past the cap of {SPAN_CAP} not kept\n")
            for sid, name, start, end, parent, op in self.spans:
                f.write(f"{sid}\t{name}\t{start}\t{end}\t{'' if parent is None else parent}\t{op}\n")


def find_gaps(originals: dict) -> list[str]:
    """References to an original function held where the wrapper cannot reach.

    Scans each layer's globals, the containers they hold and the class
    dictionaries, one level deep: enough for registries like
    ``GroupDescriptor._BUILDERS``.
    """
    gaps = []

    def scan(where, value):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, (tuple, list)) else ())
        for key, item in items:
            if isinstance(item, types.FunctionType) and item in originals:
                gaps.append(f"{where}[{key!r}] -> {item.__module__}.{item.__qualname__}")

    for layer, mod in LAYERS.items():
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType) and value in originals:
                if value.__name__ != attr:
                    gaps.append(f"{layer}.{attr} -> {value.__module__}.{value.__qualname__}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    scan(f"{layer}.{attr}.{cattr}", cvalue)
            elif attr != "ALL_CHECKS":
                scan(f"{layer}.{attr}", value)
    return gaps
