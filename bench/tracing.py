"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps the public functions of the seven layers in every
``subsum.*`` namespace that binds them (``from .setlang import member`` makes
a second binding, so each binding is replaced), plus a few methods.  Only
the traced run installs it; ``uninstall`` restores every binding.

Spans live on a stack; a span's self time is its duration minus the time
of the spans it contains.  Three kinds of wrapper:

* heavy: a recorded span (kept in memory, written as JSONL at the end);
* light: timed and attributed like a span but not recorded, for functions
  called per element (``member`` outside setlang, ``first_member``,
  ``Selector.value`` ...), so that memory stays bounded;
* counting: no timing at all, for the innermost loops (``member`` inside
  setlang, matrix ``entry``), whose time stays with the calling span.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("setlang", "ideals", "summability", "sigma", "constructions", "games", "cli")

# Called once per element of a scan: timed but not recorded.
LIGHT = {
    "setlang.member", "setlang.first_member", "setlang.next_member",
    "setlang.is_finite", "setlang.is_cofinite", "setlang.exact_density",
    "setlang.banach_exact", "setlang.nu2", "setlang.render", "setlang.parse_set",
    "setlang.fraction_decimal", "setlang.default_checkpoints",
    "sigma.Selector.value", "sigma.Selector.values", "sigma.Selector.image_contains",
    "sigma.ball_contains", "sigma.shared_stem_bound",
    "games.nu2_tower_move",
}

# Private seams that carry a layer's work across module lines.
PRIVATE_SEAMS = {"summability._bits_transform_values"}

METHODS = {
    "ideals": {"IdealPresentation": ("verdict", "dual_member", "restrict", "talagrand_partition"),
               "RestrictedIdeal": ("verdict",)},
    "sigma": {"Selector": ("value", "values", "image_contains")},
    "constructions": {"OscillationCertificate": ("audit_values",)},
}

ROW_SPANS = ("summability.transform_value", "summability.domain_check")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, layer, start_ns, child_ns, span_id, snapshot]
        self.spans: list[tuple] = []
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.fn_self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.undecided_ns = 0
        self.member_depth = 0
        self.entry_depth = 0
        self.op_id = None
        self._next_id = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _enter(self, name, layer):
        self._next_id += 1
        c = self.counts
        frame = [name, layer, 0, 0, self._next_id, (c["member_top"], c["rows"])]
        self.stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def begin_op(self, op_id):
        """Start the spans of a new op.  A deadline can interrupt the tracer's
        own bookkeeping, so frames left over from the previous op are dropped."""
        self.op_id = op_id
        self.stack.clear()
        self.member_depth = self.entry_depth = 0

    def _leave(self, frame, record):
        end = perf_counter_ns()
        while self.stack and self.stack[-1] is not frame:
            self.stack.pop()  # a frame whose exit a deadline interrupted
        if self.stack:
            self.stack.pop()
        dur = end - frame[2]
        own = dur - frame[3]
        if self.stack:
            self.stack[-1][3] += dur
        self.layer_self_ns[frame[1]] += own
        self.fn_self_ns[frame[0]] += own
        if record:
            parent = self.stack[-1][4] if self.stack else None
            self.spans.append((self.op_id, frame[4], parent, frame[0], frame[1],
                               frame[2], end, own))
        return dur

    def _timed(self, name, layer, fn, record, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, layer)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = tracer._leave(frame, record)
                tracer.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(tracer, frame, args, result if ok else None, dur)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _member_in_setlang(self, fn):
        tracer = self

        def member(s, n):
            if tracer.member_depth:
                return fn(s, n)
            tracer.counts["member_top"] += 1
            tracer.member_depth = 1
            try:
                return fn(s, n)
            finally:
                tracer.member_depth = 0

        member.__wrapped__ = fn
        return member

    def _member_outside(self, fn, counter):
        tracer = self

        def member(s, n):
            if counter:
                tracer.counts[counter] += 1
            tracer.member_depth += 1
            frame = tracer._enter("setlang.member", "setlang")
            try:
                return fn(s, n)
            finally:
                tracer._leave(frame, False)
                tracer.member_depth -= 1

        member.__wrapped__ = fn
        return member

    def _entry(self, fn):
        tracer = self

        def entry(matrix, n, k):
            if tracer.entry_depth:
                return fn(matrix, n, k)
            if tracer.stack and tracer.stack[-1][0] in ROW_SPANS:
                tracer.counts["entries"] += 1
            tracer.entry_depth = 1
            try:
                return fn(matrix, n, k)
            finally:
                tracer.entry_depth = 0

        entry.__wrapped__ = fn
        return entry

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import subsum

        modules = {layer: sys.modules[f"subsum.{layer}"] for layer in LAYERS
                   if f"subsum.{layer}" in sys.modules}
        wrappers: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and name not in PRIVATE_SEAMS and not (
                    layer == "cli" and attr.startswith("_cmd_")
                ):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                wrappers[id(obj)] = (name, layer, obj)
        namespaces = [subsum, *modules.values()]
        for ns in namespaces:
            ns_layer = ns.__name__.rpartition(".")[2]
            for attr, obj in list(vars(ns).items()):
                got = wrappers.get(id(obj))
                if got is None:
                    continue
                name, layer, fn = got
                if name == "setlang.member":
                    new = (self._member_in_setlang(fn) if ns_layer == "setlang"
                           else self._member_outside(
                               fn, "member_from_summability" if ns_layer == "summability"
                               else None))
                else:
                    new = self._timed(name, layer, fn, name not in LIGHT, HOOKS.get(name))
                self._patch(ns, attr, new)
        for layer, classes in METHODS.items():
            mod = modules[layer]
            for cls_name, names in classes.items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    name = f"{layer}.{cls_name}.{attr}"
                    self._patch(cls, attr, self._timed(
                        name, layer, cls.__dict__[attr], name not in LIGHT, HOOKS.get(name)))
        games = modules["games"]
        for cls in vars(games).values():
            if inspect.isclass(cls) and "reply" in cls.__dict__ and cls.__module__ == games.__name__:
                name = f"games.{cls.__name__}.reply"
                self._patch(cls, "reply", self._timed(name, "games", cls.__dict__["reply"], True))
        summ = modules["summability"]
        for cls in vars(summ).values():
            if (inspect.isclass(cls) and issubclass(cls, summ.SummabilityMatrix)
                    and "entry" in cls.__dict__):
                self._patch(cls, "entry", self._entry(cls.__dict__["entry"]))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output

    def dump_jsonl(self, path):
        keys = ("op", "id", "parent", "name", "layer", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def export(self) -> dict:
        return {"layer_self_ns": self.layer_self_ns, "fn_self_ns": self.fn_self_ns,
                "counts": self.counts, "undecided_ns": self.undecided_ns, "spans": self.spans}

    def merge(self, data: dict):
        """Add a trace exported by another process (a traced cli child)."""
        for key in ("layer_self_ns", "fn_self_ns", "counts"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] += value
        self.undecided_ns += data["undecided_ns"]
        self.spans.extend(tuple(span) for span in data["spans"])

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from this trace."""
        c = self.counts
        ms = lambda ns: ns / 1e6  # noqa: E731
        fn = self.fn_self_ns
        cp_calls = c["setlang.count_prefix.calls"]
        verdicts = c["ideals.IdealPresentation.verdict.calls"]
        summ_ms = ms(self.layer_self_ns["summability"])
        out = {f"{layer}.self_ms": ms(self.layer_self_ns[layer]) for layer in LAYERS}
        out.update({
            "setlang.count_prefix.calls": cp_calls,
            "setlang.count_prefix.fallbacks": c["fallbacks"],
            "setlang.fallback_ratio": c["fallbacks"] / cp_calls if cp_calls else 0.0,
            "setlang.scan_n": c["member_top"],
            "setlang.member.calls": c["member_from_summability"],
            "ideals.verdict.calls": verdicts,
            "ideals.undecided": c["undecided"],
            "ideals.decided_ratio": 1 - c["undecided"] / verdicts if verdicts else 0.0,
            "ideals.undecided_ms": ms(self.undecided_ns),
            "summability.transform_prefix.calls": c["summability.transform_prefix.calls"],
            "summability.rows": c["rows"],
            "summability.entries": c["entries"],
            "summability.us_per_entry": summ_ms * 1000 / c["entries"] if c["entries"] else 0.0,
            "summability.regularity.self_ms": ms(fn["summability.regularity_verdict"]),
            "summability.probe_rows": c["probe_rows"],
            "summability.probe_rows_undecided": c["probe_rows_undecided"],
            "sigma.calls": sum(v for k, v in c.items()
                               if k.startswith("sigma.") and k.endswith(".calls")),
            "games.rounds": c["games.play_round.calls"],
            "constructions.escape.self_ms": ms(fn["constructions.escape_rowfinite"]
                                               + fn["constructions.escape_unbounded"]),
            "constructions.escape.block_rows": c["escape_block_rows"],
            "constructions.escape.columns": c["escape_columns"],
            "constructions.ideal_limit.self_ms": ms(fn["constructions.ideal_limit"]),
            "constructions.ideal_limit.values": c["ideal_limit_values"],
            "constructions.adversary.self_ms": ms(fn["constructions.steinhaus_adversary"]),
            "constructions.adversary.bits": c["adversary_bits"],
        })
        return out


# ------------------------------------------------------------ metric hooks
# Each hook runs after its call: (tracer, frame, args, result or None, duration).


def _count_prefix(t, frame, args, result, dur):
    limit = args[1] if len(args) > 1 else 0
    if limit >= 1 and t.counts["member_top"] - frame[5][0] >= limit:
        t.counts["fallbacks"] += 1


def _verdict(t, frame, args, result, dur):
    if result is not None and result.status == "undecided":
        t.counts["undecided"] += 1
        t.undecided_ns += dur


def _row(t, frame, args, result, dur):
    t.counts["rows"] += 1


def _matrix_probe(t, frame, args, result, dur):
    rows = t.counts["rows"] - frame[5][1]
    t.counts["probe_rows"] += rows
    if result is not None and result.status == "undecided":
        t.counts["probe_rows_undecided"] += rows


def _escape(t, frame, args, result, dur):
    if result is not None:
        t.counts["escape_block_rows"] += len(result.block)
        t.counts["escape_columns"] += len(result.selector.stem)


def _ideal_limit(t, frame, args, result, dur):
    t.counts["ideal_limit_values"] += len(args[0])


def _adversary(t, frame, args, result, dur):
    if result is not None:
        t.counts["adversary_bits"] += result.scale


HOOKS = {
    "setlang.count_prefix": _count_prefix,
    "ideals.IdealPresentation.verdict": _verdict,
    "summability.transform_value": _row,
    "summability.domain_check": _row,
    "summability.matrix_ideal_verdict": _matrix_probe,
    "constructions.escape_rowfinite": _escape,
    "constructions.escape_unbounded": _escape,
    "constructions.ideal_limit": _ideal_limit,
    "constructions.steinhaus_adversary": _adversary,
}
