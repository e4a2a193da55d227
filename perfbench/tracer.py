"""Span tracing of rscodec from outside the program.

The traced run wraps the program's functions at every binding they are
called through: module globals in every loaded `rscodec` module, entries
of module-level dicts (such as the CLI's decoder table), and methods on
classes.  Each wrapped call records a span (name, start, end, parent,
block id) in flat arrays and, for some targets, counts taken from its
arguments and result.  A target that no longer exists, or a count hook
that fails, turns the metrics that need it into missing ones; it never
stops the run.

Block ids: a "root" target (encode of one block, one decoder call) opens
a new block when no other root span is open, and spans opened before the
outermost span closes carry it.  So the CLI's re-interpolation after a
decoder call belongs to that call's block.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "rscodec"

DECODE = "decode_interp.decode"
PGZ = "decode_pgz.pgz_decode"
CMD_DECODE = "cli.cmd_decode"


def _hook_eval(tracer: "Tracer", a: dict, result) -> None:
    field = a["self"]
    count = a["count"] if a["count"] is not None else field.q - 1
    tracer.counts["gf.eval_at_powers.terms"] += count * len(a["coeffs"])
    if tracer.inside(DECODE) or tracer.inside(PGZ):
        tracer.counts["rscode.points_evaluated"] += count


def _hook_interpolate(tracer: "Tracer", a: dict, result) -> None:
    if tracer.inside(CMD_DECODE):
        tracer.counts["cli.interpolate_under_decode"] += 1


def _hook_cells(extra_cols: int) -> Callable:
    def hook(tracer: "Tracer", a: dict, result) -> None:
        mat = a["self"]
        tracer.counts["femat.cells"] += mat.rows * (mat.cols + extra_cols)
    return hook


def _hook_roots(tracer: "Tracer", a: dict, result) -> None:
    tracer.counts["poly.roots_nonzero.candidates"] += a["self"].field.q - 1
    tracer.counts["poly.roots_nonzero.roots"] += len(result)


def _hook_decode(tracer: "Tracer", a: dict, result) -> None:
    code = a["code"]
    tracer.counts["decode_interp.decode_calls"] += 1
    tracer.counts["decode_interp.rank_checks"] += result.trace.rank_checks
    tracer.counts["rscode.syndrome_points_needed"] += code.n - code.k


def _hook_pgz(tracer: "Tracer", a: dict, result) -> None:
    code = a["code"]
    checks = result.trace.det_checks
    tracer.counts["decode_pgz.det_checks"] += checks
    tracer.counts["decode_pgz.scans"] += 1 if checks else 0
    tracer.counts["rscode.syndrome_points_needed"] += code.n - code.k


@dataclass(frozen=True)
class Target:
    """One traced function: `attr` is a dotted path inside `module`."""

    name: str
    module: str
    attr: str
    root: bool = False
    hook: Callable | None = None


TARGETS = (
    Target("gf.eval_at_powers", "rscodec.gf", "Field.eval_at_powers", hook=_hook_eval),
    Target("gf.mul_arr", "rscodec.gf", "Field.mul_arr"),
    Target("rscode.encode", "rscodec.rscode", "RSCode.encode", root=True),
    Target("rscode.syndromes", "rscodec.rscode", "RSCode.syndromes"),
    Target("rscode.word_evaluations", "rscodec.rscode", "RSCode.word_evaluations"),
    Target("rscode.interpolate", "rscodec.rscode", "RSCode.interpolate",
           hook=_hook_interpolate),
    Target("cli.read_stream", "rscodec.cli", "_read_stream"),
    Target("cli.cmd_encode", "rscodec.cli", "cmd_encode"),
    Target(CMD_DECODE, "rscodec.cli", "cmd_decode"),
    Target("femat.rank", "rscodec.femat", "FeMat.rank", hook=_hook_cells(0)),
    Target("femat.det", "rscodec.femat", "FeMat.det", hook=_hook_cells(0)),
    Target("femat.solve", "rscodec.femat", "FeMat.solve", hook=_hook_cells(1)),
    Target("decode_interp.detect_error_count", "rscodec.decode_interp", "detect_error_count"),
    Target("decode_interp.solve_locator", "rscodec.decode_interp", "solve_locator"),
    Target("decode_interp.recover", "rscodec.decode_interp", "_recover"),
    Target("decode_interp.positions", "rscodec.decode_interp", "_error_positions_and_values"),
    Target("decode_interp.verify", "rscodec.decode_interp", "_verified_outcome"),
    Target(DECODE, "rscodec.decode_interp", "decode", root=True, hook=_hook_decode),
    Target(PGZ, "rscodec.decode_pgz", "pgz_decode", root=True, hook=_hook_pgz),
    Target("poly.mul", "rscodec.poly", "Poly.__mul__"),
    Target("poly.divmod", "rscodec.poly", "Poly.__divmod__"),
    Target("poly.roots_nonzero", "rscodec.poly", "Poly.roots_nonzero", hook=_hook_roots),
)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_lo = cur_hi = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Tracer:
    """Spans and counts of one traced run; use as a context manager to
    install the wrappers and remove them again."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_block = array("q")
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._open_roots = 0
        self._block = -1
        self._next_block = 0
        self._patches: list[tuple[object, object, object, bool]] = []

    # ----- spans -------------------------------------------------------------------

    def _open_span(self, name_id: int, root: bool) -> int:
        if root:
            if self._open_roots == 0:
                self._block = self._next_block
                self._next_block += 1
            self._open_roots += 1
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_block.append(self._block)
        self.span_end.append(0)
        self._stack.append(idx)
        self._open[self.names[name_id]] += 1
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close_span(self, idx: int, name_id: int, root: bool) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._open[self.names[name_id]] -= 1
        if root:
            self._open_roots -= 1
        if not self._stack:
            self._block = -1

    def inside(self, name: str) -> bool:
        """True while a span of `name` is open."""
        return self._open[name] > 0

    def blocks_seen(self) -> int:
        return self._next_block

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, summed self time in ns)."""
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for name_id, s in zip(self.span_name, selfs):
            calls[name_id] += 1
            self_ns[name_id] += s
        return {self.names[i]: (calls[i], self_ns[i]) for i in calls}

    # ----- wrapping ----------------------------------------------------------------

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(target.name)
        root = target.root
        hook = target.hook
        signature = inspect.signature(original) if hook else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open_span(name_id, root)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close_span(idx, name_id, root)
            if hook is not None and target.name not in self.missing:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
                except Exception as exc:  # a hook must never break the program
                    self.missing[target.name] = f"count hook failed: {exc!r}"
            return result

        return traced

    def _patch(self, owner, key, value, is_item: bool) -> None:
        if is_item:
            old = owner[key]
            owner[key] = value
        else:
            old = owner.__dict__.get(key, _ABSENT)
            setattr(owner, key, value)
        self._patches.append((owner, key, old, is_item))

    def install(self) -> None:
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                owner = module
                *path, key = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, key)
            except (ImportError, AttributeError) as exc:
                self.missing[target.name] = f"target {target.module}.{target.attr} not found: {exc}"
                continue
            wrapper = self._wrapper(target, original)
            if isinstance(owner, type):
                self._patch(owner, key, wrapper, is_item=False)
                continue
            # A module-level function: rebind it wherever it was imported to.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE
                                       or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper, is_item=False)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, wrapper, is_item=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old, is_item = self._patches.pop()
            if is_item:
                owner[key] = old
            elif old is _ABSENT:
                delattr(owner, key)
            else:
                setattr(owner, key, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


_ABSENT = object()


# ----- per-layer metrics -----------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: `value(calls, self_ms, counts)` gives the total
    over the traced run, which is divided by the block count when
    `per_block`.  `needs` lists the targets it is derived from."""

    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable
    per_block: bool = True


def _ratio(num: float, den: float) -> float:
    # A ratio with nothing attempted reads 0: no useful outcome was seen.
    return num / den if den else 0.0


def _calls(t):
    return LayerMetric(f"{t}.calls", "count", (t,), lambda c, s, n: c[t])


def _self_ms(t):
    return LayerMetric(f"{t}.self_ms", "ms", (t,), lambda c, s, n: s[t])


def _layer_metrics() -> tuple[LayerMetric, ...]:
    m: list[LayerMetric] = []
    for t in ("gf.eval_at_powers", "gf.mul_arr"):
        m += [_calls(t), _self_ms(t)]
    m.append(LayerMetric("gf.eval_at_powers.terms", "count", ("gf.eval_at_powers",),
                         lambda c, s, n: n["gf.eval_at_powers.terms"]))
    m.append(LayerMetric("gf.mul_ops", "count", (), lambda c, s, n: n["gf.mul_ops"]))
    for t in ("rscode.encode", "rscode.syndromes", "rscode.word_evaluations",
              "rscode.interpolate"):
        m += [_calls(t), _self_ms(t)]
    m.append(LayerMetric(
        "rscode.syndrome_share", "ratio", ("gf.eval_at_powers", DECODE, PGZ),
        lambda c, s, n: _ratio(n["rscode.syndrome_points_needed"],
                               n["rscode.points_evaluated"]), per_block=False))
    for t in ("cli.read_stream", "cli.cmd_encode", CMD_DECODE):
        m.append(_self_ms(t))
    m.append(LayerMetric("cli.interpolate_per_block", "count",
                         ("rscode.interpolate", CMD_DECODE),
                         lambda c, s, n: n["cli.interpolate_under_decode"]))
    for t in ("femat.rank", "femat.det", "femat.solve"):
        m += [_calls(t), _self_ms(t)]
    m.append(LayerMetric("femat.cells", "count", ("femat.rank", "femat.det", "femat.solve"),
                         lambda c, s, n: n["femat.cells"]))
    for stage in ("detect_error_count", "solve_locator", "recover", "positions",
                  "verify", "decode"):
        m.append(_self_ms(f"decode_interp.{stage}"))
    m.append(LayerMetric("decode_interp.rank_checks", "count", (DECODE,),
                         lambda c, s, n: n["decode_interp.rank_checks"]))
    m.append(LayerMetric("decode_interp.scan_yield", "ratio", (DECODE,),
                         lambda c, s, n: _ratio(n["decode_interp.decode_calls"],
                                                n["decode_interp.rank_checks"]),
                         per_block=False))
    m.append(_self_ms(PGZ))
    m.append(LayerMetric("decode_pgz.det_checks", "count", (PGZ,),
                         lambda c, s, n: n["decode_pgz.det_checks"]))
    m.append(LayerMetric("decode_pgz.scan_yield", "ratio", (PGZ,),
                         lambda c, s, n: _ratio(n["decode_pgz.scans"],
                                                n["decode_pgz.det_checks"]),
                         per_block=False))
    for t in ("poly.mul", "poly.divmod", "poly.roots_nonzero"):
        m += [_calls(t), _self_ms(t)]
    m.append(LayerMetric("poly.roots_nonzero.hit_ratio", "ratio", ("poly.roots_nonzero",),
                         lambda c, s, n: _ratio(n["poly.roots_nonzero.roots"],
                                                n["poly.roots_nonzero.candidates"]),
                         per_block=False))
    return tuple(m)


LAYER_METRICS = _layer_metrics()


def layer_metrics(tracer: Tracer, blocks: int, mul_ops: int | None) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit"}; a metric whose source
    is gone has value None and a "missing" reason."""
    totals = tracer.totals()
    calls = Counter({name: c for name, (c, _) in totals.items()})
    self_ms = Counter({name: ns / 1e6 for name, (_, ns) in totals.items()})
    counts = Counter(tracer.counts)
    missing = dict(tracer.missing)
    if mul_ops is None:
        missing["gf.mul_ops"] = "rscodec.gf.mul_ops_total not found"
    else:
        counts["gf.mul_ops"] = mul_ops
    out = {}
    for metric in LAYER_METRICS:
        gone = [missing[t] for t in metric.needs + (metric.name,) if t in missing]
        if gone:
            out[metric.name] = {"value": None, "unit": metric.unit, "missing": gone[0]}
            continue
        value = metric.value(calls, self_ms, counts)
        if metric.per_block:
            value /= blocks
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out
