"""Per-layer tracing of pairform, installed from outside the library.

The layers are pairform's modules.  ``Tracer.install`` replaces the public
functions of each layer with wrappers and restores them on ``uninstall``; no
library file changes.  A function imported by name into another module
(``from .pair import pair_d`` in ``cohomology`` and ``suites``) is a separate
binding, so every loaded ``pairform`` module is scanned and each binding of a
traced function is replaced.  Class aliases such as ``__rmul__ = __mul__``
are separate class attributes and are listed one by one.

Most wrappers record a span: name, start, end, the span that was running when
it started, and the item it belongs to.  Spans stay in memory and are written
out at the end.  A span's self time is its duration minus the time covered
by its child spans.  Q(i) arithmetic runs millions of times per pass, so its
wrappers only count calls and add their time to one total and to the running
span's covered time; ``ScalarExpr`` construction is only counted.  Time spent
outside any library span is the harness's, so the self times of all layers
plus the harness time add up to the traced pass.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

import checkout

checkout.require_pairform()

from pairform import cohomology, dolbeault, exterior, pair, randgen, relative  # noqa: E402
from pairform import suites  # noqa: E402
from pairform.linalg import RationalMatrix  # noqa: E402
from pairform.rationals import GaussianRational  # noqa: E402
from pairform.scalar import ScalarExpr  # noqa: E402

EXTERIOR_FNS = ("ext_d", "interior", "lie", "wedge", "pullback", "hodge_star",
                "codiff", "laplacian")
PAIR_FNS = ("pair_d", "pair_lie", "pair_interior", "pair_codiff", "pair_laplacian",
            "pair_laplacian_corrected", "pair_d_lichnerowicz")
RELATIVE_FNS = ("rel_d", "rel_d_lichnerowicz")
LINALG_FNS = ("rank", "kernel_basis", "matmul")
BUILDERS = ("pair_complex", "pair_eta_complex", "relative_complex", "primed_eta_complex",
            "dolbeault_complex", "harmonic_kernel", "corrected_laplacian_kernel_dim",
            "lichnerowicz_kernel_dim")
RANDGEN_FNS = tuple(sorted(name for name in vars(randgen)
                           if name.startswith("random_")
                           and getattr(vars(randgen)[name], "__module__", None)
                           == randgen.__name__))

# metric prefix -> the (owner, attribute) bindings that make up the traced function
SPANS = {
    "scalar.mul": [(ScalarExpr, "__mul__"), (ScalarExpr, "__rmul__")],
    "scalar.partial": [(ScalarExpr, "partial")],
    "scalar.compose": [(ScalarExpr, "compose")],
    **{f"exterior.{f}": [(exterior, f)] for f in EXTERIOR_FNS},
    **{f"pair.{f}": [(pair, f)] for f in PAIR_FNS},
    **{f"relative.{f}": [(relative, f)] for f in RELATIVE_FNS},
    "dolbeault.dbar_pair": [(dolbeault, "dbar_pair")],
    **{f"linalg.{f}": [(RationalMatrix, f)] for f in LINALG_FNS},
    **{f"cohomology.{f}": [(cohomology, f)] for f in BUILDERS},
    "suites.identity_suite": [(suites, "identity_suite")],
    **{f"randgen.{f}": [(randgen, f)] for f in RANDGEN_FNS},
}
AGGREGATES = {
    "rationals.mul": [(GaussianRational, "__mul__"), (GaussianRational, "__rmul__")],
    "rationals.add": [(GaussianRational, a)
                      for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
    "rationals.div": [(GaussianRational, "__truediv__"), (GaussianRational, "__rtruediv__")],
}
COUNTED = {"scalar.new": [(ScalarExpr, "__post_init__")]}

# layers whose spans directly under a builder are the symbolic apply stage
APPLY_LAYERS = ("exterior", "pair", "relative", "dolbeault")
STAGES = {"linalg.matmul": "ddzero_s", "linalg.rank": "rank_s",
          "linalg.kernel_basis": "kernel_s"}


def _metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [("rationals.mul.calls", "count"), ("rationals.add.calls", "count"),
           ("rationals.div.calls", "count"), ("rationals.self_s", "s"),
           ("scalar.new.calls", "count"), ("scalar.mul.terms_per_call", "terms/call")]
    for fn in ("mul", "partial", "compose"):
        out += [(f"scalar.{fn}.calls", "count"), (f"scalar.{fn}.self_s", "s")]
    for layer, fns in (("exterior", EXTERIOR_FNS), ("pair", PAIR_FNS),
                       ("relative", RELATIVE_FNS), ("dolbeault", ("dbar_pair",)),
                       ("linalg", LINALG_FNS)):
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    out += [("linalg.nnz", "count"), ("linalg.rank.sum", "count"),
            ("linalg.entry_bits.max", "bits")]
    out += [(f"cohomology.{s}", "s")
            for s in ("apply_s", "ddzero_s", "rank_s", "kernel_s", "self_s")]
    out += [("cohomology.basis_cols", "count"), ("randgen.calls", "count"),
            ("randgen.self_s", "s"), ("suites.self_s", "s"), ("harness.self_s", "s"),
            ("trace.pass_s", "s"), ("trace.overhead_s", "s")]
    higher = {"linalg.rank.sum", "cohomology.basis_cols"}
    return [(n, u, "higher" if n in higher else "lower") for n, u in out]


METRICS = _metric_names()
COUNT_METRICS = [n for n, u, _ in METRICS if u != "s"]


def _entry_bits(value: GaussianRational) -> int:
    return max(value.re.numerator.bit_length(), value.re.denominator.bit_length(),
               value.im.numerator.bit_length(), value.im.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []            # (id, parent id, item, name, start, end, aggregate time)
        self.stack = [[0, 0.0]]    # running spans: [id, aggregate time directly under it]
        self.item = -1
        self.calls = defaultdict(int)
        self.aggregate_s = defaultdict(float)
        self.term_products = 0
        self.rank_sum = 0
        self.matrices = []         # every matrix handed to rank or kernel_basis
        self._ids = itertools.count(1)
        self._in_aggregate = [False]
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        calls, stack, spans, ids = self.calls, self.stack, self.spans, self._ids
        clock = time.perf_counter
        tracer = self
        after = {"scalar.mul": self._after_mul, "linalg.rank": self._after_rank,
                 "linalg.kernel_basis": self._after_kernel}.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((frame[0], parent, tracer.item, name, start, end, frame[1]))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _aggregate(self, name, fn):
        calls, aggregate_s, stack = self.calls, self.aggregate_s, self.stack
        busy = self._in_aggregate
        clock = time.perf_counter

        def wrapper(a, b):
            calls[name] += 1
            if busy[0]:
                return fn(a, b)
            busy[0] = True
            start = clock()
            try:
                return fn(a, b)
            finally:
                elapsed = clock() - start
                busy[0] = False
                aggregate_s[name] += elapsed
                stack[-1][1] += elapsed
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_mul(self, args, result):
        if result is not NotImplemented:
            left, right = args
            self.term_products += len(left.terms) * (
                len(right.terms) if isinstance(right, ScalarExpr) else 1)

    def _after_rank(self, args, result):
        self.matrices.append(args[0])
        self.rank_sum += result

    def _after_kernel(self, args, result):
        self.matrices.append(args[0])

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pairform" or name.startswith("pairform.")]
        for table, make in ((SPANS, self._span), (AGGREGATES, self._aggregate),
                            (COUNTED, self._counted)):
            for name, targets in table.items():
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    wrapped = make(name, original)
                    self._patch(owner, attr, wrapped)
                    if isinstance(owner, type):
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original and module is not owner:
                                self._patch(module, key, wrapped)
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, pass_s: float, overhead_s: float, basis_cols: int) -> dict:
        """Per-layer metrics of the traced pass, as {name: value}."""
        covered = defaultdict(float)
        names = {0: "harness"}
        for sid, parent, _item, name, start, end, _agg in self.spans:
            covered[parent] += end - start
            names[sid] = name
        self_s = defaultdict(float)
        stage_s = defaultdict(float)
        for sid, parent, _item, name, start, end, agg in self.spans:
            self_s[name] += (end - start) - covered[sid] - agg
            if names[parent].startswith("cohomology."):
                if name in STAGES:
                    stage_s[STAGES[name]] += end - start
                elif name.split(".")[0] in APPLY_LAYERS:
                    stage_s["apply_s"] += end - start
        out = {
            "rationals.mul.calls": self.calls["rationals.mul"],
            "rationals.add.calls": self.calls["rationals.add"],
            "rationals.div.calls": self.calls["rationals.div"],
            "rationals.self_s": sum(self.aggregate_s.values()),
            "scalar.new.calls": self.calls["scalar.new"],
            "scalar.mul.terms_per_call":
                self.term_products / self.calls["scalar.mul"] if self.calls["scalar.mul"]
                else 0,
        }
        for name in SPANS:
            layer = name.split(".")[0]
            if layer in ("cohomology", "suites", "randgen"):
                out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s[name]
                if layer == "randgen":
                    out["randgen.calls"] = out.get("randgen.calls", 0) + self.calls[name]
            else:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self_s[name]
        out["linalg.nnz"] = sum(len(m.entries) for m in self.matrices)
        out["linalg.rank.sum"] = self.rank_sum
        out["linalg.entry_bits.max"] = max(
            (_entry_bits(v) for m in self.matrices for v in m.entries.values()), default=0)
        for stage in ("apply_s", "ddzero_s", "rank_s", "kernel_s"):
            out[f"cohomology.{stage}"] = stage_s[stage]
        out["cohomology.basis_cols"] = basis_cols
        out["harness.self_s"] = pass_s - covered[0] - self.stack[0][1]
        out["trace.pass_s"] = pass_s
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _unit, _better in METRICS}

    def write_spans(self, path):
        """Write every span as a tab-separated line (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\titem\tname\tstart_s\tend_s\taggregate_s\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
