"""Stdlib span recorder for the traced benchmark run.

A span is one call into a layer: a name, its start and end on
``time.perf_counter``, its own id and the id of the span that was open when
it started.  ``install`` wraps the public functions and methods of
``bogodense`` so that each call records a span; the untraced run never calls
it, so untraced timings carry no wrapper cost.

Layer metrics are derived from the spans afterwards:

* a layer's time is the *self time* of its spans, the duration minus the
  part of the interval that child spans cover, so layer times never count
  the same second twice;
* ``protocol.kernel_s`` is the exception the benchmark defines on purpose:
  the duration of the outermost ``twomode`` spans that run under a protocol
  span, i.e. the kernel-building share of the protocol.
"""

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# Amplitudes (and eigen-overlaps) below these weights count as unused.
SUPPORT_WEIGHT = 1e-16
USEFUL_WEIGHT = 1e-14


@dataclass
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._next_id = 1

    def start(self, name):
        span = Span(
            id=self._next_id,
            parent=self._stack[-1].id if self._stack else 0,
            name=name,
            start=self.clock(),
        )
        self._next_id += 1
        self._stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span):
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _ancestors(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


# Layer metric -> how it is accumulated from the spans of one pass.
TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "gpe.solve_s": ("gpe.solve",),
    "modes.s": ("modes.build_xi1", "modes.coefficients"),
    "bdg.solve_s": ("bdg.solve",),
    "bdg.decompose_s": ("bdg.decompose",),
    "twomode.build_s": ("twomode.build",),
    "twomode.eig_s": ("twomode.eig",),
    "twomode.trace_s": ("twomode.trace",),
    "twomode.evolve_s": ("twomode.evolve",),
    "protocol.cycle_s": ("protocol.cycle",),
}
LAYERS = ("cli", "gpe", "modes", "bdg", "twomode", "protocol")


def tally(spans):
    """Raw per-layer sums for one set of spans (one pass, or one process).

    Ratios are kept as numerator/denominator pairs so that tallies from
    several processes can be added before the ratio is taken.
    """
    t = Counter()
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    name_to_metric = {n: m for m, names in TIME_METRICS.items() for n in names}
    drift = 0.0
    for s in spans:
        metric = name_to_metric.get(s.name)
        if metric:
            t[metric] += own[s.id]
        a = s.attrs
        if s.name == "cli.main":
            t["cli.calls"] += 1
            t["cli.output_bytes"] += a.get("output_bytes", 0)
        elif s.name == "gpe.solve":
            t["gpe.calls"] += 1
            t["gpe.iterations"] += a.get("iterations", 0)
        elif s.name.startswith("modes."):
            t["modes.calls"] += 1
        elif s.name == "bdg.solve":
            t["bdg.calls"] += 1
        elif s.name == "twomode.eig" and a.get("computed"):
            t["twomode.eig_calls"] += 1
            t["twomode.eig_n3"] += a["dim"] ** 3
        elif s.name == "twomode.trace":
            t["twomode.trace_calls"] += 1
            t["twomode.trace_samples"] += a["samples"]
            t["twomode.trace_bytes"] += a["samples"] * a["dim"] ** 2 * 8
            if "useful" in a:
                t["_useful"] += a["useful"]
                t["_useful_of"] += a["dim"]
        elif s.name == "twomode.evolve":
            t["twomode.evolve_calls"] += 1
            if "support" in a:
                t["_support"] += a["support"]
                t["_support_of"] += a["dim"]
        elif s.name == "protocol.cycle":
            t["protocol.cycles"] += 1
            drift = max(drift, a.get("mass_drift", 0.0))
        elif s.name == "protocol.kernel":
            t["protocol.kernels"] += 1
        if s.layer == "twomode":
            under = list(_ancestors(s, by_id))
            if any(p.layer == "protocol" for p in under) and not any(
                p.layer == "twomode" for p in under
            ):
                t["protocol.kernel_s"] += s.duration
        if "error" in a:
            t[f"{s.layer}.errors"] += 1
            t[f"_error:{s.layer}:{a['error']}"] += 1
    t["_mass_drift"] = drift
    return t


def combine(tallies):
    """Add tallies; the mass drift is a maximum, not a sum."""
    out = Counter()
    drift = 0.0
    for t in tallies:
        drift = max(drift, t.get("_mass_drift", 0.0))
        for k, v in t.items():
            if k != "_mass_drift":
                out[k] += v
    out["_mass_drift"] = drift
    return out


def finalize(t):
    """Turn a raw tally into the reported layer metrics (missing ones are 0)."""
    out = {m: float(t.get(m, 0.0)) for m in TIME_METRICS}
    out["protocol.kernel_s"] = float(t.get("protocol.kernel_s", 0.0))
    for name in (
        "cli.calls",
        "cli.output_bytes",
        "gpe.calls",
        "gpe.iterations",
        "modes.calls",
        "bdg.calls",
        "twomode.eig_calls",
        "twomode.eig_n3",
        "twomode.trace_calls",
        "twomode.trace_samples",
        "twomode.trace_bytes",
        "twomode.evolve_calls",
        "protocol.cycles",
        "protocol.kernels",
    ):
        out[name] = int(t.get(name, 0))
    out["twomode.eig_useful_frac"] = _ratio(t, "_useful")
    out["twomode.support_frac"] = _ratio(t, "_support")
    out["protocol.mass_drift"] = float(t.get("_mass_drift", 0.0))
    for layer in LAYERS:
        out[f"{layer}.errors"] = int(t.get(f"{layer}.errors", 0))
    return out


def error_breakdown(t):
    """{layer: {category: count}} from a raw tally."""
    out = {}
    for k, v in t.items():
        if k.startswith("_error:"):
            _, layer, category = k.split(":", 2)
            out.setdefault(layer, {})[category] = int(v)
    return out


def _ratio(t, key):
    den = t.get(key + "_of", 0)
    return float(t.get(key, 0)) / den if den else 0.0


# ---------------------------------------------------------------- wrapping


def _replace_everywhere(original, replacement):
    """Rebind every module-level name in bogodense.* that holds ``original``.

    The package re-exports functions and sibling modules import them by
    name, so patching one module attribute would leave the others calling
    the unwrapped function.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "bogodense" or modname.startswith("bogodense.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap(rec, name, fn, before=None, after=None, skip=None):
    """Span-recording wrapper; ``before``/``after`` add attributes.

    ``after`` runs once the span is closed, so attribute work done there is
    not charged to the layer (it shows up in the tracing overhead instead).
    Calls for which ``skip(args)`` is true record no span; their time stays
    in the caller's self time.
    """
    from bogodense import BogodenseError

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip is not None and skip(args):
            return fn(*args, **kwargs)
        span = rec.start(name)
        if before is not None:
            before(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        except BogodenseError as exc:
            # Count an error once, at the innermost layer it crossed.
            if not getattr(exc, "_bench_counted", False):
                span.attrs["error"] = exc.category
                exc._bench_counted = True
            rec.finish(span)
            raise
        rec.finish(span)
        if after is not None:
            after(span, result, args, kwargs)
        return result

    return wrapper


def install(rec):
    """Wrap the public layer entry points of bogodense.

    Returns the names that could not be found (a later refactor may remove
    some).  To tell a computing call from a cached one the wrappers peek at
    two caches, ``TwoModeHamiltonian._eig`` and ``ProtocolConfig._kernels``;
    without them every call counts as computing.
    """
    import numpy as np

    import bogodense
    import bogodense.cli
    import bogodense.protocol
    import bogodense.twomode

    missing = []

    def gpe_after(span, gm, args, kwargs):
        span.attrs["iterations"] = int(getattr(gm, "iterations", 0))

    def eig_before(span, args, kwargs):
        h = args[0]
        span.attrs["dim"] = h.m_total + 1
        span.attrs["computed"] = getattr(h, "_eig", None) is None

    def trace_after(span, out, args, kwargs):
        h, s0, times = args[:3]
        span.attrs["dim"] = h.m_total + 1
        span.attrs["samples"] = int(np.size(times))
        if eig_original is not None and h.m_total <= 4000:
            # Cached on the Hamiltonian by the call just traced.
            _, v = eig_original(h)
            c = v.T @ s0.amplitudes
            span.attrs["useful"] = int(np.count_nonzero(np.abs(c) ** 2 > USEFUL_WEIGHT))

    def evolve_after(span, state, args, kwargs):
        p = np.abs(state.amplitudes) ** 2
        span.attrs["dim"] = p.size
        span.attrs["support"] = int(np.count_nonzero(p > SUPPORT_WEIGHT))

    def cycle_after(span, dist, args, kwargs):
        span.attrs["mass_drift"] = abs(float(np.sum(dist.probabilities)) - 1.0)

    def kernel_cached(args):
        # run_cycle asks for every kernel in every cycle; only the calls
        # that build one are spans, or the spans would outnumber the work.
        return args[1] in getattr(args[0], "_kernels", ())

    functions = [
        ("gpe.solve", "solve_gpe", gpe_after),
        ("modes.build_xi1", "build_xi1", None),
        ("modes.coefficients", "coefficients", None),
        ("bdg.solve", "solve_bdg", None),
        ("bdg.decompose", "decompose_mode1", None),
        ("twomode.build", "build_h01", None),
        ("twomode.trace", "mean_n1_trace", trace_after),
        ("twomode.evolve", "evolve_exact", evolve_after),
        ("protocol.run", "run_protocol", None),
        ("protocol.cycle", "run_cycle", cycle_after),
    ]
    for span_name, attr, after in functions:
        fn = getattr(bogodense, attr, None)
        if fn is None:
            missing.append(attr)
            continue
        _replace_everywhere(fn, _wrap(rec, span_name, fn, after=after))

    eig_original = getattr(bogodense.twomode.TwoModeHamiltonian, "eigensystem", None)
    methods = [
        (bogodense.twomode.TwoModeHamiltonian, "eigensystem", "twomode.eig", eig_before, None),
        (bogodense.protocol.ProtocolConfig, "kernel", "protocol.kernel", None, kernel_cached),
    ]
    for cls, attr, span_name, before, skip in methods:
        fn = getattr(cls, attr, None)
        if fn is None:
            missing.append(f"{cls.__name__}.{attr}")
            continue
        setattr(cls, attr, _wrap(rec, span_name, fn, before, skip=skip))

    main = getattr(bogodense.cli, "main", None)
    if main is None:
        missing.append("cli.main")
    else:
        bogodense.cli.main = _wrap(rec, "cli.main", main)
    return missing
