"""Per-layer tracing from outside the package.

Tracer.install() replaces the functions that `steernet.cli` and
`steernet.sweep` call (and the few inner ones the layer table names) with
wrappers that record one span per call: calls, busy time (the span's
duration, summed over threads) and self time (the duration minus the time
covered by child spans on the same thread). Spans are aggregated per thread
as they close, so a long traced run keeps no per-call records.

Cells evaluated through the sweep's pool are traced as `sweep.cell` spans,
on the pool threads or, with one thread, on the calling thread. The pool
call's own self time (waiting on the threads, when there are several) is
reported as `sweep.pool_wait_s` and kept out of the sweep's self time.

Some wrapped names are private (`sweep._pool_map`, `cli._emit_result`,
`optimize._nm`). A name the package no longer has is skipped (install()
returns the skipped names), so a refactor that removes one only zeroes the
metrics built on it and the traced run still completes.
"""

import threading
import time

LAYERS = ("cli", "sweep", "families", "netswap", "qmat", "bloch", "criteria", "optimize")

# (module, attribute, span name); the layer is the span name's first part
_WRAPPED = (
    ("cli", "scan_linear", "sweep.scan_linear"),
    ("cli", "scan_star", "sweep.scan_star"),
    ("cli", "scan_genuine", "sweep.scan_genuine"),
    ("cli", "_emit_result", "sweep.serialize"),
    ("sweep", "gamma1", "families.gamma1"),
    ("sweep", "gamma2", "families.gamma2"),
    ("sweep", "omega", "families.omega"),
    ("sweep", "gamma_f3", "families.gamma_f3"),
    ("sweep", "omega_unsteerable", "families.omega_unsteerable"),
    ("sweep", "bsm_swap", "netswap.bsm_swap"),
    ("sweep", "star_swap", "netswap.star_swap"),
    ("sweep", "decompose", "bloch.decompose"),
    ("sweep", "f3_value", "criteria.f3"),
    ("sweep", "reduced_steering", "criteria.reduced_steering"),
    ("sweep", "canonical_form", "criteria.canonical_form"),
    ("sweep", "bowles_unsteerable", "criteria.bowles"),
    ("criteria", "decompose", "bloch.decompose"),
    ("criteria", "f3_value", "criteria.f3"),
    ("criteria", "reduced_pairs", "netswap.reduced_pairs"),
    ("criteria", "partial_trace", "qmat.partial_trace"),
    ("criteria", "max_unit_sphere", "optimize.max_unit_sphere"),
    ("optimize", "_nm", "optimize.nelder_mead"),
    ("netswap", "partial_trace", "qmat.partial_trace"),
    ("qmat", "validate_density", "qmat.validate"),
    ("sweep", "_pool_map", "sweep.pool"),
)


class _ThreadStats:
    def __init__(self):
        self.stack = []  # child time accumulated by each open span
        self.spans = {}  # name -> [calls, busy_s, self_s]
        self.counts = {}


class Tracer:
    """Wraps package functions in place; uninstall() restores them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._restore = []

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = _ThreadStats()
            self._local.stats = st
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name: str, n=1):
        counts = self._stats().counts
        counts[name] = counts.get(name, 0) + n

    def span(self, name: str, fn, after=None):
        """Return fn wrapped so that each call records a span `name`."""
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self._stats()
            child = [0.0]
            st.stack.append(child)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                rec = st.spans.get(name)
                if rec is None:
                    rec = st.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the functions of the imported `steernet` package; return the
        names that were skipped because the package does not define them."""
        from steernet import cli, criteria, netswap, optimize, qmat, sweep

        mods = {"cli": cli, "criteria": criteria, "netswap": netswap,
                "optimize": optimize, "qmat": qmat, "sweep": sweep}
        after = {
            "netswap.bsm_swap": self._after_swap,
            "netswap.star_swap": self._after_swap,
            "criteria.bowles": self._after_search,
            "sweep.scan_linear": self._after_scan,
            "sweep.scan_star": self._after_scan,
            "sweep.scan_genuine": self._after_scan,
        }
        skipped = []
        for mod, attr, name in _WRAPPED:
            owner = mods[mod]
            fn = owner.__dict__.get(attr)
            if not callable(fn):
                skipped.append(f"{mod}.{attr}")
                continue
            if name == "sweep.pool":
                wrapped = self._pool_map(fn)
            else:
                wrapped = self.span(name, fn, after.get(name))
            self._patch(owner, attr, wrapped)
        dm = qmat.DensityMatrix
        if isinstance(vars(dm).get("normalized"), staticmethod):
            self._patch(dm, "normalized", staticmethod(self.span("qmat.normalized", dm.normalized)))
        else:
            skipped.append("qmat.DensityMatrix.normalized")
        self._default_restarts = optimize.OptConfig().restarts
        return skipped

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _pool_map(self, pool_map):
        pooled = self.span("sweep.pool", pool_map)

        def traced_pool_map(fn, items):
            return pooled(self.span("sweep.cell", fn), items)

        return traced_pool_map

    # counters taken from results at layer boundaries

    def _after_swap(self, args, kwargs, outcomes):
        self.count("netswap.outcomes", len(outcomes))
        self.count("netswap.null_outcomes", sum(1 for o in outcomes if o.degenerate))

    def _after_search(self, args, kwargs, report):
        """Restarts and converged restarts of a numeric search, from the
        report's witness; a report without them (a closed form) adds none."""
        converged = getattr(report, "witness", {}).get("converged_restarts")
        if converged is None:
            return
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        self.count("optimize.restarts", cfg.restarts if cfg is not None else self._default_restarts)
        self.count("optimize.converged", converged)

    def _after_scan(self, args, kwargs, result):
        self.count("sweep.cells", len(result.cells))
        self.count("sweep.gate_pass", sum(1 for c in result.cells if c.inputs_ok))
        self.count("sweep.activated", sum(1 for c in result.cells if any(c.activated)))

    def totals(self):
        """Merged (spans, counts): spans maps name -> [calls, busy_s, self_s]."""
        spans, counts = {}, {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, rec in st.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for k in range(3):
                    acc[k] += rec[k]
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
        return spans, counts


def _ratio(num, den):
    return num / den if den else 0.0


BRIDGE = (
    ("gamma1", ("families.gamma1",)),
    ("bsm_swap", ("netswap.bsm_swap",)),
    ("decompose_f3", ("bloch.decompose", "criteria.f3")),
    ("star_swap", ("netswap.star_swap",)),
    ("reduced_steering", ("criteria.reduced_steering",)),
    ("canonical_form", ("criteria.canonical_form",)),
    ("bowles_unsteerable", ("criteria.bowles",)),
)


def layer_metrics(spans, counts):
    """Per-layer metric values (name -> (value, unit)) from Tracer.totals()."""

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    m = {}
    for name in ("netswap.bsm_swap", "netswap.star_swap", "qmat.validate", "qmat.normalized",
                 "bloch.decompose", "criteria.reduced_steering", "criteria.bowles"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("criteria.f3", "criteria.canonical_form", "optimize.max_unit_sphere"):
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["netswap.null_frac"] = (_ratio(counts.get("netswap.null_outcomes", 0),
                                     counts.get("netswap.outcomes", 0)), "ratio")
    m["optimize.restarts"] = (counts.get("optimize.restarts", 0), "count")
    m["optimize.converged_frac"] = (_ratio(counts.get("optimize.converged", 0),
                                           counts.get("optimize.restarts", 0)), "ratio")
    fam = [n for n in spans if n.startswith("families.")]
    m["families.calls"] = (sum(calls(n) for n in fam), "count")
    m["families.busy_s"] = (sum(busy(n) for n in fam), "s")
    cells = counts.get("sweep.cells", 0)
    m["sweep.cells"] = (cells, "count")
    m["sweep.gate_pass_frac"] = (_ratio(counts.get("sweep.gate_pass", 0), cells), "ratio")
    m["sweep.activated_frac"] = (_ratio(counts.get("sweep.activated", 0), cells), "ratio")
    scan = [n for n in spans if n.startswith("sweep.scan_")] + ["sweep.cell"]
    m["sweep.scan.self_s"] = (sum(self_s(n) for n in scan), "s")
    m["sweep.pool_wait_s"] = (self_s("sweep.pool"), "s")
    m["sweep.serialize_s"] = (busy("sweep.serialize"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    for layer in LAYERS[2:]:
        m[f"{layer}.self_s"] = (sum(r[2] for n, r in spans.items()
                                    if n.split(".")[0] == layer), "s")
    for label, names in BRIDGE:
        m[f"bridge.{label}.mean_ms"] = (
            1e3 * sum(_ratio(busy(n), calls(n)) for n in names), "ms")
    return m
