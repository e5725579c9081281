"""In-memory tracing of fsz_lab, installed from outside the package.

The tracer replaces names where the program looks them up: class attributes
for methods (aliases such as ``__rmul__`` included) and every module
namespace that binds a directly imported function.  Nothing in ``src/`` is
edited, and :meth:`Tracer.uninstall` restores the original objects.

Two kinds of wrapper share one call stack per thread:

* a *span* records (id, name, start, end, parent span id, thread) and is
  used for coarse calls;
* a *counter* keeps only calls, total time and self time, for scalar
  operations that run millions of times per pass.

Self time is a call's duration minus the duration of the wrapped calls made
directly inside it, so the self times of all names add up to the traced time
without double counting.  Statistics live in per-thread dictionaries that are
merged on read, so worker threads never update shared counters.
"""

from __future__ import annotations

import json
import sys
import threading
import time

perf = time.perf_counter

CALLS, TOTAL, SELF = 0, 1, 2


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "ident")

    def __init__(self):
        self.stack: list[list] = []  # frames: [child_s, span_id, name]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (span_id, name, t0, t1, parent_id, thread)
        self.ident = threading.get_ident()


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.pools: list[tuple[int, int]] = []  # (pool span id, workers) per pool
        self.central_s = 0.0  # sylow time directly under fsz.beta_linear spans
        self.scan_elems = 0

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn, span: bool, on_exit=None):
        """fn with its calls accounted under name.

        on_exit(tracer, dt, parent_frame, args) runs after each call and may
        add derived counts; parent_frame is None at the top of a thread.
        """
        state_of = self._state
        new_id = self._new_id

        def wrapper(*args, **kwargs):
            ts = state_of()
            stack = ts.stack
            parent = stack[-1] if stack else None
            if span:
                frame = [0.0, new_id(), name]
            else:
                frame = [0.0, parent[1] if parent else None, name]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                st = ts.stats.get(name)
                if st is None:
                    st = ts.stats[name] = [0, 0.0, 0.0]
                st[CALLS] += 1
                st[TOTAL] += dt
                st[SELF] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if span:
                    ts.spans.append((frame[1], name, t0, t1,
                                     parent[1] if parent else None, ts.ident))
                if on_exit is not None:
                    on_exit(self, dt, parent, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def adopt(self, parent_frame: list, fn):
        """fn run from a worker thread as if called under parent_frame.

        A worker thread gets its own copy of the frame, so its spans name the
        right parent while no frame is shared between threads.  Called from
        a thread that already has a stack, fn runs unchanged.
        """

        def adopted(*args, **kwargs):
            stack = self._state().stack
            if stack:
                return fn(*args, **kwargs)
            stack.append([0.0, parent_frame[1], parent_frame[2]])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted

    def current_frame(self) -> list:
        return self._state().stack[-1]

    def add(self, attr: str, amount) -> None:
        """Add to a tracer-wide total; worker threads may call this concurrently."""
        with self._lock:
            setattr(self, attr, getattr(self, attr) + amount)

    # -- installation --------------------------------------------------------------

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, modules, fn, wrapper) -> None:
        """Replace fn in every module namespace that binds it, under any name."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch_attr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------------

    def stats(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], merged over threads."""
        merged: dict[str, list] = {}
        for ts in self._states:
            for name, st in ts.stats.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                for k in (CALLS, TOTAL, SELF):
                    m[k] += st[k]
        return merged

    def spans(self) -> list[tuple]:
        return sorted((s for ts in self._states for s in ts.spans), key=lambda s: s[2])

    def write_spans(self, path, header: dict) -> None:
        """A header line, then one JSON line per span, times relative to the first start."""
        spans = self.spans()
        base = spans[0][2] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, name, t0, t1, parent, ident in spans:
                fh.write(json.dumps([sid, name, round(t0 - base, 7),
                                     round(t1 - base, 7), parent, ident]) + "\n")


def _under_beta_linear(tracer, dt, parent, args):
    if parent is not None and parent[2] == "fsz.beta_linear":
        tracer.add("central_s", dt)


def _scan_elems(tracer, dt, parent, args):
    p, n, _j, _d_list, _u, lo, hi = args
    tracer.add("scan_elems", (hi - lo) * p ** (n * (n + 1) // 2))


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every fsz_lab layer the workloads reach."""
    from fsz_lab import centralizer, cyclotomic, fields, fsz, matrices, parallel, residues, sylow

    modules = [m for name, m in list(sys.modules.items())
               if name == "fsz_lab" or name.startswith("fsz_lab.")]

    def methods(cls, name, attrs, span=False, on_exit=None):
        # an alias such as __rmul__ = __mul__ is one function: wrap it once
        done = {}
        for attr in attrs:
            fn = cls.__dict__[attr]
            if fn not in done:
                done[fn] = tracer.wrap(name, fn, span, on_exit)
            tracer.patch_attr(cls, attr, done[fn])

    def function(name, fn, span=True, on_exit=None):
        tracer.patch_function(modules, fn, tracer.wrap(name, fn, span, on_exit))

    # fields: element arithmetic is counted; construction, tables and QR sets are spans
    FE, FS = fields.FieldElem, fields.FieldSpec
    methods(FE, "fields.mul", ["__mul__", "__rmul__"])
    methods(FE, "fields.add", ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__"])
    methods(FE, "fields.inv", ["inv"])
    methods(FE, "fields.trace", ["trace"])
    methods(FS, "fields.trace", ["trace_idx"])  # the table lookup callers use in bulk
    methods(FS, "fields.spec_build", ["__init__"], span=True)
    methods(FS, "fields.tables", ["_build_tables"], span=True)
    methods(FS, "fields.qr_set", ["qr_set"], span=True)

    # matrices: counted, since one pass makes up to hundreds of thousands of products
    methods(matrices.MatFq, "matrices.matmul", ["__matmul__"])
    methods(matrices.MatFq, "matrices.matfq_init", ["__init__"])
    methods(matrices.UniTriMat, "matrices.unitri_inv", ["inv"])
    function("matrices.is_symplectic", matrices.is_symplectic, span=False)

    # sylow: block-group operations made directly by beta_linear are its
    # centrality sampling
    SE = sylow.SylowElem
    methods(SE, "sylow.mul", ["__mul__"], True, _under_beta_linear)
    methods(SE, "sylow.pow", ["pow"], True, _under_beta_linear)
    methods(SE, "sylow.to_matrix", ["to_matrix"], True, _under_beta_linear)
    function("sylow.from_index", sylow.sylow_from_index, on_exit=_under_beta_linear)

    # cyclotomic
    methods(cyclotomic.CycNum, "cyclotomic.mul", ["__mul__", "__rmul__"])
    methods(cyclotomic.CycNum, "cyclotomic.norm_sq", ["norm_sq"], span=True)
    function("cyclotomic.gauss_sum", cyclotomic.gauss_sum)
    function("cyclotomic.gauss_via_prime", cyclotomic.gauss_sum_via_prime)

    # residues
    function("residues.qr_diff", residues.qr_diff_count)
    function("residues.fiber", residues.trace_fiber_qr_count)

    # fsz: the entry points are spans too, so the layers below nest under them
    function("fsz.fsz_test_at", fsz.fsz_test_at)
    function("fsz.gm_count", fsz.gm_count)
    function("fsz.gm_fast", fsz._gm_count_fast)
    function("fsz.beta_linear", fsz.beta_linear)
    function("fsz.pair_count", fsz.witness_pair_count)
    function("fsz.beta_via_counts", fsz.beta_via_counts)
    function("fsz.beta_definitional", fsz.beta_definitional)
    function("fsz.brute_scan", fsz.brute_characterization_scan)
    function("fsz.scan", fsz._scan_worker, on_exit=_scan_elems)

    # parallel: each partition is a span adopted by the pool's span
    run_partitioned = parallel.run_partitioned

    def run_partitioned_traced(worker, start, stop, threads=None):
        pool = tracer.current_frame()
        workers = min(max(1, threads or 1), len(parallel.split_range(start, stop, threads or 1)))
        with tracer._lock:
            tracer.pools.append((pool[1], workers))
        part = tracer.wrap("parallel.partition", worker, span=True)
        return run_partitioned(tracer.adopt(pool, part), start, stop, threads)

    tracer.patch_function(modules, run_partitioned,
                          tracer.wrap("parallel.run_partitioned", run_partitioned_traced, True))

    # centralizer: the three random generators share one name
    for fn in (centralizer.random_centralizer_elem, centralizer.random_symplectic,
               centralizer.random_kernel_element):
        function("centralizer.random_elem", fn)
    function("centralizer.membership", centralizer.is_in_centralizer)
    function("centralizer.pi", centralizer.pi)
    function("centralizer.kernel_check", centralizer.kernel_order_check)
