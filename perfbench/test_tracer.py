"""Tests of the benchmark's tracer.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402


def test_self_time_excludes_wrapped_children():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)), span=False)
    outer = t.wrap("outer", lambda: [inner() for _ in range(5)], span=True)
    outer()
    stats = t.stats()
    assert stats["inner"][tracing.CALLS] == 5
    assert stats["outer"][tracing.CALLS] == 1
    outer_total, outer_self = stats["outer"][tracing.TOTAL], stats["outer"][tracing.SELF]
    assert abs(outer_total - outer_self - stats["inner"][tracing.TOTAL]) < 1e-9
    (span,) = t.spans()
    assert span[1] == "outer" and span[4] is None


def test_counts_are_exact_across_threads():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = tracing.Tracer()
        leaf = t.wrap("leaf", lambda: None, span=False)

        def work():
            for _ in range(2000):
                leaf()
                t.add("scan_elems", 1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert t.stats()["leaf"][tracing.CALLS] == 16000
        assert t.scan_elems == 16000
    finally:
        sys.setswitchinterval(old)


def test_install_and_uninstall_restore_every_name():
    from fsz_lab import fields, fsz, parallel

    originals = (fields.FieldElem.__mul__, fields.FieldElem.__rmul__,
                 fsz.run_partitioned, parallel.run_partitioned, fsz._scan_worker)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert fields.FieldElem.__mul__ is fields.FieldElem.__rmul__
        assert fields.FieldElem.__mul__ is not originals[0]
        assert fsz.run_partitioned is not originals[2]
        spec = fields.field(5, 1)
        assert spec.elem(2) * 3 == 3 * spec.elem(2) == spec.elem(1)
        assert t.stats()["fields.mul"][tracing.CALLS] == 2
    finally:
        t.uninstall()
    assert (fields.FieldElem.__mul__, fields.FieldElem.__rmul__, fsz.run_partitioned,
            parallel.run_partitioned, fsz._scan_worker) == originals


def test_partitions_are_adopted_by_their_pool():
    from fsz_lab import fsz

    t = tracing.Tracer()
    tracing.install(t)
    try:
        out = fsz.run_partitioned(lambda lo, hi: hi - lo, 0, 10, 3)
    finally:
        t.uninstall()
    assert out == [4, 3, 3]
    spans = t.spans()
    (pool,) = [s for s in spans if s[1] == "parallel.run_partitioned"]
    parts = [s for s in spans if s[1] == "parallel.partition"]
    assert len(parts) == 3 and all(s[4] == pool[0] for s in parts)
    assert t.pools == [(pool[0], 3)]
