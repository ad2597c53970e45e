"""Self-tests of the benchmark harness at tiny sizes (a few seconds).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks the self-time arithmetic (overlapping children included), the
percentile reporting rule, that the output digests catch a one-ulp
change, the open-loop generator's timing from due times, and that span
collection crosses a real process pool.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, accounting, covered, self_times  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "run": "t", "pid": 0}


def test_self_time_overlap() -> None:
    spans = [span("r", None, 0.0, 10.0, "run"),
             span("a", "r", 1.0, 5.0, "spice.a"),
             span("b", "r", 3.0, 7.0, "spice.b"),   # overlaps a by 2 s
             span("g", "a", 2.0, 3.0, "offset.g"),
             span("c", "r", 9.0, 12.0, "cache.c")]  # runs past the root
    selfs = self_times(spans)
    check(abs(selfs["r"] - 3.0) < 1e-12, f"root self {selfs['r']}")
    check(abs(selfs["a"] - 3.0) < 1e-12, f"a self {selfs['a']}")
    check(abs(selfs["b"] - 4.0) < 1e-12, f"b self {selfs['b']}")
    check(abs(covered([(0, 1), (0.5, 2), (3, 4)], 0, 10) - 3.0) < 1e-12,
          "union of intervals")
    acct = accounting(spans[:4], "r")
    check(abs(acct["self_sum_s"] - acct["overlap_s"] - acct["wall_s"])
          < 1e-12, f"self times do not add up to wall: {acct}")
    check(abs(acct["overlap_s"] - 2.0) < 1e-12, f"overlap {acct}")


def test_percentile_rule() -> None:
    check(stats.reportable_percentile(19) is None, "19 samples: median only")
    check(stats.reportable_percentile(20) == 50.0, "20 samples: p50")
    check(stats.reportable_percentile(99) == 50.0, "99 samples: p50")
    check(stats.reportable_percentile(100) == 90.0, "100 samples: p90")
    check(stats.reportable_percentile(999) == 90.0, "999 samples: p90")
    check(stats.reportable_percentile(1000) == 99.0, "1000 samples: p99")
    check(stats.reportable_percentile(10000) == 99.9, "10k samples: p99.9")
    described = stats.describe([float(i) for i in range(100)])
    check(described["n"] == 100 and described["tail_q"] == 90.0,
          f"describe states n and tail: {described}")
    check(stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5, "median")
    check(abs(stats.quartile_spread([1.0] * 9 + [2.0]) - 0.0) < 1e-12,
          "spread of a constant bulk")


def test_digest_catches_one_ulp() -> None:
    offsets = np.random.default_rng(1).normal(0.0, 0.015, 400)
    base = stats.cell_digest(offsets, 0.09)
    bumped = offsets.copy()
    bumped[123] = np.nextafter(bumped[123], np.inf)
    check(stats.cell_digest(bumped, 0.09) != base, "one-ulp offset missed")
    check(stats.cell_digest(offsets, np.nextafter(0.09, 1.0)) != base,
          "one-ulp spec missed")
    check(stats.cell_digest(offsets.copy(), 0.09) == base, "digest unstable")
    check(stats.delays_match([1.4e-11 + 0.5e-15], [1.4e-11]),
          "sub-fs delay difference must pass")
    check(not stats.delays_match([1.4e-11 + 2e-15], [1.4e-11]),
          "2 fs delay difference must fail")
    check(stats.doc_digest({"a": 0.1}) != stats.doc_digest(
        {"a": float(np.nextafter(0.1, 1.0))}), "fleet one-ulp missed")


def bank_doc() -> dict:
    """A two-scheme, one-checkpoint, one-column ``compare`` document."""
    def checkpoint(spec_mv, read_ps):
        row = {"column": 0, "mu_v": 1e-3, "sigma_v": 1.5e-2,
               "spec_v": spec_mv * 1e-3, "invalid": 0, "delay_s": 1.4e-11}
        bank = {"columns": 1, "worst_spec_mv": spec_mv,
                "median_spec_mv": spec_mv, "bank_spec_mv": spec_mv,
                "worst_delay_ps": 14.0, "develop_ps": read_ps - 60.0,
                "read_ps": read_ps, "required_swing_mv": spec_mv + 20.0,
                "in_spec": True, "yield_loss_ppm": 1e-3}
        return {"time_s": 0.0, "columns": [row], "bank": bank}

    return {"spec": {"rows": 256}, "geometry": {"rows": 256},
            "bitline": {"model": "pi"},
            "schemes": {"nssa": {"checkpoints": [checkpoint(95.0, 300.0)]},
                        "issa": {"checkpoints": [checkpoint(80.0, 280.0)]}},
            "comparison": [{"time_s": 0.0, "nssa_spec_mv": 95.0,
                            "nssa_read_ps": 300.0, "issa_spec_mv": 80.0,
                            "issa_read_ps": 280.0,
                            "issa_spec_reduction_mv": 15.0,
                            "issa_latency_gain_pct": 20.0 / 3.0}],
            "lifetime": {"nssa": {"last_in_spec_s": 0.0},
                         "issa": {"last_in_spec_s": 0.0}}}


def test_bank_fingerprint() -> None:
    base = stats.bank_fingerprint(bank_doc())
    check(stats.bank_matches(stats.bank_fingerprint(bank_doc()), base),
          "bank fingerprint unstable")

    def bumped(edit) -> bool:
        doc = bank_doc()
        edit(doc)
        return stats.bank_matches(stats.bank_fingerprint(doc), base)

    def ulp(holder, key):
        holder[key] = float(np.nextafter(holder[key], np.inf))

    issa = lambda d: d["schemes"]["issa"]["checkpoints"][0]  # noqa: E731
    check(not bumped(lambda d: ulp(issa(d)["columns"][0], "sigma_v")),
          "bank column one-ulp missed")
    check(not bumped(lambda d: ulp(issa(d)["bank"], "bank_spec_mv")),
          "bank summary one-ulp missed")
    check(not bumped(lambda d: ulp(issa(d)["bank"], "yield_loss_ppm")),
          "bank yield-loss one-ulp missed")
    check(not bumped(lambda d: issa(d)["bank"].update(in_spec=False)),
          "bank in-spec verdict missed")
    check(not bumped(lambda d: ulp(d["comparison"][0],
                                   "issa_spec_reduction_mv")),
          "comparison one-ulp missed")
    check(not bumped(lambda d: d["lifetime"]["issa"].update(
        last_in_spec_s=None)), "lifetime change missed")
    # Delay-derived fields: within 1 fs passes, 2 fs does not.
    check(bumped(lambda d: issa(d)["bank"].update(read_ps=280.0005)),
          "sub-fs bank read-time difference must pass")
    check(not bumped(lambda d: issa(d)["bank"].update(read_ps=280.002)),
          "2 fs bank read-time difference must fail")
    check(not bumped(lambda d: issa(d)["columns"][0].update(
        delay_s=1.4e-11 + 2e-15)), "2 fs column delay must fail")
    check(not bumped(lambda d: d["comparison"][0].update(
        issa_latency_gain_pct=20.0 / 3.0 + 1e-3)),
          "3 fs latency-gain difference must fail")


def test_open_loop_timing() -> None:
    now = [100.0]

    def clock():
        return now[0]

    def sleep(seconds):
        now[0] += seconds

    def send(payload):
        now[0] += 1.5 if payload == "stall" else 0.01
        return payload

    schedule = [(0.0, "a"), (0.5, "stall"), (1.0, "b"), (3.0, "c")]
    records = workloads.open_loop(schedule, send, clock=clock, sleep=sleep)
    dues = [r["due"] for r in records]
    check(dues == [100.0, 100.5, 101.0, 103.0], f"due times {dues}")
    late = [round(r["sent"] - r["due"], 6) for r in records]
    # "b" was due at 101.0 but the stalled send returned at 102.0.
    check(late == [0.0, 0.0, 1.0, 0.0], f"generator lateness {late}")
    check(abs(records[2]["answered"] - records[2]["due"] - 1.01) < 1e-9,
          "latency must be charged from the due time")

    class Fake:
        seconds = 20.0
        rng = random.Random(3)

    schedule = workloads.service_schedule(Fake())
    rate = workloads.SERVICE["rate_per_s"]
    gaps = {round(b[0] - a[0], 9) for a, b in zip(schedule, schedule[1:])}
    check(gaps == {round(1.0 / rate, 9)}, f"slots not evenly spaced: {gaps}")
    repeats = [entry for entry in schedule if entry[2]]
    share = len(repeats) / len(schedule)
    check(abs(share - workloads.SERVICE["repeat_share"]) < 0.05,
          f"repeat share {share}")
    for index, (due, request, repeat) in enumerate(schedule):
        if repeat:
            first = next(d for d, r, rep in schedule if r == request
                         and not rep)
            check(due - first >= workloads.SERVICE["repeat_min_age_s"]
                  - 1e-9, "repeat of a request too young to be done")
    fresh = [workloads.request_key(r) for _, r, rep in schedule if not rep]
    check(len(set(fresh)) == len(fresh), "new requests must be distinct")


def _square(x):
    return x * x


def test_worker_spans() -> None:
    import repro.core.parallel as parallel
    with tempfile.TemporaryDirectory() as spool:
        tracer = Tracer("selftest", spool)
        tracer.wrap_worker_entry(parallel, "_run_task", "parallel.task")
        tracer.wrap(sys.modules[__name__], "_square", "work.square")
        try:
            with tracer.span("run"):
                with tracer.span("parallel.run_tasks"):
                    out = parallel.run_tasks(
                        sys.modules[__name__]._square,
                        [(i,) for i in range(6)], workers=2)
        finally:
            tracer.restore()
        tracer.collect()
    check(out == [i * i for i in range(6)], "pool results")
    tasks = [s for s in tracer.spans if s["name"] == "parallel.task"]
    check(len(tasks) == 6, f"worker task spans: {len(tasks)}")
    check(all(s["pid"] != os.getpid() for s in tasks), "spans from workers")
    parents = {s["parent"] for s in tasks}
    pool_span = [s["id"] for s in tracer.spans
                 if s["name"] == "parallel.run_tasks"]
    check(parents == set(pool_span), f"worker parents {parents}")
    root = [s["id"] for s in tracer.spans if s["name"] == "run"][0]
    acct = accounting(tracer.spans, root)
    check(abs(acct["self_sum_s"] - acct["overlap_s"] - acct["wall_s"])
          < 1e-6, f"cross-process accounting {acct}")


TESTS = [test_self_time_overlap, test_percentile_rule,
         test_digest_catches_one_ulp, test_bank_fingerprint,
         test_open_loop_timing,
         test_worker_spans]


def main() -> int:
    failures = 0
    for test in TESTS:
        try:
            test()
        except Exception as exc:  # noqa: BLE001 — report every test
            failures += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
