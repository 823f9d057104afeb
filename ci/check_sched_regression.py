#!/usr/bin/env python3
"""Guard the scheduler- and schedule-cache-throughput trajectory.

Compares the `sched` section of a freshly generated BENCH_repro.json
against the committed baseline (ci/sched_baseline.json) and fails when:

* `trial_cycles`, `rollbacks` or `placements` — the swing placement
  loop's deterministic work counters, immune to machine speed — differ
  from the baseline at all: the same schedules must come from exactly
  the same placement work, so any change means a placement decision
  moved (checked only when the baseline records them), or
* `circuits` or `latency_steps` — the front-end's deterministic work
  counters over the same population (elementary circuits enumerated,
  §4.3.3 latency-reduction steps applied) — differ from the baseline at
  all: the front-end must do exactly the same work, so any change means
  its output moved (checked only when the baseline records them), or
* `schedules_per_sec` regressed by more than the threshold. This is
  wall-clock, so it inherits the variance of whatever runner executes
  it; treat a failure here as a prompt to re-measure (and, if the
  slowdown is real, to either fix it or update the baseline with a
  justification in the PR).

Also guards the `batch` section (the schedule-cache service):

* `warm_over_cold` — warm-pass over cold-pass throughput, a ratio of
  two wall-clock rates on the same machine, so machine speed cancels —
  must stay at or above the hard floor (5x): a warm cache that is not
  at least 5x a cold run means cache hits are doing scheduling work;
* `warm_schedules_per_sec` must not regress more than the threshold
  against the baseline (wall-clock; same caveat as above); `key_ns`, the
  median time of one schedule-cache key (most of a warm hit), is printed
  next to it, report-only: it is wall-clock too, and the baseline does
  not record it;
* `deterministic` and `warm_hit_rate` must be exactly 1;
* `requests`, `unique_keys` and `profiled_variants` (distinct loop
  variants the cold parallel pass profiled through the cache's
  variant-profile memo) must equal the baseline exactly (checked only
  when the baseline records them): they count the queue and the work
  the memo shares, not time, so a difference means the queue changed or
  the memo shares more or less than it did.

And the `optgap` section (the exact-search yardstick):

* hard floors on the proven-optimal fraction of the pinned policies
  under the swing numerator: IPBC must exceed 0.41 and no-chains must
  exceed 0.44 at quick scale. These are deterministic search-depth
  numbers (node budget fixed at 200k), not wall-clock: falling back to
  the old fractions means the dominance memoization stopped paying;
* the BASE and IBC proven fractions must not drop below the baseline —
  the pinned-policy gains must not come out of the free policies;
* every optgap metric the baseline records (proven fractions, matched /
  better / cutoff counts, cutoff IIs, MaxLive, II ratios, the grid
  cells) must equal it exactly: none is wall-clock, so a difference
  means the exact search or a heuristic numerator decided differently.

And the `trace` section (the vliw-trace observability subsystem): the
fresh record must carry it, with a nonzero event count and nonzero span
counts for the scheduler and simulator stages, and its
`instant_count/swing.attempt` — one instant per swing placement attempt
in the deterministic trace pass, so the swing backend's work counter —
must equal the baseline's exactly (checked only when the baseline
records it): more attempts mean the backend searches IIs it used to
skip, fewer mean its output may have moved. Its presence is what
makes the schedules_per_sec guard meaningful under the
zero-overhead-when-off contract: the `sched` figure is produced by the
same binary that records the trace — tracing compiled in throughout,
enabled only for the trace pass, disabled (`Trace::off()`) for every
timed pass. A missing trace section means the guard measured a binary
without the probes, which is not the configuration that ships.

Usage: check_sched_regression.py BASELINE.json FRESH.json [threshold]
"""

import json
import sys


def figure_metrics(path, figure):
    with open(path) as f:
        doc = json.load(f)
    try:
        return doc["figures"][figure]["metrics"]
    except KeyError:
        return None


WARM_OVER_COLD_FLOOR = 5.0

# Deterministic batch counters that must equal the baseline exactly.
BATCH_EXACT = ("requests", "unique_keys", "profiled_variants")

# Deterministic floors on the quick-scale proven-optimal fraction of the
# pinned policies (swing numerator, 200k-node budget). The pre-bitmask
# scalar MRT plateaued at 0.40625 / 0.4375; the word-parallel search with
# dominance memoization must stay strictly above that plateau.
PROVEN_FRACTION_FLOORS = {
    "proven_fraction/IPBC/swing": 0.41,
    "proven_fraction/no-chains/swing": 0.44,
}
# The free policies must not pay for the pinned-policy gains.
PROVEN_FRACTION_NO_REGRESS = (
    "proven_fraction/BASE/swing",
    "proven_fraction/IBC/swing",
)


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.20
    failed = False

    baseline = figure_metrics(sys.argv[1], "sched")
    fresh = figure_metrics(sys.argv[2], "sched")
    if baseline is None:
        print("baseline has no sched section; nothing to compare, skipping")
        return 0
    if fresh is None:
        print("FAIL: fresh record has no sched section")
        return 1

    for key in ("trial_cycles", "rollbacks", "placements"):
        b_count = baseline.get(key)
        if b_count is None:
            continue
        f_count = fresh.get(key)
        print(f"{key} (deterministic): baseline {b_count:.0f} -> current {f_count}")
        if f_count != b_count:
            print(f"FAIL: placement {key} must equal the baseline")
            failed = True

    for key in ("circuits", "latency_steps"):
        b_count = baseline.get(key)
        if b_count is None:
            continue
        f_count = fresh.get(key)
        print(f"{key} (deterministic): baseline {b_count:.0f} -> current {f_count}")
        if f_count != b_count:
            print(f"FAIL: front-end {key} must equal the baseline")
            failed = True

    b_rate, f_rate = baseline.get("schedules_per_sec"), fresh.get("schedules_per_sec")
    if b_rate and f_rate:
        ratio = f_rate / b_rate
        print(
            f"schedules/sec (wall-clock): baseline {b_rate:.1f} -> "
            f"current {f_rate:.1f} ({ratio:.2f}x, threshold {1 - threshold:.2f}x)"
        )
        if ratio < 1 - threshold:
            print(f"FAIL: scheduling throughput regressed more than {threshold:.0%}")
            failed = True

    failed |= check_batch(
        figure_metrics(sys.argv[1], "batch"),
        figure_metrics(sys.argv[2], "batch"),
        threshold,
    )
    failed |= check_optgap(
        figure_metrics(sys.argv[1], "optgap"),
        figure_metrics(sys.argv[2], "optgap"),
    )
    failed |= check_trace(
        figure_metrics(sys.argv[1], "trace"),
        figure_metrics(sys.argv[2], "trace"),
    )

    if failed:
        return 1
    print("OK")
    return 0


def check_batch(baseline, fresh, threshold):
    if fresh is None:
        if baseline is not None:
            print("FAIL: baseline has a batch section but the fresh record does not")
            return True
        print("no batch section; skipping cache guard")
        return False
    failed = False

    for key in ("deterministic", "warm_hit_rate", "store_roundtrip_ok"):
        if fresh.get(key) != 1:
            print(f"FAIL: batch {key} is {fresh.get(key)!r}, expected 1")
            failed = True

    ratio = fresh.get("warm_over_cold")
    if ratio is not None:
        print(
            f"warm/cold throughput (machine-speed-free): {ratio:.1f}x "
            f"(floor {WARM_OVER_COLD_FLOOR:.0f}x)"
        )
        if ratio < WARM_OVER_COLD_FLOOR:
            print("FAIL: warm cache passes must be at least 5x cold throughput")
            failed = True

    key_ns = fresh.get("key_ns")
    if key_ns is not None:
        print(f"batch key_ns (wall-clock, report-only): {key_ns:.0f} ns per cache key")

    if baseline is not None:
        for key in BATCH_EXACT:
            b_count = baseline.get(key)
            if b_count is None:
                continue
            f_count = fresh.get(key)
            print(f"batch {key} (deterministic): baseline {b_count:.0f} -> current {f_count}")
            if f_count != b_count:
                print(f"FAIL: batch {key} must equal the baseline")
                failed = True

        b_rate, f_rate = baseline.get("warm_schedules_per_sec"), fresh.get(
            "warm_schedules_per_sec"
        )
        if b_rate and f_rate:
            r = f_rate / b_rate
            print(
                f"warm schedules/sec (wall-clock): baseline {b_rate:.1f} -> "
                f"current {f_rate:.1f} ({r:.2f}x, threshold {1 - threshold:.2f}x)"
            )
            if r < 1 - threshold:
                print(f"FAIL: warm cache throughput regressed more than {threshold:.0%}")
                failed = True
    return failed


def check_optgap(baseline, fresh):
    if fresh is None:
        if baseline is not None:
            print("FAIL: baseline has an optgap section but the fresh record does not")
            return True
        print("no optgap section; skipping exact-search guard")
        return False
    failed = False

    for key, floor in PROVEN_FRACTION_FLOORS.items():
        got = fresh.get(key)
        if got is None:
            print(f"FAIL: optgap record is missing {key}")
            failed = True
            continue
        print(f"{key}: {got:.4f} (hard floor > {floor})")
        if got <= floor:
            print(f"FAIL: {key} fell to the pre-memoization plateau")
            failed = True

    if baseline is not None:
        for key in PROVEN_FRACTION_NO_REGRESS:
            b, f = baseline.get(key), fresh.get(key)
            if b is None or f is None:
                continue
            print(f"{key}: baseline {b:.4f} -> current {f:.4f} (must not drop)")
            if f < b - 1e-9:
                print(f"FAIL: {key} regressed below the baseline")
                failed = True

        moved = [k for k in sorted(baseline) if fresh.get(k) != baseline[k]]
        print(f"optgap metrics equal to the baseline: {len(baseline) - len(moved)}/{len(baseline)}")
        for key in moved:
            print(f"FAIL: optgap {key} is {fresh.get(key)!r}, baseline {baseline[key]!r}")
            failed = True
    return failed


# Deterministic trace counters that must equal the baseline exactly.
TRACE_EXACT = ("instant_count/swing.attempt",)


def check_trace(baseline, fresh):
    """The throughput guard must measure the shipping configuration:
    tracing compiled in, disabled on every timed path. The trace section
    of the same record proves the probes are present in the binary. Its
    deterministic work counters must also match the baseline."""
    if fresh is None:
        print(
            "FAIL: fresh record has no trace section — the schedules_per_sec "
            "guard must run against the tracing-compiled binary "
            "(regenerate with `repro quick all`)"
        )
        return True
    failed = False

    events = fresh.get("events_total", 0)
    print(f"trace events recorded by the instrumented pass: {events:.0f}")
    if events <= 0:
        print("FAIL: the trace pass recorded no events")
        failed = True

    for key in ("span_count/backend.swing", "span_count/sim.loop"):
        if fresh.get(key, 0) <= 0:
            print(f"FAIL: trace section has no {key} spans")
            failed = True

    for key in TRACE_EXACT:
        b_count = (baseline or {}).get(key)
        if b_count is None:
            continue
        f_count = fresh.get(key)
        print(f"{key} (deterministic): baseline {b_count:.0f} -> current {f_count}")
        if f_count != b_count:
            print(f"FAIL: trace {key} must equal the baseline")
            failed = True

    if not failed:
        print(
            "sched guard measured with tracing compiled in and disabled "
            "(zero-overhead-when-off configuration)"
        )
    return failed


if __name__ == "__main__":
    sys.exit(main())
