//! End-to-end audit of the fault-injection harness: a seeded plan
//! injects panics, store corruption, an interrupted export and budget
//! starvation into the batch workload; every fault must land in exactly
//! one recovery counter, no drain may lose a request, and the whole run
//! must be deterministic under its seed.
//!
//! This file holds a single `#[test]` on purpose: it installs a
//! process-global panic hook (to keep the *injected* panics out of the
//! test log) and must not race another test doing the same.

use vliw_experiments::{run_faults, ExperimentContext, FaultOptions};

#[test]
fn fault_plan_is_contained_counted_and_deterministic() {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.profile.iteration_cap = 48;
    let opts = FaultOptions {
        target_requests: 96,
        ..FaultOptions::quick()
    };

    // silence the planned panics; anything else still prints
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let planned = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("fault plan:"));
        if !planned {
            default_hook(info);
        }
    }));
    let a = run_faults(&ctx, &opts);
    let b = run_faults(&ctx, &opts);
    let _ = std::panic::take_hook();

    assert!(a.deterministic, "drain digests diverged under faults");
    assert_eq!(a.failures, 0, "every injected fault must heal");
    assert_eq!(a.worker_panics, 0, "no panic may reach the worker loop");
    assert_eq!(a.unrecovered_slots, 0, "no failed slot may survive");
    assert!(a.panics_contained > 0, "the panic lane must fire");
    assert_eq!(a.panics_contained, a.injected_panics);
    assert_eq!(a.slots_recovered, a.injected_panics);
    assert!(a.panic_retries > 0, "retries heal the contained panics");
    assert!(a.salvage.recovered > 0, "salvage must serve survivors");
    assert_eq!(a.salvage.dropped_corrupt, a.injected_flips);
    assert_eq!(a.salvage.dropped_truncated, a.injected_truncations);
    assert!(a.version_tamper_rejected);
    assert!(a.atomic_export_ok);
    assert!(a.starved_requests > 0, "the starvation lane must fire");
    assert_eq!(
        a.starved_cutoffs, a.starved_requests,
        "starvation must be counted"
    );
    assert!(a.quality_roundtrip_ok, "cutoff quality survives the store");
    assert!(a.accounted(), "every fault in exactly one counter");

    // the harness itself is deterministic under its seed
    assert_eq!(a.injected_panics, b.injected_panics);
    assert_eq!(a.panics_contained, b.panics_contained);
    assert_eq!(a.salvage, b.salvage);
    assert_eq!(a.starved_cutoffs, b.starved_cutoffs);
    assert_eq!(a.injected_flips, b.injected_flips);

    // report surfaces
    let m = a.metrics();
    for key in [
        "panics_contained",
        "salvaged_records",
        "failures",
        "deterministic",
        "accounted",
    ] {
        assert!(m.iter().any(|(k, _)| k == key), "metric `{key}` missing");
    }
    let rendered = format!("{a}");
    assert!(rendered.contains("every fault accounted"), "{rendered}");
    assert_eq!(a.table().to_csv().lines().count(), 2 + 7);
}
