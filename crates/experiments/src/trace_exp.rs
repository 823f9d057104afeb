//! The `trace` repro target: one deterministic, fully-instrumented pass
//! of the scheduling service recorded through `vliw-trace`.
//!
//! The run is shaped to light up every instrumented stage while staying
//! byte-reproducible:
//!
//! 1. a **cold drain** of a small batch queue through a fresh
//!    [`SchedCache`] with one worker (serial order ⇒ the logical-clock
//!    event stream is identical across runs) — `cache.miss`/`cache.fill`,
//!    the full `prepare.*` pipeline, `backend.swing`, and the worker's
//!    `batch.queue_depth` samples on track 1;
//! 2. a **warm drain** of the same queue — `cache.hit` instants;
//! 3. one **traced simulation** of a prepared loop — the `sim.loop` span
//!    and `sim.window` stall-attribution instants;
//! 4. one **exact branch-and-bound** preparation on the smallest kernel —
//!    `backend.bnb`, `bnb.solve`, `bnb.memo_depth` and the `bnb.nodes`
//!    counter.
//!
//! Everything is recorded by a [`RecordingSink`], whose clock is logical:
//! two identical runs export byte-identical Chrome trace JSON (pinned,
//! with a golden digest, by `tests/trace_overhead.rs`).

use vliw_sched::SchedBackend;
use vliw_trace::{RecordingSink, Trace};

use crate::batch::{build_requests, drain};
use crate::context::{prepare_loop, simulate_prepared, ExperimentContext, RunConfig, UnrollMode};
use crate::schedcache::SchedCache;

/// The artifact of one instrumented run: the Chrome trace export and the
/// flat metrics snapshot derived from the same event stream.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Requests in the drained queue.
    pub requests: usize,
    /// Events recorded across the whole run.
    pub events: usize,
    /// Chrome trace-event JSON array (one event per line; loadable in
    /// `chrome://tracing` / Perfetto). Byte-identical across runs.
    pub chrome_json: String,
    /// The folded metrics (`span_count/…`, `span_ticks/…`,
    /// `instant_count/…`, `counter_last/…`, `events_total`, `requests`)
    /// in deterministic order — the `trace` section of
    /// `BENCH_repro.json`.
    pub metrics: Vec<(String, f64)>,
}

impl std::fmt::Display for TraceRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace: {} requests drained twice, {} events, {} metrics",
            self.requests,
            self.events,
            self.metrics.len()
        )
    }
}

/// Runs the instrumented pass described in the module docs.
///
/// `target_requests` sizes the batch queue exactly as
/// [`build_requests`] does (the queue is
/// never smaller than one variant of the whole suite).
pub fn run_trace(ctx: &ExperimentContext, target_requests: usize) -> TraceRun {
    let sink = RecordingSink::logical();
    let trace = Trace::new(&sink);
    let (requests, _variants) = build_requests(ctx, target_requests);

    // 1 + 2: cold then warm drain, one worker — deterministic event order
    let cache = SchedCache::new();
    let _cold = drain(&cache, &requests, ctx, 1, trace);
    let _warm = drain(&cache, &requests, ctx, 1, trace);

    // 3: simulate one prepared loop with the trace attached
    let sim_req = &requests[0];
    let machine = ctx.machine_for(&sim_req.cfg);
    if let Ok(prepared) = cache.prepare_traced(&sim_req.kernel, &machine, &sim_req.cfg, ctx, trace)
    {
        let _ = simulate_prepared(&prepared, &machine, &sim_req.cfg, ctx, trace);
    }

    // 4: one exact branch-and-bound preparation on the smallest kernel
    let smallest = requests
        .iter()
        .min_by_key(|r| (r.kernel.ops.len(), r.kernel.name.clone()))
        .expect("queue is never empty");
    let bnb_cfg = RunConfig {
        backend: SchedBackend::ExactBnB,
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    };
    let bnb_machine = ctx.machine_for(&bnb_cfg);
    let _ = prepare_loop(&smallest.kernel, &bnb_machine, &bnb_cfg, ctx, trace);

    let mut reg = sink.metrics();
    reg.set("requests", requests.len() as f64);
    TraceRun {
        requests: requests.len(),
        events: sink.len(),
        chrome_json: sink.chrome_trace_json(),
        metrics: reg.to_vec(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 48;
        ctx.profile.iteration_cap = 48;
        ctx
    }

    #[test]
    fn trace_run_is_deterministic_and_covers_stages() {
        let ctx = tiny_ctx();
        let a = run_trace(&ctx, 1);
        let b = run_trace(&ctx, 1);
        assert_eq!(a.chrome_json, b.chrome_json, "logical-clock export drifted");
        assert_eq!(a.metrics, b.metrics);
        assert!(a.events > 0);
        let get = |name: &str| {
            a.metrics
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0)
        };
        for span in [
            "span_count/prepare.ddg",
            "span_count/prepare.pins",
            "span_count/prepare.latency",
            "span_count/prepare.order",
            "span_count/backend.swing",
            "span_count/backend.bnb",
            "span_count/cache.fill",
            "span_count/prepare_loop",
            "span_count/sim.loop",
        ] {
            assert!(get(span) > 0.0, "{span} never recorded");
        }
        assert!(get("instant_count/cache.miss") > 0.0);
        assert!(get("instant_count/cache.hit") > 0.0, "warm drain must hit");
        assert!(get("instant_count/sim.window") > 0.0);
    }
}
