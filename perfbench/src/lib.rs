//! End-to-end and per-layer benchmark of the elastic scheduler.
//!
//! Four workloads, each measured from outside through the layers'
//! public functions:
//!
//! * `des-elastic` — a heavy-traffic trace through the single-cluster
//!   DES with the paper's elastic policy ([`replay`]).
//! * `fed-easy` — the same generator over an 8-shard federation with
//!   EASY backfilling on every shard ([`replay`]).
//! * `serve-open` — an open loop of users against ingest → store/watch
//!   → operator → executor → event bus on a real clock ([`serve`]).
//! * `rescale-jacobi` — a charm-rt Jacobi2D solve that shrinks and
//!   expands incrementally ([`jacobi`]).
//!
//! Untraced runs report the end-to-end metrics ([`END_TO_END`]);
//! traced runs wrap the layers in the decorators of [`layers`], record
//! spans ([`trace`]) and report the per-layer metrics ([`PER_LAYER`]).

pub mod jacobi;
pub mod layers;
pub mod replay;
pub mod serve;
pub mod trace;
pub mod util;

use util::Outcome;

/// The seed used when `--seed` is absent; replay fingerprints are
/// recorded for it in `fingerprints.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Workload names.
pub const WORKLOADS: [&str; 4] = ["des-elastic", "fed-easy", "serve-open", "rescale-jacobi"];

/// End-to-end metrics every untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("jobs_per_s", "1/s"),
    ("utilization", "share"),
    ("weighted_response_s", "s"),
    ("start_p50_ms", "ms"),
    ("start_p99_ms", "ms"),
    ("storm_jobs_per_s", "1/s"),
    ("solve_s", "s"),
    ("rescale_p50_ms", "ms"),
];

/// Per-layer metrics every traced run prints (zero for a layer the
/// workload does not run), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("policy.dispatches", "count"),
    ("policy.decisions", "count"),
    ("policy.actions", "count"),
    ("policy.self_s", "s"),
    ("policy.self_ns_per_decision", "ns"),
    ("policy.self_share", "share"),
    ("engine.admits", "count"),
    ("engine.retires", "count"),
    ("engine.admit_s", "s"),
    ("engine.retire_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.residual_s", "s"),
    ("queue.peak_live", "count"),
    ("queue.peak_raw", "count"),
    ("workload.gen_s", "s"),
    ("federation.place_s", "s"),
    ("federation.drain_s", "s"),
    ("federation.turns", "count"),
    ("federation.shard_event_imbalance", "ratio"),
    ("ingest.submit_s", "s"),
    ("ingest.pump_s", "s"),
    ("ingest.batches", "count"),
    ("ingest.jobs_per_batch", "count"),
    ("ingest.shed", "count"),
    ("ingest.rejected", "count"),
    ("ingest.enqueue_to_create_p99_ms", "ms"),
    ("bus.pump_s", "s"),
    ("bus.poll_s", "s"),
    ("bus.published", "count"),
    ("bus.lagged", "count"),
    ("operator.ticks", "count"),
    ("operator.tick_self_s", "s"),
    ("operator.tick_p50_ms", "ms"),
    ("operator.tick_p99_ms", "ms"),
    ("operator.busy_share", "share"),
    ("executor.launches", "count"),
    ("executor.polls", "count"),
    ("executor.rescale_requests", "count"),
    ("executor.self_s", "s"),
    ("stage.ingest_p50_ms", "ms"),
    ("stage.ingest_p99_ms", "ms"),
    ("stage.decide_p50_ms", "ms"),
    ("stage.decide_p99_ms", "ms"),
    ("stage.launch_p50_ms", "ms"),
    ("stage.launch_p99_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("charm.rescales", "count"),
    ("charm.rescale_p99_ms", "ms"),
    ("charm.lb_ms", "ms"),
    ("charm.ckpt_ms", "ms"),
    ("charm.restart_ms", "ms"),
    ("charm.restore_ms", "ms"),
    ("charm.migrated_chares", "count"),
    ("charm.bytes_moved", "B"),
    ("charm.iter_ms", "ms"),
    ("charm.iter_bytes_computed", "B"),
    ("trace.overhead", "ratio"),
    ("unattributed_share", "share"),
];

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced.
    pub trace: bool,
}

/// Runs workload `name` and normalizes its metrics to the lists above:
/// exactly the [`END_TO_END`] set untraced, exactly the [`PER_LAYER`]
/// set traced (layers the workload never calls report zero), in list
/// order with the listed units.
pub fn run_workload(name: &str, p: &Params) -> Option<Outcome> {
    let mut probe = jacobi::Probe::default();
    let mut out = match name {
        "des-elastic" | "fed-easy" => replay::run(name, p, &mut probe),
        "serve-open" => serve::run(p, &mut probe),
        "rescale-jacobi" => jacobi::run(p),
        _ => return None,
    };
    if !p.trace && name != "rescale-jacobi" {
        probe.report(&mut out);
    }
    let wanted: &[(&str, &str)] = if p.trace { PER_LAYER } else { &END_TO_END };
    for (m, _, _) in &out.metrics {
        debug_assert!(wanted.iter().any(|(n, _)| n == m), "unlisted metric {m}");
    }
    let mut missing = Vec::new();
    let metrics = wanted
        .iter()
        .map(|&(n, u)| {
            let value = out.metrics.iter().find(|(m, _, _)| m == n).map(|m| m.1);
            if value.is_none() && !p.trace {
                missing.push(n);
            }
            (n.to_string(), value.unwrap_or(0.0), u)
        })
        .collect();
    for n in missing {
        out.fail(0, format!("workload did not report {n}"));
    }
    out.metrics = metrics;
    Some(out)
}
