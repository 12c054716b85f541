//! `des-elastic` and `fed-easy`: trace replays through the DES engine,
//! single-cluster and federated.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use elastic_core::{EasyBackfill, Policy, PolicyConfig, RunMetrics, SchedulingPolicy};
use hpc_federation::{FederationConfig, FederationRuntime, RoundRobin};
use hpc_metrics::Duration;
use hpc_workload::WorkloadSpec;
use sched_sim::experiments::{heavy_traffic_workload, SCALE_CAPACITY};
use sched_sim::{OverheadModel, ScalingModel, SimConfig, SimState};

use crate::jacobi::Probe;
use crate::layers::{PolicyCounters, Site, TimedPolicy};
use crate::trace::{self, Span, Summary, NONE};
use crate::util::{json_str, median, quantile, schedule_fingerprint, Outcome};
use crate::Params;

/// Jobs per replayed trace (one single-cluster replay lasts about a
/// second and a half on a 2-core Xeon).
pub const TRACE_JOBS: usize = 300_000;
/// Federation shape: shards × slots per shard (= [`SCALE_CAPACITY`]).
pub const FED_SHARDS: usize = 8;
/// Slots per federation shard.
pub const FED_SHARD_SLOTS: u32 = 512;

/// The paper's elastic policy (Fig. 2/3, `T_rescale_gap` = 180 s, one
/// launcher slot, head spared from shrinking).
pub fn elastic() -> Box<dyn SchedulingPolicy> {
    Box::new(Policy::elastic(PolicyConfig {
        rescale_gap: Duration::from_secs(180.0),
        launcher_slots: 1,
        shrink_spares_head: true,
    }))
}

/// EASY backfilling (classic, submission-order).
pub fn easy() -> Box<dyn SchedulingPolicy> {
    Box::new(EasyBackfill::new())
}

fn sim_config(capacity: u32, policy: Box<dyn SchedulingPolicy>) -> SimConfig {
    SimConfig {
        capacity,
        policy,
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    }
}

/// Distinct traces replayed per run, at least 3 and at most
/// [`MAX_TRACES`]: 0.7 per second of budget single-cluster, twice that
/// federated (a federated replay takes about a third of the time). A
/// pure function of `--seconds`, so a run's inputs never depend on
/// host speed.
pub fn traces_per_run(seconds: f64, federated: bool) -> usize {
    let per_s = if federated { 1.4 } else { 0.7 };
    ((seconds * per_s).round() as usize).clamp(3, MAX_TRACES)
}

/// Upper bound of [`traces_per_run`] (fingerprints are recorded for
/// this many traces).
pub const MAX_TRACES: usize = 16;

/// The `i`-th heavy-traffic trace of a run seeded with `seed`.
fn build_trace(seed: u64, i: usize) -> WorkloadSpec {
    let _s = trace::enter("workload.gen", NONE);
    heavy_traffic_workload(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64),
        TRACE_JOBS,
    )
}

/// Checks that every job of `wl` completed exactly once in `m`.
fn check_complete(wl: &WorkloadSpec, m: &RunMetrics, out: &mut Outcome) {
    let mut want: Vec<&str> = wl.jobs.iter().map(|j| j.name.as_str()).collect();
    let mut got: Vec<&str> = m.jobs.iter().map(|j| j.name.as_str()).collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        let missing = want.len().saturating_sub(got.len()).max(1) as u64;
        out.fail(
            missing,
            format!(
                "{} of {} jobs completed (missing, duplicated or stray jobs)",
                got.len(),
                want.len()
            ),
        );
    }
}

/// Per-job simulated submit→start latencies, ms.
fn start_latencies_ms(m: &RunMetrics) -> Vec<f64> {
    m.jobs
        .iter()
        .map(|j| (j.started_at - j.submitted_at).as_secs() * 1e3)
        .collect()
}

/// The recorded fingerprint of trace `i` of `workload` at the default
/// seed.
pub fn recorded_fingerprint(workload: &str, i: usize) -> Option<&'static str> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0] == workload && f[1] == i.to_string()).then(|| f[2])
        })
}

/// One replay of one trace.
struct Rep {
    /// Whole replay wall (what `simulate` costs), s.
    wall: f64,
    /// Drain wall (event loop only, every arrival already seeded), s.
    drain: f64,
    metrics: RunMetrics,
    fingerprint: String,
    /// Event-queue high-water marks (live, raw incl. stale entries);
    /// the largest shard's for a federation.
    peaks: (usize, usize),
    /// Policy counters (traced replays).
    counters: Vec<Arc<PolicyCounters>>,
    fed: Option<FedFacts>,
}

struct FedFacts {
    place_s: f64,
    drain_s: f64,
    turns: u64,
    imbalance: f64,
}

/// What the untraced replays of a run add up to.
#[derive(Default)]
struct Tally {
    walls: Vec<f64>,
    rates: Vec<f64>,
    drain_rates: Vec<f64>,
    utilization: Vec<f64>,
    response: Vec<f64>,
    start_p50: Vec<f64>,
    start_p99: Vec<f64>,
    fingerprints: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep) {
        let jobs = rep.metrics.jobs.len() as f64;
        let lat = start_latencies_ms(&rep.metrics);
        self.walls.push(rep.wall);
        self.rates.push(jobs / rep.wall);
        self.drain_rates.push(jobs / rep.drain);
        self.utilization.push(rep.metrics.utilization);
        self.response.push(rep.metrics.weighted_response);
        self.start_p50.push(quantile(&lat, 0.5));
        self.start_p99.push(quantile(&lat, 0.99));
        self.fingerprints.push(rep.fingerprint.clone());
    }
}

/// Runs the replay workload `name` (`des-elastic` or `fed-easy`).
///
/// Untraced: replays [`traces_per_run`] distinct traces once each and
/// reports medians over them (each trace is generated just before its
/// replay; `setup_s` is the median generation time), with one `probe`
/// solve after each replay. Traced: replays
/// the first half of those traces twice each — bare, then through
/// [`TimedPolicy`] — and checks the two `RunMetrics` are identical.
pub fn run(name: &str, p: &Params, probe: &mut Probe) -> Outcome {
    let federated = name == "fed-easy";
    let workers = crate::util::nproc().min(FED_SHARDS);
    let mut out = Outcome::default();
    let k = traces_per_run(p.seconds, federated);
    let traces = if p.trace { k.div_ceil(2) } else { k };
    let mut setup = Vec::new();
    let mut tally = Tally::default();
    let mut traced_walls = Vec::new();
    let mut last: Option<(Rep, Vec<Vec<Span>>)> = None;
    for i in 0..traces {
        let t = Instant::now();
        let wl = build_trace(p.seed, i);
        setup.push(t.elapsed().as_secs_f64());
        let rep = replay(&wl, federated, workers, false);
        check_complete(&wl, &rep.metrics, &mut out);
        out.attempted += wl.len() as u64;
        if p.seed == crate::DEFAULT_SEED {
            match recorded_fingerprint(name, i) {
                Some(want) if want == rep.fingerprint => {}
                want => out.fail(
                    wl.len() as u64,
                    format!(
                        "trace {i}: schedule fingerprint {} != recorded {}",
                        rep.fingerprint,
                        want.unwrap_or("(none)")
                    ),
                ),
            }
        }
        tally.add(&rep);
        if !p.trace {
            // Outside the timed replay; see `Probe`.
            probe.solve(p.seed);
            continue;
        }
        // Drop the previous repetition's spans before recording.
        drop(last.take());
        trace::collect();
        trace::set_enabled(true);
        let traced = replay(&wl, federated, workers, true);
        trace::set_enabled(false);
        let spans = trace::collect();
        if traced.metrics != rep.metrics {
            out.fail(
                wl.len() as u64,
                format!("trace {i}: traced RunMetrics differ"),
            );
        }
        out.attempted += wl.len() as u64;
        traced_walls.push(traced.wall);
        last = Some((traced, spans));
    }
    let fps: Vec<String> = tally.fingerprints.iter().map(|f| json_str(f)).collect();
    out.detail("fingerprints", format!("[{}]", fps.join(", ")));
    if federated {
        out.detail("workers", workers.to_string());
        out.detail("shards", FED_SHARDS.to_string());
    }

    if !p.trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
        out.metric("jobs_per_s", median(&tally.rates), "1/s");
        out.metric("utilization", median(&tally.utilization), "share");
        out.metric("weighted_response_s", median(&tally.response), "s");
        out.metric("start_p50_ms", median(&tally.start_p50), "ms");
        out.metric("start_p99_ms", median(&tally.start_p99), "ms");
        out.metric("storm_jobs_per_s", median(&tally.drain_rates), "1/s");
        out.metric("solve_s", median(&tally.walls), "s");
        return out;
    }

    let (rep, spans) = last.expect("one traced replay");
    let sum = Summary::of(&spans);
    let (mut dispatches, mut decisions, mut actions) = (0, 0, 0);
    for c in &rep.counters {
        let (d, e, a) = c.snapshot();
        dispatches += d;
        decisions += e;
        actions += a;
    }
    let policy_self = sum.self_of_prefix("policy.");
    // Federation workers drain in parallel while the drive thread waits
    // in `join`: shares are of the busy capacity (placement + start +
    // workers × drain), and the wait itself is not attributed work.
    let join_s = sum.get("federation.join").total_s;
    let pool = if federated { workers as f64 } else { 1.0 };
    let capacity_s = rep.wall - join_s + join_s * pool;
    let attributed: f64 = spans
        .iter()
        .flatten()
        .filter(|s| s.parent == NONE && s.name != "federation.join")
        .map(Span::secs)
        .sum();
    let residual = (capacity_s - attributed).max(0.0);
    let admits = spans
        .iter()
        .flatten()
        .filter(|s| s.name == "engine.admit" && s.job != NONE)
        .count();
    let mut m = |n: &str, v: f64, u: &'static str| out.metric(n, v, u);
    m("policy.dispatches", dispatches as f64, "count");
    m("policy.decisions", decisions as f64, "count");
    m("policy.actions", actions as f64, "count");
    m("policy.self_s", policy_self, "s");
    m(
        "policy.self_ns_per_decision",
        policy_self * 1e9 / decisions.max(1) as f64,
        "ns",
    );
    m("policy.self_share", policy_self / capacity_s, "share");
    m("engine.admits", admits as f64, "count");
    m(
        "engine.retires",
        sum.get("engine.apply_retire").count as f64,
        "count",
    );
    m("engine.admit_s", sum.get("engine.admit").total_s, "s");
    m("engine.retire_s", sum.get("engine.retire").total_s, "s");
    m(
        "engine.apply_s",
        sum.get("engine.apply").total_s + sum.get("engine.apply_retire").total_s,
        "s",
    );
    m("engine.residual_s", residual, "s");
    m("queue.peak_live", rep.peaks.0 as f64, "count");
    m("queue.peak_raw", rep.peaks.1 as f64, "count");
    m("workload.gen_s", median(&setup), "s");
    if let Some(f) = &rep.fed {
        m("federation.place_s", f.place_s, "s");
        m("federation.drain_s", f.drain_s, "s");
        m("federation.turns", f.turns as f64, "count");
        m("federation.shard_event_imbalance", f.imbalance, "ratio");
    }
    m(
        "trace.overhead",
        median(&traced_walls) / median(&tally.walls),
        "ratio",
    );
    m("unattributed_share", residual / capacity_s, "share");
    out
}

/// One replay of `wl`: single-cluster elastic, or federated EASY over
/// `workers` threads; `traced` wraps every policy in [`TimedPolicy`].
fn replay(wl: &WorkloadSpec, federated: bool, workers: usize, traced: bool) -> Rep {
    let mut counters = Vec::new();
    let mut policy = |inner: Box<dyn SchedulingPolicy>| {
        if traced {
            let (p, c) = TimedPolicy::wrap(inner, Site::Engine);
            counters.push(c);
            p
        } else {
            inner
        }
    };
    if federated {
        let policies: Vec<_> = (0..FED_SHARDS).map(|_| Some(policy(easy()))).collect();
        let mut rep = replay_fed(wl, workers, policies);
        rep.counters = counters;
        rep
    } else {
        let cfg = sim_config(SCALE_CAPACITY, policy(elastic()));
        let mut rep = replay_des(&cfg, wl);
        rep.counters = counters;
        rep
    }
}

/// `simulate`, split at its seams: seeding, the event loop, finish.
fn replay_des(cfg: &SimConfig, wl: &WorkloadSpec) -> Rep {
    let t0 = Instant::now();
    let mut state = {
        let _s = trace::enter("engine.new", NONE);
        SimState::new(cfg, wl)
    };
    let t1 = Instant::now();
    while state.step(cfg, wl, usize::MAX) {}
    let drain = t1.elapsed().as_secs_f64();
    let outcome = {
        let _s = trace::enter("engine.finish", NONE);
        state.finish(cfg, wl)
    };
    Rep {
        wall: t0.elapsed().as_secs_f64(),
        drain,
        fingerprint: schedule_fingerprint(&outcome.metrics),
        metrics: outcome.metrics,
        peaks: (outcome.peak_queue_len, outcome.peak_queue_len_raw),
        counters: Vec::new(),
        fed: None,
    }
}

/// One federated replay: round-robin placement over [`FED_SHARDS`]
/// shards of [`FED_SHARD_SLOTS`], one policy per shard.
fn replay_fed(
    wl: &WorkloadSpec,
    workers: usize,
    policies: Vec<Option<Box<dyn SchedulingPolicy>>>,
) -> Rep {
    let cfg = FederationConfig::new(FED_SHARDS).with_workers(workers);
    let slots = Mutex::new(policies);
    let mut fed = FederationRuntime::new(cfg, |shard| {
        let policy = slots.lock().expect("policy slots")[shard]
            .take()
            .expect("one policy per shard");
        sim_config(FED_SHARD_SLOTS, policy)
    });
    let t0 = Instant::now();
    {
        let _s = trace::enter("federation.submit", NONE);
        fed.handle().submit(wl, &mut RoundRobin::new());
    }
    let t1 = Instant::now();
    {
        let _s = trace::enter("federation.start", NONE);
        fed.start();
    }
    let outcome = {
        let _s = trace::enter("federation.join", NONE);
        fed.join()
    };
    let wall = t0.elapsed().as_secs_f64();
    let drain = t1.elapsed().as_secs_f64();
    let events = &outcome.events;
    let mean = events.iter().sum::<u64>() as f64 / events.len().max(1) as f64;
    let peak =
        |f: fn(&sched_sim::SimOutcome) -> usize| outcome.shards.iter().map(f).max().unwrap_or(0);
    Rep {
        wall,
        drain,
        fingerprint: schedule_fingerprint(&outcome.merged),
        peaks: (peak(|s| s.peak_queue_len), peak(|s| s.peak_queue_len_raw)),
        counters: Vec::new(),
        fed: Some(FedFacts {
            place_s: (t1 - t0).as_secs_f64(),
            drain_s: drain,
            turns: outcome.turns.iter().sum(),
            imbalance: events.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
        }),
        metrics: outcome.merged,
    }
}
