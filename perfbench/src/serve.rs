//! `serve-open`: an open loop of independent users against the full
//! serving stack on a real clock — `IngestQueue` → job store/watch →
//! watch-driven `CharmOperator` (kube control plane, elastic policy,
//! `ModelExecutor`) → `EventBus` → subscribers — all driven by one
//! thread.
//!
//! A round has two phases. The nominal phase sends Poisson arrivals at
//! [`NOMINAL_RATE`]; every arrival is timed from its *due* instant, so
//! a slow drive loop shows up as latency (and as generator lateness),
//! never as a lower offered rate. The storm phase makes [`STORM_JOBS`]
//! jobs due at one instant and times how fast the stack drains them.
//!
//! `weighted_response_s` is the Table 1 weighting (by priority) of the
//! nominal phase's due → `Started` latencies. The storm is left out of
//! it: there every job waits behind the ones before it, so the weighted
//! response is a restatement of `storm_jobs_per_s` and carries the same
//! host-speed noise twice.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use elastic_core::{
    CharmJobSpec, CharmOperator, Executor, JobEventKind, JobEventStream, ModelExecutor, RunMetrics,
    Schedule, SchedulingPolicy, SubmitRequest,
};
use elastic_serving::{BusPoll, EventBus, IngestConfig, IngestQueue, Subscriber};
use hpc_metrics::{Clock, Duration, RealClock};
use hpc_workload::{generate_workload, poisson_workload};
use kube_sim::{ControlPlane, KubeletConfig};

use crate::jacobi::Probe;
use crate::layers::{ExecCounters, PolicyCounters, Site, TimedExecutor, TimedPolicy};
use crate::trace::{self, Span, Summary, NONE};
use crate::util::{median, quantile, Outcome};
use crate::{replay, Params};

/// Nominal offered load, jobs per second — a constant, about half the
/// storm drain rate the stack sustained when this benchmark was
/// written (see the README).
pub const NOMINAL_RATE: f64 = 250.0;
/// Length of the nominal phase, s.
const NOMINAL_S: f64 = 1.5;
/// Jobs in the storm (all due at once).
pub const STORM_JOBS: usize = 1000;
/// Pause between the nominal phase's last arrival and the storm, s.
const STORM_GAP_S: f64 = 0.25;
/// A round that has not drained this long after the storm fails.
const ROUND_TIMEOUT_S: f64 = 20.0;
/// Executor time of a job at its minimum width, s.
const JOB_S: f64 = 0.002;
/// Cluster: nodes × CPUs (slots never bind in the nominal phase).
const NODES: usize = 16;
const CPUS_PER_NODE: u32 = 64;
/// Rescale-probe solves per run (see `Probe`).
const PROBE_SOLVES: usize = 15;
/// Bus ring capacity and subscriber count.
const BUS_CAPACITY: usize = 1 << 16;
const SUBSCRIBERS: usize = 2;

/// One job's timeline, in clock seconds.
#[derive(Clone, Copy, Default)]
struct Timeline {
    due: f64,
    created: f64,
    started_seen: f64,
    /// Submitted, Started, Completed seen so far (in that order).
    step: u8,
    /// A transition arrived out of order or twice.
    bad: bool,
}

/// The inputs of one round.
struct RoundInput {
    requests: Vec<SubmitRequest>,
    /// Due offsets from the round start, s (nondecreasing).
    due: Vec<f64>,
    nominal: usize,
}

fn build_input(seed: u64, round: u64) -> RoundInput {
    let n = (NOMINAL_RATE * NOMINAL_S).round() as usize;
    let s = seed.wrapping_mul(1_000_003).wrapping_add(round);
    let nominal = poisson_workload(s, n, Duration::from_secs(1.0 / NOMINAL_RATE));
    let storm = generate_workload(s ^ 0x5707, STORM_JOBS);
    let mut requests = Vec::with_capacity(n + STORM_JOBS);
    let mut due = Vec::with_capacity(n + STORM_JOBS);
    let last = nominal.jobs.last().map_or(0.0, |j| j.arrival.as_secs());
    for (spec, j) in Schedule::from_workload(&nominal)
        .jobs
        .into_iter()
        .zip(&nominal.jobs)
    {
        due.push(j.arrival.as_secs());
        requests.push(SubmitRequest::v1(spec).expect("valid generated spec"));
    }
    for mut spec in Schedule::from_workload(&storm).jobs {
        spec.name = format!("storm-{}", spec.name);
        due.push(last + STORM_GAP_S);
        requests.push(SubmitRequest::v1(spec).expect("valid generated spec"));
    }
    RoundInput {
        requests,
        due,
        nominal: n,
    }
}

/// Executor speed: a job finishes in [`JOB_S`] at its minimum width
/// and proportionally faster when wider.
fn executor(clock: Arc<dyn Clock>) -> ModelExecutor {
    ModelExecutor::new(
        clock,
        Arc::new(|spec: &CharmJobSpec, replicas: u32| {
            spec.app.total_iters() as f64 * f64::from(replicas)
                / (f64::from(spec.min_replicas) * JOB_S)
        }),
        Arc::new(|_, _, _| Duration::ZERO),
    )
}

/// Everything one round measured.
struct Round {
    wall: f64,
    /// due → Started seen, nominal jobs, ms.
    start_ms: Vec<f64>,
    /// Priority-weighted mean of due → Started seen, nominal jobs, s.
    weighted_start_s: f64,
    /// (ingest, decide, launch) per nominal job, ms (traced rounds).
    stages: Vec<(f64, f64, f64)>,
    late_ms: Vec<f64>,
    storm_rate: f64,
    completed: usize,
    metrics: RunMetrics,
    spans: Vec<Vec<Span>>,
    policy: Option<Arc<PolicyCounters>>,
    exec: Option<Arc<ExecCounters>>,
    batches: u64,
    jobs_per_batch: f64,
    shed: u64,
    rejected: u64,
    enqueue_to_create_p99_ms: f64,
    published: u64,
    lagged: u64,
}

/// A freshly built serving stack with its round's inputs.
struct Stack {
    input: RoundInput,
    /// Time spent generating `input`, s.
    gen_s: f64,
    clock: Arc<RealClock>,
    op: CharmOperator,
    queue: IngestQueue,
    stream: JobEventStream,
    bus: EventBus,
    subs: Vec<Subscriber>,
    index_of: HashMap<String, usize>,
    policy: Option<Arc<PolicyCounters>>,
    exec: Option<Arc<ExecCounters>>,
}

/// Builds round `index`'s inputs and a fresh stack (the set-up that
/// `setup_s` times); `traced` wraps the policy and executor.
fn build(seed: u64, index: u64, traced: bool) -> Stack {
    let t = Instant::now();
    let input = build_input(seed, index);
    let gen_s = t.elapsed().as_secs_f64();
    let clock = Arc::new(RealClock::new());
    let plane = ControlPlane::with_nodes(
        clock.clone(),
        KubeletConfig::instant(),
        NODES,
        CPUS_PER_NODE,
    );
    let exec: Box<dyn Executor> = Box::new(executor(plane.clock()));
    let (policy, exec, pc, ec): (Box<dyn SchedulingPolicy>, _, _, _) = if traced {
        let (p, pc) = TimedPolicy::wrap(replay::elastic(), Site::Operator);
        let (e, ec) = TimedExecutor::wrap(exec);
        (p, e, Some(pc), Some(ec))
    } else {
        (replay::elastic(), exec, None, None)
    };
    let op = CharmOperator::new(plane, policy, exec);
    let client = op.client();
    let queue = IngestQueue::new(client.clone(), IngestConfig::default());
    let stream = client.watch_events();
    let bus = EventBus::new(BUS_CAPACITY);
    let subs = (0..SUBSCRIBERS).map(|_| bus.subscribe()).collect();
    let index_of = input
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| (r.name().to_string(), i))
        .collect();
    Stack {
        input,
        gen_s,
        clock,
        op,
        queue,
        stream,
        bus,
        subs,
        index_of,
        policy: pc,
        exec: ec,
    }
}

/// Drives one round on `stack` until every job completed (or the
/// round times out).
fn drive(stack: Stack, traced: bool, out: &mut Outcome) -> Round {
    let Stack {
        input,
        gen_s: _,
        clock,
        mut op,
        queue,
        mut stream,
        bus,
        mut subs,
        index_of,
        policy,
        exec,
    } = stack;
    let total = input.requests.len();
    let mut jobs = vec![Timeline::default(); total];

    // Trace spans run on the process-wide trace clock; job stamps on
    // the round's RealClock. One paired reading maps between them.
    let offset = clock.now().as_secs() - trace::now_ns() as f64 * 1e-9;
    let start = clock.now().as_secs() + 0.005;
    for (t, d) in jobs.iter_mut().zip(&input.due) {
        t.due = start + d;
    }
    let storm_due = jobs[input.nominal].due;
    let deadline = storm_due + ROUND_TIMEOUT_S;
    let wall0 = Instant::now();
    let (mut next, mut completed, mut lagged, mut storm_done) = (0usize, 0usize, 0u64, 0.0f64);
    let mut late_ms = Vec::with_capacity(total);
    loop {
        let now = clock.now().as_secs();
        while next < total && jobs[next].due <= now {
            let sent = clock.now().as_secs();
            let resp = {
                let _s = trace::enter("ingest.submit", NONE);
                queue.submit(input.requests[next].clone())
            };
            late_ms.push((sent - jobs[next].due) * 1e3);
            // A shed or rejected submission never shows its lifecycle,
            // so the end-of-round check counts it as failed.
            match resp {
                Ok(r) if r.is_shed() => out.fail(0, "submission shed"),
                Ok(_) => {}
                Err(e) => out.fail(0, format!("submission rejected: {e}")),
            }
            next += 1;
        }
        {
            let _s = trace::enter("ingest.pump", NONE);
            queue.pump(clock.now());
        }
        {
            let _s = trace::enter("operator.tick", NONE);
            op.tick();
        }
        {
            let _s = trace::enter("bus.pump", NONE);
            bus.pump_from(&mut stream);
        }
        for (k, sub) in subs.iter_mut().enumerate() {
            let _s = trace::enter("bus.poll", NONE);
            loop {
                let ev = match sub.poll() {
                    BusPoll::Event(ev) => ev,
                    BusPoll::Lagged { missed } => {
                        lagged += missed;
                        continue;
                    }
                    BusPoll::Empty => break,
                };
                if k != 0 {
                    continue;
                }
                let seen = clock.now().as_secs();
                let Some(&i) = index_of.get(&ev.job) else {
                    out.fail(0, format!("event for unknown job {}", ev.job));
                    continue;
                };
                let t = &mut jobs[i];
                let expect = match ev.kind {
                    JobEventKind::Submitted => 0,
                    JobEventKind::Started => 1,
                    JobEventKind::Completed => 2,
                    JobEventKind::Rescaled { .. } => continue,
                    JobEventKind::Cancelled => 9,
                };
                if t.step != expect {
                    t.bad = true;
                    continue;
                }
                t.step += 1;
                match ev.kind {
                    JobEventKind::Submitted => t.created = ev.at.as_secs(),
                    JobEventKind::Started => t.started_seen = seen,
                    _ => {
                        completed += 1;
                        if i >= input.nominal {
                            storm_done = storm_done.max(seen);
                        }
                    }
                }
            }
        }
        if completed == total || clock.now().as_secs() > deadline {
            break;
        }
        if next < total && jobs[next].due > clock.now().as_secs() + 0.0005 && completed == next {
            // Nothing in flight and the next arrival is not due yet:
            // give the core back instead of spinning on empty ticks.
            std::thread::yield_now();
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    let bad = jobs.iter().filter(|t| t.bad || t.step != 3).count();
    if bad > 0 {
        out.fail(
            bad as u64,
            format!("{bad} jobs without exactly one Submitted→Started→Completed"),
        );
    }
    out.attempted += total as u64;
    let stats = queue.stats();
    if stats.rejected > 0 || stats.shed > 0 {
        out.fail(
            0,
            format!("ingest shed {} rejected {}", stats.shed, stats.rejected),
        );
    }
    if lagged > 0 {
        out.fail(0, format!("bus subscribers lagged by {lagged} events"));
    }
    let enqueue_to_create_p99_ms = queue
        .latency_quantile(0.99)
        .map_or(0.0, |d| d.as_secs() * 1e3);
    let metrics = op.metrics();
    let spans = if traced { trace::collect() } else { Vec::new() };

    let nominal = &jobs[..input.nominal];
    let start_ms: Vec<f64> = nominal
        .iter()
        .filter(|t| t.step == 3)
        .map(|t| (t.started_seen - t.due) * 1e3)
        .collect();
    let (mut weighted, mut weights) = (0.0, 0.0);
    for (t, r) in nominal
        .iter()
        .zip(&input.requests)
        .filter(|(t, _)| t.step == 3)
    {
        let w = f64::from(r.spec().priority);
        weighted += w * (t.started_seen - t.due);
        weights += w;
    }
    let weighted_start_s = if weights > 0.0 {
        weighted / weights
    } else {
        0.0
    };
    let mut stages = Vec::new();
    if traced {
        // The decision instant of each admitted job: the end of the
        // operator's apply for it inside the submit burst.
        let mut decided: HashMap<u32, f64> = HashMap::new();
        for s in spans.iter().flatten() {
            if s.name == "operator.apply" && s.job != NONE {
                decided.entry(s.job).or_insert(s.end as f64 * 1e-9 + offset);
            }
        }
        for (id, name) in op.registry().iter() {
            let Some(&i) = index_of.get(name) else {
                continue;
            };
            if i >= input.nominal || jobs[i].step != 3 {
                continue;
            }
            if let Some(&d) = decided.get(&id.0) {
                let t = &jobs[i];
                stages.push((
                    (t.created - t.due) * 1e3,
                    (d - t.created) * 1e3,
                    (t.started_seen - d) * 1e3,
                ));
            }
        }
    }
    let storm_rate = if storm_done > storm_due {
        (total - input.nominal) as f64 / (storm_done - storm_due)
    } else {
        0.0
    };
    Round {
        wall,
        start_ms,
        weighted_start_s,
        stages,
        late_ms,
        storm_rate,
        completed,
        metrics,
        spans,
        policy,
        exec,
        batches: stats.batches,
        jobs_per_batch: stats.jobs_per_batch(),
        shed: stats.shed,
        rejected: stats.rejected,
        enqueue_to_create_p99_ms,
        published: bus.published(),
        lagged,
    }
}

/// Rounds per run: 0.6 per second of budget, at least 2 — a pure
/// function of `--seconds`. A round lasts about 4 s, so a run takes
/// about twice its budget: storm drain rates follow the host's speed,
/// which on a shared host drifts by ±15% over tens of seconds, and
/// medians over six rounds still spread by about 20% from run to run.
fn rounds_per_run(seconds: f64) -> usize {
    ((seconds * 0.6).round() as usize).max(2)
}

/// Stack builds timed before each round for `setup_s`; the round drives
/// the last. A build takes about 0.5 ms: spread over the run, the
/// builds' median follows the host's speed over the whole run, where a
/// burst of builds at the start samples a few milliseconds of it.
const BUILDS_PER_ROUND: usize = 8;

/// Runs `serve-open`.
///
/// Untraced: [`rounds_per_run`] rounds, each with its own inputs (the
/// seed and the round index pick them); every metric is the median
/// over rounds of that round's value. Traced: half as many untraced rounds,
/// then as many traced ones with the same inputs.
pub fn run(p: &Params, probe: &mut Probe) -> Outcome {
    let mut out = Outcome::default();
    let n = rounds_per_run(p.seconds);
    let n = if p.trace { n.div_ceil(2) } else { n };
    out.detail("nominal_rate", NOMINAL_RATE.to_string());
    out.detail("storm_jobs", STORM_JOBS.to_string());
    out.detail("rounds", n.to_string());
    let (mut setup, mut gen) = (Vec::new(), Vec::new());
    // Peak RSS is read after the first round: later rounds rebuild the
    // stack in the same process, and the allocator's fragmentation from
    // those rebuilds, not the stack, raises the peak by 1–9 MiB at random.
    let mut rounds = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0..n {
        let mut stack = None;
        for _ in 0..BUILDS_PER_ROUND {
            let t = Instant::now();
            let built = build(p.seed, i as u64, false);
            setup.push(t.elapsed().as_secs_f64());
            gen.push(built.gen_s);
            stack = Some(built);
        }
        let stack = stack.expect("BUILDS_PER_ROUND > 0");
        rounds.push(drive(stack, false, &mut out));
        if i == 0 {
            peak_rss = crate::util::peak_rss_mib();
        }
    }
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let samples: usize = rounds.iter().map(|r| r.start_ms.len()).sum();
    out.detail("latency_samples", samples.to_string());

    if !p.trace {
        out.metric("setup_s", median(&setup), "s");
        out.metric("peak_rss_mib", peak_rss, "MiB");
        // After the stack's peak RSS is read: the probe's PE threads would
        // otherwise dominate this small footprint.
        for _ in 0..PROBE_SOLVES {
            probe.solve(p.seed);
        }
        out.metric("jobs_per_s", med(&|r| r.completed as f64 / r.wall), "1/s");
        out.metric("utilization", med(&|r| r.metrics.utilization), "share");
        out.metric("weighted_response_s", med(&|r| r.weighted_start_s), "s");
        // Percentiles per round, then the median over rounds: one round
        // caught by a host stall cannot move the result.
        out.metric("start_p50_ms", med(&|r| quantile(&r.start_ms, 0.5)), "ms");
        out.metric("start_p99_ms", med(&|r| quantile(&r.start_ms, 0.99)), "ms");
        out.metric("storm_jobs_per_s", med(&|r| r.storm_rate), "1/s");
        out.metric("solve_s", med(&|r| r.wall), "s");
        return out;
    }

    let untraced_wall = med(&|r| r.wall);
    let mut traced = Vec::new();
    for i in 0..n {
        let stack = build(p.seed, i as u64, true);
        trace::collect();
        trace::set_enabled(true);
        let r = drive(stack, true, &mut out);
        trace::set_enabled(false);
        traced.push(r);
    }
    let traced_wall = median(&traced.iter().map(|r| r.wall).collect::<Vec<_>>());
    let r = traced.last().expect("one traced round");
    let sum = Summary::of(&r.spans);
    let wall = r.wall;
    let (dispatches, decisions, actions) = r.policy.as_ref().map_or((0, 0, 0), |c| c.snapshot());
    let exec = r.exec.as_ref().expect("traced executor");
    let ticks = crate::trace::durations(&r.spans, "operator.tick");
    let policy_self = sum.self_of_prefix("policy.");
    let roots: f64 = r
        .spans
        .iter()
        .flatten()
        .filter(|s| s.parent == NONE)
        .map(Span::secs)
        .sum();
    // Stage and lateness percentiles pool every traced round.
    let stages: Vec<(f64, f64, f64)> = traced.iter().flat_map(|r| r.stages.clone()).collect();
    let late: Vec<f64> = traced.iter().flat_map(|r| r.late_ms.clone()).collect();
    let stage = |k: usize, q: f64| {
        quantile(
            &stages
                .iter()
                .map(|s| [s.0, s.1, s.2][k])
                .collect::<Vec<_>>(),
            q,
        )
    };
    // The operator's own code: the tick minus the policy and executor
    // calls it makes, plus the burst-driver callbacks the policy makes
    // back into it.
    let operator_self: f64 = [
        "operator.tick",
        "operator.admit",
        "operator.apply",
        "operator.retire",
        "operator.apply_retire",
    ]
    .iter()
    .map(|n| sum.get(n).self_s)
    .sum();
    let load =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
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
    m("policy.self_share", policy_self / wall, "share");
    m("workload.gen_s", median(&gen), "s");
    m("ingest.submit_s", sum.get("ingest.submit").total_s, "s");
    m("ingest.pump_s", sum.get("ingest.pump").total_s, "s");
    m("ingest.batches", r.batches as f64, "count");
    m("ingest.jobs_per_batch", r.jobs_per_batch, "count");
    m("ingest.shed", r.shed as f64, "count");
    m("ingest.rejected", r.rejected as f64, "count");
    m(
        "ingest.enqueue_to_create_p99_ms",
        r.enqueue_to_create_p99_ms,
        "ms",
    );
    m("bus.pump_s", sum.get("bus.pump").total_s, "s");
    m("bus.poll_s", sum.get("bus.poll").total_s, "s");
    m("bus.published", r.published as f64, "count");
    m("bus.lagged", r.lagged as f64, "count");
    m("operator.ticks", ticks.len() as f64, "count");
    m("operator.tick_self_s", operator_self, "s");
    m("operator.tick_p50_ms", quantile(&ticks, 0.5) * 1e3, "ms");
    m("operator.tick_p99_ms", quantile(&ticks, 0.99) * 1e3, "ms");
    m(
        "operator.busy_share",
        sum.get("operator.tick").total_s / wall,
        "share",
    );
    m("executor.launches", load(&exec.launches), "count");
    m("executor.polls", load(&exec.polls), "count");
    m(
        "executor.rescale_requests",
        load(&exec.rescale_requests),
        "count",
    );
    m("executor.self_s", sum.self_of_prefix("executor."), "s");
    for (k, stage_name) in ["ingest", "decide", "launch"].iter().enumerate() {
        m(&format!("stage.{stage_name}_p50_ms"), stage(k, 0.5), "ms");
        m(&format!("stage.{stage_name}_p99_ms"), stage(k, 0.99), "ms");
    }
    m("gen.late_p99_ms", quantile(&late, 0.99), "ms");
    m("trace.overhead", traced_wall / untraced_wall, "ratio");
    m(
        "unattributed_share",
        ((wall - roots) / wall).max(0.0),
        "share",
    );
    out
}
