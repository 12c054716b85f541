//! Transparent timing decorators around the layers' public traits.
//!
//! [`TimedPolicy`] forwards every [`SchedulingPolicy`] hook to the
//! inner policy. The burst hooks hand the inner policy wrapping
//! [`SubmitBurst`]/[`CompleteBurst`] drivers, so each engine callback
//! (`admit_next`, `retire_next`, `apply`) becomes a child span of the
//! dispatch span and policy self time is dispatch time minus time spent
//! in driver callbacks. [`TimedExecutor`] wraps an [`Executor`] and the
//! [`ExecHandle`]s it launches the same way.
//!
//! None of the wrappers changes a decision: they pass every argument
//! and return value through untouched (the transparency tests in
//! `tests/transparency.rs` compare full `RunMetrics`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use charm_rt::RescaleReport;
use elastic_core::{
    Action, CharmJobSpec, ClusterView, CompleteBurst, ExecHandle, ExecStatus, Executor,
    SchedulingPolicy, SubmitBurst,
};
use hpc_metrics::{Duration, JobId, SimTime};
use hpc_workload::FaultEvent;

use crate::trace::{self, NONE};

/// Which code runs behind the burst drivers: the DES engine or the
/// watch-driven operator. Only the span names differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `sched_sim` (single cluster or a federation shard).
    Engine,
    /// `elastic_core::CharmOperator`.
    Operator,
}

struct Names {
    admit: &'static str,
    retire: &'static str,
    apply: &'static str,
    apply_retire: &'static str,
}

impl Site {
    fn names(self) -> &'static Names {
        match self {
            Site::Engine => &Names {
                admit: "engine.admit",
                retire: "engine.retire",
                apply: "engine.apply",
                apply_retire: "engine.apply_retire",
            },
            Site::Operator => &Names {
                admit: "operator.admit",
                retire: "operator.retire",
                apply: "operator.apply",
                apply_retire: "operator.apply_retire",
            },
        }
    }
}

/// Policy counters shared between a [`TimedPolicy`] and the benchmark.
#[derive(Debug, Default)]
pub struct PolicyCounters {
    /// Policy invocations (burst, timer and fault hooks).
    pub dispatches: AtomicU64,
    /// Per-job answers applied (one per admitted or retired job, plus
    /// one per timer/fault answer).
    pub decisions: AtomicU64,
    /// Actions emitted.
    pub actions: AtomicU64,
}

impl PolicyCounters {
    /// `(dispatches, decisions, actions)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.dispatches.load(Ordering::Relaxed),
            self.decisions.load(Ordering::Relaxed),
            self.actions.load(Ordering::Relaxed),
        )
    }

    fn answered(&self, actions: usize) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        self.actions.fetch_add(actions as u64, Ordering::Relaxed);
    }
}

/// Forwarding policy decorator (see the module docs).
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    site: Site,
    counters: Arc<PolicyCounters>,
}

impl TimedPolicy {
    /// Wraps `inner`; returns the policy to hand to the engine and the
    /// counter handle to keep.
    pub fn wrap(
        inner: Box<dyn SchedulingPolicy>,
        site: Site,
    ) -> (Box<dyn SchedulingPolicy>, Arc<PolicyCounters>) {
        let counters = Arc::new(PolicyCounters::default());
        let policy = TimedPolicy {
            inner,
            site,
            counters: Arc::clone(&counters),
        };
        (Box::new(policy), counters)
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn launcher_slots(&self) -> u32 {
        self.inner.launcher_slots()
    }

    fn on_submit(&self, view: &ClusterView, job: JobId, now: SimTime) -> Vec<Action> {
        let _s = trace::enter("policy.submit", job.0);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let actions = self.inner.on_submit(view, job, now);
        self.counters.answered(actions.len());
        actions
    }

    fn on_complete(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let _s = trace::enter("policy.complete", NONE);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let actions = self.inner.on_complete(view, now);
        self.counters.answered(actions.len());
        actions
    }

    fn on_timer(&self, view: &ClusterView, now: SimTime) -> Vec<Action> {
        let _s = trace::enter("policy.timer", NONE);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let actions = self.inner.on_timer(view, now);
        self.counters.answered(actions.len());
        actions
    }

    fn timer_interval(&self) -> Option<Duration> {
        self.inner.timer_interval()
    }

    fn on_fault(&self, view: &ClusterView, fault: &FaultEvent, now: SimTime) -> Vec<Action> {
        let _s = trace::enter("policy.fault", NONE);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let actions = self.inner.on_fault(view, fault, now);
        self.counters.answered(actions.len());
        actions
    }

    fn on_submit_burst(&self, burst: &mut dyn SubmitBurst) {
        let _s = trace::enter("policy.submit_burst", NONE);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let mut driver = TimedSubmitBurst {
            inner: burst,
            names: self.site.names(),
            counters: &self.counters,
            last: NONE,
        };
        self.inner.on_submit_burst(&mut driver);
    }

    fn on_complete_burst(&self, burst: &mut dyn CompleteBurst) {
        let _s = trace::enter("policy.complete_burst", NONE);
        self.counters.dispatches.fetch_add(1, Ordering::Relaxed);
        let mut driver = TimedCompleteBurst {
            inner: burst,
            names: self.site.names(),
            counters: &self.counters,
        };
        self.inner.on_complete_burst(&mut driver);
    }
}

/// Wrapping submit driver: times the engine's admission and apply.
struct TimedSubmitBurst<'a> {
    inner: &'a mut dyn SubmitBurst,
    names: &'static Names,
    counters: &'a PolicyCounters,
    /// The job most recently admitted (its decision is the next apply).
    last: u32,
}

impl SubmitBurst for TimedSubmitBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn admit_next(&mut self) -> Option<JobId> {
        let _s = trace::enter(self.names.admit, NONE);
        let next = self.inner.admit_next();
        if let Some(id) = next {
            trace::set_job(id.0);
            self.last = id.0;
        }
        next
    }

    fn apply(&mut self, actions: &[Action]) {
        let _s = trace::enter(self.names.apply, self.last);
        self.counters.answered(actions.len());
        self.inner.apply(actions);
    }
}

/// Wrapping completion driver: times the engine's retirement and apply.
struct TimedCompleteBurst<'a> {
    inner: &'a mut dyn CompleteBurst,
    names: &'static Names,
    counters: &'a PolicyCounters,
}

impl CompleteBurst for TimedCompleteBurst<'_> {
    fn view(&self) -> &ClusterView {
        self.inner.view()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn retire_next(&mut self) -> bool {
        let _s = trace::enter(self.names.retire, NONE);
        self.inner.retire_next()
    }

    fn apply(&mut self, actions: &[Action]) {
        let _s = trace::enter(self.names.apply_retire, NONE);
        self.counters.answered(actions.len());
        self.inner.apply(actions);
    }
}

/// Executor counters shared between a [`TimedExecutor`] and the
/// benchmark.
#[derive(Debug, Default)]
pub struct ExecCounters {
    /// Jobs launched.
    pub launches: AtomicU64,
    /// Status polls.
    pub polls: AtomicU64,
    /// Rescale requests forwarded.
    pub rescale_requests: AtomicU64,
}

/// Forwarding executor decorator: spans around `launch` and around
/// every call on the handles it returns.
pub struct TimedExecutor {
    inner: Box<dyn Executor>,
    counters: Arc<ExecCounters>,
}

impl TimedExecutor {
    /// Wraps `inner`; returns the executor and its counter handle.
    pub fn wrap(inner: Box<dyn Executor>) -> (Box<dyn Executor>, Arc<ExecCounters>) {
        let counters = Arc::new(ExecCounters::default());
        let exec = TimedExecutor {
            inner,
            counters: Arc::clone(&counters),
        };
        (Box::new(exec), counters)
    }
}

impl Executor for TimedExecutor {
    fn launch(&mut self, spec: &CharmJobSpec, replicas: u32) -> Box<dyn ExecHandle> {
        let _s = trace::enter("executor.launch", NONE);
        self.counters.launches.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedHandle {
            inner: self.inner.launch(spec, replicas),
            counters: Arc::clone(&self.counters),
        })
    }
}

struct TimedHandle {
    inner: Box<dyn ExecHandle>,
    counters: Arc<ExecCounters>,
}

impl ExecHandle for TimedHandle {
    fn request_rescale(&mut self, replicas: u32) {
        let _s = trace::enter("executor.rescale", NONE);
        self.counters
            .rescale_requests
            .fetch_add(1, Ordering::Relaxed);
        self.inner.request_rescale(replicas);
    }

    fn status(&mut self) -> ExecStatus {
        let _s = trace::enter("executor.poll", NONE);
        self.counters.polls.fetch_add(1, Ordering::Relaxed);
        self.inner.status()
    }

    fn rescale_acked(&mut self) -> Option<RescaleReport> {
        let _s = trace::enter("executor.ack", NONE);
        self.inner.rescale_acked()
    }

    fn stop(&mut self) {
        let _s = trace::enter("executor.stop", NONE);
        self.inner.stop();
    }

    fn checkpointed_iters(
        &mut self,
        started_at: SimTime,
        now: SimTime,
        interval: Duration,
    ) -> Option<f64> {
        self.inner.checkpointed_iters(started_at, now, interval)
    }
}
