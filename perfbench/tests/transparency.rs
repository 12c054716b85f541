//! The timing decorators must not change a single decision: wrapped and
//! bare policies give bit-identical `RunMetrics`, for the elastic, EASY
//! and FCFS policies, on the bundled SWF trace and on a small
//! heavy-traffic trace, through the DES and through the operator.

use std::path::PathBuf;
use std::sync::Arc;

use elastic_core::{
    run_workload_virtual, CharmOperator, EasyBackfill, FcfsBackfill, ModelExecutor, RunMetrics,
    SchedulingPolicy,
};
use hpc_metrics::{Duration, VirtualClock};
use hpc_workload::{load_workload, SwfLoadConfig, WorkloadSpec};
use kube_sim::{ControlPlane, KubeletConfig};
use perfbench::layers::{Site, TimedExecutor, TimedPolicy};
use perfbench::replay::elastic;
use perfbench::trace;
use sched_sim::experiments::{heavy_traffic_workload, SCALE_CAPACITY};
use sched_sim::{simulate, OverheadModel, ScalingModel, SimConfig};

/// The bundled trace's machine size.
const SWF_CAPACITY: u32 = 32;

type MakePolicy = fn() -> Box<dyn SchedulingPolicy>;

fn policies() -> Vec<(&'static str, MakePolicy)> {
    vec![
        ("elastic", elastic),
        ("easy", || Box::new(EasyBackfill::new())),
        ("fcfs", || Box::new(FcfsBackfill::new())),
    ]
}

fn sample_swf() -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/data/sample.swf");
    let file = std::fs::File::open(&path).expect("bundled trace exists");
    let wl = load_workload(
        std::io::BufReader::new(file),
        &SwfLoadConfig::elastic(SWF_CAPACITY),
    )
    .expect("bundled trace parses");
    wl.validate().expect("bundled trace is replayable");
    wl
}

fn des(capacity: u32, policy: Box<dyn SchedulingPolicy>, wl: &WorkloadSpec) -> RunMetrics {
    let cfg = SimConfig {
        capacity,
        policy,
        scaling: ScalingModel::default(),
        overhead: OverheadModel::default(),
        cancellations: Vec::new(),
    };
    simulate(&cfg, wl).metrics
}

fn assert_transparent_des(capacity: u32, wl: &WorkloadSpec) {
    trace::set_enabled(true);
    for (name, make) in policies() {
        let bare = des(capacity, make(), wl);
        let (wrapped, counters) = TimedPolicy::wrap(make(), Site::Engine);
        let timed = des(capacity, wrapped, wl);
        assert_eq!(bare, timed, "{name}: the decorator changed the replay");
        let (dispatches, decisions, _) = counters.snapshot();
        assert!(
            dispatches > 0 && decisions >= wl.len() as u64,
            "{name}: counted nothing"
        );
    }
}

#[test]
fn des_replay_of_the_bundled_swf_is_unchanged() {
    assert_transparent_des(SWF_CAPACITY, &sample_swf());
}

#[test]
fn des_replay_of_a_heavy_traffic_trace_is_unchanged() {
    assert_transparent_des(SCALE_CAPACITY, &heavy_traffic_workload(7, 3000));
}

fn operator(policy: Box<dyn SchedulingPolicy>, wrap_exec: bool, wl: &WorkloadSpec) -> RunMetrics {
    let clock = VirtualClock::new();
    let plane = ControlPlane::with_nodes(Arc::new(clock.clone()), KubeletConfig::instant(), 4, 8);
    let mut exec: Box<dyn elastic_core::Executor> = Box::new(ModelExecutor::ideal(plane.clock()));
    if wrap_exec {
        exec = TimedExecutor::wrap(exec).0;
    }
    let mut op = CharmOperator::new(plane, policy, exec);
    run_workload_virtual(
        &mut op,
        &clock,
        wl,
        Duration::from_secs(1.0),
        Duration::from_secs(1_000_000.0),
    )
}

#[test]
fn operator_replay_of_the_bundled_swf_is_unchanged() {
    trace::set_enabled(true);
    let wl = sample_swf();
    for (name, make) in policies() {
        let bare = operator(make(), false, &wl);
        let timed = operator(TimedPolicy::wrap(make(), Site::Operator).0, true, &wl);
        assert_eq!(
            bare, timed,
            "{name}: the decorators changed the operator replay"
        );
    }
}

#[test]
fn self_time_excludes_child_spans() {
    trace::set_enabled(true);
    {
        let _outer = trace::enter("test.outer", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _inner = trace::enter("test.inner", trace::NONE);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let threads = trace::collect();
    let mine: Vec<_> = threads
        .iter()
        .filter(|t| t.iter().any(|s| s.name == "test.outer"))
        .cloned()
        .collect();
    let sum = trace::Summary::of(&mine);
    let outer = sum.get("test.outer");
    let inner = sum.get("test.inner");
    assert_eq!((outer.count, inner.count), (1, 1));
    assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
    assert!(inner.total_s >= 0.002 && outer.self_s >= 0.002);
}
