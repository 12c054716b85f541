//! `rescale-jacobi`: a charm-rt Jacobi2D solve that alternates an
//! incremental shrink to one PE with an expand back, and the fixed
//! rescale probe the scheduler workloads run around their measured
//! part.

use std::time::Instant;

use charm_apps::jacobi::reference_jacobi;
use charm_apps::{JacobiApp, JacobiConfig};
use charm_rt::{GreedyLb, RescaleMode, RescaleReport, RuntimeConfig};

use crate::trace::{self, Summary, NONE};
use crate::util::{grid_fingerprint, median, quantile, Outcome};
use crate::Params;

/// Grid of the measured solve (interior points per side).
const GRID: usize = 512;
/// Blocks per side (8 × 8 = 64 migratable chares).
const BLOCKS: u64 = 8;
/// Iterations per window (the sync boundary where rescales happen).
const WINDOW: u64 = 10;
/// Windows per solve.
const WINDOWS: u64 = 72;
/// PE cap (the runtime spawns one thread per PE).
const MAX_PES: usize = 64;
/// Reference solutions computed per run for `setup_s`.
const SETUPS: usize = 5;

/// Solves per run: one per second of budget, at least 3 — a pure
/// function of `--seconds`.
fn solves_per_run(seconds: f64) -> usize {
    (seconds.round() as usize).max(3)
}

/// What one solve measured.
struct Solve {
    launch_s: f64,
    solve_s: f64,
    /// `(pes, wall s)` per window.
    windows: Vec<(usize, f64)>,
    rescale_s: Vec<f64>,
    reports: Vec<RescaleReport>,
    grid_fp: String,
}

/// Boots the runtime, runs `windows` windows of `window` iterations on
/// `pes` PEs with a rescale after every window but the last, alternately
/// shrinking to 1 PE and expanding back, and fingerprints the final
/// grid.
fn solve(cfg: JacobiConfig, pes: usize, windows: u64, window: u64) -> Solve {
    let t0 = Instant::now();
    let mut app = {
        let _s = trace::enter("charm.launch", NONE);
        JacobiApp::new(cfg, RuntimeConfig::new(pes))
    };
    let launch_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut out = Solve {
        launch_s,
        solve_s: 0.0,
        windows: Vec::new(),
        rescale_s: Vec::new(),
        reports: Vec::new(),
        grid_fp: String::new(),
    };
    for w in 0..windows {
        let width = app.driver.num_pes();
        let t = Instant::now();
        {
            let _s = trace::enter("charm.iter", NONE);
            app.run_window(window).expect("jacobi window");
        }
        out.windows.push((width, t.elapsed().as_secs_f64()));
        if w + 1 < windows && pes > 1 {
            let target = if width == pes { 1 } else { pes };
            let t = Instant::now();
            let report = {
                let _s = trace::enter("charm.rescale", NONE);
                app.driver
                    .rt
                    .rescale_with_mode(target, &GreedyLb, RescaleMode::Incremental)
            };
            out.rescale_s.push(t.elapsed().as_secs_f64());
            out.reports.push(report);
        }
    }
    out.solve_s = t1.elapsed().as_secs_f64();
    let grid = {
        let _s = trace::enter("check.gather", NONE);
        app.gather_grid().expect("gather grid")
    };
    out.grid_fp = grid_fingerprint(&grid);
    {
        let _s = trace::enter("charm.shutdown", NONE);
        app.shutdown();
    }
    out
}

fn config(grid: usize, blocks: u64, seed: u64) -> JacobiConfig {
    let mut cfg = JacobiConfig::new(grid, blocks, blocks);
    // The seed picks the heat-plate boundary value: same cost, another
    // solution.
    cfg.top_boundary = 1.0 + (seed % 1000) as f64 / 64.0;
    cfg
}

/// The rescale probe of the scheduler workloads, which have no charm
/// rescale of their own: solves of the measured problem, each rescaled
/// after every 2-iteration window (30 rescales) and checked against its
/// no-rescale reference. The workloads run one solve after each unit of
/// their own work, so the samples spread over the whole run.
#[derive(Default)]
pub struct Probe {
    rescale_s: Vec<f64>,
    /// The reference grid's fingerprint, computed on first use.
    want: Option<String>,
    mismatches: u64,
}

impl Probe {
    const WINDOWS: u64 = 31;

    /// Runs one probe solve.
    pub fn solve(&mut self, seed: u64) {
        let cfg = config(GRID, BLOCKS, seed);
        let want = self
            .want
            .get_or_insert_with(|| grid_fingerprint(&reference_jacobi(&cfg, Self::WINDOWS * 2)));
        let pes = crate::util::nproc().min(MAX_PES);
        let s = solve(cfg, pes, Self::WINDOWS, 2);
        self.mismatches += u64::from(s.grid_fp != *want);
        self.rescale_s.extend(&s.rescale_s);
    }

    /// Adds the probe's rescales to `out` as operations, fails them on a
    /// grid mismatch, and reports `rescale_p50_ms`.
    pub fn report(&self, out: &mut Outcome) {
        let rescales = self.rescale_s.len() as u64;
        out.attempted += rescales;
        if self.mismatches > 0 {
            out.fail(rescales, "rescale probe grid differs from its reference");
        }
        out.metric("rescale_p50_ms", median(&self.rescale_s) * 1e3, "ms");
    }
}

/// Runs `rescale-jacobi`.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    let pes = crate::util::nproc().min(MAX_PES);
    out.detail("pes", pes.to_string());
    if pes < 2 {
        out.fail(
            0,
            "rescale-jacobi needs at least 2 CPUs to shrink and expand",
        );
    }
    // Set-up: the no-rescale reference solution, computed serially
    // outside the timed region.
    let mut setup = Vec::new();
    let mut want = String::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let cfg = config(GRID, BLOCKS, p.seed);
        let fp = {
            let _s = trace::enter("check.reference", NONE);
            grid_fingerprint(&reference_jacobi(&cfg, WINDOWS * WINDOW))
        };
        setup.push(t.elapsed().as_secs_f64());
        if !want.is_empty() && fp != want {
            out.fail(0, "reference solution is not deterministic");
        }
        want = fp;
    }
    let cfg = config(GRID, BLOCKS, p.seed);

    let run_solves = |count: usize, out: &mut Outcome| {
        let t0 = Instant::now();
        let mut solves = Vec::new();
        for _ in 0..count {
            let s = solve(cfg, pes, WINDOWS, WINDOW);
            out.attempted += s.rescale_s.len() as u64;
            if s.grid_fp != want {
                out.fail(
                    s.rescale_s.len().max(1) as u64,
                    format!("final grid {} != no-rescale reference {want}", s.grid_fp),
                );
            }
            solves.push(s);
        }
        (solves, t0.elapsed().as_secs_f64())
    };

    let n = solves_per_run(p.seconds);
    let n = if p.trace { n.div_ceil(2) } else { n };
    let (solves, seq_wall) = run_solves(n, &mut out);
    let rescales: Vec<f64> = solves.iter().flat_map(|s| s.rescale_s.clone()).collect();
    let solve_walls: Vec<f64> = solves.iter().map(|s| s.solve_s).collect();
    // A malleable job starts anew on every allocation: at launch and
    // after each rescale, each time request → runtime ready. One solve
    // is one job; its start latency is the median over its starts,
    // which a single preempted thread hand-off cannot move.
    let starts: Vec<f64> = solves
        .iter()
        .map(|s| {
            let all: Vec<f64> = std::iter::once(s.launch_s)
                .chain(s.rescale_s.iter().copied())
                .collect();
            median(&all)
        })
        .collect();
    out.detail("solves", solves.len().to_string());
    out.detail("reference", crate::util::json_str(&want));

    if !p.trace {
        let busy: Vec<f64> = solves
            .iter()
            .map(|s| {
                let pe_s: f64 = s.windows.iter().map(|(w, t)| *w as f64 * t).sum();
                pe_s / (pes as f64 * s.solve_s)
            })
            .collect();
        let per_job: Vec<f64> = solves
            .iter()
            .map(|s| 1.0 / (s.launch_s + s.solve_s))
            .collect();
        out.metric("setup_s", median(&setup), "s");
        out.metric("peak_rss_mib", crate::util::peak_rss_mib(), "MiB");
        out.metric("jobs_per_s", median(&per_job), "1/s");
        out.metric("utilization", median(&busy), "share");
        out.metric(
            "weighted_response_s",
            starts.iter().sum::<f64>() / starts.len() as f64,
            "s",
        );
        out.metric("start_p50_ms", quantile(&starts, 0.5) * 1e3, "ms");
        out.metric("start_p99_ms", quantile(&starts, 0.99) * 1e3, "ms");
        out.metric("storm_jobs_per_s", solves.len() as f64 / seq_wall, "1/s");
        out.metric("solve_s", median(&solve_walls), "s");
        out.metric("rescale_p50_ms", quantile(&rescales, 0.5) * 1e3, "ms");
        return out;
    }

    trace::collect();
    trace::set_enabled(true);
    let (traced, _) = run_solves(n, &mut out);
    trace::set_enabled(false);
    let spans = trace::collect();
    let sum = Summary::of(&spans);
    let traced_walls: Vec<f64> = traced.iter().map(|s| s.solve_s).collect();
    let reports: Vec<&RescaleReport> = traced.iter().flat_map(|s| &s.reports).collect();
    let n = reports.len().max(1) as f64;
    let mean_ms =
        |f: &dyn Fn(&RescaleReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>() * 1e3 / n;
    let traced_rescales: Vec<f64> = traced.iter().flat_map(|s| s.rescale_s.clone()).collect();
    // Per-iteration time at full width (the shrunk windows run on 1 PE).
    let iters: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.windows.iter().filter(|(w, _)| *w == pes))
        .map(|(_, t)| t / WINDOW as f64)
        .collect();
    // Everything the drive loop did outside a layer call.
    let wall: f64 = traced.iter().map(|s| s.launch_s + s.solve_s).sum::<f64>();
    let inside: f64 = ["charm.launch", "charm.iter", "charm.rescale"]
        .iter()
        .map(|n| sum.get(n).total_s)
        .sum();
    let mut m = |n: &str, v: f64, u: &'static str| out.metric(n, v, u);
    m("charm.rescales", reports.len() as f64, "count");
    m(
        "charm.rescale_p99_ms",
        quantile(&traced_rescales, 0.99) * 1e3,
        "ms",
    );
    m("charm.lb_ms", mean_ms(&|r| r.stages.lb.as_secs()), "ms");
    m(
        "charm.ckpt_ms",
        mean_ms(&|r| r.stages.checkpoint.as_secs()),
        "ms",
    );
    m(
        "charm.restart_ms",
        mean_ms(&|r| r.stages.restart.as_secs()),
        "ms",
    );
    m(
        "charm.restore_ms",
        mean_ms(&|r| r.stages.restore.as_secs()),
        "ms",
    );
    m(
        "charm.migrated_chares",
        reports.iter().map(|r| r.migrated as f64).sum::<f64>() / n,
        "count",
    );
    m(
        "charm.bytes_moved",
        reports.iter().map(|r| r.bytes_moved as f64).sum::<f64>() / n,
        "B",
    );
    m("charm.iter_ms", median(&iters) * 1e3, "ms");
    m("charm.iter_bytes_computed", cfg.state_bytes() as f64, "B");
    m("workload.gen_s", median(&setup), "s");
    m(
        "trace.overhead",
        median(&traced_walls) / median(&solve_walls),
        "ratio",
    );
    m(
        "unattributed_share",
        ((wall - inside) / wall).max(0.0),
        "share",
    );
    out
}
