//! The workloads and what they share: the run settings, set-up timing,
//! and the result each hands back to `main`.

pub mod plan;
pub mod serve;
pub mod storm;

use crate::check::Tally;
use crate::metrics::{self, Layers, Metric, Window, Workload};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Where the run may write (daemon state, spans).
    pub out_dir: PathBuf,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct RunResult {
    pub tally: Tally,
    /// Every check beyond the per-op ones passed.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
    /// Client threads or connections that generated the load.
    pub clients: usize,
}

impl RunResult {
    /// End-to-end metrics of an untraced window.
    pub fn untraced(setups: &[f64], w: Window, checks_ok: bool) -> Self {
        let peak = crate::sys::usage().peak_rss_mb;
        Self {
            tally: w.tally,
            checks_ok,
            metrics: metrics::end_to_end(setups, &w, peak),
            tracer: None,
            clients: 1,
        }
    }

    /// Per-layer metrics of a traced run; fails the run unless exactly the
    /// workload's own layers were recorded.
    pub fn traced(
        tally: Tally,
        checks_ok: bool,
        layers: Layers,
        workload: Workload,
        tracer: Tracer,
    ) -> Self {
        match layers.finish(workload) {
            Ok(metrics) => Self {
                tally,
                checks_ok,
                metrics,
                tracer: Some(tracer),
                clients: 1,
            },
            Err(e) => {
                eprintln!("{e}");
                Self::failed(tally)
            }
        }
    }

    /// A run that could not finish; `main` reports its metrics as 0.
    pub fn failed(tally: Tally) -> Self {
        Self {
            tally,
            checks_ok: false,
            metrics: Vec::new(),
            tracer: None,
            clients: 1,
        }
    }
}

/// Wall time since `start`, ms.
pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Set-ups per burst for workloads whose set-up takes microseconds. One
/// burst runs before the window and another after every op in it: a single
/// burst samples one instant of a shared machine, the bursts sample the
/// whole run the way the ops do. Each burst adds microseconds to the
/// window.
pub const SETUP_BURST: usize = 11;

/// Runs `setup` `repeats` times; returns each one's seconds and the last
/// result. `setup_s` is the median over every set-up of the run.
pub fn timed_setups<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let out = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (times, last.expect("at least one set-up"))
}
