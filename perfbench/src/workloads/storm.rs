//! The controller probe of plan-full-e's traced run: the migration
//! controller executes `examples/scenarios/storm_preset_c.json` at one lane,
//! once. The benchmark makes `run_scenario`'s public calls itself (region
//! build, spec build, initial plan, the controller loop), each inside a
//! span, and checks the report's fingerprint.

use crate::check::{storm_fingerprint_ok, Tally};
use crate::metrics::{ratio, Layers};
use crate::trace::{Tracer, OP};
use klotski::controller::{
    ControllerConfig, ControllerReport, ReplannerKind, Scenario, DEFAULT_FLIGHT_CAPACITY,
};
use klotski::core::migration::{MigrationBuilder, MigrationOptions};
use klotski::core::planner::{AStarPlanner, Planner, SearchBudget};
use klotski::core::CostModel;
use klotski::parallel::WorkerPool;
use klotski::topology::presets;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scenario file, relative to the repository root.
const SCENARIO: &str = "examples/scenarios/storm_preset_c.json";

/// The scenario document the controller receives: the storm file with
/// `"threads": 1`, so the checker and planner run on one lane.
fn scenario_json() -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(SCENARIO);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut scenario = Scenario::from_json(&text).map_err(|e| e.to_string())?;
    scenario.threads = Some(1);
    serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())
}

/// `run_scenario`'s sequence of public calls, one span each.
fn traced_run(t: &mut Tracer, input: &str) -> Result<ControllerReport, String> {
    t.op(|t| {
        let scenario = t
            .span("controller.parse", |_| Scenario::from_json(input))
            .map_err(|e| e.to_string())?;
        let id = scenario.preset_id().map_err(|e| e.to_string())?;
        let preset = t.span("controller.region_build", |_| presets::build_for_bench(id));
        let mut opts = MigrationOptions {
            ensemble: scenario.ensemble.clone(),
            ..MigrationOptions::default()
        };
        opts.theta = scenario.theta.unwrap_or(opts.theta);
        opts.threads = scenario.threads.map_or(opts.threads, |n| n.max(1));
        opts.block_scale = scenario.block_scale.unwrap_or(opts.block_scale);
        opts.progress_every = scenario
            .progress_every
            .map_or(opts.progress_every, |n| n.max(1));
        let spec = t
            .span("controller.spec_build", |_| {
                MigrationBuilder::for_preset(&preset, &opts)
            })
            .map_err(|e| e.to_string())?;
        let cfg = ControllerConfig {
            seed: scenario.seed,
            canary_blocks: scenario.canary_blocks,
            demand_growth_per_step: scenario.demand_growth_per_step,
            events: scenario.events.clone(),
            replan: scenario.replan.clone(),
            replanner: ReplannerKind::AStar,
            alpha: scenario.alpha,
            deadline: None,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        };
        let planner = AStarPlanner {
            cost: CostModel::new(cfg.alpha),
            budget: SearchBudget {
                max_states: 50_000_000,
                time_limit: Duration::from_millis(scenario.replan.time_limit_ms.max(30_000)),
                ..SearchBudget::default()
            },
            pool: Some(Arc::new(WorkerPool::new(spec.threads))),
            ..AStarPlanner::default()
        };
        let outcome = t
            .span("controller.initial_plan", |_| planner.plan(&spec))
            .map_err(|e| e.to_string())?;
        let mut report = t.span("controller.run", |_| {
            klotski::controller::run(&spec, &outcome.plan, &cfg)
        });
        report.name = scenario.name.clone();
        Ok(report)
    })
}

/// Runs the storm scenario once, counts it in `tally`, and records the
/// controller's per-layer metrics. Returns its spans, timed from `origin`
/// under op ids of their own.
pub fn probe(origin: Instant, tally: &mut Tally, layers: &mut Layers) -> Tracer {
    let mut t = Tracer::new(origin, 1 << 40);
    let report = scenario_json().and_then(|input| traced_run(&mut t, &input));
    let report = match report {
        Ok(r) if tally.record(storm_fingerprint_ok(r.fingerprint())) => r,
        Ok(r) => {
            eprintln!(
                "storm fingerprint {:016x} is not the expected one",
                r.fingerprint()
            );
            return t;
        }
        Err(e) => {
            eprintln!("controller run failed: {e}");
            tally.record(false);
            return t;
        }
    };
    let ms = |family| t.per_op_ms(family).iter().sum::<f64>();
    let replan_ms: f64 = report.replans.iter().map(|p| p.latency_ms).sum();
    let steps = report.steps.len() as f64;
    layers.set("controller.steps", steps, 1);
    layers.set(
        "controller.live_audits",
        report.audit_stats.live_audits as f64,
        1,
    );
    layers.set("controller.replans", report.replans.len() as f64, 1);
    layers.set("controller.pauses", report.pauses() as f64, 1);
    layers.set(
        "controller.audit_full_evaluations",
        report.audit_stats.full_evaluations as f64,
        1,
    );
    layers.set("controller.replan_ms", replan_ms, report.replans.len());
    layers.set(
        "controller.initial_plan_ms",
        ms("controller.initial_plan"),
        1,
    );
    let rest = ms(OP)
        - ms("controller.parse")
        - ms("controller.region_build")
        - ms("controller.spec_build")
        - ms("controller.initial_plan")
        - replan_ms;
    layers.set(
        "controller.audit_ms_per_step",
        ratio(rest, steps),
        report.steps.len(),
    );
    t
}
