//! plan-full-e: one caller planning the full-scale region-E NPD through
//! `plan_document`, the path `klotski plan` takes, on one lane.
//!
//! Untraced, an op is request bytes in to plan bytes out: `Npd::from_json`
//! and `plan_document`. Traced, the benchmark makes the same sequence of
//! public calls itself, each inside a span, and checks that the bytes are
//! the same. After the traced window come the probes: origin routing and
//! checks on E, the K=8 ensemble suite on preset C, and one controller run
//! of the storm scenario.

use super::{elapsed_ms, storm, timed_setups, Run, RunResult, SETUP_BURST};
use crate::check::{PlanExpect, Tally, FULL_E};
use crate::inputs::{self, ENSEMBLE_SUITE};
use crate::metrics::{median, ratio, Layers, Window, Workload};
use crate::trace::{Tracer, OP};
use klotski::core::migration::{MigrationBuilder, MigrationOptions, MigrationSpec};
use klotski::core::plan::validate_plan;
use klotski::core::planner::{AStarPlanner, PlanStats, Planner, SearchBudget};
use klotski::core::{audit_plan, CompactState, EnsembleSpec, EscMode, SatChecker};
use klotski::npd::convert::{attach_plan, npd_to_region};
use klotski::npd::{npd_digest, Npd, PlanRequestOptions};
use klotski::routing::{EcmpRouter, LoadMap};
use klotski::service::pipeline::plan_document;
use klotski::topology::presets::{Preset, PresetId};
use klotski::topology::region::build_region;
use std::time::Instant;

/// Repetitions of each origin probe; the median is reported.
const PROBE_REPS: usize = 5;

/// One planning request and the plan it must produce.
struct Case {
    npd_json: String,
    options: PlanRequestOptions,
    expect: PlanExpect,
}

/// The workload's input: the full-scale E NPD with default options.
fn full_e() -> Case {
    Case {
        npd_json: inputs::preset_npd_json(PresetId::E),
        options: PlanRequestOptions::default(),
        expect: FULL_E,
    }
}

/// The CLI path: parse, then `plan_document`. Returns the op's wall time
/// and whether its output matched.
fn untraced_op(case: &Case) -> (f64, bool) {
    let start = Instant::now();
    let planned = Npd::from_json(&case.npd_json)
        .map_err(|e| e.to_string())
        .and_then(|npd| {
            plan_document(&npd, &case.options, SearchBudget::default(), None)
                .map_err(|e| e.to_string())
        });
    let ms = elapsed_ms(start);
    let ok = match planned {
        Ok(a) => case
            .expect
            .matches(&a.plan_json, a.summary.cost, a.summary.phases),
        Err(e) => {
            eprintln!("plan failed: {e}");
            false
        }
    };
    (ms, ok)
}

/// An untraced op, counted in `tally`; returns its wall time.
fn tally_untraced(tally: &mut Tally, case: &Case) -> f64 {
    let (ms, ok) = untraced_op(case);
    tally.record(ok);
    ms
}

/// What a traced op leaves behind for the per-layer metrics.
struct Traced {
    ok: bool,
    stats: PlanStats,
    spec: MigrationSpec,
}

/// `plan_document`'s stage sequence, one span per public call.
fn traced_op(t: &mut Tracer, case: &Case) -> Result<Traced, String> {
    t.op(|t| {
        let npd = t
            .span("npd.parse", |_| Npd::from_json(&case.npd_json))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(t.span("npd.digest", |_| (npd_digest(&npd), case.options.digest())));
        let preset = t.span("topology.region_build", |_| {
            npd_to_region(&npd).map(|config| {
                let (topology, handles) = build_region(&config);
                Preset {
                    id: PresetId::A,
                    config,
                    topology,
                    handles,
                }
            })
        });
        let preset = preset.map_err(|e| e.to_string())?;
        let spec = t
            .span("core.spec_build", |_| {
                MigrationBuilder::for_preset(&preset, &MigrationOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let outcome = t
            .span("core.search", |_| AStarPlanner::default().plan(&spec))
            .map_err(|e| e.to_string())?;
        t.span("core.validate", |_| validate_plan(&spec, &outcome.plan))
            .map_err(|e| e.to_string())?;
        std::hint::black_box(t.span("core.audit", |_| audit_plan(&spec, &outcome.plan)));
        let bytes = t
            .span("npd.attach_encode", |_| {
                let mut shipped = npd.clone();
                attach_plan(&mut shipped, &spec, &outcome.plan);
                shipped.to_json_pretty()
            })
            .map_err(|e| e.to_string())?;
        let ok = case
            .expect
            .matches(bytes.as_bytes(), outcome.cost, outcome.plan.num_phases());
        Ok(Traced {
            ok,
            stats: outcome.stats,
            spec,
        })
    })
}

/// Untraced: ops until `run.seconds` have gone by, with `between_ops` run
/// after each.
fn measure(run: &Run, case: &Case, mut between_ops: impl FnMut()) -> Window {
    let mut w = Window::default();
    let cpu0 = crate::sys::usage().cpu;
    let start = Instant::now();
    while w.tally.attempted == 0 || start.elapsed().as_secs_f64() < run.seconds {
        let (ms, ok) = untraced_op(case);
        if w.tally.record(ok) {
            w.latencies_ms.push(ms);
        }
        between_ops();
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w.cpu_ms = (crate::sys::usage().cpu - cpu0).as_secs_f64() * 1e3;
    w
}

/// Wall times of `PROBE_REPS` runs of `f`, each after a fresh `prepare`
/// (which is not timed).
fn probe<S>(mut prepare: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> Vec<f64> {
    (0..PROBE_REPS)
        .map(|_| {
            let mut state = prepare();
            let start = Instant::now();
            f(&mut state);
            elapsed_ms(start)
        })
        .collect()
}

/// One satisfiability check at the origin: ESC off, one lane, a fresh
/// checker each time, with incremental routing as given. Returns the times
/// and whether every verdict was "safe", which a plannable migration's
/// origin must be.
fn check_origin(spec: &MigrationSpec, incremental: bool) -> (Vec<f64>, bool) {
    let spec = MigrationSpec {
        incremental,
        ..spec.clone()
    };
    let origin = CompactState::origin(spec.num_types());
    let mut safe = true;
    let times = probe(
        || SatChecker::with_threads(&spec, EscMode::Off, 1),
        |checker| safe &= checker.check(&spec, &origin, &spec.initial, None),
    );
    (times, safe)
}

/// The C spec planned under a K-matrix ensemble, for the K=8 / K=1 probe.
fn preset_c_spec(k: usize, ensemble_seed: u64) -> Result<MigrationSpec, String> {
    let preset = klotski::topology::presets::build(PresetId::C);
    let options = MigrationOptions {
        ensemble: Some(EnsembleSpec::with_k(k, ensemble_seed)),
        ..MigrationOptions::default()
    };
    MigrationBuilder::for_preset(&preset, &options).map_err(|e| e.to_string())
}

/// Routing at E's origin: the bare router, then a from-scratch check,
/// which includes it.
fn origin_probes(spec: &MigrationSpec, layers: &mut Layers) -> bool {
    let route_ms = probe(
        || {
            let router = EcmpRouter::with_policy(&spec.topology, spec.split);
            (router, LoadMap::new(&spec.topology))
        },
        |(router, loads)| {
            std::hint::black_box(router.route(&spec.topology, &spec.initial, &spec.demands, loads));
        },
    );
    layers.median("routing.route_origin_ms", &route_ms);
    let (check_ms, safe) = check_origin(spec, false);
    layers.median("routing.check_origin_ms", &check_ms);
    safe
}

/// The ensemble layer on preset C: each member of the K=8 suite planned
/// through `plan_document` and checked, and an origin check at K=8 against
/// one at K=1 as the planner runs them (the incremental router routes once
/// per state and replays only the load sweep for each extra matrix).
fn ensemble_probe(tally: &mut Tally, layers: &mut Layers) -> Result<bool, String> {
    let npd = Npd::from_json(&inputs::preset_npd_json(PresetId::C)).map_err(|e| e.to_string())?;
    let mut matrix_checks = Vec::new();
    let mut short_circuits = Vec::new();
    for case in &ENSEMBLE_SUITE {
        let options = inputs::ensemble_options(case);
        let a = plan_document(&npd, &options, SearchBudget::default(), None)
            .map_err(|e| e.to_string())?;
        let s = &a.summary;
        tally.record(case.expect.matches(&a.plan_json, s.cost, s.phases));
        matrix_checks.push(s.ensemble_matrix_checks as f64);
        short_circuits.push(s.ensemble_short_circuits as f64);
    }
    layers.median("routing.ensemble_matrix_checks", &matrix_checks);
    layers.median("routing.ensemble_short_circuits", &short_circuits);

    let seed = ENSEMBLE_SUITE[0].ensemble_seed;
    let (k8_ms, k8_safe) = check_origin(&preset_c_spec(8, seed)?, true);
    let (k1_ms, k1_safe) = check_origin(&preset_c_spec(1, seed)?, true);
    layers.set(
        "routing.check_k8_over_k1",
        ratio(median(&k8_ms), median(&k1_ms)),
        k8_ms.len(),
    );
    Ok(k8_safe && k1_safe)
}

/// A per-layer metric read from the search counters a plan returns.
type Counter = (&'static str, fn(&PlanStats) -> f64);

/// Traced: the case is planned untraced and traced, round after round, the
/// pair's order alternating so that neither arm always runs on the caches
/// the other warmed; the probes run once the window closes.
fn measure_traced(run: &Run, case: &Case) -> RunResult {
    let mut tally = Tally::default();
    let origin = Instant::now();
    let mut t = Tracer::new(origin, 0);
    let mut untraced_ms = Vec::new();
    let mut stats = Vec::new();
    let mut last_spec = None;
    // One untimed op first, so neither arm of the overhead pays the
    // process's cold start.
    tally.record(untraced_op(case).1);
    let start = Instant::now();
    while stats.is_empty() || start.elapsed().as_secs_f64() < run.seconds {
        let untraced_first = stats.len() % 2 == 0;
        if untraced_first {
            untraced_ms.push(tally_untraced(&mut tally, case));
        }
        match traced_op(&mut t, case) {
            Ok(traced) => {
                tally.record(traced.ok);
                stats.push(traced.stats);
                last_spec = Some(traced.spec);
            }
            Err(e) => {
                eprintln!("traced plan failed: {e}");
                tally.record(false);
                return RunResult::failed(tally);
            }
        }
        if !untraced_first {
            untraced_ms.push(tally_untraced(&mut tally, case));
        }
    }
    let Some(spec) = last_spec else {
        return RunResult::failed(tally);
    };

    let mut layers = Layers::default();
    for (metric, family) in [
        ("npd.parse_ms", "npd.parse"),
        ("npd.digest_ms", "npd.digest"),
        ("npd.attach_encode_ms", "npd.attach_encode"),
        ("topology.region_build_ms", "topology.region_build"),
        ("core.spec_build_ms", "core.spec_build"),
        ("core.search_ms", "core.search"),
        ("core.validate_ms", "core.validate"),
        ("core.audit_ms", "core.audit"),
    ] {
        layers.median(metric, &t.per_op_ms(family));
    }
    let counters: [Counter; 8] = [
        ("core.states_visited", |s| s.states_visited as f64),
        ("core.sat_checks", |s| s.sat_checks as f64),
        ("core.full_evaluations", |s| s.full_evaluations as f64),
        ("core.esc_hit_ratio", PlanStats::cache_hit_rate),
        ("core.satcheck_ms", |s| s.satcheck_time.as_secs_f64() * 1e3),
        ("routing.incremental_dirty", |s| s.incremental_dirty as f64),
        ("routing.incremental_clean", |s| s.incremental_clean as f64),
        ("routing.replay_ratio", PlanStats::incremental_hit_rate),
    ];
    for (metric, count) in counters {
        layers.median(metric, &stats.iter().map(count).collect::<Vec<f64>>());
    }
    let traced_ms = t.per_op_ms(OP);
    layers.set(
        "telemetry.overhead_pct",
        100.0 * (ratio(median(&traced_ms), median(&untraced_ms)) - 1.0),
        traced_ms.len() + untraced_ms.len(),
    );
    layers.median("unattributed_pct", &t.unattributed_pct());

    let mut origins_safe = origin_probes(&spec, &mut layers);
    drop(spec);
    match ensemble_probe(&mut tally, &mut layers) {
        Ok(safe) => origins_safe &= safe,
        Err(e) => {
            eprintln!("ensemble probe failed: {e}");
            tally.record(false);
        }
    }
    if !origins_safe {
        eprintln!("an origin check reported the origin unsafe");
    }
    t.absorb(storm::probe(origin, &mut tally, &mut layers));
    RunResult::traced(tally, origins_safe, layers, Workload::PlanFullE, t)
}

/// Runs plan-full-e.
pub fn run(run: &Run) -> RunResult {
    let (mut setups, case) = timed_setups(SETUP_BURST, full_e);
    if run.trace {
        return measure_traced(run, &case);
    }
    let w = measure(run, &case, || {
        setups.extend(timed_setups(SETUP_BURST, full_e).0)
    });
    RunResult::untraced(&setups, w, true)
}
