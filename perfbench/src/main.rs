//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public library and daemon APIs for
//! `--seconds`, checks every op's output, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. The line before it records the run's provenance. Traced
//! runs also write their spans under the output directory. See README.md.

mod check;
mod inputs;
mod metrics;
mod sys;
mod trace;
mod workloads;

use metrics::{Metric, Outcome, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Run, RunResult};

/// A run that has not finished by then is abandoned, so the process never
/// outlives the three minutes a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <plan-full-e|serve-zipf> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The repository root: the benchmark package's parent directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Where runs write: beside the build, inside the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target"));
    target.join("perfbench")
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_revision() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().into();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, run: &Run, lanes: usize, result: &RunResult, spans: &str) -> String {
    let mut samples = String::new();
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(samples, "{sep}\"{}\": {}", m.name, m.samples);
    }
    let measured: Vec<String> = if args.trace {
        args.workload
            .layers()
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect()
    } else {
        END_TO_END.iter().map(|(n, _)| format!("\"{n}\"")).collect()
    };
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"planner_lanes\": {lanes}, \"clients\": {}, \"git_revision\": \"{}\", \
         \"spans\": \"{spans}\", \"measured\": [{}], \"samples\": {{{samples}}}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        run.nproc,
        result.clients,
        git_revision(),
        measured.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; abandoning it");
        std::process::exit(3);
    });

    let nproc = match sys::cpus_allowed() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("cannot read the CPU affinity mask: {e}");
            return ExitCode::from(1);
        }
    };
    if args.workload.single_lane() {
        if let Err(e) = sys::pin_to_one_cpu() {
            eprintln!("cannot pin the planner to one CPU: {e}");
            return ExitCode::from(1);
        }
    }
    // Read after pinning: the planner sizes its lanes from this. The
    // daemon's workers each plan on a pool of their own instead.
    let lanes = if args.workload.single_lane() {
        klotski::parallel::default_lanes()
    } else {
        workloads::serve::LANES_PER_WORKER
    };
    if lanes != 1 {
        eprintln!("the planner sees {lanes} lanes, expected 1");
        return ExitCode::from(1);
    }

    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        out_dir: out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("cannot create {}: {e}", run.out_dir.display());
        return ExitCode::from(1);
    }
    let mut result = match args.workload {
        Workload::PlanFullE => workloads::plan::run(&run),
        Workload::ServeZipf => workloads::serve::run(&run),
    };
    if result.metrics.is_empty() {
        // A run that could not finish still prints the full metric set.
        let names = if args.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        result.metrics = names
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: 0.0,
                samples: 0,
            })
            .collect();
    }

    let mut spans = String::new();
    if let Some(tracer) = &result.tracer {
        let path = run.out_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => spans = path.display().to_string(),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", provenance(&args, &run, lanes, &result, &spans));
    let outcome = Outcome {
        correct: result.checks_ok && result.tally.failed == 0 && result.tally.attempted > 0,
        attempted: result.tally.attempted.max(1),
        failed: result.tally.failed,
        metrics: result.metrics,
    };
    println!("{}", metrics::result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse("--workload serve-zipf --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeZipf);
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve-zipf --seed 1 --seconds 1").is_err());
        assert!(parse("--workload serve-zipf --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve-zipf --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload").is_err());
    }
}
