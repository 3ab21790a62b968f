//! `perfbench`: the end-to-end benchmark of gridvm.
//!
//! Three workloads, one per process:
//!
//! * `vo_serial` — the 192-site regional virtual organization
//!   (`build_vo_scale`, uniform placement) at 8 shards on one thread,
//!   the packing `ext_vo_scale` uses;
//! * `vo_threads` — the same world and seed at shards = threads = 2,
//!   the only workload on the threaded window loop;
//! * `pvfs_io` — Table 1's rows: SPECseis (scaled) and SPECclimate run
//!   natively, in a VM on local disk, and in a VM on PVFS (proxy-cached
//!   NFS over the WAN).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats its workload for `--seconds` (and at least
//! [`MIN_REPS`] times) and reports medians over the repetitions. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`; with `--trace 1`, the per-layer metrics of a run that
//! alternates untraced and traced repetitions, whose spans are written
//! to `perfbench/out/spans-<workload>-seed<n>.jsonl`. The exit code is
//! 0 only when every correctness check passed. README.md maps every
//! metric to its layer.

mod probe;
mod pvfs;
mod spans;
mod vo;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::median;
use spans::Spans;

const USAGE: &str = "usage: perfbench --workload <vo_serial|vo_threads|pvfs_io> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Repetitions every run makes whatever `--seconds` says, so each
/// median (and, traced, each side of the overhead) has a few samples.
const MIN_REPS: usize = 6;

/// End-to-end metrics and their units, measured with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("events_per_s", "1/s"),
    ("blocks_per_s", "1/s"),
];

/// Per-layer metrics and their units, from traced repetitions. A
/// workload that never enters a layer reports that layer's metrics as
/// 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("shard.run_s", "s"),
    ("sim.events_executed", "count"),
    ("shard.windows", "count"),
    ("shard.events_per_window", "count"),
    ("shard.messages", "count"),
    ("shard.ns_per_event", "ns"),
    ("shard.model_speedup_x", "x"),
    ("shard.busy_frac", "ratio"),
    ("sim.events_boxed", "count"),
    ("shard.outbox_regrown", "count"),
    ("trace.sampled", "count"),
    ("trace.dropped", "count"),
    ("trace.digest_s", "s"),
    ("metrics.harvest_s", "s"),
    ("metrics.tracked_entries", "count"),
    ("multisite.build_s", "s"),
    ("vo.hops", "count"),
    ("vo.sessions_completed", "count"),
    ("vmm.run_app_s", "s"),
    ("vmm.self_s", "s"),
    ("vmm.traps", "count"),
    ("vfs.export_build_s", "s"),
    ("vfs.io_run_s", "s"),
    ("vfs.ns_per_block", "ns"),
    ("vfs.proxy_hits", "count"),
    ("vfs.proxy_misses", "count"),
    ("vfs.proxy_hit_ratio", "ratio"),
    ("vfs.proxy_prefetched", "count"),
    ("vfs.rpc_round_trips", "count"),
    ("vfs.rpcs_per_block", "ratio"),
    ("storage.io_run_s", "s"),
    ("storage.ns_per_block", "ns"),
    ("machine.spin_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.tracing_overhead_s", "s"),
];

/// One measured repetition of a workload.
pub struct Rep {
    /// Set-up before timing starts: building the world or the exports.
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Process CPU time (user + sys) over the timed phase.
    pub cpu_s: f64,
    /// Work done in the timed phase: engine events on the VO workloads,
    /// 8 KiB guest I/O blocks on `pvfs_io`.
    pub work: f64,
    /// Per-layer readings by [`PER_LAYER`] name; reported from traced
    /// repetitions only.
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload: set up once by its constructor, then repeated.
pub trait Workload {
    /// Runs one repetition, recording spans when `spans` is on.
    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep;

    /// Checks made once after measuring, when running them earlier
    /// would disturb a measurement.
    fn final_checks(&mut self, _checks: &mut Checks) {}
}

/// Correctness checks, each counted as one attempt.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on standard error.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

/// The result line the benchmark's caller reads: one JSON object.
fn json_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; every divisor above is
            // clamped, so this only guards the format.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let mut bench: Box<dyn Workload> = match args.workload.as_str() {
        "vo_serial" => Box::new(vo::VoBench::new(
            vo::Packing::Serial,
            args.seed,
            &mut checks,
        )),
        "vo_threads" => Box::new(vo::VoBench::new(
            vo::Packing::Threads,
            args.seed,
            &mut checks,
        )),
        "pvfs_io" => Box::new(pvfs::PvfsBench::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Traced runs alternate untraced and traced repetitions, so both
    // sides of the tracing overhead see the same host drift. The canary
    // runs before every repetition for the same reason.
    let mut spans = Spans::default();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut spins = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        spins.push(probe::spin_secs());
        let traced = args.trace && reps.len() % 2 == 1;
        spans.start_rep(reps.len(), traced);
        let rep = bench.rep(&mut spans, &mut checks);
        eprintln!(
            "perfbench: repetition {} traced={traced} setup_s={:.6} wall_s={:.6} spin_s={:.6}",
            reps.len(),
            rep.setup_s,
            rep.wall_s,
            spins.last().copied().unwrap_or(0.0)
        );
        reps.push((traced, rep));
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss_mib = probe::peak_rss_mib();
    bench.final_checks(&mut checks);

    let pick = |traced: bool, f: fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = reps
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, r)| f(r))
            .collect();
        median(&values)
    };
    // Each workload's unit of work per second. The two names alias on
    // the workload that lacks the other unit (see README.md).
    let rate = pick(false, |r| r.work / r.wall_s);
    let end_to_end = [
        pick(false, |r| r.wall_s),
        pick(false, |r| r.setup_s),
        pick(false, |r| r.cpu_s),
        peak_rss_mib,
        rate,
        rate,
    ];
    let spin_s = median(&spins);

    let traced_reps = reps.iter().filter(|(t, _)| *t).count();
    println!(
        "perfbench {} seed {}: {} repetitions ({traced_reps} traced) in {measured_s:.1} s",
        args.workload,
        args.seed,
        reps.len()
    );
    println!("end to end, untraced repetitions (median):");
    for ((name, unit), value) in END_TO_END.iter().zip(end_to_end) {
        println!("  {name:<26} {value:>18.6} {unit}");
    }
    println!("  {:<26} {spin_s:>18.6} s", "machine.spin_s");

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (_, rep) in reps.iter().filter(|(t, _)| *t) {
            for &(name, value) in &rep.layers {
                layers.entry(name).or_default().push(value);
            }
        }
        let mut values: BTreeMap<&str, f64> =
            layers.iter().map(|(name, v)| (*name, median(v))).collect();
        let (untraced_wall, traced_wall) = (pick(false, |r| r.wall_s), pick(true, |r| r.wall_s));
        values.insert("machine.spin_s", spin_s);
        values.insert("bench.untraced_wall_s", untraced_wall);
        values.insert("bench.traced_wall_s", traced_wall);
        values.insert("bench.tracing_overhead_s", traced_wall - untraced_wall);
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        println!("per layer, traced repetitions (median):");
        for (name, value, unit) in &metrics {
            println!("  {name:<26} {value:>18.6} {unit}");
        }
        println!("span self time per repetition (median):");
        for (name, self_s, total_s) in spans.self_times() {
            println!("  {name:<26} self {self_s:>12.6} s   total {total_s:>12.6} s");
        }
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        let written = spans.write_jsonl(&path);
        checks.expect(written.is_ok(), || {
            format!("writing spans to {}: {written:?}", path.display())
        });
        println!("spans: {}", path.display());
        metrics
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    println!("{}", json_line(&checks, &metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_contract_flags() {
        let args = parse("--workload pvfs_io --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(
            args,
            Args {
                workload: "pvfs_io".to_owned(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(parse("--seed 1").is_err(), "workload is required");
        assert!(parse("--workload vo_serial --trace 2").is_err());
        assert!(parse("--workload vo_serial --seconds 0").is_err());
        assert!(parse("--workload vo_serial --seed").is_err());
        assert!(parse("--workload vo_serial --bogus 1").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut checks = Checks::default();
        checks.expect(true, String::new);
        let line = json_line(&checks, &[("wall_s", 0.5, "s"), ("x", f64::NAN, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
