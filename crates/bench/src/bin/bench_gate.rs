//! Bench-regression gate: compares a fresh `baseline` run against the
//! committed perf trajectory point.
//!
//! CI runs a full-size `baseline --json <fresh.json>` and then this
//! binary:
//!
//! ```text
//! cargo run --release -p gridvm-bench --bin bench_gate -- \
//!     --committed BENCH_simcore.json --fresh /tmp/fresh.json \
//!     --gate "engine: chained events=0.45" \
//!     --gate "overlay: routed packet churn=0.55"
//! ```
//!
//! Each `--gate` names one scenario and its tolerated drop after `=`
//! (labels contain `:`, so `=` is the separator). A gate without a
//! drop, or no `--gate` at all, is a usage error (exit 2): each
//! scenario's noise differs, so no default threshold fits them all.
//! The gate fails (exit 1) when any fresh `ops_per_sec` mean
//! drops more than its threshold below the committed mean — every
//! gated scenario is checked and reported before the verdict, so one
//! run shows all regressions. Only drops fail: wall-clock throughput
//! is machine-dependent, so the committed number is a *floor* with
//! slack, not a target. The two reports must share their top-level
//! `"quick"` flag: a quick run's rates differ from a full-size run's
//! by a scenario-dependent factor, so no margin compares them. The
//! scan reads only the `"quick"` flag, the scenario labels and their
//! `ops_per_sec` means, which the harness's `gridvm-bench/v1` and
//! `gridvm-bench/v2` schemas share, so a committed v1 report gates a
//! fresh v2 one. The values are extracted with a purpose-built string
//! scan (the workspace deliberately has no JSON dependency).

use std::process::ExitCode;

const USAGE: &str = "usage: bench_gate --committed FILE --fresh FILE \
                     --gate \"label=drop\" [--gate \"label=drop\" ...]";

/// Extracts the `ops_per_sec` mean for `scenario` from a
/// `gridvm-bench` report: finds the scenario's label, then the
/// first `"ops_per_sec"` measurement after it and before the next
/// scenario's label, then its `"mean"`.
fn ops_per_sec_mean(json: &str, scenario: &str) -> Result<f64, String> {
    let label_token = format!("\"label\":\"{scenario}\"");
    let at = json
        .find(&label_token)
        .ok_or_else(|| format!("scenario {scenario:?} not found in report"))?;
    let rest = &json[at + label_token.len()..];
    let rest = &rest[..rest.find("\"label\":").unwrap_or(rest.len())];
    let ops = rest
        .find("\"ops_per_sec\":{")
        .ok_or_else(|| format!("scenario {scenario:?} has no ops_per_sec measurement"))?;
    let rest = &rest[ops..];
    let mean_token = "\"mean\":";
    let mean = rest
        .find(mean_token)
        .ok_or_else(|| format!("scenario {scenario:?} ops_per_sec has no mean"))?;
    let tail = &rest[mean + mean_token.len()..];
    let end = tail
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated mean value for {scenario:?}"))?;
    tail[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("unparseable mean {:?} for {scenario:?}: {e}", &tail[..end]))
}

/// Reads a report's top-level `"quick"` flag, which the harness writes
/// ahead of the scenarios.
fn quick_flag(json: &str) -> Result<bool, String> {
    let head = json.split("\"scenarios\":").next().unwrap_or(json);
    let token = "\"quick\":";
    let at = head
        .find(token)
        .ok_or("report has no top-level \"quick\" flag")?;
    let value = head[at + token.len()..].trim_start();
    if value.starts_with("true") {
        Ok(true)
    } else if value.starts_with("false") {
        Ok(false)
    } else {
        Err("report's \"quick\" flag is not a boolean".to_owned())
    }
}

/// Fails, naming both values, unless the committed and fresh reports
/// ran in the same mode.
fn same_mode(committed: &str, fresh: &str) -> Result<(), String> {
    let (want, got) = (quick_flag(committed)?, quick_flag(fresh)?);
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "the committed report has \"quick\":{want} but the fresh one has \"quick\":{got}; \
             rerun baseline in the committed report's mode"
        ))
    }
}

/// One gated scenario: its label and its tolerated drop below the
/// committed mean.
struct Gate {
    scenario: String,
    max_drop: f64,
}

/// Parses a `--gate` operand, `"label=drop"`. Labels contain `:`, so
/// `=` is the threshold separator.
fn parse_gate(spec: &str) -> Result<Gate, String> {
    let (label, drop) = spec
        .rsplit_once('=')
        .ok_or_else(|| format!("--gate {spec:?}: give the tolerated drop as `label=drop`"))?;
    let drop = drop
        .parse::<f64>()
        .map_err(|e| format!("--gate {spec:?}: bad drop: {e}"))?;
    if !(0.0..1.0).contains(&drop) {
        return Err(format!("--gate {spec:?}: drop must be in [0, 1)"));
    }
    Ok(Gate {
        scenario: label.to_owned(),
        max_drop: drop,
    })
}

struct Args {
    committed: String,
    fresh: String,
    gates: Vec<Gate>,
}

/// Parses the command line (without the program name).
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut committed = None;
    let mut fresh = None;
    let mut gates = Vec::new();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--committed" => committed = Some(value("--committed")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--gate" => gates.push(parse_gate(&value("--gate")?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if gates.is_empty() {
        return Err("at least one --gate \"label=drop\" is required".to_owned());
    }
    Ok(Args {
        committed: committed.ok_or("--committed <file> is required")?,
        fresh: fresh.ok_or("--fresh <file> is required")?,
        gates,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let committed = std::fs::read_to_string(&args.committed)
        .map_err(|e| format!("reading {}: {e}", args.committed))?;
    let fresh =
        std::fs::read_to_string(&args.fresh).map_err(|e| format!("reading {}: {e}", args.fresh))?;
    same_mode(&committed, &fresh)?;
    let mut regressions = Vec::new();
    for gate in &args.gates {
        let want = ops_per_sec_mean(&committed, &gate.scenario)?;
        let got = ops_per_sec_mean(&fresh, &gate.scenario)?;
        let floor = want * (1.0 - gate.max_drop);
        println!(
            "bench_gate: {:?} committed {want:.0} ops/sec, fresh {got:.0} ops/sec, floor \
             {floor:.0} (max drop {:.0}%)",
            gate.scenario,
            gate.max_drop * 100.0
        );
        if got < floor {
            regressions.push(format!(
                "{:?}: fresh {got:.0} ops/sec is {:.1}% below the committed {want:.0}",
                gate.scenario,
                (1.0 - got / want) * 100.0
            ));
        }
    }
    if !regressions.is_empty() {
        return Err(format!("regression: {}", regressions.join("; ")));
    }
    println!("bench_gate: OK ({} scenario(s) gated)", args.gates.len());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_gate: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_gate: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal but faithful excerpt of the `gridvm-bench/v2` shape.
    const SAMPLE: &str = r#"{"schema":"gridvm-bench/v2","quick":false,"scenarios":[
        {"label":"engine: chained events","samples":5,"paper":null,
         "measurements":{"ops_per_sec":{"count":5,"mean":42132855.097271875,"std":770302.34,"min":41457238.5,"max":43048820.8},
                         "wall_us":{"count":5,"mean":2374.07,"std":43.13,"min":2322.9,"max":2412.1}},
         "metrics":{"counters":{"sim.events_executed":500000},"histograms":{}}},
        {"label":"queue: push+pop random times","samples":5,"paper":null,
         "measurements":{"ops_per_sec":{"count":5,"mean":7578472.375,"std":806744.57,"min":6307862.2,"max":8293575.3}},
         "metrics":{"counters":{},"histograms":{}}}]}"#;

    #[test]
    fn extracts_the_right_scenario_mean() {
        let v = ops_per_sec_mean(SAMPLE, "engine: chained events").unwrap();
        assert!((v - 42_132_855.097_271_875).abs() < 1e-6);
        let v = ops_per_sec_mean(SAMPLE, "queue: push+pop random times").unwrap();
        assert!((v - 7_578_472.375).abs() < 1e-6);
    }

    #[test]
    fn missing_scenario_is_an_error() {
        let err = ops_per_sec_mean(SAMPLE, "no such scenario").unwrap_err();
        assert!(err.contains("not found"), "{err}");
    }

    #[test]
    fn truncated_report_is_an_error() {
        let cut = &SAMPLE[..SAMPLE.find("ops_per_sec").unwrap()];
        let err = ops_per_sec_mean(cut, "engine: chained events").unwrap_err();
        assert!(err.contains("no ops_per_sec"), "{err}");
    }

    #[test]
    fn gate_without_threshold_or_no_gate_is_rejected() {
        let err = parse_gate("overlay: routed packet churn")
            .err()
            .expect("a gate needs its drop");
        assert!(err.contains("label=drop"), "{err}");
        let args = |list: &[&str]| parse_args(list.iter().map(|&a| a.to_owned()));
        let err = args(&["--committed", "c.json", "--fresh", "f.json"])
            .err()
            .expect("at least one gate is required");
        assert!(err.contains("--gate"), "{err}");
        assert!(args(&[
            "--committed",
            "c.json",
            "--fresh",
            "f.json",
            "--gate",
            "x=0.5"
        ])
        .is_ok());
    }

    #[test]
    fn gate_spec_with_threshold_parses_both_parts() {
        // Labels contain ':', so '=' separates the per-scenario drop.
        let g = parse_gate("slot: insert/remove/get churn=0.45").unwrap();
        assert_eq!(g.scenario, "slot: insert/remove/get churn");
        assert_eq!(g.max_drop, 0.45);
    }

    #[test]
    fn gate_spec_rejects_bad_thresholds() {
        assert!(parse_gate("engine: chained events=1.5").is_err());
        assert!(parse_gate("engine: chained events=nope").is_err());
    }

    #[test]
    fn reports_in_different_modes_are_refused() {
        let quick = SAMPLE.replacen("\"quick\":false", "\"quick\":true", 1);
        assert_eq!(quick_flag(SAMPLE), Ok(false));
        assert_eq!(quick_flag(&quick), Ok(true));
        assert!(same_mode(SAMPLE, SAMPLE).is_ok());
        assert!(same_mode(&quick, &quick).is_ok());
        let err = same_mode(SAMPLE, &quick).unwrap_err();
        assert!(
            err.contains("\"quick\":false") && err.contains("\"quick\":true"),
            "{err}"
        );
        let unflagged = SAMPLE.replacen("\"quick\":false,", "", 1);
        assert!(same_mode(&unflagged, SAMPLE).is_err());
    }

    #[test]
    fn the_committed_point_reads_like_a_fresh_report() {
        // BENCH_simcore.json was recorded in gridvm-bench/v1, whose
        // metrics blocks carried two kinds v2 dropped; the gate reads
        // only what the two schemas share.
        let committed = include_str!("../../../../BENCH_simcore.json");
        assert!(same_mode(committed, SAMPLE).is_ok());
        for label in ["engine: chained events", "queue: push+pop random times"] {
            let mean = ops_per_sec_mean(committed, label);
            assert!(matches!(mean, Ok(v) if v > 0.0), "{label}: {mean:?}");
        }
    }

    #[test]
    fn a_scenario_without_ops_never_reads_the_next_scenarios_mean() {
        let report = r#"{"schema":"gridvm-bench/v2","quick":false,"scenarios":[
            {"label":"a","samples":1,"paper":null,
             "measurements":{"wall_us":{"count":1,"mean":5.0,"std":0.0,"min":5.0,"max":5.0}},
             "metrics":{"counters":{},"histograms":{}}},
            {"label":"b","samples":1,"paper":null,
             "measurements":{"ops_per_sec":{"count":1,"mean":777.0,"std":0.0,"min":777.0,"max":777.0}},
             "metrics":{"counters":{},"histograms":{}}}]}"#;
        let err = ops_per_sec_mean(report, "a").unwrap_err();
        assert!(err.contains("no ops_per_sec"), "{err}");
        assert_eq!(ops_per_sec_mean(report, "b"), Ok(777.0));
    }

    #[test]
    fn mean_is_read_from_ops_not_wall_us() {
        // wall_us also has a "mean"; the scan must anchor on the
        // ops_per_sec object first.
        let v = ops_per_sec_mean(SAMPLE, "engine: chained events").unwrap();
        assert!(v > 1e6, "got wall_us mean by mistake: {v}");
    }
}
