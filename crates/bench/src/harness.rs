//! Shared experiment framework: CLI options, the [`Experiment`]
//! trait, the parallel replication driver, and text/JSON reporting.
//!
//! Every reproduction binary is an [`Experiment`]: a list of
//! [`Scenario`]s, a `run_sample` that produces named measurements for
//! one `(scenario, sample)` pair, and an optional epilogue. The
//! framework owns everything else — seed derivation, fanning samples
//! across OS threads through
//! [`ReplicationRunner`](gridvm_simcore::replication::ReplicationRunner),
//! per-scenario statistics, merged [`Metrics`] registries, the text
//! table, and the `--json` trajectory file.
//!
//! Determinism: the seed of `(scenario, sample)` is
//! `derive_seed(split(master, scenario_label), sample)`, a pure
//! function of the master seed and the scenario's label. Samples are
//! merged in index order. Summary statistics and merged metrics are
//! therefore bit-identical for every `--threads` value, including 1.

use std::fmt::Write as _;

use gridvm_simcore::metrics::Metrics;
use gridvm_simcore::replication::{derive_seed, ReplicationRunner};
use gridvm_simcore::rng::SimRng;
use gridvm_simcore::stats::OnlineStats;

/// Common options every reproduction binary accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Number of measurement samples per scenario (0 = per-experiment
    /// default).
    pub samples: usize,
    /// Quick mode: shrink workloads for smoke runs.
    pub quick: bool,
    /// Worker threads for the replication runner (0 = one per core).
    pub threads: usize,
    /// When set, write the JSON report here.
    pub json: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 20030517, // ICDCS 2003's opening day
            samples: 0,
            quick: false,
            threads: 0,
            json: None,
        }
    }
}

/// A malformed command line, with the message shown to the user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl std::error::Error for UsageError {}

/// The flag reference printed on usage errors and `--help`.
pub const USAGE: &str = "\
Options:
  --seed N       master seed (default 20030517)
  --samples N    measurement samples per scenario (default: per experiment)
  --threads N    worker threads, 0 = one per core (default 0)
  --json PATH    also write the report as JSON to PATH
  --quick        shrink workloads for a smoke run
  --help         print this help";

impl Options {
    /// Parses flags from an argument iterator (without the program
    /// name). Unknown flags and malformed values produce a
    /// [`UsageError`] listing the known flags.
    pub fn parse<I>(args: I) -> Result<Self, UsageError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        fn value<T: std::str::FromStr>(
            flag: &str,
            kind: &str,
            v: Option<String>,
        ) -> Result<T, UsageError> {
            let v = v.ok_or_else(|| UsageError(format!("error: {flag} needs a value")))?;
            v.parse()
                .map_err(|_| UsageError(format!("error: {flag} value {v:?} is not a {kind}")))
        }
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => opts.seed = value("--seed", "u64", args.next())?,
                "--samples" => opts.samples = value("--samples", "usize", args.next())?,
                "--threads" => opts.threads = value("--threads", "usize", args.next())?,
                "--json" => {
                    let v = args
                        .next()
                        .ok_or_else(|| UsageError("error: --json needs a path".to_owned()))?;
                    opts.json = Some(std::path::PathBuf::from(v));
                }
                "--quick" => opts.quick = true,
                "--help" | "-h" => {
                    return Err(UsageError("help requested".to_owned()));
                }
                other => {
                    return Err(UsageError(format!("error: unknown option {other:?}")));
                }
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments; on a usage error, prints the
    /// message plus the known flags and exits (0 for `--help`, 2
    /// otherwise) instead of panicking.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(e) if e.0 == "help requested" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// The sample count to use given an experiment default.
    pub fn samples_or(&self, default: usize) -> usize {
        if self.samples > 0 {
            self.samples
        } else if self.quick {
            default.div_ceil(10).max(2)
        } else {
            default
        }
    }
}

/// One named quantity measured by a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Stable measurement name (JSON key and table column/row).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor for a [`Measurement`].
pub fn m(name: &'static str, value: f64) -> Measurement {
    Measurement { name, value }
}

/// One experimental condition: a labelled cell of the experiment's
/// design matrix, replicated `samples` times.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Position in the experiment's scenario list; `run_sample` uses
    /// it to recover the condition's parameters.
    pub index: usize,
    /// Human-readable condition label (also the seed-lineage label,
    /// so renaming a scenario re-seeds only that scenario).
    pub label: String,
    /// Replications of this scenario.
    pub samples: usize,
}

impl Scenario {
    /// Creates a scenario descriptor.
    pub fn new(index: usize, label: impl Into<String>, samples: usize) -> Self {
        Scenario {
            index,
            label: label.into(),
            samples,
        }
    }
}

/// Per-sample context handed to [`Experiment::run_sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleCtx {
    /// Scenario index (same as `scenario.index`).
    pub scenario: usize,
    /// Sample index within the scenario.
    pub sample: usize,
    /// Seed derived from `(master seed, scenario label, sample)`.
    pub seed: u64,
}

impl SampleCtx {
    /// A generator seeded for this `(scenario, sample)` pair.
    pub fn rng(&self) -> SimRng {
        SimRng::seed_from(self.seed)
    }
}

/// A reproduction experiment: the only thing a binary implements.
pub trait Experiment: Sync {
    /// Experiment title for the banner and the JSON report.
    fn title(&self) -> &str;

    /// The design matrix. Called once per run.
    fn scenarios(&self, opts: &Options) -> Vec<Scenario>;

    /// Runs one independent replication of one scenario and returns
    /// its named measurements. Must draw all randomness from
    /// `ctx.rng()` (or `ctx.seed`) so results are reproducible and
    /// thread-count independent.
    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement>;

    /// The paper's reference value for a scenario, when one exists
    /// (rendered as a trailing `paper` column).
    fn paper_reference(&self, _scenario: &Scenario) -> Option<f64> {
        None
    }

    /// Free-form text printed after the table (takeaway lines,
    /// cross-scenario comparisons, claim checks).
    fn epilogue(&self, _report: &ExperimentReport, _opts: &Options) -> Option<String> {
        None
    }
}

/// Summary of one scenario: per-measurement statistics over its
/// samples, plus the metrics its replications recorded.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The scenario descriptor.
    pub scenario: Scenario,
    /// `(measurement name, stats over samples)` in first-seen order.
    pub measurements: Vec<(&'static str, OnlineStats)>,
    /// Metrics merged over this scenario's replications (index
    /// order).
    pub metrics: Metrics,
    /// The paper's reference value, when the experiment supplies one.
    pub paper: Option<f64>,
}

impl ScenarioReport {
    /// Stats for a named measurement, when present.
    pub fn stats(&self, name: &str) -> Option<&OnlineStats> {
        self.measurements
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Mean of a named measurement (NaN when absent — loud in
    /// downstream arithmetic, which is what an epilogue bug deserves).
    pub fn mean(&self, name: &str) -> f64 {
        self.stats(name).map(|s| s.mean()).unwrap_or(f64::NAN)
    }
}

/// Everything one experiment run produced.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment title.
    pub title: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Worker threads the replication runner used.
    pub threads: usize,
    /// Whether quick mode was active.
    pub quick: bool,
    /// Per-scenario summaries, in scenario order.
    pub scenarios: Vec<ScenarioReport>,
    /// Metrics merged across all scenarios (scenario order).
    pub metrics: Metrics,
    /// Wall-clock runtime of the measurement phase, seconds.
    pub elapsed_secs: f64,
}

impl ExperimentReport {
    /// The scenario report with the given label.
    pub fn scenario(&self, label: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.scenario.label == label)
    }
}

/// Starts a wall-clock stopwatch: the bench's one reader of real
/// time. Callers read it with `.elapsed()`. The readings feed
/// wall-clock report fields (`elapsed_secs`, operation rates) and
/// never a simulated result, a digest or a seed.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the bench measures real elapsed time by design; the readings go to \
              wall-clock report fields and never into simulated results"
)]
pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// Runs every scenario of `exp`, fanning `(scenario, sample)` pairs
/// across the replication runner's threads.
pub fn run_experiment<E: Experiment + ?Sized>(exp: &E, opts: &Options) -> ExperimentReport {
    let scenarios = exp.scenarios(opts);
    // Flatten the design matrix into independent work items so
    // single-sample scenarios still parallelize across scenarios.
    let mut items: Vec<(usize, usize, u64)> = Vec::new(); // (scenario, sample, seed)
    let master = SimRng::seed_from(opts.seed);
    for s in &scenarios {
        let scenario_master = master.split(&s.label).next_u64();
        for i in 0..s.samples {
            items.push((s.index, i, derive_seed(scenario_master, i as u64)));
        }
    }
    let seeds: Vec<u64> = items.iter().map(|(_, _, seed)| *seed).collect();
    let runner = ReplicationRunner::new(opts.threads);
    let started = wall_clock();
    let out = runner.run_seeded(&seeds, |rctx| {
        let (scenario_idx, sample_idx, seed) = items[rctx.index];
        let ctx = SampleCtx {
            scenario: scenario_idx,
            sample: sample_idx,
            seed,
        };
        exp.run_sample(&scenarios[scenario_idx], &ctx, opts)
    });
    let elapsed_secs = started.elapsed().as_secs_f64();

    // Regroup linear results by scenario, in sample order (the item
    // list was built scenario-major, so a stable pass suffices).
    let mut reports: Vec<ScenarioReport> = scenarios
        .iter()
        .map(|s| ScenarioReport {
            scenario: s.clone(),
            measurements: Vec::new(),
            metrics: Metrics::new(),
            paper: exp.paper_reference(s),
        })
        .collect();
    for (k, measurements) in out.results.iter().enumerate() {
        let (scenario_idx, _, _) = items[k];
        let report = &mut reports[scenario_idx];
        for mm in measurements {
            match report.measurements.iter_mut().find(|(n, _)| *n == mm.name) {
                Some((_, stats)) => stats.record(mm.value),
                None => {
                    let mut stats = OnlineStats::new();
                    stats.record(mm.value);
                    report.measurements.push((mm.name, stats));
                }
            }
        }
        report.metrics.merge(&out.replication_metrics[k]);
    }
    let mut metrics = Metrics::new();
    for r in &reports {
        metrics.merge(&r.metrics);
    }
    ExperimentReport {
        title: exp.title().to_owned(),
        seed: opts.seed,
        threads: runner.threads(),
        quick: opts.quick,
        scenarios: reports,
        metrics,
        elapsed_secs,
    }
}

/// Parses options, runs the experiment, prints the report, the
/// epilogue and the process's `peak_rss_mib=` line, and writes the
/// `--json` file when requested. The single `main` body every
/// reproduction binary shares.
pub fn run_main<E: Experiment + ?Sized>(exp: &E) {
    let opts = Options::from_args();
    banner(exp.title(), &opts);
    let report = run_experiment(exp, &opts);
    println!("{}", render_report(&report));
    if let Some(text) = exp.epilogue(&report, &opts) {
        println!("{text}");
    }
    println!("peak_rss_mib={}", peak_rss_mib().unwrap_or_default());
    if let Some(path) = &opts.json {
        match std::fs::write(path, to_json(&report)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Kernel-reported peak resident set (`VmHWM`) in MiB, if the
/// platform exposes it. Host-dependent like every wall-clock figure
/// here; the point is the *bound*, not the exact value.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb.div_ceil(1024))
}

/// A one-line experiment banner.
pub fn banner(title: &str, opts: &Options) {
    println!("=== {title} ===");
    println!(
        "seed={} samples={} threads={} quick={}",
        opts.seed,
        if opts.samples == 0 {
            "default".to_owned()
        } else {
            opts.samples.to_string()
        },
        if opts.threads == 0 {
            "auto".to_owned()
        } else {
            opts.threads.to_string()
        },
        opts.quick
    );
    println!();
}

fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return "—".to_owned();
    }
    let a = x.abs();
    if a >= 10_000.0 {
        format!("{x:.0}")
    } else if a >= 100.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders the standard report: a statistics table, the runtime
/// footer, and a warning when bounded trace logs dropped entries.
pub fn render_report(report: &ExperimentReport) -> String {
    let all_single = report.scenarios.iter().all(|s| s.scenario.samples == 1);
    let mut names: Vec<&'static str> = Vec::new();
    for s in &report.scenarios {
        for (n, _) in &s.measurements {
            if !names.contains(n) {
                names.push(n);
            }
        }
    }
    let has_paper = report.scenarios.iter().any(|s| s.paper.is_some());
    let label_width = report
        .scenarios
        .iter()
        .map(|s| s.scenario.label.len())
        .max()
        .unwrap_or(8)
        .max(8);

    let mut out = String::new();
    if all_single && names.len() > 1 {
        // Wide layout: one row per scenario, one column per
        // measurement (each scenario ran once, so mean == the value).
        let mut headers: Vec<&str> = vec!["scenario"];
        headers.extend(names.iter().copied());
        let rows: Vec<Vec<String>> = report
            .scenarios
            .iter()
            .map(|s| {
                let mut row = vec![s.scenario.label.clone()];
                for n in &names {
                    row.push(
                        s.stats(n)
                            .map(|st| fmt_num(st.mean()))
                            .unwrap_or_else(|| "—".to_owned()),
                    );
                }
                row
            })
            .collect();
        out.push_str(&render_table(&headers, &rows, label_width));
    } else {
        let metric_col = names.len() > 1;
        let mut headers: Vec<&str> = vec!["scenario"];
        if metric_col {
            headers.push("metric");
        }
        headers.extend(["n", "mean", "std", "min", "max"]);
        if has_paper {
            headers.push("paper");
        }
        let mut rows = Vec::new();
        for s in &report.scenarios {
            for (name, stats) in &s.measurements {
                let mut row = vec![s.scenario.label.clone()];
                if metric_col {
                    row.push((*name).to_owned());
                }
                row.push(stats.count().to_string());
                row.push(fmt_num(stats.mean()));
                row.push(fmt_num(stats.std_dev()));
                row.push(fmt_num(stats.min()));
                row.push(fmt_num(stats.max()));
                if has_paper {
                    row.push(s.paper.map(fmt_num).unwrap_or_else(|| "—".to_owned()));
                }
                rows.push(row);
            }
        }
        out.push_str(&render_table(&headers, &rows, label_width));
    }

    let dropped = report.metrics.counter("trace.dropped");
    if dropped > 0 {
        let _ = writeln!(
            out,
            "\nWARNING: bounded trace logs dropped {dropped} entries during this run; \
             causal history in trace-based checks is truncated"
        );
    }
    let mut first_hist = true;
    for (name, h) in report.metrics.histograms() {
        if first_hist {
            let _ = writeln!(out);
            first_hist = false;
        }
        let _ = writeln!(out, "hist {name}: {h}");
    }
    let _ = write!(
        out,
        "\nelapsed {:.2} s on {} thread{}",
        report.elapsed_secs,
        report.threads,
        if report.threads == 1 { "" } else { "s" }
    );
    out
}

/// Renders a header + aligned rows, left-aligning the first column
/// and right-aligning the rest.
pub fn render_table(headers: &[&str], rows: &[Vec<String>], first_width: usize) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    widths[0] = widths[0].max(first_width);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = format!("{:<width$}", headers[0], width = widths[0]);
    for (h, w) in headers[1..].iter().zip(&widths[1..]) {
        let _ = write!(line, "  {h:>w$}");
    }
    let _ = writeln!(out, "{line}");
    let _ = writeln!(out, "{}", "-".repeat(line.len()));
    for row in rows {
        let mut line = format!("{:<width$}", row[0], width = widths[0]);
        for (cell, w) in row[1..].iter().zip(&widths[1..]) {
            let _ = write!(line, "  {cell:>w$}");
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

// --- JSON emission ----------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn jstats(s: &OnlineStats) -> String {
    if s.is_empty() {
        return r#"{"count":0,"mean":null,"std":null,"min":null,"max":null}"#.to_owned();
    }
    format!(
        r#"{{"count":{},"mean":{},"std":{},"min":{},"max":{}}}"#,
        s.count(),
        jnum(s.mean()),
        jnum(s.std_dev()),
        jnum(s.min()),
        jnum(s.max())
    )
}

fn jmetrics(m: &Metrics) -> String {
    let counters: Vec<String> = m
        .counters()
        .map(|(k, v)| format!(r#""{}":{v}"#, json_escape(k)))
        .collect();
    let histograms: Vec<String> = m
        .histograms()
        .map(|(k, h)| {
            if h.is_empty() {
                return format!(r#""{}":{{"count":0}}"#, json_escape(k));
            }
            format!(
                r#""{}":{{"count":{},"min":{},"p50":{},"p99":{},"p999":{},"max":{},"mean":{}}}"#,
                json_escape(k),
                h.count(),
                h.min(),
                h.p50(),
                h.p99(),
                h.p999(),
                h.max(),
                jnum(h.mean())
            )
        })
        .collect();
    format!(
        r#"{{"counters":{{{}}},"histograms":{{{}}}}}"#,
        counters.join(","),
        histograms.join(",")
    )
}

/// Serializes a report to the schema-stable `gridvm-bench/v2` JSON
/// document (see DESIGN.md §5 for the schema).
pub fn to_json(report: &ExperimentReport) -> String {
    let scenarios: Vec<String> = report
        .scenarios
        .iter()
        .map(|s| {
            let measurements: Vec<String> = s
                .measurements
                .iter()
                .map(|(name, stats)| format!(r#""{}":{}"#, json_escape(name), jstats(stats)))
                .collect();
            format!(
                r#"{{"label":"{}","samples":{},"paper":{},"measurements":{{{}}},"metrics":{}}}"#,
                json_escape(&s.scenario.label),
                s.scenario.samples,
                s.paper.map(jnum).unwrap_or_else(|| "null".to_owned()),
                measurements.join(","),
                jmetrics(&s.metrics)
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"gridvm-bench/v2\",\"experiment\":\"{}\",\"seed\":{},\"threads\":{},\
         \"quick\":{},\"elapsed_secs\":{},\"scenarios\":[{}],\"metrics\":{}}}\n",
        json_escape(&report.title),
        report.seed,
        report.threads,
        report.quick,
        jnum(report.elapsed_secs),
        scenarios.join(","),
        jmetrics(&report.metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let o = Options::default();
        assert!(o.seed > 0);
        assert_eq!(o.samples_or(100), 100);
        assert_eq!(o.threads, 0);
        assert!(o.json.is_none());
    }

    #[test]
    fn quick_mode_shrinks_samples() {
        let o = Options {
            quick: true,
            ..Options::default()
        };
        assert_eq!(o.samples_or(100), 10);
        assert_eq!(o.samples_or(5), 2);
    }

    #[test]
    fn explicit_samples_win() {
        let o = Options {
            samples: 7,
            quick: true,
            ..Options::default()
        };
        assert_eq!(o.samples_or(100), 7);
    }

    #[test]
    fn parse_accepts_all_known_flags() {
        let o = Options::parse(args(&[
            "--seed",
            "9",
            "--samples",
            "3",
            "--threads",
            "4",
            "--json",
            "out.json",
            "--quick",
        ]))
        .expect("valid flags");
        assert_eq!(o.seed, 9);
        assert_eq!(o.samples, 3);
        assert_eq!(o.threads, 4);
        assert_eq!(o.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(o.quick);
    }

    #[test]
    fn parse_rejects_unknown_flags_with_usage() {
        let e = Options::parse(args(&["--bogus"])).expect_err("unknown flag");
        assert!(e.0.contains("--bogus"));
        assert!(e.to_string().contains("--seed"), "usage lists known flags");
        assert!(e.to_string().contains("--threads"));
    }

    #[test]
    fn parse_rejects_malformed_values() {
        let e = Options::parse(args(&["--seed", "xyz"])).expect_err("bad value");
        assert!(e.0.contains("xyz"));
        let e = Options::parse(args(&["--samples"])).expect_err("missing value");
        assert!(e.0.contains("--samples"));
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["scenario", "mean", "std"],
            &[vec!["a".into(), "1.0".into(), "0.1".into()]],
            20,
        );
        assert!(t.contains("scenario"));
        assert!(t.contains("a"));
        assert!(t.lines().count() == 3);
    }

    struct Toy;

    impl Experiment for Toy {
        fn title(&self) -> &str {
            "toy"
        }

        fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
            (0..3)
                .map(|i| Scenario::new(i, format!("case-{i}"), opts.samples_or(8)))
                .collect()
        }

        fn run_sample(
            &self,
            scenario: &Scenario,
            ctx: &SampleCtx,
            _opts: &Options,
        ) -> Vec<Measurement> {
            let mut rng = ctx.rng();
            gridvm_simcore::metrics::counter_add("toy.samples", 1);
            gridvm_simcore::metrics::histogram_record("toy.value_x1000", 1 + scenario.index as u64);
            vec![
                m("value", rng.next_f64() + scenario.index as f64),
                m("draws", 1.0),
            ]
        }

        fn paper_reference(&self, scenario: &Scenario) -> Option<f64> {
            (scenario.index == 0).then_some(0.5)
        }
    }

    #[test]
    fn toy_experiment_reports_per_scenario_stats() {
        let opts = Options {
            threads: 1,
            ..Options::default()
        };
        let report = run_experiment(&Toy, &opts);
        assert_eq!(report.scenarios.len(), 3);
        for (i, s) in report.scenarios.iter().enumerate() {
            let stats = s.stats("value").expect("measured");
            assert_eq!(stats.count(), 8);
            assert!(stats.mean() >= i as f64 && stats.mean() < i as f64 + 1.0);
            assert_eq!(s.metrics.counter("toy.samples"), 8);
        }
        assert_eq!(report.metrics.counter("toy.samples"), 24);
        assert_eq!(report.scenario("case-1").map(|s| s.scenario.index), Some(1));
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let base = Options {
            threads: 1,
            ..Options::default()
        };
        let serial = run_experiment(&Toy, &base);
        for threads in [2, 8] {
            let par = run_experiment(
                &Toy,
                &Options {
                    threads,
                    ..base.clone()
                },
            );
            for (a, b) in serial.scenarios.iter().zip(&par.scenarios) {
                assert_eq!(a.measurements, b.measurements, "threads={threads}");
                assert_eq!(a.metrics, b.metrics, "threads={threads}");
            }
            assert_eq!(serial.metrics, par.metrics);
        }
    }

    #[test]
    fn json_report_is_schema_stable() {
        let opts = Options {
            threads: 1,
            samples: 2,
            ..Options::default()
        };
        let report = run_experiment(&Toy, &opts);
        let json = to_json(&report);
        for needle in [
            r#""schema":"gridvm-bench/v2""#,
            r#""experiment":"toy""#,
            r#""seed":20030517"#,
            r#""scenarios":["#,
            r#""label":"case-0""#,
            r#""paper":0.5"#,
            r#""measurements":{"#,
            r#""value":{"count":2,"mean":"#,
            r#""counters":{"toy.samples":2}"#,
            r#""histograms":{"toy.value_x1000":{"count":2,"min":1,"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn rendered_report_mentions_trace_drops() {
        let opts = Options {
            threads: 1,
            samples: 1,
            ..Options::default()
        };
        let mut report = run_experiment(&Toy, &opts);
        let text = render_report(&report);
        assert!(!text.contains("WARNING"), "no drops, no warning");
        assert!(
            text.contains("hist toy.value_x1000:"),
            "report lists histograms"
        );
        report.metrics.counter_add("trace.dropped", 5);
        let text = render_report(&report);
        assert!(text.contains("WARNING") && text.contains("5"));
    }
}
