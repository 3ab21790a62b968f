//! **Extension: VO macro-scale** — placement policies raced on a
//! hundreds-of-sites virtual organization at 10⁵–10⁶ sessions
//! (Section 5's "wide-area grid of VM hosts" argument, stress-tested
//! for memory-bounded observability).
//!
//! Each scenario runs the same diurnal + flash-crowd workload on the
//! same seeded regional topology and changes only where hopping
//! sessions go ([`Placement`]). All per-session observations land in
//! fixed-bucket log-scale histograms and a sampled trace ring, so
//! tracked state stays O(sites), never O(sessions): the harness
//! prints `peak_rss_mib=` from the kernel's high-water mark after the
//! epilogue and CI holds it under a ceiling. Reported per policy:
//! p50/p99/p999 session slowdown (congestion stretch over the
//! uncongested ideal), VO makespan, and simulated events per wall
//! second.

use gridvm_bench::harness::{
    m, run_main, wall_clock, Experiment, ExperimentReport, Measurement, Options, SampleCtx,
    Scenario,
};
use gridvm_core::multisite::{build_vo_scale, Placement, VoScaleConfig};

/// Full-size run: 24 regions × 8 sites, well past the 10⁵-session
/// acceptance floor. Quick mode shrinks to a CI-speed smoke that
/// keeps the same diurnal/burst shape.
fn config(placement: Placement, seed: u64, quick: bool) -> VoScaleConfig {
    let reference = VoScaleConfig::reference();
    if quick {
        VoScaleConfig {
            sessions: 24_000,
            placement,
            seed,
            ..reference
        }
    } else {
        VoScaleConfig {
            regions: 24,
            sites_per_region: 8,
            sessions: 200_000,
            placement,
            seed,
            ..reference
        }
    }
}

struct VoScale;

impl Experiment for VoScale {
    fn title(&self) -> &str {
        "Extension: placement policies at VO macro-scale (bounded observability)"
    }

    fn scenarios(&self, opts: &Options) -> Vec<Scenario> {
        Placement::ALL
            .iter()
            .enumerate()
            .map(|(i, p)| Scenario::new(i, format!("placement: {}", p.label()), opts.samples_or(1)))
            .collect()
    }

    fn run_sample(&self, scenario: &Scenario, ctx: &SampleCtx, opts: &Options) -> Vec<Measurement> {
        let placement = Placement::ALL[scenario.index];
        // Same master seed for every policy: the race is on identical
        // workloads, so only the placement decision differs.
        let cfg = config(placement, opts.seed ^ ctx.sample as u64, opts.quick);
        let mut sim = build_vo_scale(&cfg).shards(8).threads(1);
        let started = wall_clock();
        sim.run();
        let wall = started.elapsed();
        // `run` has already folded these into the sample's context,
        // so the report's metrics block shows them without a merge here.
        let merged = sim.merged_metrics();

        let completed = merged.counter("vo.sessions_completed");
        assert_eq!(completed, cfg.sessions, "every session must complete");
        assert!(
            merged.tracked_entries() < 64,
            "metric keyspace must stay O(1), not O(sessions): {} entries",
            merged.tracked_entries()
        );
        let ring_bound = cfg.sites() as usize * cfg.trace_capacity;
        assert!(
            sim.retained_trace_entries() <= ring_bound,
            "sampled trace rings exceeded their bound"
        );
        assert_eq!(
            merged.counter("trace.sampled") + merged.counter("trace.dropped"),
            cfg.sessions,
            "every completion faced exactly one sampling decision"
        );

        let slowdown = merged
            .histogram("vo.slowdown_x1000")
            .expect("slowdown histogram");
        let complete = merged
            .histogram("vo.complete_us")
            .expect("completion-time histogram");
        vec![
            m("p50_slowdown", slowdown.p50() as f64 / 1000.0),
            m("p99_slowdown", slowdown.p99() as f64 / 1000.0),
            m("p999_slowdown", slowdown.p999() as f64 / 1000.0),
            m("makespan_ms", complete.max() as f64 / 1000.0),
            m("completed", completed as f64),
            m(
                "events_per_sec",
                sim.total_events() as f64 / wall.as_secs_f64().max(1e-9),
            ),
        ]
    }

    fn epilogue(&self, report: &ExperimentReport, opts: &Options) -> Option<String> {
        let cfg = config(Placement::Uniform, opts.seed, opts.quick);
        let best = report
            .scenarios
            .iter()
            .filter_map(|s| {
                s.stats("p99_slowdown")
                    .map(|st| (s.scenario.label.clone(), st.mean()))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let mut out = format!(
            "{} sessions over {} sites per run; tracked metric entries and trace rings \
             stay O(sites) regardless of session count\n",
            cfg.sessions,
            cfg.sites(),
        );
        if let Some((label, p99)) = best {
            out.push_str(&format!(
                "lowest p99 slowdown: {label} at {p99:.2}x; sticky (no hops) bounds the \
                 migration-free baseline\n"
            ));
        }
        out.pop();
        Some(out)
    }
}

fn main() {
    run_main(&VoScale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_bench::harness::run_experiment;

    #[test]
    fn report_metrics_count_each_run_once() {
        let opts = Options {
            quick: true,
            samples: 2,
            threads: 1,
            ..Options::default()
        };
        let report = run_experiment(&VoScale, &opts);
        for s in &report.scenarios {
            let completed = s
                .stats("completed")
                .expect("every sample reports completions");
            assert_eq!(
                s.metrics.counter("vo.sessions_completed") as f64,
                completed.mean() * completed.count() as f64,
                "{}: the report counts each run's sessions once",
                s.scenario.label
            );
        }
    }
}
