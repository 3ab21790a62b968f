//! The VO workloads: `build_vo_scale` on the 24×8 regional topology
//! with uniform placement, run at one shard/thread packing.

use std::time::Instant;

use gridvm_core::multisite::{build_vo_scale, Placement, VoScaleConfig, VoScaleSite};
use gridvm_simcore::{metrics, ShardedSim};

use crate::probe::cpu_secs;
use crate::spans::Spans;
use crate::{Checks, Rep, Workload};

/// Sessions in the measured world.
const SESSIONS: u64 = 200_000;
/// Sessions in the pinned world every run checks first.
const PIN_SESSIONS: u64 = 20_000;
/// The seed the pinned fingerprint belongs to (`VoScaleConfig::reference`'s).
const BENCH_SEED: u64 = 20_030_517;
/// The pinned world's fingerprint at [`BENCH_SEED`]: any change to the
/// simulated schedule, at any packing, moves it.
const PINNED: Fingerprint = Fingerprint {
    digest: 0xff31_0739_f1f4_a594,
    checksum: 0x56b9_c41e_c34b_a61b,
    completed: PIN_SESSIONS,
};

/// How the sites are packed onto shards and threads. Results never
/// depend on it; only speed does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// 8 shards on one thread: `ext_vo_scale`'s packing, the serial
    /// window loop.
    Serial,
    /// shards = threads = 2: the threaded window loop on both cores.
    Threads,
}

impl Packing {
    /// `(shards, threads)`.
    fn shape(self) -> (usize, usize) {
        match self {
            Packing::Serial => (8, 1),
            Packing::Threads => (2, 2),
        }
    }
}

/// What every run of one world must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    digest: u64,
    checksum: u64,
    completed: u64,
}

fn config(sessions: u64, seed: u64) -> VoScaleConfig {
    VoScaleConfig {
        regions: 24,
        sites_per_region: 8,
        sessions,
        placement: Placement::Uniform,
        seed,
        ..VoScaleConfig::reference()
    }
}

fn build(cfg: &VoScaleConfig, packing: Packing) -> ShardedSim<VoScaleSite> {
    let (shards, threads) = packing.shape();
    build_vo_scale(cfg).shards(shards).threads(threads)
}

/// FNV-1a fold of every site's work checksum, in site order.
fn checksum(sim: &mut ShardedSim<VoScaleSite>) -> u64 {
    (0..sim.sites()).fold(0xcbf2_9ce4_8422_2325, |h, i| {
        let c = sim.with_site(i, |s, _| s.world.checksum);
        c.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Builds and runs one world, untimed, to its fingerprint.
fn fingerprint(cfg: &VoScaleConfig, packing: Packing) -> Fingerprint {
    let mut sim = build(cfg, packing);
    metrics::reset();
    sim.run();
    metrics::reset();
    let completed = sim.merged_metrics().counter("vo.sessions_completed");
    Fingerprint {
        digest: sim.trace_digest(),
        checksum: checksum(&mut sim),
        completed,
    }
}

/// Checks that the pinned world at `packing` reproduces [`PINNED`].
fn check_pinned(packing: Packing, checks: &mut Checks) {
    let pinned = fingerprint(&config(PIN_SESSIONS, BENCH_SEED), packing);
    checks.expect(pinned == PINNED, || {
        format!(
            "pinned VO world at seed {BENCH_SEED}, {packing:?}: \
             got {pinned:x?}, want {PINNED:x?}"
        )
    });
}

/// One VO workload at one packing.
pub struct VoBench {
    packing: Packing,
    cfg: VoScaleConfig,
    /// The measured world run serially at this run's seed: every
    /// repetition, at any packing, must reproduce it.
    reference: Fingerprint,
}

impl VoBench {
    /// Checks the pinned world and a held-out seed at `packing`, then
    /// runs the measured world serially once as the reference (which
    /// also warms the allocator before timing starts).
    pub fn new(packing: Packing, seed: u64, checks: &mut Checks) -> Self {
        check_pinned(packing, checks);
        let held_out = fingerprint(&config(PIN_SESSIONS, BENCH_SEED + 1), packing);
        checks.expect(held_out.digest != PINNED.digest, || {
            "a held-out seed reproduced the pinned trace digest".to_owned()
        });
        let cfg = config(SESSIONS, seed);
        let reference = fingerprint(&cfg, Packing::Serial);
        VoBench {
            packing,
            cfg,
            reference,
        }
    }
}

impl Workload for VoBench {
    /// Checks the pinned world at the packing this run did not time, so
    /// every VO run, gated or not, fails when the serial and threaded
    /// window loops disagree. It runs after measuring so that its
    /// threads leave `vo_serial`'s peak RSS alone.
    fn final_checks(&mut self, checks: &mut Checks) {
        let other = match self.packing {
            Packing::Serial => Packing::Threads,
            Packing::Threads => Packing::Serial,
        };
        check_pinned(other, checks);
    }

    fn rep(&mut self, spans: &mut Spans, checks: &mut Checks) -> Rep {
        metrics::reset();
        let open = spans.enter("build_vo_scale");
        let mut sim = build(&self.cfg, self.packing);
        let build_s = spans.exit(open);

        // Timed phase: the run plus the harvest a caller needs to read
        // its results.
        let cpu_before = cpu_secs();
        let started = Instant::now();
        let open = spans.enter("ShardedSim::run");
        sim.run();
        let run_s = spans.exit(open);
        let open = spans.enter("merged_metrics");
        let m = sim.merged_metrics();
        let harvest_s = spans.exit(open);
        let open = spans.enter("trace_digest");
        let digest = sim.trace_digest();
        let digest_s = spans.exit(open);
        let wall_s = started.elapsed().as_secs_f64();
        let cpu_s = cpu_secs() - cpu_before;
        metrics::reset();

        let c = |name: &str| m.counter(name);
        let got = Fingerprint {
            digest,
            checksum: checksum(&mut sim),
            completed: c("vo.sessions_completed"),
        };
        let packing = self.packing;
        let reference = self.reference;
        checks.expect(got == reference, || {
            format!(
                "{packing:?} run diverged from the serial reference: {got:x?} vs {reference:x?}"
            )
        });
        checks.expect(got.completed == self.cfg.sessions, || {
            format!(
                "{} of {} sessions completed",
                got.completed, self.cfg.sessions
            )
        });
        checks.expect(c("vo.hops") == c("vo.hops_in"), || {
            format!("{} hops sent, {} received", c("vo.hops"), c("vo.hops_in"))
        });
        checks.expect(
            c("sim.events_boxed") == 0 && c("shard.outbox_regrown") == 0,
            || "event dispatch or the mailboxes allocated".to_owned(),
        );
        checks.expect(
            c("trace.sampled") + c("trace.dropped") == self.cfg.sessions,
            || "a completion skipped the trace sampler".to_owned(),
        );

        let events = c("sim.events_executed");
        let windows = sim.windows();
        let (_, threads) = self.packing.shape();
        Rep {
            setup_s: build_s,
            wall_s,
            cpu_s,
            work: events as f64,
            layers: vec![
                ("multisite.build_s", build_s),
                ("shard.run_s", run_s),
                ("metrics.harvest_s", harvest_s),
                ("trace.digest_s", digest_s),
                ("sim.events_executed", events as f64),
                ("shard.windows", windows as f64),
                (
                    "shard.events_per_window",
                    events as f64 / windows.max(1) as f64,
                ),
                ("shard.messages", sim.messages() as f64),
                ("shard.ns_per_event", run_s * 1e9 / events.max(1) as f64),
                ("shard.model_speedup_x", sim.model_speedup()),
                ("shard.busy_frac", cpu_s / (threads as f64 * wall_s)),
                ("sim.events_boxed", c("sim.events_boxed") as f64),
                ("shard.outbox_regrown", c("shard.outbox_regrown") as f64),
                ("trace.sampled", c("trace.sampled") as f64),
                ("trace.dropped", c("trace.dropped") as f64),
                ("metrics.tracked_entries", m.tracked_entries() as f64),
                ("vo.hops", c("vo.hops") as f64),
                ("vo.sessions_completed", got.completed as f64),
            ],
        }
    }
}
