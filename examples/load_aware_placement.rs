//! Load-aware VM placement: the application-perspective machinery of
//! Section 3.2. Hosts stream load measurements into RPS-style AR
//! predictors; a front-end queries the information service for VM
//! futures, asks each candidate's predictor for its near-term load,
//! and places the VM on the host expected to be least loaded.
//!
//! Run with: `cargo run --example load_aware_placement`

use gridvm::gridmw::info::{InfoService, Query, ResourceKind};
use gridvm::gridmw::rps::ArPredictor;
use gridvm::hostload::{LoadLevel, TraceGenerator};
use gridvm::simcore::rng::SimRng;
use gridvm::simcore::time::SimTime;

fn main() {
    let mut rng = SimRng::seed_from(2003);
    let mut info = InfoService::new();

    // Three candidate hosts with different load climates.
    let profiles = [
        ("uf-busy", LoadLevel::Heavy),
        ("nw-light", LoadLevel::Light),
        ("uf-idle", LoadLevel::None),
    ];
    let mut sensors = Vec::new();
    for (name, level) in profiles {
        let host = info.register(
            SimTime::ZERO,
            name,
            ResourceKind::PhysicalHost {
                cores: 2,
                clock_hz: 800e6,
                memory_mib: 1024,
            },
        );
        info.register(
            SimTime::ZERO,
            name,
            ResourceKind::VmFuture {
                host,
                images: vec!["rh72".into()],
                available_slots: 2,
            },
        );
        // Each host streams an hour of load samples into its RPS
        // predictor.
        let trace = TraceGenerator::preset(level).generate(3600, &mut rng.split(name));
        let mut predictor = ArPredictor::new(2, 1024);
        for s in trace.samples() {
            predictor.observe(*s);
        }
        sensors.push((name, host, predictor));
    }

    // The front-end: query futures, predict, place.
    let futures = info.query(&Query::CanInstantiate("rh72".into()), 10, &mut rng);
    println!("candidate VM futures: {}", futures.len());
    println!();
    let mut best: Option<(&str, f64)> = None;
    for (name, _host, predictor) in &sensors {
        let line = match predictor.fit() {
            Ok(model) => {
                let ahead = predictor.predict(&model, 30);
                let avg: f64 = ahead.iter().map(|p| p.mean).sum::<f64>() / ahead.len() as f64;
                let last = &ahead[29];
                if best.is_none() || avg < best.expect("set").1 {
                    best = Some((name, avg));
                }
                format!(
                    "predicted 30s-ahead load {:.2} (±{:.2} at horizon)",
                    avg, last.ci95
                )
            }
            Err(e) => {
                // A constant (idle) series is singular — which itself
                // tells the placer the host is idle.
                if best.is_none() || 0.0 < best.expect("set").1 {
                    best = Some((name, 0.0));
                }
                format!("predictor: {e} -> treating as constant/idle")
            }
        };
        println!("  {name:<9} {line}");
    }
    let (winner, load) = best.expect("there are candidates");
    println!();
    println!("placement decision: instantiate on {winner} (expected load {load:.2})");
    println!("(the paper: 'applications can best discover a collection of appropriate");
    println!(" resources by posing a relational query' + RPS predictions for adaptation)");
}
