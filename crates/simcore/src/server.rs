//! Analytic service primitives: FIFO servers and token-bucket-free
//! bandwidth pipes.
//!
//! Much of the gridvm model (disks, NFS daemons, network links,
//! middleware daemons) is well described as "a queue in front of a
//! resource with a deterministic service time per request". Rather
//! than spawning an engine event per request, components keep a
//! [`FifoServer`] and *compute* when a request would complete; the
//! caller then schedules a single completion event. This keeps event
//! counts proportional to requests, not bytes, while preserving exact
//! FIFO queueing behaviour.

use crate::time::{SimDuration, SimTime};
use crate::units::{Bandwidth, ByteSize};

/// A single-channel FIFO queueing server.
///
/// `admit(now, service)` returns the interval during which the request
/// is served, accounting for all previously admitted requests.
///
/// ```
/// use gridvm_simcore::server::FifoServer;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut disk = FifoServer::new();
/// let t0 = SimTime::ZERO;
/// let a = disk.admit(t0, SimDuration::from_millis(10));
/// let b = disk.admit(t0, SimDuration::from_millis(10));
/// assert_eq!(a.start, t0);
/// assert_eq!(b.start, a.finish); // queued behind a
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FifoServer {
    free_at: SimTime,
}

/// The service interval granted to one admitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceGrant {
    /// When service begins (>= admission time).
    pub start: SimTime,
    /// When service completes.
    pub finish: SimTime,
}

impl ServiceGrant {
    /// Total time from admission to completion.
    pub fn latency_from(&self, admitted: SimTime) -> SimDuration {
        self.finish.duration_since(admitted)
    }
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Admits a request at `now` needing `service` of server time;
    /// returns when it starts and finishes.
    pub fn admit(&mut self, now: SimTime, service: SimDuration) -> ServiceGrant {
        let start = self.free_at.max(now);
        let finish = start + service;
        self.free_at = finish;
        ServiceGrant { start, finish }
    }
}

/// A bandwidth-limited pipe with fixed per-message latency: the
/// standard "latency + size/bandwidth, serialized" link/disk model.
///
/// ```
/// use gridvm_simcore::server::Pipe;
/// use gridvm_simcore::time::{SimDuration, SimTime};
/// use gridvm_simcore::units::{Bandwidth, ByteSize};
///
/// let mut pipe = Pipe::new(SimDuration::from_millis(1), Bandwidth::from_mib_per_sec(100.0));
/// let g = pipe.send(SimTime::ZERO, ByteSize::from_mib(1));
/// // 1ms latency + 10ms serialization
/// assert!((g.finish.as_secs_f64() - 0.011).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Pipe {
    latency: SimDuration,
    bandwidth: Bandwidth,
    server: FifoServer,
    bytes: ByteSize,
}

impl Pipe {
    /// Creates a pipe with the given one-way latency and bandwidth.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        Pipe {
            latency,
            bandwidth,
            server: FifoServer::new(),
            bytes: ByteSize::ZERO,
        }
    }

    /// The configured one-way latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Sends `size` bytes at `now`: serialization is FIFO through the
    /// pipe, and the fixed latency is added after serialization
    /// completes (store-and-forward).
    pub fn send(&mut self, now: SimTime, size: ByteSize) -> ServiceGrant {
        let serialize = self.bandwidth.transfer_time(size);
        let g = self.server.admit(now, serialize);
        self.bytes += size;
        ServiceGrant {
            start: g.start,
            finish: g.finish + self.latency,
        }
    }

    /// Total bytes pushed through so far.
    pub fn bytes_sent(&self) -> ByteSize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new();
        let g = s.admit(SimTime::from_secs(5), ms(100));
        assert_eq!(g.start, SimTime::from_secs(5));
        assert_eq!(g.finish, SimTime::from_secs(5) + ms(100));
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = FifoServer::new();
        let t = SimTime::ZERO;
        let a = s.admit(t, ms(10));
        let b = s.admit(t, ms(20));
        let c = s.admit(t, ms(5));
        assert_eq!(b.start, a.finish);
        assert_eq!(c.start, b.finish);
        assert_eq!(c.finish, t + ms(35));
    }

    #[test]
    fn server_idles_between_bursts() {
        let mut s = FifoServer::new();
        s.admit(SimTime::ZERO, ms(10));
        let g = s.admit(SimTime::from_secs(1), ms(10));
        assert_eq!(g.start, SimTime::from_secs(1));
    }

    #[test]
    fn pipe_adds_latency_after_serialization() {
        let mut p = Pipe::new(ms(50), Bandwidth::from_mib_per_sec(1.0));
        let g = p.send(SimTime::ZERO, ByteSize::from_mib(2));
        assert!((g.finish.as_secs_f64() - 2.05).abs() < 1e-9);
        assert_eq!(p.bytes_sent(), ByteSize::from_mib(2));
    }

    #[test]
    fn pipe_serializes_messages_but_latency_overlaps() {
        let mut p = Pipe::new(ms(100), Bandwidth::from_mib_per_sec(1.0));
        let a = p.send(SimTime::ZERO, ByteSize::from_mib(1));
        let b = p.send(SimTime::ZERO, ByteSize::from_mib(1));
        // serialization back-to-back: 1s then 2s; latency applies to each.
        assert!((a.finish.as_secs_f64() - 1.1).abs() < 1e-9);
        assert!((b.finish.as_secs_f64() - 2.1).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// FIFO invariants: starts are non-decreasing and no two
        /// services overlap.
        #[test]
        fn fifo_never_overlaps(reqs in proptest::collection::vec((0u64..1_000_000, 1u64..10_000), 1..100)) {
            let mut s = FifoServer::new();
            let mut sorted = reqs.clone();
            sorted.sort_by_key(|(t, _)| *t);
            let mut last_finish = SimTime::ZERO;
            for (t, svc) in sorted {
                let now = SimTime::from_nanos(t);
                let d = SimDuration::from_nanos(svc);
                let g = s.admit(now, d);
                prop_assert!(g.start >= now);
                prop_assert!(g.start >= last_finish);
                prop_assert_eq!(g.finish, g.start + d);
                last_finish = g.finish;
            }
        }
    }
}
