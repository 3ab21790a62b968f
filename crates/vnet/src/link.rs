//! Point-to-point network links with latency, bandwidth, queueing
//! and an up/down state — the underlay the tunnels and overlay run
//! over.

use gridvm_simcore::server::{Pipe, ServiceGrant};
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::{Bandwidth, ByteSize};

/// Errors from link transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The link is administratively or physically down.
    Down,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link is down")
    }
}

impl std::error::Error for LinkError {}

/// A point-to-point link.
///
/// ```
/// use gridvm_vnet::link::NetLink;
/// use gridvm_simcore::time::{SimDuration, SimTime};
/// use gridvm_simcore::units::{Bandwidth, ByteSize};
///
/// let mut l = NetLink::new(SimDuration::from_millis(5), Bandwidth::from_mbit_per_sec(100.0));
/// let g = l.send(SimTime::ZERO, ByteSize::from_kib(1)).unwrap();
/// assert!(g.finish > SimTime::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct NetLink {
    pipe: Pipe,
    latency: SimDuration,
    bandwidth: Bandwidth,
    up: bool,
    outage: Option<(SimTime, SimTime)>,
}

impl NetLink {
    /// Creates an up link.
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        NetLink {
            pipe: Pipe::new(latency, bandwidth),
            latency,
            bandwidth,
            up: true,
            outage: None,
        }
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Whether the link would carry traffic at `now`: administratively
    /// up and outside any scheduled outage window.
    pub fn up_at(&self, now: SimTime) -> bool {
        self.up
            && !self
                .outage
                .is_some_and(|(from, until)| now >= from && now < until)
    }

    /// Schedules a partition window (fault injection): sends inside
    /// `[from, until)` fail with [`LinkError::Down`] and the link
    /// heals by itself afterwards. A later call replaces the window.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty (`until <= from`).
    pub fn schedule_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(until > from, "empty outage window");
        self.outage = Some((from, until));
    }

    /// End of the scheduled outage window covering `now`, if one does.
    pub fn outage_until(&self, now: SimTime) -> Option<SimTime> {
        self.outage
            .filter(|(from, until)| now >= *from && now < *until)
            .map(|(_, until)| until)
    }

    /// Takes the link down (failure injection).
    pub fn set_down(&mut self) {
        self.up = false;
    }

    /// Restores the link. The queue state survives (packets in
    /// flight were lost, new ones queue fresh).
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Transmits `size` bytes at `now`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Down`] when the link is down or inside a
    /// scheduled outage window.
    pub fn send(&mut self, now: SimTime, size: ByteSize) -> Result<ServiceGrant, LinkError> {
        if !self.up_at(now) {
            return Err(LinkError::Down);
        }
        Ok(self.pipe.send(now, size))
    }

    /// Bytes carried so far.
    pub fn bytes_sent(&self) -> ByteSize {
        self.pipe.bytes_sent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_latency_plus_serialization() {
        let mut l = NetLink::new(
            SimDuration::from_millis(10),
            Bandwidth::from_mbit_per_sec(8.0),
        );
        // 1 MB at 1 MB/s (8 Mbit) = 1 s + 10 ms.
        let g = l
            .send(SimTime::ZERO, ByteSize::from_bytes(1_000_000))
            .unwrap();
        assert!((g.finish.as_secs_f64() - 1.01).abs() < 1e-9);
    }

    #[test]
    fn down_links_reject_traffic() {
        let mut l = NetLink::new(
            SimDuration::from_millis(1),
            Bandwidth::from_mbit_per_sec(10.0),
        );
        l.set_down();
        assert_eq!(
            l.send(SimTime::ZERO, ByteSize::from_bytes(100)),
            Err(LinkError::Down)
        );
        l.set_up();
        assert!(l.send(SimTime::ZERO, ByteSize::from_bytes(100)).is_ok());
    }

    #[test]
    fn scheduled_outage_rejects_then_self_heals() {
        let mut l = NetLink::new(
            SimDuration::from_millis(1),
            Bandwidth::from_mbit_per_sec(10.0),
        );
        let from = SimTime::from_secs(10);
        let until = SimTime::from_secs(20);
        l.schedule_outage(from, until);
        // Before the window: fine.
        assert!(l.send(SimTime::from_secs(5), ByteSize::from_kib(1)).is_ok());
        // Inside: partitioned, with the heal time visible.
        assert_eq!(
            l.send(SimTime::from_secs(15), ByteSize::from_kib(1)),
            Err(LinkError::Down)
        );
        assert_eq!(l.outage_until(SimTime::from_secs(15)), Some(until));
        assert!(l.up, "outage is not an administrative down");
        // At the heal boundary and after: fine again, no manual set_up.
        assert!(l.send(until, ByteSize::from_kib(1)).is_ok());
        assert_eq!(l.outage_until(until), None);
    }

    #[test]
    fn accounting_accumulates() {
        let mut l = NetLink::new(
            SimDuration::from_millis(1),
            Bandwidth::from_mbit_per_sec(10.0),
        );
        l.send(SimTime::ZERO, ByteSize::from_kib(4)).unwrap();
        l.send(SimTime::ZERO, ByteSize::from_kib(4)).unwrap();
        assert_eq!(l.bytes_sent(), ByteSize::from_kib(8));
    }
}
