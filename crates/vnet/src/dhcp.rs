// audit:hot-path: every VM boot and shutdown acquires or releases a lease here
//! DHCP lease allocation — scenario 1 of Section 3.3: "the VM may
//! obtain an IP address dynamically from the host's network (e.g. via
//! DHCP), which can then be used by the middleware to reference the
//! VM for the duration of a session."

// audit:allow(hot-btree-lookup): leases are keyed by MAC, a sparse 48-bit key from outside the simulator; acquire and release look it up once per VM boot or shutdown, and the free-address scan uses the dense in_use map
use std::collections::BTreeMap;

use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

use crate::addr::{Ipv4Addr, MacAddr, Subnet};

/// A granted lease.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The assigned address.
    pub addr: Ipv4Addr,
    /// When the lease lapses unless renewed.
    pub expires: SimTime,
}

/// Errors from lease operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DhcpError {
    /// No free addresses in the pool.
    Exhausted,
    /// The MAC holds no active lease.
    NoLease(
        /// The querying MAC.
        MacAddr,
    ),
}

impl std::fmt::Display for DhcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhcpError::Exhausted => write!(f, "address pool exhausted"),
            DhcpError::NoLease(mac) => write!(f, "no active lease for {mac}"),
        }
    }
}

impl std::error::Error for DhcpError {}

/// A DHCP server handing out leases from one subnet.
///
/// ```
/// use gridvm_vnet::addr::{Ipv4Addr, MacAddr, Subnet};
/// use gridvm_vnet::dhcp::DhcpServer;
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let net = Subnet::new(Ipv4Addr::from_octets(10, 1, 0, 0), 24);
/// let mut dhcp = DhcpServer::new(net, SimDuration::from_secs(3600));
/// let lease = dhcp.acquire(SimTime::ZERO, MacAddr::local(1))?;
/// assert!(net.contains(lease.addr));
/// # Ok::<(), gridvm_vnet::dhcp::DhcpError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DhcpServer {
    subnet: Subnet,
    lease_time: SimDuration,
    /// MAC-keyed lease table. The MAC is an external boundary key
    /// (clients identify themselves by it), so this stays an ordered
    /// map; the per-address hot path below resolves to host indices.
    // audit:allow(hot-btree-lookup): leases are keyed by MAC, a sparse 48-bit key from outside the simulator; acquire and release look it up once per VM boot or shutdown, and the free-address scan uses the dense in_use map
    leases: BTreeMap<MacAddr, Lease>,
    /// Per-host-index occupancy keyed by the address's host number:
    /// the current holder and its expiry. Makes `find_free` O(1) per
    /// candidate instead of a scan of every lease.
    in_use: DenseMap<(MacAddr, SimTime)>,
    next_host: u32,
}

impl DhcpServer {
    /// Creates a server over `subnet` with the given lease time.
    ///
    /// # Panics
    ///
    /// Panics on a zero lease time.
    pub fn new(subnet: Subnet, lease_time: SimDuration) -> Self {
        assert!(!lease_time.is_zero(), "zero lease time");
        DhcpServer {
            subnet,
            lease_time,
            // audit:allow(hot-btree-lookup): leases are keyed by MAC, a sparse 48-bit key from outside the simulator; acquire and release look it up once per VM boot or shutdown, and the free-address scan uses the dense in_use map
            leases: BTreeMap::new(),
            in_use: DenseMap::new(),
            next_host: 1,
        }
    }

    /// Host index of `addr` within the managed subnet.
    fn host_index(&self, addr: Ipv4Addr) -> u64 {
        u64::from(addr.0 - self.subnet.base().0)
    }

    /// The managed subnet.
    pub fn subnet(&self) -> Subnet {
        self.subnet
    }

    /// Active (unexpired at `now`) lease count.
    pub fn active_leases(&self, now: SimTime) -> usize {
        self.leases.values().filter(|l| l.expires > now).count()
    }

    /// Acquires (or renews) a lease for `mac`.
    ///
    /// # Errors
    ///
    /// [`DhcpError::Exhausted`] when every host address is held by an
    /// unexpired lease.
    pub fn acquire(&mut self, now: SimTime, mac: MacAddr) -> Result<Lease, DhcpError> {
        // Renewal: same address, extended expiry.
        if let Some(existing) = self.leases.get(&mac) {
            if existing.expires > now {
                let renewed = Lease {
                    addr: existing.addr,
                    expires: now + self.lease_time,
                };
                self.leases.insert(mac, renewed);
                self.in_use
                    .insert(self.host_index(renewed.addr), (mac, renewed.expires));
                return Ok(renewed);
            }
        }
        let addr = self.find_free(now).ok_or(DhcpError::Exhausted)?;
        let lease = Lease {
            addr,
            expires: now + self.lease_time,
        };
        self.leases.insert(mac, lease);
        self.in_use
            .insert(self.host_index(addr), (mac, lease.expires));
        Ok(lease)
    }

    fn find_free(&mut self, now: SimTime) -> Option<Ipv4Addr> {
        let count = self.subnet.host_count();
        for _ in 0..count {
            let candidate = self.subnet.host(self.next_host);
            let taken = matches!(
                self.in_use.get(u64::from(self.next_host)),
                Some((_, expires)) if *expires > now
            );
            self.next_host = self.next_host % count + 1;
            if !taken {
                return Some(candidate);
            }
        }
        None
    }

    /// Looks up the active lease of `mac`.
    ///
    /// # Errors
    ///
    /// [`DhcpError::NoLease`] when none is active at `now`.
    pub fn lookup(&self, now: SimTime, mac: MacAddr) -> Result<Lease, DhcpError> {
        match self.leases.get(&mac) {
            Some(l) if l.expires > now => Ok(*l),
            _ => Err(DhcpError::NoLease(mac)),
        }
    }

    /// Releases `mac`'s lease (VM shutdown). Idempotent.
    pub fn release(&mut self, mac: MacAddr) {
        if let Some(lease) = self.leases.remove(&mac) {
            let host = self.host_index(lease.addr);
            // Only clear occupancy while `mac` still holds the address;
            // an expired lease may have been reassigned already.
            if matches!(self.in_use.get(host), Some((owner, _)) if *owner == mac) {
                self.in_use.remove(host);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(prefix: u8) -> DhcpServer {
        DhcpServer::new(
            Subnet::new(Ipv4Addr::from_octets(10, 0, 0, 0), prefix),
            SimDuration::from_secs(60),
        )
    }

    #[test]
    fn leases_are_unique_while_active() {
        let mut d = server(24);
        let a = d.acquire(SimTime::ZERO, MacAddr::local(1)).unwrap();
        let b = d.acquire(SimTime::ZERO, MacAddr::local(2)).unwrap();
        assert_ne!(a.addr, b.addr);
        assert_eq!(d.active_leases(SimTime::ZERO), 2);
    }

    #[test]
    fn renewal_keeps_the_address() {
        let mut d = server(24);
        let first = d.acquire(SimTime::ZERO, MacAddr::local(1)).unwrap();
        let renewed = d
            .acquire(SimTime::from_secs(30), MacAddr::local(1))
            .unwrap();
        assert_eq!(first.addr, renewed.addr);
        assert!(renewed.expires > first.expires);
    }

    #[test]
    fn pool_exhaustion_and_expiry_reclamation() {
        let mut d = server(30); // 2 hosts
        d.acquire(SimTime::ZERO, MacAddr::local(1)).unwrap();
        d.acquire(SimTime::ZERO, MacAddr::local(2)).unwrap();
        assert_eq!(
            d.acquire(SimTime::ZERO, MacAddr::local(3)),
            Err(DhcpError::Exhausted)
        );
        // After expiry the addresses are reclaimable.
        let later = SimTime::from_secs(120);
        let c = d.acquire(later, MacAddr::local(3)).unwrap();
        assert!(d.subnet().contains(c.addr));
    }

    #[test]
    fn release_frees_immediately() {
        let mut d = server(30);
        let a = d.acquire(SimTime::ZERO, MacAddr::local(1)).unwrap();
        d.acquire(SimTime::ZERO, MacAddr::local(2)).unwrap();
        d.release(MacAddr::local(1));
        let c = d.acquire(SimTime::ZERO, MacAddr::local(3)).unwrap();
        assert_eq!(c.addr, a.addr, "released address is reused");
    }

    #[test]
    fn lookup_respects_expiry() {
        let mut d = server(24);
        d.acquire(SimTime::ZERO, MacAddr::local(1)).unwrap();
        assert!(d.lookup(SimTime::from_secs(30), MacAddr::local(1)).is_ok());
        assert!(matches!(
            d.lookup(SimTime::from_secs(61), MacAddr::local(1)),
            Err(DhcpError::NoLease(_))
        ));
        assert!(matches!(
            d.lookup(SimTime::ZERO, MacAddr::local(9)),
            Err(DhcpError::NoLease(_))
        ));
    }
}
