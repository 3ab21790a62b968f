// audit:hot-path: every tunneled Ethernet frame and bulk transfer is charged here
//! Ethernet-over-SSH tunneling and the VM VPN — scenario 2 of
//! Section 3.3.
//!
//! "The simplest approach is to tunnel traffic, at the Ethernet
//! level, between the remote virtual machine and the local network of
//! the user. ... If we used SSH to start the machine, we could use
//! the SSH tunneling features."
//!
//! An [`EthernetTunnel`] wraps an underlay [`NetLink`] and charges
//! per-frame encapsulation bytes plus SSH crypto time; a [`Vpn`]
//! grafts remote VMs onto the user's home subnet by carrying their
//! DHCP traffic through the tunnel.

// audit:allow(hot-btree-lookup): VPN membership is keyed by MAC, an external boundary key; joins are control-plane events, and send_home checks membership once per bulk transfer, never per frame
use std::collections::BTreeMap;

use gridvm_simcore::server::ServiceGrant;
use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_simcore::units::ByteSize;

use crate::addr::{Ipv4Addr, MacAddr};
use crate::dhcp::{DhcpError, DhcpServer};
use crate::link::{LinkError, NetLink};

/// Ethernet + SSH encapsulation overhead per frame (Ethernet header,
/// SSH packet framing, MAC, padding).
pub const FRAME_OVERHEAD: ByteSize = ByteSize::from_bytes(14 + 64);

/// SSH crypto time per KiB of payload (3DES-era), paid at each end.
const CRYPTO_PER_KIB: SimDuration = SimDuration::from_micros(80);

/// An Ethernet-level tunnel over an SSH connection.
///
/// ```
/// use gridvm_vnet::link::NetLink;
/// use gridvm_vnet::tunnel::EthernetTunnel;
/// use gridvm_simcore::time::{SimDuration, SimTime};
/// use gridvm_simcore::units::{Bandwidth, ByteSize};
///
/// let underlay = NetLink::new(SimDuration::from_millis(20), Bandwidth::from_mbit_per_sec(10.0));
/// let mut tun = EthernetTunnel::new(underlay);
/// let g = tun.send_frame(SimTime::ZERO, ByteSize::from_bytes(1500)).unwrap();
/// assert!(g.finish.as_secs_f64() > 0.020, "at least the underlay latency");
/// ```
#[derive(Clone, Debug)]
pub struct EthernetTunnel {
    underlay: NetLink,
    frames: u64,
}

impl EthernetTunnel {
    /// Wraps an underlay link; SSH crypto costs 80 µs per KiB.
    pub fn new(underlay: NetLink) -> Self {
        EthernetTunnel {
            underlay,
            frames: 0,
        }
    }

    /// The underlay link (for failure injection).
    pub fn underlay_mut(&mut self) -> &mut NetLink {
        &mut self.underlay
    }

    /// Frames carried so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Sends one Ethernet frame of `payload` bytes through the
    /// tunnel.
    ///
    /// # Errors
    ///
    /// [`LinkError::Down`] when the underlay is down.
    pub fn send_frame(
        &mut self,
        now: SimTime,
        payload: ByteSize,
    ) -> Result<ServiceGrant, LinkError> {
        let kib = payload.as_f64() / 1024.0;
        let crypto = CRYPTO_PER_KIB.mul_f64(kib.max(0.05));
        let wire = self.underlay.send(now + crypto, payload + FRAME_OVERHEAD)?;
        self.frames += 1;
        Ok(ServiceGrant {
            start: now,
            // decrypt at the far end costs the same again
            finish: wire.finish + crypto,
        })
    }

    /// The effective goodput for `size` bytes of payload in
    /// 1500-byte frames, measured end to end from `now`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Down`] when the underlay is down.
    pub fn send_bulk(&mut self, now: SimTime, size: ByteSize) -> Result<ServiceGrant, LinkError> {
        let mtu = 1500u64;
        let frames = size.as_u64().div_ceil(mtu).max(1);
        let mut last = now;
        for i in 0..frames {
            let payload = ByteSize::from_bytes(mtu.min(size.as_u64() - i * mtu));
            // Frames pipeline: each is handed to the tunnel as soon
            // as the previous one's crypto is done; the underlay pipe
            // serializes them.
            let g = self.send_frame(now, payload)?;
            last = g.finish.max(last);
        }
        Ok(ServiceGrant {
            start: now,
            finish: last,
        })
    }
}

/// A VPN grafting remote VMs onto the user's home network: addresses
/// come from the *home* DHCP server, reached through the tunnel.
///
/// "the remote machine would appear to be connected to the local
/// network, where, presumably, it would be easy for the user to have
/// it assigned an address".
#[derive(Debug)]
pub struct Vpn {
    tunnel: EthernetTunnel,
    home_dhcp: DhcpServer,
    /// MAC-keyed membership. MACs are external boundary keys (sparse
    /// 48-bit identifiers), so this stays an ordered map; joins and
    /// leaves are cold control-plane operations.
    // audit:allow(hot-btree-lookup): VPN membership is keyed by MAC, an external boundary key; joins are control-plane events, and send_home checks membership once per bulk transfer, never per frame
    members: BTreeMap<MacAddr, Ipv4Addr>,
}

/// Errors from VPN operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VpnError {
    /// The tunnel underlay is down.
    Tunnel(LinkError),
    /// The home DHCP pool rejected the request.
    Dhcp(DhcpError),
}

impl std::fmt::Display for VpnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VpnError::Tunnel(e) => write!(f, "tunnel: {e}"),
            VpnError::Dhcp(e) => write!(f, "home dhcp: {e}"),
        }
    }
}

impl std::error::Error for VpnError {}

impl From<LinkError> for VpnError {
    fn from(e: LinkError) -> Self {
        VpnError::Tunnel(e)
    }
}

impl From<DhcpError> for VpnError {
    fn from(e: DhcpError) -> Self {
        VpnError::Dhcp(e)
    }
}

impl Vpn {
    /// Creates a VPN from a tunnel to the user's site and the home
    /// DHCP server.
    pub fn new(tunnel: EthernetTunnel, home_dhcp: DhcpServer) -> Self {
        Vpn {
            tunnel,
            home_dhcp,
            // audit:allow(hot-btree-lookup): VPN membership is keyed by MAC, an external boundary key; joins are control-plane events, and send_home checks membership once per bulk transfer, never per frame
            members: BTreeMap::new(),
        }
    }

    /// Joins a remote VM to the home network: a DHCP exchange
    /// (DISCOVER/OFFER/REQUEST/ACK ≈ 4 frames) through the tunnel.
    /// Returns the assigned home-subnet address and the completion
    /// time.
    ///
    /// # Errors
    ///
    /// Tunnel down or home pool exhausted.
    pub fn join(&mut self, now: SimTime, mac: MacAddr) -> Result<(Ipv4Addr, SimTime), VpnError> {
        let mut t = now;
        for _ in 0..4 {
            let g = self.tunnel.send_frame(t, ByteSize::from_bytes(342))?;
            t = g.finish;
        }
        let lease = self.home_dhcp.acquire(t, mac)?;
        self.members.insert(mac, lease.addr);
        Ok((lease.addr, t))
    }

    /// The tunnel carrying this VPN (exposed for failure injection
    /// and link inspection).
    pub fn tunnel_mut(&mut self) -> &mut EthernetTunnel {
        &mut self.tunnel
    }

    /// The home address of a joined VM.
    pub fn address_of(&self, mac: MacAddr) -> Option<Ipv4Addr> {
        self.members.get(&mac).copied()
    }

    /// Sends application traffic from a joined VM to the home
    /// network.
    ///
    /// # Errors
    ///
    /// Tunnel down, or the MAC never joined (reported as a missing
    /// lease).
    pub fn send_home(
        &mut self,
        now: SimTime,
        mac: MacAddr,
        size: ByteSize,
    ) -> Result<ServiceGrant, VpnError> {
        if !self.members.contains_key(&mac) {
            return Err(VpnError::Dhcp(DhcpError::NoLease(mac)));
        }
        Ok(self.tunnel.send_bulk(now, size)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Subnet;
    use gridvm_simcore::units::Bandwidth;

    fn tunnel() -> EthernetTunnel {
        EthernetTunnel::new(NetLink::new(
            SimDuration::from_millis(25),
            Bandwidth::from_mbit_per_sec(10.0),
        ))
    }

    fn vpn() -> Vpn {
        let dhcp = DhcpServer::new(
            Subnet::new(Ipv4Addr::from_octets(192, 168, 1, 0), 24),
            SimDuration::from_secs(3600),
        );
        Vpn::new(tunnel(), dhcp)
    }

    #[test]
    fn frames_pay_crypto_and_encapsulation() {
        let mut plain = NetLink::new(
            SimDuration::from_millis(25),
            Bandwidth::from_mbit_per_sec(10.0),
        );
        let raw = plain
            .send(SimTime::ZERO, ByteSize::from_bytes(1500))
            .unwrap();
        let mut t = tunnel();
        let tun = t
            .send_frame(SimTime::ZERO, ByteSize::from_bytes(1500))
            .unwrap();
        assert!(
            tun.finish > raw.finish,
            "tunnel adds overhead: {} vs {}",
            tun.finish,
            raw.finish
        );
        assert_eq!(t.frames(), 1);
    }

    #[test]
    fn bulk_transfer_fragments_into_frames() {
        let mut t = tunnel();
        let g = t.send_bulk(SimTime::ZERO, ByteSize::from_kib(30)).unwrap();
        assert_eq!(t.frames(), 21, "30 KiB / 1500 B = 21 frames");
        assert!(g.finish > SimTime::ZERO);
    }

    #[test]
    fn vpn_join_assigns_home_address() {
        let mut v = vpn();
        let (addr, done) = v.join(SimTime::ZERO, MacAddr::local(7)).unwrap();
        assert!(Subnet::new(Ipv4Addr::from_octets(192, 168, 1, 0), 24).contains(addr));
        // 4 frames × ~25 ms latency each way: the join takes ~100+ ms.
        assert!(done.as_secs_f64() > 0.09, "join at {done}");
        assert_eq!(v.address_of(MacAddr::local(7)), Some(addr));
    }

    #[test]
    fn unjoined_vm_cannot_send() {
        let mut v = vpn();
        let err = v
            .send_home(SimTime::ZERO, MacAddr::local(9), ByteSize::from_kib(1))
            .unwrap_err();
        assert!(matches!(err, VpnError::Dhcp(DhcpError::NoLease(_))));
    }

    #[test]
    fn tunnel_failure_propagates() {
        let mut v = vpn();
        v.tunnel.underlay_mut().set_down();
        let err = v.join(SimTime::ZERO, MacAddr::local(1)).unwrap_err();
        assert!(matches!(err, VpnError::Tunnel(LinkError::Down)));
        assert!(err.to_string().contains("tunnel"));
    }

    #[test]
    fn joined_vm_traffic_flows_home() {
        let mut v = vpn();
        let (_, t) = v.join(SimTime::ZERO, MacAddr::local(1)).unwrap();
        let g = v
            .send_home(t, MacAddr::local(1), ByteSize::from_kib(64))
            .unwrap();
        assert!(g.finish > t);
    }
}
