//! Multi-site virtual-organization topology: named grid sites joined
//! by inter-site [`NetLink`]s, the partition map for sharded
//! execution, and the **lookahead** extraction the conservative
//! synchronizer ([`gridvm_simcore::shard`]) is built on.
//!
//! The paper's deployment target is a virtual organization of
//! administrative sites ("middleware to allow resources of for-profit
//! service providers to be integrated") joined by wide-area links.
//! Cross-site interactions cannot propagate faster than the links
//! carrying them, so the minimum inter-site latency is a sound
//! lookahead: each site can execute independently that far past the
//! global event horizon.
//!
//! ```
//! use gridvm_vnet::sites::SiteTopology;
//! use gridvm_simcore::time::SimDuration;
//!
//! let topo = SiteTopology::paper_vo(4);
//! let la = topo.lookahead().expect("meshed");
//! assert!(la >= SimDuration::from_millis(5));
//! assert_eq!(topo.partition(2), vec![
//!     vec![gridvm_simcore::SiteId(0), gridvm_simcore::SiteId(2)],
//!     vec![gridvm_simcore::SiteId(1), gridvm_simcore::SiteId(3)],
//! ]);
//! ```

use std::collections::BTreeMap;

use gridvm_simcore::lookahead::LookaheadMatrix;
use gridvm_simcore::shard::SiteId;
use gridvm_simcore::time::SimDuration;
use gridvm_simcore::units::Bandwidth;

use crate::link::NetLink;

/// A virtual organization's site graph: named sites and symmetric
/// inter-site links.
#[derive(Clone, Debug, Default)]
pub struct SiteTopology {
    names: Vec<String>,
    /// Keyed by the normalized `(lo, hi)` site-id pair; links are
    /// symmetric.
    links: BTreeMap<(u32, u32), NetLink>,
}

impl SiteTopology {
    /// An empty topology.
    pub fn new() -> Self {
        SiteTopology::default()
    }

    /// Adds a named site and returns its id (ids are dense, in
    /// insertion order — the same ids a [`ShardedSim`] assigns its
    /// worlds).
    ///
    /// [`ShardedSim`]: gridvm_simcore::shard::ShardedSim
    pub fn add_site(&mut self, name: &str) -> SiteId {
        self.names.push(name.to_owned());
        SiteId((self.names.len() - 1) as u32)
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.names.len()
    }

    /// A site's name.
    pub fn name(&self, site: SiteId) -> &str {
        &self.names[site.index()]
    }

    /// Connects two sites with a symmetric link. A later call for the
    /// same pair replaces the link.
    ///
    /// # Panics
    ///
    /// Panics on a self-link, an unknown site, or a zero-latency link
    /// — a zero-latency inter-site link would collapse the
    /// conservative synchronizer's lookahead to nothing.
    pub fn connect(&mut self, a: SiteId, b: SiteId, link: NetLink) {
        assert!(a != b, "self-link at {a}");
        assert!(
            a.index() < self.names.len() && b.index() < self.names.len(),
            "link references an unknown site"
        );
        assert!(
            link.latency() > SimDuration::ZERO,
            "zero-latency inter-site link would leave no lookahead"
        );
        self.links.insert(pair_key(a, b), link);
    }

    /// The link between two sites, if connected (order-insensitive).
    pub fn link(&self, a: SiteId, b: SiteId) -> Option<&NetLink> {
        self.links.get(&pair_key(a, b))
    }

    /// Mutable access to the link between two sites (fault
    /// injection: outages, degradation).
    pub fn link_mut(&mut self, a: SiteId, b: SiteId) -> Option<&mut NetLink> {
        self.links.get_mut(&pair_key(a, b))
    }

    /// One-way propagation latency between two sites, if connected.
    pub fn latency(&self, a: SiteId, b: SiteId) -> Option<SimDuration> {
        self.link(a, b).map(NetLink::latency)
    }

    /// The conservative synchronizer's lookahead: the minimum latency
    /// over every inter-site link. `None` when no links exist (a
    /// single-site or fully disconnected topology needs no
    /// synchronization).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.links.values().map(NetLink::latency).min()
    }

    /// The per-(src,dst) lookahead matrix: the all-pairs
    /// minimum-latency closure of the site graph, ready to synchronize
    /// a sharded sim built with
    /// [`ShardedSim::new`](gridvm_simcore::shard::ShardedSim::new).
    /// Where [`Self::lookahead`] collapses the topology to one global
    /// constant (as a matrix,
    /// [`LookaheadMatrix::uniform`]`(sites, lookahead)`), the matrix
    /// keeps each pair's true bound — on a regional topology the WAN
    /// pairs contribute windows 4–9× wider than the metro minimum.
    pub fn lookahead_matrix(&self) -> LookaheadMatrix {
        LookaheadMatrix::shortest_paths(self.sites(), |a, b| self.latency(a, b))
    }

    /// Round-robin partition of sites into `shards` groups by
    /// `site_id % shards` — the same grouping
    /// [`ShardedSim`](gridvm_simcore::shard::ShardedSim) uses for
    /// window execution, exposed so harnesses can report per-shard
    /// membership.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn partition(&self, shards: usize) -> Vec<Vec<SiteId>> {
        assert!(shards > 0, "shard count must be positive");
        let shards = shards.min(self.sites().max(1));
        let mut groups = vec![Vec::new(); shards];
        for i in 0..self.sites() {
            groups[i % shards].push(SiteId(i as u32));
        }
        groups
    }

    /// A fully meshed topology of `n` identical sites.
    pub fn full_mesh(n: u32, latency: SimDuration, bandwidth: Bandwidth) -> Self {
        let mut topo = SiteTopology::new();
        for i in 0..n {
            topo.add_site(&format!("site{i}"));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                topo.connect(SiteId(a), SiteId(b), NetLink::new(latency, bandwidth));
            }
        }
        topo
    }

    /// The reference virtual organization used by the sharded
    /// experiments: `n` sites, fully meshed over WAN links whose
    /// latencies vary deterministically with the site pair in
    /// `[5ms, 17ms)` at 100 Mbit/s — so the lookahead is 5 ms and
    /// cross-site delivery times differ per route.
    pub fn paper_vo(n: u32) -> Self {
        let mut topo = SiteTopology::new();
        for i in 0..n {
            topo.add_site(&format!("vo-site{i}"));
        }
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        for a in 0..n {
            for b in (a + 1)..n {
                let ms = 5 + (u64::from(a) * 7 + u64::from(b) * 13) % 12;
                topo.connect(
                    SiteId(a),
                    SiteId(b),
                    NetLink::new(SimDuration::from_millis(ms), bw),
                );
            }
        }
        topo
    }

    /// The macro-scale virtual organization: `regions × per_region`
    /// sites, fully meshed, with metro-area latencies inside a region
    /// (`[5, 8)` ms) and WAN latencies between regions (`[20, 45)`
    /// ms), both deterministic per site pair. The lookahead stays at
    /// 5 ms — the conservative synchronizer's window — while most of
    /// the mesh pays a genuine wide-area price, which is what makes
    /// latency-aware placement policies distinguishable at scale.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn regional_vo(regions: u32, per_region: u32) -> Self {
        assert!(
            regions > 0 && per_region > 0,
            "a regional VO needs at least one region and one site per region"
        );
        let n = regions * per_region;
        let mut topo = SiteTopology::new();
        for i in 0..n {
            topo.add_site(&format!("r{}-s{}", i / per_region, i % per_region));
        }
        let wan = Bandwidth::from_mbit_per_sec(100.0);
        let metro = Bandwidth::from_mbit_per_sec(1000.0);
        for a in 0..n {
            for b in (a + 1)..n {
                let (ra, rb) = (a / per_region, b / per_region);
                let (ms, bw) = if ra == rb {
                    (5 + (u64::from(a) + u64::from(b)) % 3, metro)
                } else {
                    (
                        20 + (u64::from(ra) * 5
                            + u64::from(rb) * 11
                            + u64::from(a) * 3
                            + u64::from(b) * 7)
                            % 25,
                        wan,
                    )
                };
                topo.connect(
                    SiteId(a),
                    SiteId(b),
                    NetLink::new(SimDuration::from_millis(ms), bw),
                );
            }
        }
        topo
    }
}

/// Normalizes a site pair to its `(lo, hi)` key.
fn pair_key(a: SiteId, b: SiteId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: u32) -> SiteTopology {
        SiteTopology::full_mesh(
            n,
            SimDuration::from_millis(10),
            Bandwidth::from_mbit_per_sec(100.0),
        )
    }

    #[test]
    fn links_are_symmetric_and_replaceable() {
        let mut topo = mesh(3);
        assert_eq!(topo.sites(), 3);
        assert_eq!(
            topo.latency(SiteId(2), SiteId(0)),
            topo.latency(SiteId(0), SiteId(2))
        );
        topo.connect(
            SiteId(0),
            SiteId(1),
            NetLink::new(
                SimDuration::from_millis(3),
                Bandwidth::from_mbit_per_sec(10.0),
            ),
        );
        assert_eq!(
            topo.latency(SiteId(1), SiteId(0)),
            Some(SimDuration::from_millis(3))
        );
        assert!(topo.link_mut(SiteId(0), SiteId(2)).is_some());
        assert!(topo.link(SiteId(0), SiteId(0)).is_none());
    }

    #[test]
    fn lookahead_is_the_minimum_link_latency() {
        assert_eq!(SiteTopology::new().lookahead(), None);
        let mut topo = mesh(3);
        assert_eq!(topo.lookahead(), Some(SimDuration::from_millis(10)));
        topo.connect(
            SiteId(1),
            SiteId(2),
            NetLink::new(
                SimDuration::from_millis(4),
                Bandwidth::from_mbit_per_sec(100.0),
            ),
        );
        assert_eq!(topo.lookahead(), Some(SimDuration::from_millis(4)));
    }

    #[test]
    fn paper_vo_is_meshed_with_bounded_latencies() {
        let topo = SiteTopology::paper_vo(6);
        assert_eq!(topo.sites(), 6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                if a == b {
                    continue;
                }
                let lat = topo.latency(SiteId(a), SiteId(b)).expect("meshed");
                assert!(lat >= SimDuration::from_millis(5), "{a}->{b}: {lat}");
                assert!(lat < SimDuration::from_millis(17), "{a}->{b}: {lat}");
            }
        }
        assert!(topo.lookahead().expect("meshed") >= SimDuration::from_millis(5));
        assert_eq!(topo.name(SiteId(0)), "vo-site0");
    }

    #[test]
    fn partition_round_robins_sites() {
        let topo = mesh(5);
        let groups = topo.partition(2);
        assert_eq!(
            groups,
            vec![
                vec![SiteId(0), SiteId(2), SiteId(4)],
                vec![SiteId(1), SiteId(3)],
            ]
        );
        assert_eq!(topo.partition(8).len(), 5, "clamped to site count");
    }

    #[test]
    fn regional_vo_separates_metro_and_wan_latencies() {
        let topo = SiteTopology::regional_vo(3, 4);
        assert_eq!(topo.sites(), 12);
        assert_eq!(topo.name(SiteId(0)), "r0-s0");
        assert_eq!(topo.name(SiteId(5)), "r1-s1");
        for a in 0..12u32 {
            for b in (a + 1)..12u32 {
                let lat = topo.latency(SiteId(a), SiteId(b)).expect("meshed");
                if a / 4 == b / 4 {
                    assert!(lat >= SimDuration::from_millis(5), "{a}->{b}: {lat}");
                    assert!(lat < SimDuration::from_millis(8), "{a}->{b}: {lat}");
                } else {
                    assert!(lat >= SimDuration::from_millis(20), "{a}->{b}: {lat}");
                    assert!(lat < SimDuration::from_millis(45), "{a}->{b}: {lat}");
                }
            }
        }
        assert_eq!(topo.lookahead(), Some(SimDuration::from_millis(5)));
    }

    #[test]
    fn lookahead_matrix_closes_over_relay_paths() {
        // Direct 0-1 link is 30ms, but relaying through 2 costs
        // 4 + 4: the matrix must report the relayed bound while the
        // scalar lookahead stays the cheapest single link.
        let mut topo = SiteTopology::new();
        let (a, b, c) = (topo.add_site("a"), topo.add_site("b"), topo.add_site("c"));
        let bw = Bandwidth::from_mbit_per_sec(100.0);
        topo.connect(a, b, NetLink::new(SimDuration::from_millis(30), bw));
        topo.connect(a, c, NetLink::new(SimDuration::from_millis(4), bw));
        topo.connect(b, c, NetLink::new(SimDuration::from_millis(4), bw));
        let m = topo.lookahead_matrix();
        assert_eq!(m.lookahead(a, b), Some(SimDuration::from_millis(8)));
        assert_eq!(m.lookahead(a, c), Some(SimDuration::from_millis(4)));
        assert_eq!(m.min_lookahead(), topo.lookahead());
    }

    #[test]
    fn lookahead_matrix_agrees_with_scalar_lookahead_on_reference_vos() {
        for topo in [
            SiteTopology::paper_vo(6),
            SiteTopology::regional_vo(3, 4),
            SiteTopology::new(),
        ] {
            let m = topo.lookahead_matrix();
            assert_eq!(m.sites(), topo.sites());
            assert_eq!(m.min_lookahead(), topo.lookahead());
        }
        // Regional WAN pairs keep bounds well above the 5ms metro
        // minimum — the structure the per-pair protocol exploits.
        let m = SiteTopology::regional_vo(3, 4).lookahead_matrix();
        assert!(m.lookahead_nanos(0, 8) >= SimDuration::from_millis(10).as_nanos());
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn regional_vo_rejects_empty_dimensions() {
        let _ = SiteTopology::regional_vo(0, 4);
    }

    #[test]
    #[should_panic(expected = "no lookahead")]
    fn zero_latency_links_are_rejected() {
        let mut topo = mesh(2);
        topo.connect(
            SiteId(0),
            SiteId(1),
            NetLink::new(SimDuration::ZERO, Bandwidth::from_mbit_per_sec(1.0)),
        );
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_links_are_rejected() {
        let mut topo = mesh(2);
        let l = topo.link(SiteId(0), SiteId(1)).expect("meshed").clone();
        topo.connect(SiteId(1), SiteId(1), l);
    }
}
