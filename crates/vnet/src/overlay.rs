// audit:hot-path: every routed overlay packet asks the route cache for its path here
//! The self-optimizing overlay among remote VMs — the "natural
//! extension" of Section 3.3, in the style of Resilient Overlay
//! Networks \[2\].
//!
//! Overlay nodes measure the underlay latency between each pair
//! (probing), and route application traffic over the lowest-latency
//! overlay path — possibly through intermediate VMs — re-optimizing
//! whenever measurements change. The ablation bench compares direct
//! underlay paths against overlay routing when a path degrades.

use std::collections::BinaryHeap;

use gridvm_simcore::metrics::Counter;
use gridvm_simcore::slot::DenseMap;
use gridvm_simcore::time::{SimDuration, SimTime};

/// Route queries answered straight from the topology-versioned pair
/// cache (no shortest-path work at all).
static ROUTE_CACHE_HITS: Counter = Counter::new("vnet.route_cache_hits");

/// Route queries that had to (re)build their answer — at worst one
/// Dijkstra per (source, topology-version), shared across every
/// destination via the per-source shortest-path tree.
static ROUTE_CACHE_MISSES: Counter = Counter::new("vnet.route_cache_misses");

/// Identifies an overlay node (a VM or a user site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Errors from overlay operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OverlayError {
    /// Node not part of the overlay.
    UnknownNode(
        /// The offending node.
        NodeId,
    ),
    /// No path exists (partition).
    Unreachable {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::UnknownNode(n) => write!(f, "unknown overlay node {n}"),
            OverlayError::Unreachable { from, to } => {
                write!(f, "no overlay path from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for OverlayError {}

/// A computed overlay route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// The node sequence, source first, destination last.
    pub hops: Vec<NodeId>,
    /// Total measured latency along the path.
    pub latency: SimDuration,
}

/// The overlay: nodes plus a mesh of measured pairwise latencies.
///
/// ```
/// use gridvm_vnet::overlay::{NodeId, Overlay};
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut ov = Overlay::new();
/// let (a, b, c) = (ov.add_node(), ov.add_node(), ov.add_node());
/// ov.update_measurement(a, b, SimDuration::from_millis(100));
/// ov.update_measurement(a, c, SimDuration::from_millis(10));
/// ov.update_measurement(c, b, SimDuration::from_millis(10));
/// let route = ov.route(a, b)?;
/// assert_eq!(route.hops, vec![a, c, b], "relay through c beats direct");
/// # Ok::<(), gridvm_vnet::overlay::OverlayError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Overlay {
    next_id: u32,
    nodes: Vec<NodeId>,
    /// Per-node adjacency lists, each sorted by neighbor id so
    /// Dijkstra relaxes neighbors in exactly the order the previous
    /// `BTreeMap` range scan produced (identical tie-breaking,
    /// identical routes). Probes set both directions.
    adj: DenseMap<Vec<(NodeId, SimDuration)>>,
    reroutes: u64,
    /// Bumped by every topology mutation (node add, measurement
    /// change, outage); cached answers are valid only
    /// while their recorded version matches.
    topo_version: u64,
    /// Per-source shortest-path tree, computed by one full Dijkstra
    /// and shared across every destination until the topology
    /// changes. Keyed by source node id.
    spt_cache: DenseMap<SptEntry>,
    /// Per-pair routes, as dense per-source rows keyed by destination
    /// id (also the previous-answer memory behind the `reroutes`
    /// self-optimization metric, which compares across versions).
    route_cache: DenseMap<DenseMap<(u64, Route)>>,
}

/// A cached single-source shortest-path tree, keyed by node id.
#[derive(Clone, Debug, Default)]
struct SptEntry {
    version: u64,
    dist: DenseMap<SimDuration>,
    prev: DenseMap<u32>,
}

impl Overlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Overlay::default()
    }

    /// Adds a node (a VM joining the overlay) and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.push(id);
        // audit:allow(alloc-in-hot): topology construction, not packet forwarding; nodes are added during setup and after faults only
        self.adj.insert(u64::from(id.0), Vec::new());
        self.topo_version += 1;
        id
    }

    /// Ids are issued sequentially and nodes never leave, so every id
    /// below the next one is a member.
    fn is_member(&self, node: NodeId) -> bool {
        node.0 < self.next_id
    }

    /// The current node set.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Installs or updates the directed edge `a → b`, keeping the
    /// adjacency list sorted by neighbor id.
    fn set_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
        if self.adj.get(u64::from(a.0)).is_none() {
            // audit:allow(alloc-in-hot): link installation is a topology-change event, not part of the per-packet path
            self.adj.insert(u64::from(a.0), Vec::new());
        }
        let list = self.adj.get_mut(u64::from(a.0)).expect("list just ensured");
        match list.binary_search_by_key(&b, |(n, _)| *n) {
            Ok(i) => list[i].1 = latency,
            Err(i) => list.insert(i, (b, latency)),
        }
    }

    fn clear_link(&mut self, a: NodeId, b: NodeId) {
        if let Some(list) = self.adj.get_mut(u64::from(a.0)) {
            if let Ok(i) = list.binary_search_by_key(&b, |(n, _)| *n) {
                list.remove(i);
            }
        }
    }

    /// Records a (symmetric) latency measurement between two nodes —
    /// the result of a probe.
    pub fn update_measurement(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
        self.set_link(a, b, latency);
        self.set_link(b, a, latency);
        self.topo_version += 1;
    }

    /// Marks the path between two nodes unusable (probe timed out).
    pub fn mark_down(&mut self, a: NodeId, b: NodeId) {
        self.clear_link(a, b);
        self.clear_link(b, a);
        self.topo_version += 1;
    }

    /// The measured direct latency, if a usable measurement exists.
    pub fn direct_latency(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        let list = self.adj.get(u64::from(a.0))?;
        let i = list.binary_search_by_key(&b, |(n, _)| *n).ok()?;
        Some(list[i].1)
    }

    /// Times the overlay has changed its answer for a pair.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }

    /// Computes the minimum-latency route from `from` to `to` over
    /// the measurement mesh.
    ///
    /// Answers are cached per `(source, destination)` and per-source
    /// shortest-path trees are cached per topology version, so
    /// Dijkstra runs at most once per (source, topology-version) —
    /// not per packet. Per-query cache behavior is surfaced through
    /// the `vnet.route_cache_hits` / `vnet.route_cache_misses`
    /// metrics. Hot paths that do not need an owned [`Route`] should
    /// prefer [`route_ref`](Overlay::route_ref).
    ///
    /// # Errors
    ///
    /// Unknown nodes or no path.
    pub fn route(&mut self, from: NodeId, to: NodeId) -> Result<Route, OverlayError> {
        self.route_ref(from, to).cloned()
    }

    /// Like [`route`](Overlay::route) but borrows the cached route
    /// instead of cloning its hop vector — the per-packet hot path.
    ///
    /// # Errors
    ///
    /// Unknown nodes or no path.
    pub fn route_ref(&mut self, from: NodeId, to: NodeId) -> Result<&Route, OverlayError> {
        self.ensure_route(from, to)?;
        Ok(&self
            .route_cache
            .get(u64::from(from.0))
            .and_then(|row| row.get(u64::from(to.0)))
            .expect("ensure_route populated the pair cache")
            .1)
    }

    /// Validates the pair cache for `(from, to)`, recomputing from the
    /// (possibly also recomputed) per-source shortest-path tree when
    /// the topology has moved on.
    fn ensure_route(&mut self, from: NodeId, to: NodeId) -> Result<(), OverlayError> {
        if !self.is_member(from) {
            return Err(OverlayError::UnknownNode(from));
        }
        if !self.is_member(to) {
            return Err(OverlayError::UnknownNode(to));
        }
        if self
            .route_cache
            .get(u64::from(from.0))
            .and_then(|row| row.get(u64::from(to.0)))
            .is_some_and(|(v, _)| *v == self.topo_version)
        {
            ROUTE_CACHE_HITS.add(1);
            return Ok(());
        }
        ROUTE_CACHE_MISSES.add(1);
        let route = if from == to {
            Route {
                // audit:allow(alloc-in-hot): a route-cache miss builds the one-hop route once per (source, destination, topology version); hits return above without allocating
                hops: vec![from],
                latency: SimDuration::ZERO,
            }
        } else {
            self.ensure_spt(from);
            let spt = self
                .spt_cache
                .get(u64::from(from.0))
                .expect("ensure_spt populated the source entry");
            let latency = *spt
                .dist
                .get(u64::from(to.0))
                .ok_or(OverlayError::Unreachable { from, to })?;
            // audit:allow(alloc-in-hot): a route-cache miss walks the shortest-path tree into a fresh hop list once per (source, destination, topology version); hits return above without allocating
            let mut hops = vec![to];
            let mut cur = to;
            while cur != from {
                cur = NodeId(
                    *spt.prev
                        .get(u64::from(cur.0))
                        .expect("every reached node has a predecessor"),
                );
                hops.push(cur);
            }
            hops.reverse();
            Route { hops, latency }
        };
        // Track route changes for the self-optimization metric: the
        // stale pair entry is the previous answer.
        let changed = self
            .route_cache
            .get(u64::from(from.0))
            .and_then(|row| row.get(u64::from(to.0)))
            .is_some_and(|(_, old)| old.hops != route.hops);
        if changed {
            self.reroutes += 1;
        }
        if self.route_cache.get(u64::from(from.0)).is_none() {
            self.route_cache.insert(u64::from(from.0), DenseMap::new());
        }
        self.route_cache
            .get_mut(u64::from(from.0))
            .expect("row just ensured")
            .insert(u64::from(to.0), (self.topo_version, route));
        Ok(())
    }

    /// Ensures `spt_cache[from]` matches the current topology: one
    /// full Dijkstra (no early exit — the tree serves every
    /// destination) with neighbor iteration restricted to `from`'s
    /// sorted adjacency list, not a scan of all links.
    fn ensure_spt(&mut self, from: NodeId) {
        if self
            .spt_cache
            .get(u64::from(from.0))
            .is_some_and(|e| e.version == self.topo_version)
        {
            return;
        }
        let mut dist: DenseMap<SimDuration> = DenseMap::new();
        let mut prev: DenseMap<u32> = DenseMap::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(SimDuration, NodeId)>> = BinaryHeap::new();
        dist.insert(u64::from(from.0), SimDuration::ZERO);
        heap.push(std::cmp::Reverse((SimDuration::ZERO, from)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist.get(u64::from(u.0)).is_some_and(|best| *best < d) {
                continue;
            }
            let Some(neighbors) = self.adj.get(u64::from(u.0)) else {
                continue;
            };
            // Sorted by id: the same relaxation order as the previous
            // implementation's `links.range((u, MIN)..=(u, MAX))`.
            for (b, w) in neighbors {
                let nd = d + *w;
                if dist.get(u64::from(b.0)).is_none_or(|best| nd < *best) {
                    dist.insert(u64::from(b.0), nd);
                    prev.insert(u64::from(b.0), u.0);
                    heap.push(std::cmp::Reverse((nd, *b)));
                }
            }
        }
        self.spt_cache.insert(
            u64::from(from.0),
            SptEntry {
                version: self.topo_version,
                dist,
                prev,
            },
        );
    }

    /// Full-mesh probe convenience: installs `latency(a, b)` for all
    /// pairs from a caller-provided measurement function.
    pub fn probe_mesh<F>(&mut self, _now: SimTime, mut measure: F)
    where
        F: FnMut(NodeId, NodeId) -> Option<SimDuration>,
    {
        // audit:allow(alloc-in-hot): one copy of the node list per probe round, so the pair loop can update measurements through &mut self; a probe round is a measurement event, not packet forwarding
        let nodes = self.nodes.clone();
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                match measure(*a, *b) {
                    Some(lat) => self.update_measurement(*a, *b, lat),
                    None => self.mark_down(*a, *b),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn triangle() -> (Overlay, NodeId, NodeId, NodeId) {
        let mut ov = Overlay::new();
        let a = ov.add_node();
        let b = ov.add_node();
        let c = ov.add_node();
        ov.update_measurement(a, b, ms(50));
        ov.update_measurement(a, c, ms(10));
        ov.update_measurement(c, b, ms(10));
        (ov, a, b, c)
    }

    #[test]
    fn direct_route_when_it_is_best() {
        let (mut ov, a, b, _) = triangle();
        ov.update_measurement(a, b, ms(5));
        let r = ov.route(a, b).unwrap();
        assert_eq!(r.hops, vec![a, b]);
        assert_eq!(r.latency, ms(5));
    }

    #[test]
    fn relay_route_when_direct_is_slow() {
        let (mut ov, a, b, c) = triangle();
        let r = ov.route(a, b).unwrap();
        assert_eq!(r.hops, vec![a, c, b]);
        assert_eq!(r.latency, ms(20));
    }

    #[test]
    fn degradation_triggers_reroute() {
        let (mut ov, a, b, c) = triangle();
        ov.update_measurement(a, b, ms(5));
        let _ = ov.route(a, b).unwrap();
        assert_eq!(ov.reroutes(), 0);
        // The direct path congests: overlay self-optimizes.
        ov.update_measurement(a, b, ms(500));
        let r = ov.route(a, b).unwrap();
        assert_eq!(r.hops, vec![a, c, b]);
        assert_eq!(ov.reroutes(), 1);
    }

    #[test]
    fn down_path_routes_around() {
        let (mut ov, a, b, c) = triangle();
        ov.mark_down(a, b);
        let r = ov.route(a, b).unwrap();
        assert_eq!(r.hops, vec![a, c, b]);
    }

    #[test]
    fn partition_is_reported() {
        let (mut ov, a, b, c) = triangle();
        ov.mark_down(a, b);
        ov.mark_down(a, c);
        let err = ov.route(a, b).unwrap_err();
        assert_eq!(err, OverlayError::Unreachable { from: a, to: b });
        assert!(err.to_string().contains("no overlay path"));
        let _ = c;
    }

    #[test]
    fn unknown_and_self_routes() {
        let (mut ov, a, _, _) = triangle();
        assert!(matches!(
            ov.route(a, NodeId(99)),
            Err(OverlayError::UnknownNode(_))
        ));
        let r = ov.route(a, a).unwrap();
        assert_eq!(r.hops, vec![a]);
        assert_eq!(r.latency, SimDuration::ZERO);
    }

    #[test]
    fn probe_mesh_populates_all_pairs() {
        let mut ov = Overlay::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| ov.add_node()).collect();
        ov.probe_mesh(SimTime::ZERO, |a, b| Some(ms(u64::from(a.0 + b.0 + 1))));
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                assert!(ov.direct_latency(*a, *b).is_some());
            }
        }
        let r = ov.route(nodes[0], nodes[4]).unwrap();
        assert!(!r.hops.is_empty());
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        gridvm_simcore::metrics::reset();
        let (mut ov, a, b, _) = triangle();
        let r1 = ov.route(a, b).unwrap();
        let r2 = ov.route(a, b).unwrap();
        assert_eq!(r1, r2);
        let snap = gridvm_simcore::metrics::take();
        assert_eq!(snap.counter("vnet.route_cache_misses"), 1);
        assert_eq!(snap.counter("vnet.route_cache_hits"), 1);
    }

    #[test]
    fn topology_change_invalidates_cache() {
        gridvm_simcore::metrics::reset();
        let (mut ov, a, b, c) = triangle();
        let v0 = ov.topo_version;
        let _ = ov.route(a, b).unwrap();
        ov.mark_down(a, c);
        assert!(ov.topo_version > v0, "mutation bumps the version");
        let r = ov.route(a, b).unwrap();
        assert_eq!(r.hops, vec![a, b], "recomputed around the outage");
        let snap = gridvm_simcore::metrics::take();
        assert_eq!(snap.counter("vnet.route_cache_misses"), 2);
        assert_eq!(snap.counter("vnet.route_cache_hits"), 0);
    }

    #[test]
    fn spt_is_shared_across_destinations() {
        gridvm_simcore::metrics::reset();
        let (mut ov, a, b, c) = triangle();
        // Two destinations from the same source at the same version:
        // two pair-cache misses, but one shortest-path tree (asserted
        // indirectly: both answers then hit).
        let _ = ov.route(a, b).unwrap();
        let _ = ov.route(a, c).unwrap();
        let _ = ov.route(a, b).unwrap();
        let _ = ov.route(a, c).unwrap();
        let snap = gridvm_simcore::metrics::take();
        assert_eq!(snap.counter("vnet.route_cache_misses"), 2);
        assert_eq!(snap.counter("vnet.route_cache_hits"), 2);
    }

    #[test]
    fn route_ref_matches_route() {
        let (mut ov, a, b, c) = triangle();
        let owned = ov.route(a, b).unwrap();
        let borrowed = ov.route_ref(a, b).unwrap();
        assert_eq!(*borrowed, owned);
        assert_eq!(borrowed.hops, vec![a, c, b]);
        assert!(matches!(
            ov.route_ref(a, NodeId(99)),
            Err(OverlayError::UnknownNode(_))
        ));
    }

    #[test]
    fn multi_hop_chains_compose() {
        // A line topology: 0-1-2-3, no shortcuts.
        let mut ov = Overlay::new();
        let n: Vec<NodeId> = (0..4).map(|_| ov.add_node()).collect();
        ov.update_measurement(n[0], n[1], ms(10));
        ov.update_measurement(n[1], n[2], ms(10));
        ov.update_measurement(n[2], n[3], ms(10));
        let r = ov.route(n[0], n[3]).unwrap();
        assert_eq!(r.hops.len(), 4);
        assert_eq!(r.latency, ms(30));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The overlay route is never worse than the direct
        /// measurement when one exists (self-optimization soundness).
        #[test]
        fn overlay_never_loses_to_direct(weights in proptest::collection::vec(1u64..1000, 15)) {
            let mut ov = Overlay::new();
            let nodes: Vec<NodeId> = (0..6).map(|_| ov.add_node()).collect();
            let mut w = weights.into_iter();
            for i in 0..6 {
                for j in (i + 1)..6 {
                    if let Some(ms_w) = w.next() {
                        ov.update_measurement(nodes[i], nodes[j], SimDuration::from_millis(ms_w));
                    }
                }
            }
            for i in 0..6 {
                for j in 0..6 {
                    if i == j { continue; }
                    if let Some(direct) = ov.direct_latency(nodes[i], nodes[j]) {
                        let r = ov.route(nodes[i], nodes[j]).unwrap();
                        prop_assert!(r.latency <= direct,
                            "route {:?} worse than direct {}", r, direct);
                    }
                }
            }
        }
    }
}
