//! The grid information service: resource records, VM futures, and
//! relational queries with bounded nondeterministic results.
//!
//! "Virtual machines would register when instantiated. Hosts would
//! advertise what kinds and how many virtual machines they were
//! willing to instantiate (virtual machine futures). ... such queries
//! are non-deterministic and return partial results in a bounded
//! amount of time."

use std::collections::BTreeMap;
use std::fmt;

use gridvm_simcore::rng::SimRng;
use gridvm_simcore::time::{SimDuration, SimTime};

/// Unique id of a registered resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u64);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// What kind of thing a record describes.
#[derive(Clone, Debug, PartialEq)]
pub enum ResourceKind {
    /// A physical compute server (a potential VM host).
    PhysicalHost {
        /// CPU count.
        cores: usize,
        /// Clock rate in Hz.
        clock_hz: f64,
        /// Installed memory in MiB.
        memory_mib: u64,
    },
    /// A running VM instance.
    VmInstance {
        /// The host it runs on.
        host: ResourceId,
        /// Guest OS label.
        guest_os: String,
        /// Memory in MiB.
        memory_mib: u64,
    },
    /// A *VM future*: capacity to instantiate VMs on demand.
    VmFuture {
        /// The advertising host.
        host: ResourceId,
        /// Guest OS images the host can instantiate.
        images: Vec<String>,
        /// How many more VMs the host will accept.
        available_slots: u32,
    },
    /// An image server archiving VM images.
    ImageServer {
        /// Image names archived.
        images: Vec<String>,
    },
    /// A data server holding user files.
    DataServer {
        /// Site label.
        site: String,
    },
}

impl ResourceKind {
    /// Short tag for queries and display.
    pub fn tag(&self) -> &'static str {
        match self {
            ResourceKind::PhysicalHost { .. } => "host",
            ResourceKind::VmInstance { .. } => "vm",
            ResourceKind::VmFuture { .. } => "future",
            ResourceKind::ImageServer { .. } => "image-server",
            ResourceKind::DataServer { .. } => "data-server",
        }
    }
}

/// One registered resource.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceRecord {
    /// Identity.
    pub id: ResourceId,
    /// Typed payload.
    pub kind: ResourceKind,
    /// Owning site / administrative domain.
    pub site: String,
}

/// A relational query over records.
///
/// Queries compose with [`Query::and`]/[`Query::or`]/[`Query::not`];
/// evaluation is a pure predicate on a record.
#[derive(Clone, Debug)]
pub enum Query {
    /// Match everything.
    All,
    /// Match records of the given kind tag (see
    /// [`ResourceKind::tag`]).
    Kind(
        /// The tag.
        &'static str,
    ),
    /// Match records from a site.
    Site(
        /// Site name.
        String,
    ),
    /// Match VM futures that can instantiate the named image with at
    /// least one slot.
    CanInstantiate(
        /// Image name.
        String,
    ),
    /// Match physical hosts with at least this many cores.
    MinCores(
        /// Core floor.
        usize,
    ),
    /// Conjunction.
    And(Box<Query>, Box<Query>),
    /// Disjunction.
    Or(Box<Query>, Box<Query>),
    /// Negation.
    Not(Box<Query>),
}

impl Query {
    /// `self AND other`.
    pub fn and(self, other: Query) -> Query {
        Query::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Query) -> Query {
        Query::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[expect(
        clippy::should_implement_trait,
        reason = "a query combinator named after the query language's NOT, beside `and` and \
                  `or`; `std::ops::Not` would read as `!query`"
    )]
    pub fn not(self) -> Query {
        Query::Not(Box::new(self))
    }

    /// Evaluates the query against one record.
    pub fn matches(&self, r: &ResourceRecord) -> bool {
        match self {
            Query::All => true,
            Query::Kind(tag) => r.kind.tag() == *tag,
            Query::Site(s) => r.site == *s,
            Query::CanInstantiate(image) => matches!(
                &r.kind,
                ResourceKind::VmFuture { images, available_slots, .. }
                    if *available_slots > 0 && images.iter().any(|i| i == image)
            ),
            Query::MinCores(n) => {
                matches!(&r.kind, ResourceKind::PhysicalHost { cores, .. } if cores >= n)
            }
            Query::And(a, b) => a.matches(r) && b.matches(r),
            Query::Or(a, b) => a.matches(r) || b.matches(r),
            Query::Not(q) => !q.matches(r),
        }
    }
}

/// The information service directory.
///
/// ```
/// use gridvm_gridmw::info::{InfoService, Query, ResourceKind};
/// use gridvm_simcore::rng::SimRng;
/// use gridvm_simcore::time::SimTime;
///
/// let mut mds = InfoService::new();
/// let host = mds.register(SimTime::ZERO, "uf", ResourceKind::PhysicalHost {
///     cores: 2, clock_hz: 800e6, memory_mib: 1024 });
/// mds.register(SimTime::ZERO, "uf", ResourceKind::VmFuture {
///     host, images: vec!["rh72".into()], available_slots: 4 });
/// let mut rng = SimRng::seed_from(1);
/// let hits = mds.query(&Query::CanInstantiate("rh72".into()), 10, &mut rng);
/// assert_eq!(hits.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct InfoService {
    records: BTreeMap<ResourceId, ResourceRecord>,
    next_id: u64,
    /// Registration lag: directory entries become visible after this
    /// propagation delay.
    propagation: SimDuration,
    registered_at: BTreeMap<ResourceId, SimTime>,
}

impl InfoService {
    /// Creates an empty directory with a 2-second propagation delay.
    pub fn new() -> Self {
        InfoService {
            records: BTreeMap::new(),
            next_id: 0,
            propagation: SimDuration::from_secs(2),
            registered_at: BTreeMap::new(),
        }
    }

    /// Overrides the propagation delay.
    pub fn with_propagation(mut self, d: SimDuration) -> Self {
        self.propagation = d;
        self
    }

    /// Registers a resource at `now`; it becomes queryable after the
    /// propagation delay.
    pub fn register(&mut self, now: SimTime, site: &str, kind: ResourceKind) -> ResourceId {
        let id = ResourceId(self.next_id);
        self.next_id += 1;
        self.records.insert(
            id,
            ResourceRecord {
                id,
                kind,
                site: site.to_owned(),
            },
        );
        self.registered_at.insert(id, now);
        id
    }

    /// Deregisters (VM shutdown, host withdrawal). Idempotent.
    pub fn deregister(&mut self, id: ResourceId) {
        self.records.remove(&id);
        self.registered_at.remove(&id);
    }

    /// Fetches a record by id (visible immediately to its owner).
    pub fn get(&self, id: ResourceId) -> Option<&ResourceRecord> {
        self.records.get(&id)
    }

    /// Number of registered records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Runs a bounded query **as of `now`**: only records whose
    /// registration has propagated are candidates; at most `limit`
    /// matches are returned, and when more exist a random subset is
    /// chosen (the paper's nondeterministic partial results).
    pub fn query_at(
        &self,
        now: SimTime,
        q: &Query,
        limit: usize,
        rng: &mut SimRng,
    ) -> Vec<&ResourceRecord> {
        let mut hits: Vec<&ResourceRecord> = self
            .records
            .values()
            .filter(|r| {
                self.registered_at
                    .get(&r.id)
                    .is_some_and(|t| *t + self.propagation <= now)
            })
            .filter(|r| q.matches(r))
            .collect();
        if hits.len() > limit {
            rng.shuffle(&mut hits);
            hits.truncate(limit);
            hits.sort_by_key(|r| r.id);
        }
        hits
    }

    /// [`query_at`](InfoService::query_at) at the end of time —
    /// every registration visible (testing convenience).
    pub fn query(&self, q: &Query, limit: usize, rng: &mut SimRng) -> Vec<&ResourceRecord> {
        self.query_at(SimTime::MAX, q, limit, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> (InfoService, ResourceId, ResourceId) {
        let mut mds = InfoService::new().with_propagation(SimDuration::ZERO);
        let h1 = mds.register(
            SimTime::ZERO,
            "uf",
            ResourceKind::PhysicalHost {
                cores: 2,
                clock_hz: 800e6,
                memory_mib: 1024,
            },
        );
        let h2 = mds.register(
            SimTime::ZERO,
            "nw",
            ResourceKind::PhysicalHost {
                cores: 4,
                clock_hz: 933e6,
                memory_mib: 512,
            },
        );
        mds.register(
            SimTime::ZERO,
            "uf",
            ResourceKind::VmFuture {
                host: h1,
                images: vec!["rh72".into(), "rh71".into()],
                available_slots: 2,
            },
        );
        mds.register(
            SimTime::ZERO,
            "nw",
            ResourceKind::VmFuture {
                host: h2,
                images: vec!["rh71".into()],
                available_slots: 0,
            },
        );
        (mds, h1, h2)
    }

    #[test]
    fn typed_queries_compose() {
        let (mds, ..) = directory();
        let mut rng = SimRng::seed_from(1);
        let uf_hosts = mds.query(
            &Query::Kind("host").and(Query::Site("uf".into())),
            10,
            &mut rng,
        );
        assert_eq!(uf_hosts.len(), 1);
        let big = mds.query(&Query::MinCores(4), 10, &mut rng);
        assert_eq!(big.len(), 1);
        let not_uf = mds.query(
            &Query::Kind("host").and(Query::Site("uf".into()).not()),
            10,
            &mut rng,
        );
        assert_eq!(not_uf.len(), 1);
        let either = mds.query(
            &Query::Site("uf".into()).or(Query::Site("nw".into())),
            10,
            &mut rng,
        );
        assert_eq!(either.len(), 4);
    }

    #[test]
    fn futures_with_no_slots_do_not_match() {
        let (mds, ..) = directory();
        let mut rng = SimRng::seed_from(2);
        let rh71 = mds.query(&Query::CanInstantiate("rh71".into()), 10, &mut rng);
        assert_eq!(rh71.len(), 1, "the zero-slot future is excluded");
        let rh72 = mds.query(&Query::CanInstantiate("rh72".into()), 10, &mut rng);
        assert_eq!(rh72.len(), 1);
    }

    #[test]
    fn results_are_bounded_and_partial() {
        let mut mds = InfoService::new().with_propagation(SimDuration::ZERO);
        for i in 0..50 {
            mds.register(
                SimTime::ZERO,
                if i % 2 == 0 { "a" } else { "b" },
                ResourceKind::DataServer { site: "x".into() },
            );
        }
        let mut rng = SimRng::seed_from(4);
        let r1 = mds.query(&Query::All, 10, &mut rng);
        assert_eq!(r1.len(), 10);
        let r2 = mds.query(&Query::All, 10, &mut rng);
        let ids1: Vec<ResourceId> = r1.iter().map(|r| r.id).collect();
        let ids2: Vec<ResourceId> = r2.iter().map(|r| r.id).collect();
        assert_ne!(ids1, ids2, "partial results are nondeterministic");
    }

    #[test]
    fn propagation_delay_hides_fresh_registrations() {
        let mut mds = InfoService::new(); // 2 s propagation
        mds.register(
            SimTime::from_secs(10),
            "uf",
            ResourceKind::DataServer { site: "uf".into() },
        );
        let mut rng = SimRng::seed_from(5);
        assert!(mds
            .query_at(SimTime::from_secs(11), &Query::All, 10, &mut rng)
            .is_empty());
        assert_eq!(
            mds.query_at(SimTime::from_secs(12), &Query::All, 10, &mut rng)
                .len(),
            1
        );
    }

    #[test]
    fn deregistration_removes_records() {
        let (mut mds, h1, _) = directory();
        let before = mds.len();
        mds.deregister(h1);
        mds.deregister(h1); // idempotent
        assert_eq!(mds.len(), before - 1);
        assert!(mds.get(h1).is_none());
    }
}
