//! Runtime invariant audit layer.
//!
//! The static half of the determinism story is the compiler's (the
//! root `clippy.toml` and the workspace lints) plus `gridvm-audit`
//! (the hot-path linter); this module is the runtime half. It gives the
//! kernel's data structures `audit()` methods that re-verify their
//! structural invariants from first principles:
//!
//! - **event queue**: sequence-counter sanity (every pending event
//!   carries a sequence number the counter has already handed out) —
//!   see [`crate::event::EventQueue::audit`];
//! - **engine**: the queue check plus causality (no pending event
//!   earlier than the clock) — see [`crate::engine::Engine::audit`];
//! - **LRU set**: intrusive-list link integrity (next/prev agree,
//!   head/tail terminate, no cycles), map↔node agreement, and
//!   capacity/arena accounting — see [`crate::lru::LruSet::audit`];
//! - **slot containers**: free-list/occupancy partition, generation
//!   sanity and live-count agreement in
//!   [`crate::slot::SlotMap::audit`], and dense↔sparse back-pointer
//!   agreement in [`crate::slot::DenseMap::audit`].
//!
//! The module is compiled under `debug_assertions` (so every dev-
//! profile test run exercises it) or under `test` (so the crate's own
//! unit tests build and run it in release too); other release builds
//! carry zero audit code. The [`Engine`](crate::engine::Engine)'s
//! dispatch loop additionally self-audits every
//! [`AUTO_AUDIT_INTERVAL`] events, so long-running tests sweep the
//! invariants continuously without O(n) work per event.

use std::fmt;

/// How many executed events between automatic engine self-audits.
/// Power of two so the trigger is a mask test on the hot path.
pub const AUTO_AUDIT_INTERVAL: u64 = 1024;

/// A broken structural invariant, reported by an `audit()` method.
///
/// Carrying a description instead of panicking at the detection site
/// lets tests assert on *which* invariant a deliberate corruption
/// trips.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// Short invariant name (e.g. `"seq-counter"`, `"lru-link"`).
    pub invariant: &'static str,
    /// What exactly is inconsistent, with indices/values.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit violation [{}]: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for AuditViolation {}

/// Result type for audit checks.
pub type AuditResult = Result<(), AuditViolation>;

/// Shorthand used by the audit implementations.
pub(crate) fn violated(invariant: &'static str, detail: String) -> AuditResult {
    Err(AuditViolation { invariant, detail })
}
