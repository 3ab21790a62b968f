//! Fixture: trace messages formatted before the sampler decides
//! whether to keep them.

pub fn complete(site: &mut Site, en: &Engine, session: u64) {
    site.trace
        .record(en.now(), "vo", format!("session {session} completed"));
}

pub fn recover(trace: &mut TraceLog, t: SimTime, node: usize) {
    trace.record(
        t,
        "recovery",
        format!("startup moved to node{node}"),
    );
    // Deferred formatting is the fix and is not flagged.
    trace.record(t, "recovery", format_args!("moved to node{node}"));
}

#[cfg(test)]
mod tests {
    fn eager_formatting_is_fine_in_tests(trace: &mut TraceLog) {
        trace.record(SimTime::ZERO, "test", format!("m{}", 1));
    }
}
