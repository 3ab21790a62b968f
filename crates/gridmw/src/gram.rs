//! GRAM-style job dispatch: the `globusrun` pipeline.
//!
//! Table 2 measures "wall-clock execution time from the beginning to
//! the end of the execution of globusrun", so the middleware framing
//! matters: GSI mutual authentication, gatekeeper fork and
//! job-manager hand-off on the way in; status polling and teardown on
//! the way out. Calibrated so the full round trip adds ≈ 4 s on a
//! LAN, matching the floor visible in the paper's fastest row
//! (12.4 s restore = middleware + 128 MB state read).

use std::collections::BTreeMap;

use gridvm_simcore::server::FifoServer;
use gridvm_simcore::time::{SimDuration, SimTime};

/// What a submission asks the gatekeeper to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRequest {
    /// Executable label (e.g. `"vmware-start"`).
    pub executable: String,
    /// Grid identity of the submitter.
    pub subject: String,
}

/// Handle to a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Job lifecycle states, GRAM-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for the job manager.
    Pending,
    /// Running on the resource.
    Active,
    /// Finished; wall-clock endpoints known.
    Done,
}

/// Errors from the gatekeeper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GramError {
    /// The subject is not in the grid-mapfile.
    NotAuthorized(
        /// The rejected subject.
        String,
    ),
    /// Unknown job handle.
    UnknownJob(
        /// The handle.
        JobId,
    ),
    /// The job has not finished yet (for
    /// [`GramServer::globusrun_end`]).
    StillRunning(
        /// The handle.
        JobId,
    ),
}

impl std::fmt::Display for GramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramError::NotAuthorized(s) => write!(f, "subject {s:?} not authorized"),
            GramError::UnknownJob(id) => write!(f, "unknown job {id:?}"),
            GramError::StillRunning(id) => write!(f, "job {id:?} still running"),
        }
    }
}

impl std::error::Error for GramError {}

/// GSI mutual authentication (certificate exchange, delegation).
const AUTHENTICATE: SimDuration = SimDuration::from_millis(1_600);
/// Gatekeeper fork + job-manager start.
const DISPATCH: SimDuration = SimDuration::from_millis(1_200);
/// Poll interval for status.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Client-side teardown after Done is observed.
const TEARDOWN: SimDuration = SimDuration::from_millis(300);

#[derive(Clone, Debug)]
struct Job {
    state: JobState,
    started: SimTime,
    payload_done: Option<SimTime>,
}

/// The gatekeeper + job manager of one compute server.
///
/// ```
/// use gridvm_gridmw::gram::{GramServer, JobRequest};
/// use gridvm_simcore::time::{SimDuration, SimTime};
///
/// let mut gram = GramServer::new();
/// gram.authorize("/O=Grid/CN=userX");
/// let req = JobRequest { executable: "vmware-start".into(),
///                        subject: "/O=Grid/CN=userX".into() };
/// let (t_active, job) = gram.submit(SimTime::ZERO, &req)?;
/// // ... payload runs; report when it ends:
/// gram.payload_finished(job, t_active + SimDuration::from_secs(10))?;
/// let t_end = gram.globusrun_end(job)?;
/// assert!(t_end > t_active + SimDuration::from_secs(10));
/// # Ok::<(), gridvm_gridmw::gram::GramError>(())
/// ```
#[derive(Debug, Default)]
pub struct GramServer {
    mapfile: Vec<String>,
    gatekeeper: FifoServer,
    jobs: BTreeMap<JobId, Job>,
    next_id: u64,
}

impl GramServer {
    /// Creates a gatekeeper with an empty grid-mapfile.
    pub fn new() -> Self {
        GramServer::default()
    }

    /// Adds a subject to the grid-mapfile.
    pub fn authorize(&mut self, subject: &str) {
        self.mapfile.push(subject.to_owned());
    }

    /// Submits a job at `now`. Returns the instant the payload may
    /// begin (authentication + dispatch done) and the job handle.
    ///
    /// # Errors
    ///
    /// [`GramError::NotAuthorized`] for unknown subjects.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: &JobRequest,
    ) -> Result<(SimTime, JobId), GramError> {
        if !self.mapfile.contains(&req.subject) {
            return Err(GramError::NotAuthorized(req.subject.clone()));
        }
        // Authentication and dispatch serialize through the
        // gatekeeper process.
        let grant = self.gatekeeper.admit(now, AUTHENTICATE + DISPATCH);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                state: JobState::Active,
                started: grant.finish,
                payload_done: None,
            },
        );
        Ok((grant.finish, id))
    }

    /// Current state of a job.
    ///
    /// # Errors
    ///
    /// [`GramError::UnknownJob`].
    pub fn state(&self, id: JobId) -> Result<JobState, GramError> {
        self.jobs
            .get(&id)
            .map(|j| j.state)
            .ok_or(GramError::UnknownJob(id))
    }

    /// Reports that the job's payload completed at `when`.
    ///
    /// # Errors
    ///
    /// [`GramError::UnknownJob`].
    pub fn payload_finished(&mut self, id: JobId, when: SimTime) -> Result<(), GramError> {
        let job = self.jobs.get_mut(&id).ok_or(GramError::UnknownJob(id))?;
        job.state = JobState::Done;
        job.payload_done = Some(when);
        Ok(())
    }

    /// Resubmits after a failure: a fresh submission (full
    /// authentication + dispatch — GSI does not reuse the dead job's
    /// delegation), counted in `gram.resubmissions`.
    ///
    /// # Errors
    ///
    /// [`GramError::NotAuthorized`] for unknown subjects.
    pub fn resubmit(
        &mut self,
        now: SimTime,
        req: &JobRequest,
    ) -> Result<(SimTime, JobId), GramError> {
        gridvm_simcore::metrics::counter_add("gram.resubmissions", 1);
        self.submit(now, req)
    }

    /// The instant `globusrun` returns to the user: the first poll
    /// tick at or after payload completion, plus teardown.
    ///
    /// # Errors
    ///
    /// Unknown job, or the payload has not been reported finished.
    pub fn globusrun_end(&self, id: JobId) -> Result<SimTime, GramError> {
        let job = self.jobs.get(&id).ok_or(GramError::UnknownJob(id))?;
        let done = job.payload_done.ok_or(GramError::StillRunning(id))?;
        // Polling starts when the job went active; the client sees
        // Done at the next poll boundary.
        let elapsed = done.saturating_duration_since(job.started);
        let polls = elapsed.as_nanos().div_ceil(POLL_INTERVAL.as_nanos());
        let observed = job.started + POLL_INTERVAL * polls;
        Ok(observed + TEARDOWN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> GramServer {
        let mut g = GramServer::new();
        g.authorize("/CN=alice");
        g
    }

    fn req() -> JobRequest {
        JobRequest {
            executable: "vm-start".into(),
            subject: "/CN=alice".into(),
        }
    }

    #[test]
    fn authorized_submission_pays_auth_and_dispatch() {
        let mut g = server();
        let (start, id) = g.submit(SimTime::ZERO, &req()).unwrap();
        assert!(
            (start.as_secs_f64() - 2.8).abs() < 1e-9,
            "auth+dispatch {start}"
        );
        assert_eq!(g.state(id).unwrap(), JobState::Active);
    }

    #[test]
    fn unauthorized_subject_is_rejected() {
        let mut g = server();
        let bad = JobRequest {
            executable: "vm-start".into(),
            subject: "/CN=mallory".into(),
        };
        assert!(matches!(
            g.submit(SimTime::ZERO, &bad),
            Err(GramError::NotAuthorized(_))
        ));
    }

    #[test]
    fn globusrun_wall_time_brackets_payload() {
        let mut g = server();
        let (start, id) = g.submit(SimTime::ZERO, &req()).unwrap();
        let payload = SimDuration::from_secs(10);
        g.payload_finished(id, start + payload).unwrap();
        let end = g.globusrun_end(id).unwrap();
        let total = end.as_secs_f64();
        // 2.8 (in) + 10 (payload) + ≤0.5 (poll) + 0.3 (out)
        assert!((12.8..13.7).contains(&total), "globusrun total {total}");
        assert_eq!(g.state(id).unwrap(), JobState::Done);
    }

    #[test]
    fn concurrent_submissions_queue_on_the_gatekeeper() {
        let mut g = server();
        let (a, _) = g.submit(SimTime::ZERO, &req()).unwrap();
        let (b, _) = g.submit(SimTime::ZERO, &req()).unwrap();
        assert!(b > a, "second submission waits for the gatekeeper");
    }

    #[test]
    fn resubmission_is_a_fresh_counted_job() {
        gridvm_simcore::metrics::reset();
        let mut g = server();
        let (start, id) = g.submit(SimTime::ZERO, &req()).unwrap();
        let (restart, id2) = g
            .resubmit(start + SimDuration::from_secs(5), &req())
            .unwrap();
        assert_ne!(id, id2, "resubmission is a fresh job");
        assert!(restart > start, "fresh auth+dispatch paid again");
        g.payload_finished(id2, restart + SimDuration::from_secs(2))
            .unwrap();
        assert!(g.globusrun_end(id2).is_ok());
        let m = gridvm_simcore::metrics::take();
        assert_eq!(m.counter("gram.resubmissions"), 1);
    }

    #[test]
    fn job_errors_are_reported() {
        let mut g = server();
        assert!(matches!(g.state(JobId(9)), Err(GramError::UnknownJob(_))));
        let (_, id) = g.submit(SimTime::ZERO, &req()).unwrap();
        assert!(matches!(
            g.globusrun_end(id),
            Err(GramError::StillRunning(_))
        ));
        assert!(g.payload_finished(JobId(99), SimTime::ZERO).is_err());
    }
}
