//! VM configuration and the lifecycle state machine.
//!
//! The paper's life cycle (Section 4): instantiate from a pre-boot
//! (cold) or post-boot (warm) image, run, then "shutdown, hibernate,
//! restore, or migrate the virtual machine at any time". The state
//! machine here enforces that only legal transitions happen; the
//! orchestration timing lives in `gridvm-core`.

use std::fmt;

use gridvm_simcore::time::SimTime;
use gridvm_simcore::units::ByteSize;
use gridvm_storage::cow::CowOverlay;

/// Persistent vs non-persistent virtual disk (Table 2's two storage
/// modes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DiskMode {
    /// The VM owns a private copy of the disk image, created by an
    /// explicit whole-image copy before startup.
    Persistent,
    /// The VM sees a copy-on-write view of a shared base image;
    /// modifications land in a diff file and are discarded at
    /// shutdown.
    #[default]
    NonPersistent,
}

impl fmt::Display for DiskMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskMode::Persistent => f.write_str("persistent"),
            DiskMode::NonPersistent => f.write_str("non-persistent"),
        }
    }
}

/// Static configuration of a VM instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Image name in the catalog.
    pub image: String,
    /// Guest memory size (also the suspend-image size).
    pub memory: ByteSize,
    /// Virtual CPU count.
    pub vcpus: usize,
    /// Disk mode.
    pub disk_mode: DiskMode,
}

impl VmConfig {
    /// The paper's experimental guest: 128 MB of memory, one VCPU,
    /// non-persistent disk over the named image.
    pub fn paper_guest(image: impl Into<String>) -> Self {
        VmConfig {
            image: image.into(),
            memory: ByteSize::from_mib(128),
            vcpus: 1,
            disk_mode: DiskMode::NonPersistent,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero memory or zero VCPUs.
    pub fn validated(self) -> Self {
        assert!(!self.memory.is_zero(), "VM with no memory");
        assert!(self.vcpus > 0, "VM with no VCPUs");
        self
    }
}

/// Lifecycle states of a VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmState {
    /// Defined but not started.
    PoweredOff,
    /// Image state being staged/attached.
    Staging,
    /// Guest OS cold-booting.
    Booting,
    /// Warm state being loaded.
    Restoring,
    /// Guest running.
    Running,
    /// Memory being written out.
    Suspending,
    /// In transit between hosts.
    Migrating,
    /// Life cycle over ("the life cycle of a virtual machine ends
    /// when the image is removed from permanent storage").
    Terminated,
}

impl fmt::Display for VmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmState::PoweredOff => "powered-off",
            VmState::Staging => "staging",
            VmState::Booting => "booting",
            VmState::Restoring => "restoring",
            VmState::Running => "running",
            VmState::Suspending => "suspending",
            VmState::Migrating => "migrating",
            VmState::Terminated => "terminated",
        };
        f.write_str(s)
    }
}

/// Errors from illegal lifecycle transitions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmError {
    /// The state the VM was in.
    pub from: VmState,
    /// The transition that was attempted.
    pub attempted: &'static str,
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot {} from state {}", self.attempted, self.from)
    }
}

impl std::error::Error for VmError {}

/// A VM instance: configuration, state machine, and its
/// copy-on-write disk when non-persistent.
#[derive(Debug)]
pub struct Vm {
    config: VmConfig,
    state: VmState,
    state_since: SimTime,
    disk: Option<CowOverlay>,
    transitions: Vec<(SimTime, VmState)>,
}

impl Vm {
    /// Defines a VM in the powered-off state.
    pub fn new(config: VmConfig) -> Self {
        Vm {
            config: config.validated(),
            state: VmState::PoweredOff,
            state_since: SimTime::ZERO,
            disk: None,
            transitions: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// When the current state was entered.
    pub fn state_since(&self) -> SimTime {
        self.state_since
    }

    /// The full transition history (time, new state).
    pub fn history(&self) -> &[(SimTime, VmState)] {
        &self.transitions
    }

    /// The VM's copy-on-write disk, once attached.
    pub fn disk(&self) -> Option<&CowOverlay> {
        self.disk.as_ref()
    }

    /// Mutable access to the attached disk.
    pub fn disk_mut(&mut self) -> Option<&mut CowOverlay> {
        self.disk.as_mut()
    }

    /// Attaches the (COW) disk during staging.
    pub fn attach_disk(&mut self, disk: CowOverlay) {
        self.disk = Some(disk);
    }

    fn transition(
        &mut self,
        now: SimTime,
        allowed_from: &[VmState],
        to: VmState,
        attempted: &'static str,
    ) -> Result<(), VmError> {
        if !allowed_from.contains(&self.state) {
            return Err(VmError {
                from: self.state,
                attempted,
            });
        }
        self.state = to;
        self.state_since = now;
        self.transitions.push((now, to));
        Ok(())
    }

    /// Begins staging VM state onto the compute server.
    ///
    /// # Errors
    ///
    /// Unless powered off.
    pub fn begin_staging(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(
            now,
            &[VmState::PoweredOff],
            VmState::Staging,
            "begin staging",
        )
    }

    /// Starts a cold boot.
    ///
    /// # Errors
    ///
    /// Unless staging completed.
    pub fn begin_boot(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(now, &[VmState::Staging], VmState::Booting, "boot")
    }

    /// Starts restoring warm state.
    ///
    /// # Errors
    ///
    /// Unless staging completed.
    pub fn begin_restore(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(now, &[VmState::Staging], VmState::Restoring, "restore")
    }

    /// Marks the guest up.
    ///
    /// # Errors
    ///
    /// Unless booting, restoring, or arriving from migration.
    pub fn mark_running(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(
            now,
            &[VmState::Booting, VmState::Restoring, VmState::Migrating],
            VmState::Running,
            "mark running",
        )
    }

    /// Begins suspending (hibernate).
    ///
    /// # Errors
    ///
    /// Unless running.
    pub fn begin_suspend(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(now, &[VmState::Running], VmState::Suspending, "suspend")
    }

    /// Begins migrating a running VM.
    ///
    /// # Errors
    ///
    /// Unless running.
    pub fn begin_migration(&mut self, now: SimTime) -> Result<(), VmError> {
        self.transition(now, &[VmState::Running], VmState::Migrating, "migrate")
    }

    /// Ends the life cycle. Discards a non-persistent diff.
    ///
    /// # Errors
    ///
    /// If already terminated.
    pub fn terminate(&mut self, now: SimTime) -> Result<(), VmError> {
        if self.state == VmState::Terminated {
            return Err(VmError {
                from: self.state,
                attempted: "terminate",
            });
        }
        if self.config.disk_mode == DiskMode::NonPersistent {
            if let Some(d) = &mut self.disk {
                d.discard();
            }
        }
        let s = self.state;
        let _ = s;
        self.state = VmState::Terminated;
        self.state_since = now;
        self.transitions.push((now, VmState::Terminated));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_storage::image::VmImage;

    fn vm() -> Vm {
        Vm::new(VmConfig::paper_guest("rh72"))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn paper_guest_defaults() {
        let c = VmConfig::paper_guest("rh72");
        assert_eq!(c.memory, ByteSize::from_mib(128));
        assert_eq!(c.disk_mode, DiskMode::NonPersistent);
        assert_eq!(c.vcpus, 1);
    }

    #[test]
    fn happy_path_boot_lifecycle() {
        let mut vm = vm();
        assert_eq!(vm.state(), VmState::PoweredOff);
        vm.begin_staging(t(0)).unwrap();
        vm.begin_boot(t(1)).unwrap();
        vm.mark_running(t(2)).unwrap();
        vm.begin_suspend(t(10)).unwrap();
        vm.terminate(t(30)).unwrap();
        assert_eq!(vm.state(), VmState::Terminated);
        assert_eq!(vm.history().len(), 5);
        assert_eq!(vm.state_since(), t(30));
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut vm = vm();
        let err = vm.begin_boot(t(0)).unwrap_err();
        assert_eq!(err.from, VmState::PoweredOff);
        assert!(err.to_string().contains("cannot boot"));
        assert!(vm.mark_running(t(0)).is_err());
        assert!(vm.begin_suspend(t(0)).is_err());
        vm.begin_staging(t(0)).unwrap();
        assert!(vm.begin_staging(t(1)).is_err(), "already staging");
    }

    #[test]
    fn migration_only_from_running() {
        let mut vm = vm();
        assert!(vm.begin_migration(t(0)).is_err());
        vm.begin_staging(t(0)).unwrap();
        vm.begin_boot(t(1)).unwrap();
        vm.mark_running(t(2)).unwrap();
        vm.begin_migration(t(3)).unwrap();
        vm.mark_running(t(4)).unwrap(); // arrives at the new host
        assert_eq!(vm.state(), VmState::Running);
    }

    #[test]
    fn terminate_discards_nonpersistent_diff() {
        let mut vm = vm();
        let image = VmImage::redhat_guest("rh72");
        let mut overlay = CowOverlay::new(image.base_store());
        use gridvm_storage::block::{BlockAddr, BlockStore};
        overlay
            .write(BlockAddr(0), bytes::Bytes::from(vec![1u8; 4096]))
            .unwrap();
        vm.attach_disk(overlay);
        vm.begin_staging(t(0)).unwrap();
        vm.begin_boot(t(1)).unwrap();
        vm.mark_running(t(2)).unwrap();
        vm.terminate(t(3)).unwrap();
        assert_eq!(vm.disk().unwrap().diff_blocks(), 0, "diff discarded");
    }

    #[test]
    fn double_terminate_is_an_error() {
        let mut vm = vm();
        vm.terminate(t(0)).unwrap();
        assert!(vm.terminate(t(1)).is_err());
    }

    #[test]
    #[should_panic(expected = "no memory")]
    fn zero_memory_config_panics() {
        let _ = Vm::new(VmConfig {
            image: "x".into(),
            memory: ByteSize::ZERO,
            vcpus: 1,
            disk_mode: DiskMode::NonPersistent,
        });
    }
}
