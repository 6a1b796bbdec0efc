//! # snapbpf-kernel — the simulated host kernel
//!
//! The Linux-shaped substrate SnapBPF runs on, built from the lower
//! crates:
//!
//! * [`HostKernel`] — page cache + readahead + eBPF wiring: buffered
//!   reads, the default readahead window, the `add_to_page_cache_lru`
//!   kprobe hook, the `snapbpf_prefetch` kfunc (wrapping
//!   `page_cache_ra_unbounded()`), `mincore`, anonymous memory, and
//!   system-wide memory accounting,
//! * [`TelemetryDrain`] — the userspace consumer of the kernel→user
//!   telemetry channel (ring-buffer records plus per-CPU stats),
//!   which the host kernel runs at event-loop boundaries,
//! * [`KvmVm`] — nested paging for one microVM: demand faults
//!   through the page cache with CoW semantics, PV PTE marking
//!   ([`PV_MIRROR_BIT`]), userfaultfd ranges, FaaSnap-style file
//!   overlays, and the paper's KVM CoW bug/patch ([`CowPolicy`]).
//!
//! ## Examples
//!
//! Two sandboxes deduplicating through the page cache:
//!
//! ```
//! use snapbpf_kernel::{AccessKind, CowPolicy, HostKernel, KernelConfig, KvmVm};
//! use snapbpf_mem::OwnerId;
//! use snapbpf_sim::SimTime;
//! use snapbpf_storage::{Disk, SsdModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let disk = Disk::new(Box::new(SsdModel::micron_5300()));
//! let mut kernel = HostKernel::new(disk, KernelConfig::default());
//! let snap = kernel.disk_mut().create_file("func.mem", 1 << 16)?;
//!
//! let mut vm_a = KvmVm::new(OwnerId::new(0), snap, 1 << 16, CowPolicy::Opportunistic);
//! let mut vm_b = KvmVm::new(OwnerId::new(1), snap, 1 << 16, CowPolicy::Opportunistic);
//!
//! let a = vm_a.access(SimTime::ZERO, 1000, false, &mut kernel)?; // major fault: I/O
//! let b = vm_b.access(a.ready_at, 1000, false, &mut kernel)?;    // minor fault: shared
//! assert_eq!(b.kind, AccessKind::Minor);
//! assert_eq!(kernel.memory_snapshot().anon_pages, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod host;
mod kvm;
mod telemetry;

pub use config::KernelConfig;
pub use host::{
    HostKernel, KernelError, ReadOutcome, KFUNC_SNAPBPF_PREFETCH, PAGE_CACHE_ADD_HOOK,
    PROG_RET_DISABLE,
};
pub use kvm::{AccessKind, AccessOutcome, CowPolicy, KvmVm, VmMemStats, PV_MIRROR_BIT};
pub use snapbpf_ebpf::ProgramStore;
pub use telemetry::{DrainSummary, TelemetryDrain};
