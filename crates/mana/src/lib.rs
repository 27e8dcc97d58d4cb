//! # mana-sim — MANA-like MPI-agnostic transparent checkpointing
//!
//! MANA (MPI-Agnostic Network-Agnostic checkpointing) runs MPI applications
//! as **split processes**: the *upper half* holds the application and the
//! `libmana.so` wrappers; the *lower half* holds the MPI library and all
//! network state. Checkpoints save only upper-half memory plus *virtual
//! ids* for MPI objects; on restart a **fresh lower half** is launched —
//! with this work, possibly a *different MPI implementation*, reached
//! through the single Mukautuva interface — and the virtual ids are
//! rebound by replaying the object-creation log.
//!
//! The pieces, mapped to the paper's §4.3 and Fig. 1:
//!
//! * [`wrappers::ManaMpi`] — `libmana.so`: interposes on every standard-ABI
//!   call, translating the application's *virtual* handles to the current
//!   lower half's real handles, counting point-to-point traffic for the
//!   drain protocol, and charging the split-process crossing cost;
//! * [`config`] — the cost model as constants, including the FSGSBASE
//!   register story: on kernels ≥ 5.9 the upper↔lower context switch is a
//!   cheap user-space register write; on the paper's CentOS 7 it needs a
//!   syscall, which the paper identifies as the main overhead source;
//! * [`vids`] — virtual ids and the creation replay log;
//! * [`ops`] — the named registry for user-defined reduction functions
//!   (the stand-in for function pointers surviving via the restored
//!   address space in real MANA);
//! * [`pool`] — the drained in-flight message pool: messages caught
//!   mid-flight at checkpoint time are buffered in upper-half memory and
//!   replayed to matching receives after restart;
//! * [`ckpt`] — checkpoint execution: quiesce → counter exchange → drain →
//!   image build, and the restart path that rebinds to a new vendor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod config;
pub mod ops;
pub mod pool;
pub mod vids;
pub mod wrappers;

pub use ckpt::CkptAction;
pub use config::ManaConfig;
pub use wrappers::ManaMpi;
