//! # muk — a Mukautuva-like MPI ABI compatibility layer
//!
//! Mukautuva (Hammond, 2023) demonstrated that a single standard ABI can
//! front arbitrary MPI implementations: one shared library (`libmuk.so`)
//! exports the standard MPI symbols, detects the real MPI at runtime, and
//! `dlopen`s a small *wrap library* (`libmpich-wrap.so`, `libompi-wrap.so`)
//! compiled against that vendor's headers to do the per-call translation.
//!
//! This crate reproduces that architecture:
//!
//! * [`registry`] — the "dynamic loader": a soname-keyed table of wrap
//!   library factories ([`registry::open_wrap`] is our `dlopen`);
//! * [`wrap`] — the wrap library: **one** generic body ([`wrap::Wrap`])
//!   implementing the standard [`mpi_abi::MpiAbi`] function table over a
//!   vendor's native API, instantiated once per vendor header the way the
//!   real wrap source is compiled once per `mpi.h`; it translates handles
//!   (bidirectional tables), constants (`ANY_SOURCE` −1↔−2 …), datatypes,
//!   reduction ops, status layouts, and error codes;
//! * [`shim`] — `libmuk.so` itself: [`shim::MukShim`] fronts a wrap library,
//!   charges the per-call translation overhead to the rank's virtual clock
//!   (the cost the paper measures in §5.1), and reports a combined library
//!   version string.
//!
//! The MANA-like checkpointer (`mana-sim`) binds to [`shim::MukShim`] only,
//! which is precisely how the paper's revised MANA needs to be compiled just
//! once and re-used over MPICH, Open MPI, "or some other MPI implementation
//! that supports the Mukautuva interface."
//!
//! [`mpi_abi::MpiAbi`]: mpi_abi::MpiAbi

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimap;
pub mod fold;
pub mod overhead;
pub mod registry;
pub mod shim;
pub mod wrap;

pub use overhead::MukOverhead;
pub use registry::{open_wrap, soname_for, Vendor};
pub use shim::MukShim;
