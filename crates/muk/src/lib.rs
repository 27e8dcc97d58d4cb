//! # muk — a Mukautuva-like MPI ABI compatibility layer
//!
//! Mukautuva (Hammond, 2023) demonstrated that a single standard ABI can
//! front arbitrary MPI implementations: one shared library (`libmuk.so`)
//! exports the standard MPI symbols, detects the real MPI at runtime, and
//! `dlopen`s a small *wrap library* (`libmpich-wrap.so`, `libompi-wrap.so`)
//! compiled against that vendor's headers to do the per-call translation.
//!
//! This crate reproduces that architecture with **one** standard-ABI type:
//!
//! * [`shim`] — [`shim::MukShim`], the one `impl` of the standard
//!   [`mpi_abi::MpiAbi`] function table: `libmuk.so` over the wrap library
//!   of a vendor chosen at runtime. Each call runs the one wrap body,
//!   written once and compiled per vendor header the way the real wrap
//!   source is compiled once per `mpi.h`; it translates handles
//!   (bidirectional tables), constants (`ANY_SOURCE` −1↔−2 …), datatypes,
//!   reduction ops, status layouts, and error codes. With Mukautuva in
//!   front it first charges the translation cost to the rank's virtual
//!   clock (the cost the paper measures in §5.1) and can fold reductions
//!   in rank order; with the charge off it is the native baseline;
//! * `wrap` — the per-header half of the wrap library: the vendor
//!   library's `Process<V>`, the handle tables and the translation helpers;
//! * [`overhead`] — the three per-call costs;
//! * [`registry`] — the "dynamic loader": one soname per [`Vendor`]
//!   ([`registry::open_vendor`] opens the native baseline).
//!
//! The MANA-like checkpointer (`mana-sim`) binds to the standard ABI only,
//! which is precisely how the paper's revised MANA needs to be compiled
//! just once and re-used over MPICH, Open MPI, "or some other MPI
//! implementation that supports the Mukautuva interface."
//!
//! [`mpi_abi::MpiAbi`]: mpi_abi::MpiAbi

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimap;
pub mod overhead;
pub mod registry;
pub mod shim;
mod wrap;

pub use registry::{soname_for, Vendor};
pub use shim::MukShim;
