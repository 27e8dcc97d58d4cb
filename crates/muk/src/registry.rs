//! The wrap-library "dynamic loader".
//!
//! Real Mukautuva detects the underlying MPI at runtime and `dlopen`s the
//! matching wrap library by soname. This module is the analogue: one
//! soname per [`Vendor`] ([`soname_for`]). What Mukautuva opens is a
//! [`MukShim`] over that vendor's wrap library; without the shim in front
//! ([`open_vendor`]) it is the native baseline.

use std::rc::Rc;

use mpi_abi::MpiAbi;
use simnet::RankCtx;

use crate::shim::MukShim;

/// The MPI implementations the shim can bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// The MPICH-flavoured library (`mpich-sim`).
    Mpich,
    /// The Open MPI-flavoured library (`ompi-sim`).
    OpenMpi,
}

impl Vendor {
    /// All known vendors.
    pub const ALL: [Vendor; 2] = [Vendor::Mpich, Vendor::OpenMpi];

    /// Short name used in reports and harness output.
    pub fn name(self) -> &'static str {
        match self {
            Vendor::Mpich => "MPICH",
            Vendor::OpenMpi => "Open MPI",
        }
    }
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The soname of the wrap library for a vendor (what Mukautuva would pass
/// to `dlopen`).
pub fn soname_for(vendor: Vendor) -> &'static str {
    match vendor {
        Vendor::Mpich => "libmpich-wrap.so",
        Vendor::OpenMpi => "libompi-wrap.so",
    }
}

/// The native baseline: a vendor's wrap library with no shim in front
/// (the application recompiled against the vendor's header), charged no
/// translation cost.
pub fn open_vendor(vendor: Vendor, ctx: Rc<RankCtx>) -> Box<dyn MpiAbi> {
    Box::new(MukShim::open(vendor, ctx, false, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_names() {
        assert_eq!(Vendor::Mpich.to_string(), "MPICH");
        assert_eq!(Vendor::OpenMpi.to_string(), "Open MPI");
        assert_eq!(soname_for(Vendor::Mpich), "libmpich-wrap.so");
        assert_eq!(soname_for(Vendor::OpenMpi), "libompi-wrap.so");
    }
}
