//! The wrap-library "dynamic loader".
//!
//! Real Mukautuva detects the underlying MPI at runtime and `dlopen`s the
//! matching wrap library by soname. This module is the analogue: one
//! soname per [`Vendor`], with [`open_wrap`] playing the role of `dlopen` +
//! `dlsym`. What it opens is a [`MukShim`] over that vendor's wrap
//! library; without the shim in front ([`open_vendor`]) it is the native
//! baseline.

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

/// "dlopen" a wrap library by soname — the one wrap source, instantiated
/// for that vendor's header — and initialize the vendor library
/// underneath it for this rank, with nothing in front. Unknown sonames
/// fail like a missing shared object would.
pub fn open_wrap(soname: &str, ctx: Rc<RankCtx>) -> Result<Box<dyn MpiAbi>, String> {
    let vendor = Vendor::ALL
        .into_iter()
        .find(|&vendor| soname_for(vendor) == soname)
        .ok_or_else(|| format!("cannot open shared object file: {soname}: No such file"))?;
    Ok(open_vendor(vendor, ctx))
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
    use simnet::{ClusterSpec, World};

    #[test]
    fn sonames_resolve_and_unknown_fails() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(1).build();
        World::run(&spec, |ctx| {
            let lib = open_wrap("libmpich-wrap.so", ctx.clone()).unwrap();
            assert!(lib.library_version().contains("mpich-sim"));
            let lib = open_wrap("libompi-wrap.so", ctx.clone()).unwrap();
            assert!(lib.library_version().contains("ompi-sim"));
            let err = match open_wrap("libmvapich-wrap.so", ctx.clone()) {
                Err(e) => e,
                Ok(_) => panic!("unknown soname must fail"),
            };
            assert!(err.contains("No such file"));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn vendor_names() {
        assert_eq!(Vendor::Mpich.to_string(), "MPICH");
        assert_eq!(Vendor::OpenMpi.to_string(), "Open MPI");
        assert_eq!(soname_for(Vendor::Mpich), "libmpich-wrap.so");
        assert_eq!(soname_for(Vendor::OpenMpi), "libompi-wrap.so");
    }
}
