//! Virtual ids and the object-creation replay log.
//!
//! The application (upper half) never sees a real MPI handle: `libmana.so`
//! hands out **virtual ids** and keeps the mapping to the current lower
//! half's real handles. Because only virtual ids live in checkpointed
//! memory, the lower half can be discarded and rebuilt — under a different
//! MPI implementation — by replaying the recorded creation log in order;
//! the MPI semantics of the creation calls (collective context-id
//! agreement etc.) guarantee the rebuilt objects are semantically
//! equivalent, which is the virtual-id design of MANA \[20\] this paper
//! rests on.

use std::collections::HashMap;

use dmtcp_sim::codec::{CodecError, Reader, Writer};
use mpi_abi::{AbiError, AbiResult, Handle, HandleKind, MpiAbi};

use crate::ops;

/// How a dynamic MPI object was created (in terms of *virtual* parents).
#[derive(Debug, Clone, PartialEq)]
pub enum Recipe {
    /// `comm_dup(parent)`.
    CommDup {
        /// Virtual id of the parent communicator.
        parent: Handle,
    },
    /// `comm_split(parent, color, key)`.
    CommSplit {
        /// Virtual id of the parent communicator.
        parent: Handle,
        /// This rank's color argument.
        color: i32,
        /// This rank's key argument.
        key: i32,
    },
    /// `type_contiguous(count, base)`.
    TypeContiguous {
        /// Element repetition count.
        count: i32,
        /// Virtual id (or predefined handle) of the base type.
        base: Handle,
    },
    /// `op_create(func, commute)` with a registry-resolved function name.
    OpUser {
        /// Registered name of the reduction function.
        name: String,
        /// Commutativity flag.
        commute: bool,
    },
}

/// One entry of the replay log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEntry {
    /// An object was created. `vid` may be [`Handle::COMM_NULL`] for a
    /// `comm_split` that returned no communicator on this rank — the call
    /// must still be replayed (it is collective).
    Create {
        /// Virtual id assigned (or a null handle).
        vid: Handle,
        /// Creation recipe.
        recipe: Recipe,
    },
    /// `type_commit(vid)`.
    Commit {
        /// Virtual id of the datatype.
        vid: Handle,
    },
    /// The object was freed.
    Free {
        /// Virtual id of the freed object.
        vid: Handle,
    },
}

/// The virtual-id table of one rank's upper half.
pub struct VidTable {
    to_real: HashMap<Handle, Handle>,
    /// Cached communicator sizes (for the collective overhead model),
    /// keyed by virtual id.
    comm_sizes: HashMap<Handle, usize>,
    log: Vec<LogEntry>,
    next_slot: [u32; 4], // comm, datatype, op, request namespaces
}

fn kind_index(kind: HandleKind) -> usize {
    match kind {
        HandleKind::Comm => 0,
        HandleKind::Datatype => 1,
        HandleKind::Op => 2,
        HandleKind::Request => 3,
        _ => panic!("no virtual ids for {kind:?}"),
    }
}

impl VidTable {
    /// Fresh table with the predefined communicators cached.
    pub fn new(world_size: usize) -> VidTable {
        let mut comm_sizes = HashMap::new();
        comm_sizes.insert(Handle::COMM_WORLD, world_size);
        comm_sizes.insert(Handle::COMM_SELF, 1);
        VidTable {
            to_real: HashMap::new(),
            comm_sizes,
            log: Vec::new(),
            next_slot: [Handle::FIRST_DYNAMIC_INDEX; 4],
        }
    }

    /// Allocate a fresh virtual id of a kind.
    pub fn alloc(&mut self, kind: HandleKind) -> Handle {
        let idx = kind_index(kind);
        let slot = self.next_slot[idx];
        self.next_slot[idx] += 1;
        Handle::dynamic(kind, slot)
    }

    /// Bind a virtual id to the current lower half's real handle.
    pub fn bind(&mut self, vid: Handle, real: Handle) {
        self.to_real.insert(vid, real);
    }

    /// Translate a virtual handle to the current real handle. Predefined
    /// handles pass through unchanged (their values are fixed by the ABI).
    pub fn real_of(&self, vid: Handle) -> AbiResult<Handle> {
        if vid.is_predefined() {
            return Ok(vid);
        }
        self.to_real
            .get(&vid)
            .copied()
            .ok_or_else(|| AbiError::for_kind(vid.kind()))
    }

    /// Drop a virtual id's binding (on free).
    pub fn unbind(&mut self, vid: Handle) -> Option<Handle> {
        self.comm_sizes.remove(&vid);
        self.to_real.remove(&vid)
    }

    /// Record a log entry.
    pub fn record(&mut self, entry: LogEntry) {
        self.log.push(entry);
    }

    /// Cache a communicator's size.
    pub fn cache_comm_size(&mut self, vid: Handle, size: usize) {
        self.comm_sizes.insert(vid, size);
    }

    /// Cached communicator size, if known.
    pub fn comm_size_of(&self, vid: Handle) -> Option<usize> {
        self.comm_sizes.get(&vid).copied()
    }

    /// Virtual ids of all live communicators (predefined + dynamic), in a
    /// deterministic order — the drain protocol probes each of these.
    pub fn live_comms(&self) -> Vec<Handle> {
        let mut comms = vec![Handle::COMM_WORLD, Handle::COMM_SELF];
        let mut dynamic: Vec<Handle> = self
            .to_real
            .keys()
            .filter(|h| h.kind() == HandleKind::Comm)
            .copied()
            .collect();
        dynamic.sort_unstable();
        comms.extend(dynamic);
        comms
    }

    /// The replay log (for serialization).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Rebuild a table against a fresh lower half by replaying `log`.
    ///
    /// Executes every logged call in order through `lower`; the calls are
    /// collective where MPI says so, so all ranks must replay in lockstep
    /// (they do: restart runs this before the application resumes).
    pub fn replay(
        log: Vec<LogEntry>,
        world_size: usize,
        lower: &mut dyn MpiAbi,
    ) -> AbiResult<VidTable> {
        let mut table = VidTable::new(world_size);
        for entry in &log {
            match entry {
                LogEntry::Create { vid, recipe } => {
                    let real = match recipe {
                        Recipe::CommDup { parent } => {
                            let p = table.real_of(*parent)?;
                            Some(lower.comm_dup(p)?)
                        }
                        Recipe::CommSplit { parent, color, key } => {
                            let p = table.real_of(*parent)?;
                            let r = lower.comm_split(p, *color, *key)?;
                            if r == Handle::COMM_NULL {
                                None
                            } else {
                                Some(r)
                            }
                        }
                        Recipe::TypeContiguous { count, base } => {
                            let b = table.real_of(*base)?;
                            Some(lower.type_contiguous(*count, b)?)
                        }
                        Recipe::OpUser { name, commute } => {
                            let func = ops::lookup(name).ok_or(AbiError::Unsupported)?;
                            Some(lower.op_create(func, *commute)?)
                        }
                    };
                    match (vid, real) {
                        (v, Some(r)) if !v.is_null() => {
                            table.bind(*v, r);
                            if v.kind() == HandleKind::Comm {
                                let size = lower.comm_size(r)? as usize;
                                table.cache_comm_size(*v, size);
                            }
                            // Keep vid allocation in sync so post-restart
                            // creations continue the same sequence.
                            let idx = kind_index(v.kind());
                            table.next_slot[idx] = table.next_slot[idx].max(v.index() + 1);
                        }
                        (v, None) if v.is_null() => {}
                        _ => return Err(AbiError::Intern),
                    }
                }
                LogEntry::Commit { vid } => {
                    let real = table.real_of(*vid)?;
                    lower.type_commit(real)?;
                }
                LogEntry::Free { vid } => {
                    let real = table.unbind(*vid).ok_or(AbiError::Arg)?;
                    match vid.kind() {
                        HandleKind::Comm => lower.comm_free(real)?,
                        HandleKind::Datatype => lower.type_free(real)?,
                        HandleKind::Op => lower.op_free(real)?,
                        _ => return Err(AbiError::Intern),
                    }
                }
            }
        }
        table.log = log;
        Ok(table)
    }

    // ---- serialization ---------------------------------------------------

    /// Encode the replay log.
    pub fn encode_log(&self, w: &mut Writer) {
        w.u64(self.log.len() as u64);
        for entry in &self.log {
            match entry {
                LogEntry::Create { vid, recipe } => {
                    w.u8(0);
                    w.u64(vid.raw());
                    match recipe {
                        Recipe::CommDup { parent } => {
                            w.u8(0);
                            w.u64(parent.raw());
                        }
                        Recipe::CommSplit { parent, color, key } => {
                            w.u8(1);
                            w.u64(parent.raw());
                            w.i32(*color);
                            w.i32(*key);
                        }
                        Recipe::TypeContiguous { count, base } => {
                            w.u8(2);
                            w.i32(*count);
                            w.u64(base.raw());
                        }
                        Recipe::OpUser { name, commute } => {
                            w.u8(3);
                            w.string(name);
                            w.u8(*commute as u8);
                        }
                    }
                }
                LogEntry::Commit { vid } => {
                    w.u8(1);
                    w.u64(vid.raw());
                }
                LogEntry::Free { vid } => {
                    w.u8(2);
                    w.u64(vid.raw());
                }
            }
        }
    }

    /// Decode a replay log.
    pub fn decode_log(r: &mut Reader<'_>) -> Result<Vec<LogEntry>, CodecError> {
        let count = r.u64()?;
        if count > 1 << 24 {
            return Err(CodecError::LengthOutOfBounds(count));
        }
        let mut log = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let entry = match r.u8()? {
                0 => {
                    let vid = Handle::from_raw(r.u64()?);
                    let recipe = match r.u8()? {
                        0 => Recipe::CommDup {
                            parent: Handle::from_raw(r.u64()?),
                        },
                        1 => Recipe::CommSplit {
                            parent: Handle::from_raw(r.u64()?),
                            color: r.i32()?,
                            key: r.i32()?,
                        },
                        2 => Recipe::TypeContiguous {
                            count: r.i32()?,
                            base: Handle::from_raw(r.u64()?),
                        },
                        3 => Recipe::OpUser {
                            name: r.string()?,
                            commute: r.u8()? != 0,
                        },
                        t => return Err(CodecError::LengthOutOfBounds(t as u64)),
                    };
                    LogEntry::Create { vid, recipe }
                }
                1 => LogEntry::Commit {
                    vid: Handle::from_raw(r.u64()?),
                },
                2 => LogEntry::Free {
                    vid: Handle::from_raw(r.u64()?),
                },
                t => return Err(CodecError::LengthOutOfBounds(t as u64)),
            };
            log.push(entry);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic_per_kind() {
        let mut t = VidTable::new(4);
        let c1 = t.alloc(HandleKind::Comm);
        let c2 = t.alloc(HandleKind::Comm);
        let d1 = t.alloc(HandleKind::Datatype);
        assert_ne!(c1, c2);
        assert_eq!(c1.kind(), HandleKind::Comm);
        assert_eq!(d1.kind(), HandleKind::Datatype);
        assert_eq!(c2.index(), c1.index() + 1);
    }

    #[test]
    fn predefined_pass_through() {
        let t = VidTable::new(4);
        assert_eq!(t.real_of(Handle::COMM_WORLD).unwrap(), Handle::COMM_WORLD);
        assert_eq!(
            t.real_of(mpi_abi::Datatype::Double.handle()).unwrap(),
            mpi_abi::Datatype::Double.handle()
        );
        assert_eq!(t.comm_size_of(Handle::COMM_WORLD), Some(4));
        assert_eq!(t.comm_size_of(Handle::COMM_SELF), Some(1));
    }

    #[test]
    fn bind_translate_unbind() {
        let mut t = VidTable::new(2);
        let vid = t.alloc(HandleKind::Comm);
        let real = Handle::dynamic(HandleKind::Comm, 0x9999);
        t.bind(vid, real);
        t.cache_comm_size(vid, 2);
        assert_eq!(t.real_of(vid).unwrap(), real);
        assert_eq!(
            t.live_comms(),
            vec![Handle::COMM_WORLD, Handle::COMM_SELF, vid]
        );
        assert_eq!(t.unbind(vid), Some(real));
        assert!(t.real_of(vid).is_err());
        assert_eq!(t.comm_size_of(vid), None);
    }

    #[test]
    fn log_round_trips_through_codec() {
        let mut t = VidTable::new(2);
        let c = t.alloc(HandleKind::Comm);
        let d = t.alloc(HandleKind::Datatype);
        t.record(LogEntry::Create {
            vid: c,
            recipe: Recipe::CommDup {
                parent: Handle::COMM_WORLD,
            },
        });
        t.record(LogEntry::Create {
            vid: d,
            recipe: Recipe::TypeContiguous {
                count: 3,
                base: mpi_abi::Datatype::Double.handle(),
            },
        });
        t.record(LogEntry::Commit { vid: d });
        t.record(LogEntry::Create {
            vid: Handle::COMM_NULL,
            recipe: Recipe::CommSplit {
                parent: c,
                color: -32766,
                key: 0,
            },
        });
        t.record(LogEntry::Free { vid: d });
        let op_vid = t.alloc(HandleKind::Op);
        t.record(LogEntry::Create {
            vid: op_vid,
            recipe: Recipe::OpUser {
                name: "my.op".into(),
                commute: true,
            },
        });

        let mut w = Writer::new();
        t.encode_log(&mut w);
        let buf = w.finish();
        let mut r = Reader::checked(&buf).unwrap();
        let log = VidTable::decode_log(&mut r).unwrap();
        assert_eq!(log, t.log().to_vec());
    }
}
