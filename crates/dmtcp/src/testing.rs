//! Test harnesses shared by the batteries and the benches:
//!
//! * [`lockstep`] — deterministic stepping for multi-round coordinator
//!   harnesses: the test batteries and the `scale` bench's failover
//!   section advance their rank agents through it, with every round at a
//!   scheduled cut, so no outcome depends on which thread the OS runs
//!   first;
//! * [`ScriptedVol`] — the one fault-injecting [`ObjectTier`]: a volume
//!   that counts its calls and applies a [`Script`] of [`Fault`]s to
//!   them, shared by as many volumes as one simulated machine holds.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Condvar, Mutex};

use crate::coordinator::{CkptMode, CkptSession, Coordinator, Poll};
use crate::tier::{ObjectTier, TierError};

/// Drive `n` long-lived rank agents through safe points `0..steps`, with
/// a checkpoint scheduled at each step in `cuts`: every rank announces the
/// cut ([`Coordinator::schedule_checkpoint_at`]) before it polls there, as
/// a session's checkpoint policy does. The ranks meet only inside the
/// rounds, and nobody finishes (an agent's `Drop` is a resign) before the
/// last cut's round has released everyone, so which rounds happen, and at
/// which steps, is a function of `cuts`, not of the scheduler.
///
/// A rank that polls [`Poll::Enter`] hands the session to
/// `round(rank, session)`; `Break` makes it leave for good, which every
/// rank must then do at the same cut.
pub fn lockstep(
    coord: &Coordinator,
    n: usize,
    steps: u64,
    cuts: &[u64],
    round: impl Fn(usize, CkptSession<'_>) -> ControlFlow<()> + Sync,
) {
    std::thread::scope(|s| {
        for rank in 0..n {
            let round = &round;
            s.spawn(move || {
                let mut agent = coord.agent(rank);
                for step in 0..steps {
                    if cuts.contains(&step) {
                        coord.schedule_checkpoint_at(step, CkptMode::Continue);
                    }
                    if let Poll::Enter(session) = agent.poll(step).expect("poll") {
                        if round(rank, session).is_break() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// A kind of call a [`Script`] counts and scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// [`ObjectTier::put`].
    Put,
    /// [`ObjectTier::get`].
    Get,
    /// [`ObjectTier::delete`].
    Delete,
    /// A put or a delete: one counter over both.
    Mutate,
}

/// What a script does to one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The call fails outright (an I/O error).
    Fail,
    /// The call reports success, but the bytes are torn.
    Torn,
    /// The call blocks until the script is released.
    Hold,
    /// Power is lost: this call and every later put or delete fail.
    PowerLoss,
}

/// The faults, counts and hold of one simulated machine, shared by
/// every [`ScriptedVol`] it [wraps](Script::wrap).
///
/// * Every op kind has a script (lists pass straight through): its entry
///   *i* applies to that kind's *i*-th call, counted across the script's
///   volumes from 0. A put or a delete applies its own kind's entry, or
///   else its [`Op::Mutate`] one.
/// * A get script is a download window: every put drops what is left of
///   it, so faults meant for a hydration never reach a shipper's
///   read-back.
/// * [`Fault::Torn`] drops an object's last byte, or stores (or returns)
///   a lone `0xFF` for an empty one; only a checksum can tell. It injects
///   nothing into a delete.
/// * [`Fault::PowerLoss`] fails its call and every later put or delete
///   on every volume of the script. What completed survives.
/// * [`Script::hold`]`(true)` holds every put the script does not fault,
///   as a scripted [`Fault::Hold`] is held: until `hold(false)`.
pub struct Script {
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Default)]
struct State {
    faults: BTreeMap<(Op, u64), Fault>,
    /// Calls so far, by kind and object name (the key's last segment).
    calls: BTreeMap<(Op, String), u64>,
    hold_all: bool,
    released: bool,
    lost: bool,
    injected: u64,
}

impl State {
    fn calls(&self, op: Op, name: Option<&str>) -> u64 {
        let kind = |o: Op| o == op || op == Op::Mutate && matches!(o, Op::Put | Op::Delete);
        let counted = self
            .calls
            .iter()
            .filter(|((o, n), _)| kind(*o) && name.is_none_or(|m| m == n));
        counted.map(|(_, c)| c).sum()
    }
}

impl Script {
    /// An empty script.
    pub fn new() -> Arc<Script> {
        Arc::new(Script {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        })
    }

    /// A volume over `inner` that runs this script.
    pub fn wrap(self: &Arc<Self>, inner: Arc<dyn ObjectTier>) -> Arc<ScriptedVol> {
        Arc::new(ScriptedVol {
            inner,
            script: self.clone(),
        })
    }

    /// Append `faults` to `op`'s script: they apply to the next calls
    /// that no earlier entry claims.
    pub fn push(&self, op: Op, faults: impl IntoIterator<Item = Fault>) {
        let mut st = self.state.lock().expect("script lock");
        let last = st.faults.range((op, 0)..=(op, u64::MAX)).next_back();
        let next = last.map_or(0, |(&(_, i), _)| i + 1).max(st.calls(op, None));
        let entries = (next..).zip(faults).map(|(i, fault)| ((op, i), fault));
        st.faults.extend(entries);
    }

    /// Script `fault` for `op`'s `call`-th call.
    pub fn at(&self, op: Op, call: u64, fault: Fault) {
        let mut st = self.state.lock().expect("script lock");
        st.faults.insert((op, call), fault);
    }

    /// Hold every unfaulted put (`true`), or release every held call,
    /// current and future (`false`).
    pub fn hold(&self, on: bool) {
        let mut st = self.state.lock().expect("script lock");
        (st.hold_all, st.released) = (on, !on);
        self.cv.notify_all();
    }

    /// Calls of `op` so far; `name` narrows them to one object name.
    pub fn calls(&self, op: Op, name: Option<&str>) -> u64 {
        self.state.lock().expect("script lock").calls(op, name)
    }

    /// Scripted faults applied so far, holds included.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("script lock").injected
    }

    /// Count one call and apply its fault: `Ok(true)` for a torn one.
    fn enter(&self, op: Op, key: &str) -> Result<bool, TierError> {
        let mut st = self.state.lock().expect("script lock");
        let (n, m) = (st.calls(op, None), st.calls(Op::Mutate, None));
        let name = key.rsplit('/').next().unwrap_or(key).to_string();
        *st.calls.entry((op, name)).or_default() += 1;
        let mut fault = st.faults.remove(&(op, n));
        let mutating = matches!(op, Op::Put | Op::Delete);
        if mutating {
            fault = fault.or(st.faults.remove(&(Op::Mutate, m)));
        }
        if op == Op::Put {
            st.faults.retain(|&(o, _), _| o != Op::Get);
            if fault.is_none() && st.hold_all {
                fault = Some(Fault::Hold);
            }
        }
        st.injected += u64::from(fault.is_some());
        st.lost |= fault == Some(Fault::PowerLoss);
        if matches!(fault, Some(Fault::Fail | Fault::PowerLoss)) || st.lost && mutating {
            return Err(TierError::Io {
                op: ["put", "get", "delete"][op as usize],
                key: key.to_string(),
                msg: format!("injected fault: {:?}", fault.unwrap_or(Fault::PowerLoss)),
            });
        }
        if fault == Some(Fault::Hold) {
            while !st.released {
                st = self.cv.wait(st).expect("script wait");
            }
        }
        Ok(fault == Some(Fault::Torn))
    }
}

/// An [`ObjectTier`] that runs a [`Script`] over an inner volume: the
/// one fault-injecting volume of the tests, the benches and a session's
/// scripted tier ([`Script`] states its rules).
pub struct ScriptedVol {
    inner: Arc<dyn ObjectTier>,
    script: Arc<Script>,
}

/// The torn form of `data`: its last byte dropped, or a lone `0xFF`.
fn tear(data: &[u8]) -> &[u8] {
    data.split_last().map_or(&[0xFF], |(_, rest)| rest)
}

impl ObjectTier for ScriptedVol {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), TierError> {
        let torn = self.script.enter(Op::Put, key)?;
        self.inner.put(key, if torn { tear(data) } else { data })
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, TierError> {
        let torn = self.script.enter(Op::Get, key)?;
        let data = self.inner.get(key)?;
        Ok(if torn { tear(&data).to_vec() } else { data })
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, TierError> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<(), TierError> {
        self.script.enter(Op::Delete, key)?;
        self.inner.delete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::MemTier;
    use std::time::Duration;

    fn mem() -> Arc<dyn ObjectTier> {
        Arc::new(MemTier::new())
    }

    #[test]
    fn scripted_vol_scripts_put_faults_in_order() {
        let script = Script::new();
        let tier = script.wrap(mem());
        script.push(Op::Put, [Fault::Fail, Fault::Torn]);
        assert!(matches!(tier.put("k", b"data"), Err(TierError::Io { .. })));
        tier.put("k", b"data").unwrap(); // torn: reports success...
        assert_eq!(tier.get("k").unwrap(), b"dat"); // ...but stored torn
        tier.put("k", b"data").unwrap(); // script exhausted: clean
        assert_eq!(tier.get("k").unwrap(), b"data");
        assert_eq!(script.calls(Op::Put, None), 3);
        assert_eq!(script.injected(), 2);
    }

    #[test]
    fn scripted_vol_hold_blocks_until_release() {
        let script = Script::new();
        let tier = script.wrap(mem());
        script.hold(true);
        let t2 = tier.clone();
        let handle = std::thread::spawn(move || t2.put("held", b"v"));
        // The put must not complete while held.
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(tier.get("held"), Err(TierError::NotFound { .. })));
        script.hold(false);
        handle.join().unwrap().unwrap();
        assert_eq!(tier.get("held").unwrap(), b"v");
        // After release, future puts pass straight through.
        tier.put("after", b"w").unwrap();
    }

    #[test]
    fn scripted_vol_scripts_get_faults_in_order() {
        let script = Script::new();
        let tier = script.wrap(mem());
        tier.put("k", b"data").unwrap();
        script.push(Op::Get, [Fault::Fail, Fault::Torn]);
        assert!(matches!(tier.get("k"), Err(TierError::Io { .. })));
        assert_eq!(tier.get("k").unwrap(), b"dat"); // torn: last byte gone
        assert_eq!(tier.get("k").unwrap(), b"data"); // script exhausted
        assert_eq!(script.calls(Op::Get, None), 3);
        assert_eq!(script.injected(), 2);
    }

    #[test]
    fn power_loss_on_a_shared_script_fails_a_later_put_on_a_second_volume() {
        let script = Script::new();
        let (local, remote) = (script.wrap(mem()), script.wrap(mem()));
        local.put("epoch_000001/blocks.bin", b"b").unwrap();
        script.at(Op::Mutate, 1, Fault::PowerLoss);
        assert!(local.put("epoch_000001/manifest.bin", b"m").is_err());
        assert!(remote.put("epoch_000001/seal", b"s").is_err());
        assert!(remote.delete("epoch_000001/seal").is_err());
        // What completed survives, and reads still work.
        assert_eq!(local.get("epoch_000001/blocks.bin").unwrap(), b"b");
        assert_eq!(local.list("").unwrap(), ["epoch_000001/blocks.bin"]);
        assert!(remote.list("").unwrap().is_empty());
        assert_eq!(script.calls(Op::Mutate, None), 4);
        assert_eq!(script.calls(Op::Put, Some("seal")), 1);
    }
}
