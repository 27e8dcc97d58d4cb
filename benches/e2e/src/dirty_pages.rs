//! `DirtyPages`: the benchmark's own program for the checkpoint-write and
//! restart-read workloads.
//!
//! Each rank owns `segments` byte segments of `segment_bytes` each; every
//! step rewrites the ranges its plan names, does one 8-byte allreduce and
//! charges virtual compute time per dirtied byte. The message path does
//! next to nothing, so what a repetition costs is what the checkpoint
//! layers cost. The program never sees a seed or a workload name: it
//! receives the fill kinds and the per-step plan the harness generated.

use mpi_stool::abi::{Handle, ReduceOp};
use mpi_stool::simnet::VirtualTime;
use mpi_stool::stool::{AppCtx, MpiProgram, StoolResult};

/// What a segment holds, and so how well the store's per-block
/// compression does on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// A staircase of whole-number `f64`s (shuffled LZ4 shrinks it well).
    Staircase,
    /// A pseudo-random byte stream (incompressible).
    Noise(u64),
}

/// One range rewritten in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Which segment.
    pub segment: usize,
    /// First byte rewritten (a multiple of 8).
    pub offset: usize,
    /// Bytes rewritten (a multiple of 8).
    pub len: usize,
    /// Selects the new contents.
    pub salt: u64,
}

/// The program.
#[derive(Debug, Clone)]
pub struct DirtyPages {
    /// Bytes per segment (a multiple of 8).
    pub segment_bytes: usize,
    /// Fill kind per segment; its length is the segment count.
    pub fill: Vec<Fill>,
    /// Ranges rewritten per step; its length is the step count.
    pub plan: Vec<Vec<Touch>>,
    /// Modelled compute time per dirtied byte.
    pub ns_per_dirty_byte: f64,
}

fn segment_name(segment: usize) -> String {
    format!("dp.seg{segment:02}")
}

/// xorshift64*: small, fast, and good enough to defeat LZ4.
fn next_noise(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Overwrite `range` (whose first byte sits at `offset` in its segment).
fn write_range(range: &mut [u8], fill: Fill, offset: usize, rank: usize, salt: u64) {
    match fill {
        Fill::Staircase => {
            // Whole numbers that step every eighth cell, like a field on
            // a coarse mesh: exact in an f64, and every phase gives the
            // byte planes the same structure, so every seed compresses
            // alike. A segment holds at most 2^13 cells.
            let base = ((salt % 4096 + 1) << 22) + ((rank as u64) << 13);
            for (i, word) in range.chunks_exact_mut(8).enumerate() {
                let x = (base + ((offset / 8 + i) / 8) as u64) as f64;
                word.copy_from_slice(&x.to_le_bytes());
            }
        }
        Fill::Noise(stream) => {
            // `| 1` keeps the xorshift state non-zero.
            let mut state =
                (stream ^ salt ^ (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
            for word in range.chunks_exact_mut(8) {
                word.copy_from_slice(&next_noise(&mut state).to_le_bytes());
            }
        }
    }
}

impl MpiProgram for DirtyPages {
    fn name(&self) -> &'static str {
        "dirty-pages"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank();
        // A restart finds its segments in the restored memory.
        if !app.mem.contains("dp.acc") {
            for (segment, &fill) in self.fill.iter().enumerate() {
                let buf = app
                    .mem
                    .bytes_mut(&segment_name(segment), self.segment_bytes);
                write_range(buf, fill, 0, me, 0);
            }
            app.mem.set_f64("dp.acc", 0.0);
        }
        for step in app.resume_step()..self.plan.len() as u64 {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            let mut dirtied = 0usize;
            for touch in &self.plan[step as usize] {
                let buf = app
                    .mem
                    .bytes_mut(&segment_name(touch.segment), self.segment_bytes);
                write_range(
                    &mut buf[touch.offset..touch.offset + touch.len],
                    self.fill[touch.segment],
                    touch.offset,
                    me,
                    touch.salt,
                );
                dirtied += touch.len;
            }
            // Whole numbers well below 2^53: the sum is exact whatever
            // order a vendor's reduction tree adds in, so the result is
            // bit-identical under both MPI libraries.
            let local = (dirtied / 8 + me) as f64;
            let sum = app
                .pmpi()
                .allreduce_f64(local, ReduceOp::Sum, Handle::COMM_WORLD)?;
            let acc = app.mem.get_f64("dp.acc").expect("initialised above");
            app.mem.set_f64("dp.acc", acc + sum);
            app.compute(VirtualTime::from_micros_f64(
                dirtied as f64 * self.ns_per_dirty_byte / 1000.0,
            ));
        }
        Ok(())
    }
}
