//! Engine-layer probe: times the calls into `oblivious::exec::compiled`,
//! `oblivious::layout`, `oblivious::exec::bulk`, `oblivious::exec::shard`
//! and the hand-written `gpu-sim` kernel from outside, on one workload's
//! bulk shape, and reconciles the layers against a 1-shard `run_sharded`
//! call.

use crate::stats::median;
use crate::Outcome;
use gpu_sim::{launch, BulkKernel, Device};
use oblivious::layout::{arrange, extract};
use oblivious::{run_sharded, BulkMachine, CompiledSchedule, Layout, ObliviousProgram};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Column-wise, as Theorems 2–3 prescribe (and every workload uses).
pub const LAYOUT: Layout = Layout::ColumnWise;

/// This machine's per-core L2, in MiB (the buffer size is stated against it).
const L2_MIB: f64 = 4.0;

/// Medians of the timed layer calls on one bulk shape.
#[derive(Debug, Default)]
pub struct EngineLayers {
    /// `CompiledSchedule::compile`.
    pub compile_ms: f64,
    /// Steps in the compiled schedule.
    pub steps: usize,
    /// `layout::arrange` of all `p` instances.
    pub arrange_ms: f64,
    /// `BulkMachine::run_compiled` over the arranged buffer.
    pub replay_ms: f64,
    /// `layout::extract` of the output range.
    pub extract_ms: f64,
    /// `run_sharded` at one shard.
    pub call1_ms: f64,
    /// `run_sharded` at `shards` shards.
    pub calln_ms: f64,
    /// The hand-written gpu-sim kernel on a single-worker device.
    pub kernel_ms: f64,
    /// Computed bytes of arrange + extract (read + written).
    pub layout_bytes: f64,
    /// Bytes read + written per second by a same-size `copy_from_slice`.
    pub memcpy_gbps: f64,
    /// Bulk buffer size, in MiB.
    pub buffer_mib: f64,
    /// Instances in the probed shape.
    pub p: usize,
    /// Calls whose output differed, bit for bit, from the scalar reference.
    pub mismatches: u64,
}

/// Probe the engine layers on `inputs` (already generated; `reference`
/// holds their scalar outputs as `f32` bit patterns).  Repeats each call
/// at least `min_reps` times and for at least `min_time`, reporting
/// medians.
pub fn probe<P, K>(
    program: &P,
    kernel: &K,
    inputs: &[&[f32]],
    reference: &[Vec<u32>],
    shards: usize,
    min_reps: usize,
    min_time: Duration,
) -> EngineLayers
where
    P: ObliviousProgram<f32> + Sync,
    K: BulkKernel<f32>,
{
    let p = inputs.len();
    let msize = program.memory_words();
    let out_range = program.output_range();
    let device = Device::single_worker();
    let (mut compile, mut call1, mut calln) = (Vec::new(), Vec::new(), Vec::new());
    let (mut arr, mut rep, mut ext, mut ker) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    let mut steps = 0;
    let start = Instant::now();
    while compile.len() < min_reps || start.elapsed() < min_time {
        let t = Instant::now();
        let schedule = CompiledSchedule::compile(program);
        compile.push(ms(t));
        steps = schedule.steps().len();

        let t = Instant::now();
        let whole = run_sharded(&schedule, inputs, LAYOUT, 1);
        call1.push(ms(t));
        mismatches += u64::from(!matches_reference(&whole, reference));

        let t = Instant::now();
        let split = black_box(run_sharded(&schedule, inputs, LAYOUT, shards));
        calln.push(ms(t));
        mismatches += u64::from(!matches_reference(&split, reference));
        drop(split);

        let t = Instant::now();
        let mut buf = arrange(inputs, msize, LAYOUT);
        arr.push(ms(t));
        let t = Instant::now();
        BulkMachine::new(&mut buf, p, msize, LAYOUT).run_compiled(&schedule);
        rep.push(ms(t));
        let t = Instant::now();
        let out = extract(&buf, p, msize, LAYOUT, out_range.clone());
        ext.push(ms(t));
        mismatches += u64::from(!matches_reference(&out, reference));

        let mut kbuf = arrange(inputs, msize, LAYOUT);
        let t = Instant::now();
        launch(&device, kernel, &mut kbuf, p);
        ker.push(ms(t));
        let out = extract(&kbuf, p, msize, LAYOUT, out_range.clone());
        mismatches += u64::from(!matches_reference(&out, reference));
    }
    let buffer_bytes = (p * msize * 4) as f64;
    let in_bytes = (p * program.input_range().len() * 4) as f64;
    let out_bytes = (p * out_range.len() * 4) as f64;
    EngineLayers {
        compile_ms: median(&compile),
        steps,
        arrange_ms: median(&arr),
        replay_ms: median(&rep),
        extract_ms: median(&ext),
        call1_ms: median(&call1),
        calln_ms: median(&calln),
        kernel_ms: median(&ker),
        layout_bytes: in_bytes + buffer_bytes + 2.0 * out_bytes,
        memcpy_gbps: memcpy_gbps(p * msize),
        buffer_mib: buffer_bytes / f64::from(1 << 20),
        p,
        mismatches,
    }
}

fn matches_reference(out: &[Vec<f32>], reference: &[Vec<u32>]) -> bool {
    out.len() == reference.len()
        && out
            .iter()
            .zip(reference)
            .all(|(o, r)| o.iter().map(|w| w.to_bits()).eq(r.iter().copied()))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Read + write bandwidth of `copy_from_slice` over `words` f32 words,
/// repeated until at least 256 MiB have moved (median of 5 such rounds).
fn memcpy_gbps(words: usize) -> f64 {
    let src: Vec<f32> = (0..words).map(|i| i as f32).collect();
    let mut dst = vec![0f32; words];
    let bytes = (words * 4) as f64;
    let copies = ((256.0 * f64::from(1 << 20)) / bytes).ceil().max(1.0) as usize;
    dst.copy_from_slice(&src);
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..copies {
                dst.copy_from_slice(black_box(&src));
                black_box(&mut dst);
            }
            2.0 * bytes * copies as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rounds)
}

impl EngineLayers {
    /// 1-shard call − arrange − replay − extract: the part of the call no
    /// layer timing covers (kept, never dropped).
    pub fn unattributed_ms(&self) -> f64 {
        self.call1_ms - self.arrange_ms - self.replay_ms - self.extract_ms
    }

    /// Push the engine-layer metrics and print the reconciliation.
    pub fn report(&self, o: &mut Outcome, shards: usize) {
        let layout_gbps = self.layout_bytes / ((self.arrange_ms + self.extract_ms) / 1e3) / 1e9;
        o.push("compile.ms", self.compile_ms, "ms");
        o.push("compile.steps", self.steps as f64, "count");
        o.push("layout.arrange_ms", self.arrange_ms, "ms");
        o.push("layout.extract_ms", self.extract_ms, "ms");
        o.push("layout.gbps", layout_gbps, "GB/s");
        o.push("memcpy.gbps", self.memcpy_gbps, "GB/s");
        o.push("layout.roofline_ratio", layout_gbps / self.memcpy_gbps, "ratio");
        o.push("layout.buffer_mib", self.buffer_mib, "MiB");
        o.push("replay.ms", self.replay_ms, "ms");
        o.push(
            "replay.ns_per_lane_step",
            self.replay_ms * 1e6 / (self.p as f64 * self.steps.max(1) as f64),
            "ns",
        );
        o.push("shard.call_ms", self.calln_ms, "ms");
        o.push("shard.call_1shard_ms", self.call1_ms, "ms");
        o.push("shard.speedup", self.call1_ms / self.calln_ms, "ratio");
        o.push("shard.unattributed_ms", self.unattributed_ms(), "ms");
        o.push("gpu_sim.kernel_ms", self.kernel_ms, "ms");
        eprintln!(
            "reconcile engine (p={}, 1 shard): arrange {:.4} + replay {:.4} + extract {:.4} \
             + unattributed {:.4} = run_sharded {:.4} ms; {shards}-shard call {:.4} ms",
            self.p,
            self.arrange_ms,
            self.replay_ms,
            self.extract_ms,
            self.unattributed_ms(),
            self.call1_ms,
            self.calln_ms
        );
        eprintln!(
            "sizes: bulk buffer {:.3} MiB = {:.2}x the {L2_MIB} MiB per-core L2; the host's \
             reported 300 MiB L3 holds it. layout.gbps counts computed bytes \
             ({:.0} read+written by arrange+extract), not measured traffic",
            self.buffer_mib,
            self.buffer_mib / L2_MIB,
            self.layout_bytes
        );
    }
}
