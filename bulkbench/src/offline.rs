//! Offline workloads: back-to-back bulk jobs through
//! `oblivious::run_sharded`, the Fig. 11 (prefix-sums) and Fig. 12 (OPT)
//! shapes of the paper.

use crate::layers::{self, LAYOUT};
use crate::stats::{median, EndToEnd};
use crate::{Args, Outcome, Workload};
use algorithms::{OptTriangulation, PrefixSums};
use gpu_sim::{BulkKernel, OptKernel, PrefixSumsKernel};
use oblivious::layout::{arrange, extract};
use oblivious::program::bulk_execute_cpu_reference;
use oblivious::{run_sharded, shard_bounds, BulkMachine, CompiledSchedule, ObliviousProgram};
use obs::Rng;
use std::time::{Duration, Instant};

/// A user waits for a 32 MiB bulk job as for an interactive batch step:
/// one second, far from today's ~0.1–0.3 s, so the limit catches a
/// several-fold slowdown rather than run-to-run jitter.
const SLO_MS: f64 = 1000.0;
/// Set-up repetitions (compile + first cold job); the median is reported.
const SETUP_REPS: usize = 9;
/// Lanes of every job (after the first, which is checked whole) compared
/// against the scalar reference.
const SAMPLED_LANES: usize = 64;

/// One job's inputs: the pool rotated by a per-job offset, so every job
/// places different instances on each lane.
fn job_inputs(pool: &[Vec<f32>], job: u64) -> (usize, Vec<&[f32]>) {
    let p = pool.len();
    let off = (job as usize).wrapping_mul(7919) % p;
    (off, (0..p).map(|lane| pool[(lane + off) % p].as_slice()).collect())
}

/// Compare `lanes` of a job's outputs with the reference of the instance
/// each lane carried.
fn verify(out: &[Vec<f32>], reference: &[Vec<u32>], off: usize, lanes: &[usize]) -> bool {
    let p = reference.len();
    out.len() == p
        && lanes.iter().all(|&lane| {
            out[lane].iter().map(|w| w.to_bits()).eq(reference[(lane + off) % p].iter().copied())
        })
}

fn sample_lanes(rng: &mut Rng, p: usize) -> Vec<usize> {
    (0..SAMPLED_LANES.min(p)).map(|_| rng.below(p as u64) as usize).collect()
}

/// Run one offline workload.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::OfflinePrefix => {
            let n = 1024;
            drive(args, &PrefixSums::new(n), &PrefixSumsKernel::new(n, LAYOUT), 8192)
        }
        _ => {
            let n = 64;
            drive(args, &OptTriangulation::new(n), &OptKernel::new(n, LAYOUT), 1024)
        }
    }
}

fn drive<P, K>(args: &Args, program: &P, kernel: &K, p: usize) -> Outcome
where
    P: ObliviousProgram<f32> + Sync,
    K: BulkKernel<f32>,
{
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Inputs and their reference outputs exist before any clock starts.
    let mut rng = Rng::new(args.seed);
    let words = program.input_range().len();
    let pool: Vec<Vec<f32>> =
        (0..p).map(|_| (0..words).map(|_| rng.f32_range(0.0, 4.0)).collect()).collect();
    let refs: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let reference: Vec<Vec<u32>> = bulk_execute_cpu_reference(program, &refs)
        .into_iter()
        .map(|out| out.into_iter().map(f32::to_bits).collect())
        .collect();
    drop(refs);
    let all_lanes: Vec<usize> = (0..p).collect();

    // Set-up: compile + the first (cold) job, checked whole.
    let mut e2e = EndToEnd::default();
    let mut setup_failed = 0;
    let mut schedule = None;
    for _ in 0..SETUP_REPS {
        let (off, inputs) = job_inputs(&pool, 0);
        let t = Instant::now();
        let s = CompiledSchedule::compile(program);
        let out = run_sharded(&s, &inputs, LAYOUT, shards);
        let ok = verify(&out, &reference, off, &all_lanes);
        e2e.setup_s.push(t.elapsed().as_secs_f64());
        setup_failed += u64::from(!ok);
        schedule = Some(s);
    }
    let schedule = schedule.expect("at least one set-up repetition");
    eprintln!(
        "{}: p={p}, {shards} shards, {:.1} MiB bulk buffer, set-up median {:.4} s",
        program.name(),
        (p * program.memory_words() * 4) as f64 / f64::from(1 << 20),
        median(&e2e.setup_s)
    );

    let job = |j: u64, rng: &mut Rng, traced: Option<&mut [Vec<f64>; 3]>| -> (bool, f64) {
        let (off, inputs) = job_inputs(&pool, j);
        let t = Instant::now();
        let out = match traced {
            None => run_sharded(&schedule, &inputs, LAYOUT, shards),
            Some(spans) => traced_sharded(&schedule, &inputs, shards, spans),
        };
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        (verify(&out, &reference, off, &sample_lanes(rng, p)), latency_ms)
    };

    if !args.trace {
        let mut jobs = 1u64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds {
            let (ok, latency_ms) = job(jobs, &mut rng, None);
            e2e.record(ok, latency_ms, p as u64, SLO_MS);
            jobs += 1;
        }
        e2e.measured_s = start.elapsed().as_secs_f64();
        return e2e.into_outcome(setup_failed);
    }

    // Traced: an untraced half, then a half whose jobs run the same shard
    // split with every layer call timed (the overhead check), then the
    // layer probe on one job's inputs.
    let half = args.seconds / 2.0;
    let mut untraced = EndToEnd::default();
    let mut traced = EndToEnd::default();
    let mut spans: [Vec<f64>; 3] = Default::default();
    let mut jobs = 1u64;
    for (e, trace) in [(&mut untraced, false), (&mut traced, true)] {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < half {
            let (ok, latency_ms) = job(jobs, &mut rng, trace.then_some(&mut spans));
            e.record(ok, latency_ms, p as u64, SLO_MS);
            jobs += 1;
        }
        e.measured_s = start.elapsed().as_secs_f64();
    }
    eprintln!(
        "traced jobs ({shards} shards, per-shard medians): arrange {:.3} replay {:.3} extract \
         {:.3} ms",
        median(&spans[0]),
        median(&spans[1]),
        median(&spans[2])
    );
    let (off, inputs) = job_inputs(&pool, 0);
    let rotated: Vec<Vec<u32>> = (0..p).map(|lane| reference[(lane + off) % p].clone()).collect();
    let engine = layers::probe(program, kernel, &inputs, &rotated, shards, 9, Duration::ZERO);

    let mut o = Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed + setup_failed + engine.mismatches,
        metrics: Vec::new(),
    };
    engine.report(&mut o, shards);
    crate::serving::report_absent_serving_layers(&mut o);
    o.push("loadgen.late_ms", 0.0, "ms");
    o.push(
        "trace.overhead_pct",
        (untraced.throughput() - traced.throughput()) / untraced.throughput() * 100.0,
        "%",
    );
    o
}

/// `run_sharded`'s split (same shard bounds, one thread per shard) with
/// each layer call timed: `arrange`, `BulkMachine::run_compiled`,
/// `extract`.  Per-shard durations land in `spans`.
fn traced_sharded(
    schedule: &CompiledSchedule<f32>,
    inputs: &[&[f32]],
    shards: usize,
    spans: &mut [Vec<f64>; 3],
) -> Vec<Vec<f32>> {
    let msize = schedule.memory_words();
    let shard = |chunk: &[&[f32]]| {
        let p = chunk.len();
        let t0 = Instant::now();
        let mut buf = arrange(chunk, msize, LAYOUT);
        let t1 = Instant::now();
        BulkMachine::new(&mut buf, p, msize, LAYOUT).run_compiled(schedule);
        let t2 = Instant::now();
        let out = extract(&buf, p, msize, LAYOUT, schedule.output_range());
        let t3 = Instant::now();
        let d = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        (out, [d(t0, t1), d(t1, t2), d(t2, t3)])
    };
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_bounds(inputs.len(), shards.clamp(1, inputs.len()))
            .into_iter()
            .map(|r| {
                let chunk = &inputs[r];
                scope.spawn(move || shard(chunk))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("traced shard panicked")).collect()
    });
    let mut out = Vec::with_capacity(inputs.len());
    for (chunk, times) in parts {
        out.extend(chunk);
        for (span, t) in spans.iter_mut().zip(times) {
            span.push(t);
        }
    }
    out
}
