//! Serving workloads: in-process bulkd (and, for serve-replicated, a
//! router in front of a WAL-shipping primary/standby pair) driven over
//! real TCP connections by at most two load threads.

use crate::layers::{self, LAYOUT};
use crate::stats::{mean, median, quantile, EndToEnd};
use crate::{Args, Outcome, Scratch, Workload};
use algorithms::PrefixSums;
use bulkd::protocol::resp_outputs;
use bulkd::{Client, ClientConfig, ClientError, JobKey, JournalConfig, Request, ServerConfig};
use cli::registry::{Algo, ScheduleCaches};
use cli::serve::CatalogExecutor;
use gpu_sim::PrefixSumsKernel;
use oblivious::program::bulk_execute_cpu_reference;
use obs::{Json, Rng};
use repl::{run_standby, PrimaryConfig, ReplPrimary, StandbyConfig};
use router::{run_router, Backend, RouterConfig};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wal::FsyncPolicy;

/// Every submit is `prefix-sums/64/col`.
const ALGO: &str = "prefix-sums";
const N: usize = 64;
/// Distinct instances in the seeded input pool; submits draw from it.
const POOL: usize = 4096;
/// Set-up repetitions (the median is reported); the last cluster serves
/// the measured phase.
const SETUP_REPS: usize = 7;
/// How long a reply may take before the client gives up (well above any
/// healthy latency; keeps a wedged server from hanging the run).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A workload's fixed traffic shape.
struct Shape {
    /// Load connections (one thread each).
    conns: usize,
    /// Instances per submit.
    instances: usize,
    /// Open-loop inter-arrival gap; `None` is a closed loop.
    period: Option<Duration>,
    /// Router → primary (WAL fsync always) → standby, instead of one node.
    replicated: bool,
    /// Per-submit latency limit.
    slo_ms: f64,
}

fn shape(w: Workload) -> Shape {
    match w {
        // 100 submits/s: the 10 ms gap is the limit beyond which one
        // connection backs up.
        Workload::ServeTrickle => Shape {
            conns: 1,
            instances: 1,
            period: Some(Duration::from_millis(10)),
            replicated: false,
            slo_ms: 10.0,
        },
        // A durable, replicated submit is still an interactive request:
        // 100 ms is the classic limit below which a waiting user
        // perceives the answer as immediate.
        _ => Shape { conns: 2, instances: 32, period: None, replicated: true, slo_ms: 100.0 },
    }
}

fn key() -> JobKey {
    JobKey { algo: ALGO.into(), size: N, layout: LAYOUT }
}

/// The seeded input pool (word bit patterns) and its scalar-reference
/// outputs.
struct Pool {
    inputs: Vec<Vec<u64>>,
    reference: Vec<Vec<u64>>,
}

impl Pool {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let inputs: Vec<Vec<f32>> =
            (0..POOL).map(|_| (0..N).map(|_| rng.f32_range(0.0, 4.0)).collect()).collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let reference = bulk_execute_cpu_reference(&PrefixSums::new(N), &refs);
        let bits = |v: Vec<Vec<f32>>| -> Vec<Vec<u64>> {
            v.into_iter().map(|i| i.into_iter().map(|w| u64::from(w.to_bits())).collect()).collect()
        };
        Pool { inputs: bits(inputs), reference: bits(reference) }
    }

    /// `k` consecutive pool instances starting at a random index.
    fn draw(&self, rng: &mut Rng, k: usize) -> usize {
        rng.below(POOL as u64) as usize % (POOL - k + 1)
    }
}

fn client(addr: SocketAddr) -> Result<Client, String> {
    let cfg = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(READ_TIMEOUT),
    };
    Client::connect_with(addr, &cfg).map_err(|e| format!("connect {addr}: {e}"))
}

/// In-process servers: one bulkd, or router → primary → standby.
struct Cluster {
    /// Where load goes (the router, or the single node).
    entry: SocketAddr,
    /// The bulkd node that executes.
    primary: SocketAddr,
    standby: Option<SocketAddr>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce(mpsc::Sender<T>) -> Result<(), String> + Send + 'static,
) -> Result<(JoinHandle<Result<(), String>>, T), String> {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || f(tx))
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let ready = rx
        .recv_timeout(Duration::from_secs(30))
        .map_err(|_| format!("{name} did not become ready"))?;
    Ok((h, ready))
}

impl Cluster {
    /// Start the servers (bound, journals open, standby following) and
    /// return once each has signalled ready.  WAL directories under `dir`
    /// must already exist.
    fn start(replicated: bool, dir: &Path) -> Result<Cluster, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind bulkd: {e}"))?;
        let serving = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let mut cfg = ServerConfig {
            addr: serving.to_string(),
            node_id: Some("p1".into()),
            workers: 4,
            max_batch: 256,
            max_queue: 4096,
            flush_after_ms: 5,
            trace_path: None,
            wal: None,
            instrument: true,
            recorder_path: None,
            repl: None,
            promoted: false,
        };
        let mut repl_addr = None;
        if replicated {
            let wal_dir = dir.join("primary");
            cfg.wal = Some(JournalConfig {
                dir: wal_dir.clone(),
                fsync: FsyncPolicy::Always,
                segment_bytes: 4 << 20,
            });
            // The replication listener is bound before the standby exists,
            // so the standby's first dial succeeds and its reconnect timer
            // never runs inside set-up.
            let (prim, addr) = ReplPrimary::start(PrimaryConfig {
                wal_dir,
                node_id: "p1".into(),
                serving_addr: serving.to_string(),
                ..PrimaryConfig::default()
            })?;
            cfg.repl = Some(prim);
            repl_addr = Some(addr);
        }
        let (server, primary) = spawn("bulkd", move |tx| {
            bulkd::serve_with_listener(listener, &cfg, Box::new(CatalogExecutor::new(1)), |a| {
                let _ = tx.send(a);
            })
            .map(drop)
        })?;
        let mut threads = vec![server];
        let Some(repl_addr) = repl_addr else {
            return Ok(Cluster { entry: primary, primary, standby: None, threads });
        };
        let scfg = StandbyConfig {
            follow_addr: repl_addr.to_string(),
            wal_dir: dir.join("standby"),
            node_id: "s1".into(),
            ..StandbyConfig::default()
        };
        let (standby_thread, standby) = spawn("standby", move |tx| {
            run_standby(scfg, |a| {
                let _ = tx.send(a);
            })
            .map(drop)
        })?;
        threads.push(standby_thread);
        let rcfg = RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![Backend { id: "p1".into(), addr: primary.to_string() }],
            ..RouterConfig::default()
        };
        let (router_thread, entry) = spawn("router", move |tx| {
            run_router(&rcfg, |a| {
                let _ = tx.send(a);
            })
            .map(drop)
        })?;
        threads.push(router_thread);
        Ok(Cluster { entry, primary, standby: Some(standby), threads })
    }

    /// Drain through the entry point (the router fans the drain out to the
    /// primary), release the standby, and join every server thread.
    fn shutdown(self) -> Result<(), String> {
        client(self.entry)?.drain().map_err(|e| format!("drain: {e}"))?;
        if let Some(standby) = self.standby {
            // Promotion is the standby's only exit; the promoted listener
            // is dropped unused.
            client(standby)?.promote().map_err(|e| format!("release standby: {e}"))?;
        }
        for h in self.threads {
            h.join().map_err(|_| "server thread panicked".to_string())??;
        }
        Ok(())
    }
}

/// One submit: `Ok(reply)` only when every output matches the reference.
fn submit(
    c: &mut Client,
    pool: &Pool,
    at: usize,
    k: usize,
    timing: bool,
) -> Result<bulkd::SubmitOk, String> {
    let r = c.submit(&key(), &pool.inputs[at..at + k], timing).map_err(|e| e.to_string())?;
    if r.outputs != pool.reference[at..at + k] {
        return Err(format!("output mismatch on pool instances {at}..{}", at + k));
    }
    Ok(r)
}

/// What one load thread observed.
#[derive(Default)]
struct LoadOut {
    e2e: EndToEnd,
    /// Open loop: how late each send left relative to its due time.
    late_ms: Vec<f64>,
    /// Traced: send → reply of each verified submit.
    client_ms: Vec<f64>,
    /// Traced: the server's stage breakdown, `[journal, queue, dispatch,
    /// exec, finalize, total]` in ms.
    stages: Vec<[f64; 6]>,
    batch_p: Vec<f64>,
    /// Scrapes of the entry point's `metrics` verb: (ms, bytes).
    metrics_scrapes: Vec<(f64, f64)>,
    /// Traced: scrapes of the `stats` verb: (ms, primary repl lag in µs).
    stats_scrapes: Vec<(f64, f64)>,
}

const STAGES: [&str; 6] =
    ["journal_us", "queue_us", "dispatch_us", "exec_us", "finalize_us", "total_us"];

/// Drive one connection until `end`.  Open loop: submit `k` is due at
/// `start + k·period` and is timed from then, whatever the previous reply
/// did.  Closed loop: the next submit leaves when the last reply lands.
#[allow(clippy::too_many_arguments)]
fn load(
    addr: SocketAddr,
    pool: &Pool,
    sh: &Shape,
    seed: u64,
    start: Instant,
    end: Instant,
    traced: bool,
    scrape: bool,
) -> Result<LoadOut, String> {
    let mut c = client(addr)?;
    let mut rng = Rng::new(seed);
    let mut out = LoadOut::default();
    let mut next_scrape = start + Duration::from_secs(1);
    let mut k = 0u32;
    loop {
        let due = match sh.period {
            Some(gap) => start + gap * k,
            None => Instant::now(),
        };
        if due >= end {
            break;
        }
        k += 1;
        if scrape && due >= next_scrape {
            next_scrape += Duration::from_secs(1);
            let t = Instant::now();
            let text = c.metrics().map_err(|e| format!("metrics scrape: {e}"))?;
            out.metrics_scrapes.push((ms_since(t), text.len() as f64));
            if traced {
                let t = Instant::now();
                let s = c.stats().map_err(|e| format!("stats scrape: {e}"))?;
                let lag = s.path("backends.p1.repl.lag_us").and_then(Json::as_f64);
                out.stats_scrapes.push((ms_since(t), lag.unwrap_or(f64::NAN)));
            }
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        if sh.period.is_some() {
            out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        }
        let at = pool.draw(&mut rng, sh.instances);
        let res = submit(&mut c, pool, at, sh.instances, traced);
        let latency_ms = ms_since(due);
        match &res {
            Ok(r) if traced => {
                out.client_ms.push(ms_since(sent));
                out.batch_p.push(r.batch_p as f64);
                let t = r.timing.as_ref().ok_or("timing echo missing from a traced reply")?;
                let mut st = [0.0; 6];
                for (slot, name) in st.iter_mut().zip(STAGES) {
                    *slot =
                        t.get(name).and_then(Json::as_f64).ok_or("timing echo lacks a stage")?
                            / 1e3;
                }
                out.stages.push(st);
            }
            Ok(_) => {}
            Err(e) => eprintln!("submit failed: {e}"),
        }
        out.e2e.record(res.is_ok(), latency_ms, sh.instances as u64, sh.slo_ms);
        if matches!(&res, Err(e) if e.starts_with("io:")) {
            // A broken connection fails fast forever after; stop here.
            break;
        }
    }
    Ok(out)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run every load thread of `sh` against `addr` for `seconds`.
fn run_load(
    addr: SocketAddr,
    pool: &Pool,
    sh: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<LoadOut, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Result<LoadOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sh.conns)
            .map(|c| {
                // Connection 1 of a closed loop also scrapes `metrics`.
                let scrape = sh.period.is_none() && c == 0;
                let seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1));
                scope.spawn(move || load(addr, pool, sh, seed, start, end, traced, scrape))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut all = LoadOut::default();
    for part in parts {
        let p = part?;
        all.e2e.merge(p.e2e);
        all.late_ms.extend(p.late_ms);
        all.client_ms.extend(p.client_ms);
        all.stages.extend(p.stages);
        all.batch_p.extend(p.batch_p);
        all.metrics_scrapes.extend(p.metrics_scrapes);
        all.stats_scrapes.extend(p.stats_scrapes);
    }
    all.e2e.measured_s = start.elapsed().as_secs_f64();
    Ok(all)
}

/// Run one serving workload.
///
/// # Errors
///
/// Servers that fail to start or shut down cleanly.
pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let sh = shape(args.workload);
    let pool = Pool::new(args.seed);
    let mut setup_s = Vec::new();
    let mut setup_failed = 0;
    let mut cluster = None;
    for rep in 0..SETUP_REPS {
        let dir: PathBuf = scratch.dir.join(format!("rep{rep}"));
        for sub in ["primary", "standby"] {
            std::fs::create_dir_all(dir.join(sub)).map_err(|e| format!("mkdir: {e}"))?;
        }
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous)?;
        }
        let t = Instant::now();
        let c = Cluster::start(sh.replicated, &dir)?;
        let mut first = client(c.entry)?;
        let ok = submit(&mut first, &pool, 0, sh.instances, false);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = ok {
            eprintln!("set-up submit failed: {e}");
            setup_failed += 1;
        }
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up repetition");
    eprintln!(
        "{}/{N}/col: {} connection(s) x {} instance(s), {}; set-up median {:.5} s",
        ALGO,
        sh.conns,
        sh.instances,
        if sh.replicated { "router -> primary (fsync always) -> standby" } else { "one bulkd" },
        median(&setup_s)
    );

    let outcome = if args.trace {
        traced(args, &sh, &pool, &cluster, setup_failed)
    } else {
        run_load(cluster.entry, &pool, &sh, args.seed, args.seconds, false).map(|l| {
            let mut e2e = l.e2e;
            e2e.setup_s = setup_s;
            e2e.into_outcome(setup_failed)
        })
    };
    let down = cluster.shutdown();
    let outcome = outcome?;
    down?;
    Ok(outcome)
}

/// The per-layer run: an untraced half and a `timing`-echo half of the
/// same load, then probes of the protocol, router, registry and engine
/// layers and the primary's `stats` document.
fn traced(
    args: &Args,
    sh: &Shape,
    pool: &Pool,
    cluster: &Cluster,
    setup_failed: u64,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let plain = run_load(cluster.entry, pool, sh, args.seed, half, false)?;
    let tr = run_load(cluster.entry, pool, sh, args.seed ^ 1, half, true)?;
    let mut failed = plain.e2e.failed + tr.e2e.failed + setup_failed;
    let attempted = plain.e2e.attempted + tr.e2e.attempted;
    // Closed loops compare throughput; the open loop's throughput is its
    // schedule, so it compares mean latency instead.
    let overhead_pct = if sh.period.is_some() {
        (mean(&tr.e2e.latencies_ms) - mean(&plain.e2e.latencies_ms)) / mean(&plain.e2e.latencies_ms)
    } else {
        (plain.e2e.throughput() - tr.e2e.throughput()) / plain.e2e.throughput()
    } * 100.0;

    let batch_p = mean(&tr.batch_p).round().max(1.0) as usize;
    let (hop_ms, hop_failed) =
        if sh.replicated { router_hop(cluster, pool, sh.instances)? } else { (0.0, 0) };
    failed += hop_failed;
    let (scrape_metrics_ms, scrape_bytes, scrape_stats_ms) = if sh.replicated {
        let m = &tr.metrics_scrapes;
        (
            mean(&m.iter().map(|s| s.0).collect::<Vec<_>>()),
            mean(&m.iter().map(|s| s.1).collect::<Vec<_>>()),
            mean(&tr.stats_scrapes.iter().map(|s| s.0).collect::<Vec<_>>()),
        )
    } else {
        probe_scrapes(cluster.entry)?
    };
    let lag_us = mean(&tr.stats_scrapes.iter().map(|s| s.1).collect::<Vec<_>>());

    let stats = client(cluster.primary)?.stats().map_err(|e| format!("primary stats: {e}"))?;
    let num = |path: &str| stats.path(path).and_then(Json::as_f64).unwrap_or(0.0);
    let router_stats = if sh.replicated {
        Some(client(cluster.entry)?.stats().map_err(|e| format!("router stats: {e}"))?)
    } else {
        None
    };

    let mut o = Outcome { attempted, failed, metrics: Vec::new() };
    // Engine layers at the served batch shape.
    let inputs: Vec<Vec<f32>> = pool.inputs[..batch_p]
        .iter()
        .map(|i| i.iter().map(|&b| f32::from_bits(b as u32)).collect())
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let reference: Vec<Vec<u32>> =
        pool.reference[..batch_p].iter().map(|r| r.iter().map(|&b| b as u32).collect()).collect();
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = layers::probe(
        &PrefixSums::new(N),
        &PrefixSumsKernel::new(N, LAYOUT),
        &refs,
        &reference,
        shards,
        50,
        Duration::from_millis(500),
    );
    o.failed += engine.mismatches;
    engine.report(&mut o, shards);

    let (executor_ms, executor_ok) = probe_executor(pool, batch_p);
    o.failed += u64::from(!executor_ok);
    o.push("executor.ms", executor_ms, "ms");
    o.push("cache.compiles", num("schedule_cache.compiles"), "count");
    o.push("cache.hit_rate", num("schedule_cache.hit_rate"), "ratio");

    let (submit_bytes, parse_us, encode_us) = probe_protocol(pool, sh.instances, batch_p)?;
    o.push("protocol.submit_bytes", submit_bytes, "count");
    o.push("protocol.parse_submit_us", parse_us, "us");
    o.push("protocol.encode_reply_us", encode_us, "us");

    let stage_mean = |i: usize| mean(&tr.stages.iter().map(|s| s[i]).collect::<Vec<_>>());
    for (i, name) in [
        "stages.journal_ms",
        "stages.queue_ms",
        "stages.dispatch_ms",
        "stages.exec_ms",
        "stages.finalize_ms",
        "stages.total_ms",
    ]
    .into_iter()
    .enumerate()
    {
        o.push(name, stage_mean(i), "ms");
    }
    o.push("queue.batch_p", mean(&tr.batch_p), "count");

    let completed = num("execution.completed_jobs").max(1.0);
    o.push("wal.fsync_us", num("wal.group_commit.fsync_us.p50"), "us");
    o.push("wal.group_commit_batch", num("wal.group_commit.batch_size.mean"), "count");
    o.push("wal.bytes_per_job", num("wal.bytes_appended") / completed, "bytes");
    o.push("repl.lag_us", if sh.replicated { lag_us } else { 0.0 }, "us");
    let degraded = num("repl.degraded_acks");
    o.push("repl.degraded_acks", degraded, "count");

    let redispatches = router_stats.as_ref().map_or(0.0, |s| {
        ["router.io_redispatch", "router.overload_redispatch"]
            .iter()
            .filter_map(|p| s.path(p).and_then(Json::as_f64))
            .sum()
    });
    o.push("router.hop_ms", hop_ms, "ms");
    o.push("router.redispatches", redispatches, "count");
    if degraded > 0.0 || redispatches > 0.0 {
        eprintln!("invalid run: {degraded} degraded acks, {redispatches} router redispatches");
        o.failed += 1;
    }

    let client_mean = mean(&tr.client_ms);
    let outside = client_mean - stage_mean(5);
    let unattributed = outside - (parse_us + encode_us) / 1e3 - hop_ms;
    o.push("client.outside_server_ms", outside, "ms");
    o.push("client.unattributed_ms", unattributed, "ms");
    eprintln!(
        "reconcile serving (means over {} traced submits): stages.total {:.4} + \
         client.outside_server {:.4} = client latency {:.4} ms; outside = parse {:.4} + encode \
         {:.4} + router hop {:.4} + unattributed {:.4} ms",
        tr.client_ms.len(),
        stage_mean(5),
        outside,
        client_mean,
        parse_us / 1e3,
        encode_us / 1e3,
        hop_ms,
        unattributed
    );

    o.push("scrape.metrics_ms", scrape_metrics_ms, "ms");
    o.push("scrape.metrics_bytes", scrape_bytes, "bytes");
    o.push("scrape.stats_ms", scrape_stats_ms, "ms");
    o.push("loadgen.late_ms", if sh.period.is_some() { mean(&plain.late_ms) } else { 0.0 }, "ms");
    o.push("trace.overhead_pct", overhead_pct, "%");
    Ok(o)
}

/// The same submit timed through the router and directly at the primary;
/// the hop is the difference of their medians once each reply's own
/// server time (`stages.total`) is taken out, so the flush timer cancels.
fn router_hop(cluster: &Cluster, pool: &Pool, k: usize) -> Result<(f64, u64), String> {
    let mut via = client(cluster.entry)?;
    let mut direct = client(cluster.primary)?;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for i in 0..40 {
        for (c, acc) in [(&mut via, &mut a), (&mut direct, &mut b)] {
            let t = Instant::now();
            match submit(c, pool, (i * k) % (POOL - k), k, true) {
                Ok(r) => {
                    let total_ms = r
                        .timing
                        .as_ref()
                        .and_then(|t| t.get("total_us"))
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN)
                        / 1e3;
                    acc.push(ms_since(t) - total_ms);
                }
                Err(e) => {
                    eprintln!("router-hop probe submit failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    Ok((median(&a) - median(&b), failed))
}

/// Timings of the `metrics` and `stats` verbs on a node no load thread
/// scrapes: (metrics ms, metrics bytes, stats ms), means of 20 each.
fn probe_scrapes(addr: SocketAddr) -> Result<(f64, f64, f64), String> {
    let mut c = client(addr)?;
    let (mut m, mut bytes, mut s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..20 {
        let t = Instant::now();
        let text = c.metrics().map_err(|e: ClientError| format!("metrics: {e}"))?;
        m.push(ms_since(t));
        bytes.push(text.len() as f64);
        let t = Instant::now();
        c.stats().map_err(|e| format!("stats: {e}"))?;
        s.push(ms_since(t));
    }
    Ok((mean(&m), mean(&bytes), mean(&s)))
}

/// `Algo::run_cached_bits` on one representative batch with a warm cache:
/// (median ms, outputs matched the reference).
fn probe_executor(pool: &Pool, batch_p: usize) -> (f64, bool) {
    let algo = Algo::parse(ALGO, Some(N)).expect("prefix-sums is in the catalog");
    let caches = ScheduleCaches::new();
    let inputs = &pool.inputs[..batch_p];
    let mut ok = algo.run_cached_bits(&caches, LAYOUT, inputs, 1) == pool.reference[..batch_p];
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 50 || start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        let out = algo.run_cached_bits(&caches, LAYOUT, inputs, 1);
        times.push(ms_since(t));
        ok &= out == pool.reference[..batch_p];
    }
    (median(&times), ok)
}

/// A representative submit line (`k` instances) and reply (a `batch_p`
/// batch's rider of `k` instances): (line bytes, parse µs, encode µs),
/// medians.
fn probe_protocol(pool: &Pool, k: usize, batch_p: usize) -> Result<(f64, f64, f64), String> {
    let req = Request::Submit { key: key(), inputs: pool.inputs[..k].to_vec(), timing: false };
    let line = req.to_json().to_compact();
    let outputs = &pool.reference[..k];
    let (mut parse, mut encode) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while parse.len() < 200 || start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        let parsed = Request::parse_line(std::hint::black_box(&line))?;
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed);
        let t = Instant::now();
        let reply = resp_outputs(outputs, batch_p, 0, 0, None).to_compact();
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(reply);
    }
    Ok((line.len() as f64, quantile(&parse, 0.5), quantile(&encode, 0.5)))
}

/// Zeros for the serving layers an offline workload never calls, so every
/// traced run prints the same metric names.
pub fn report_absent_serving_layers(o: &mut Outcome) {
    for (name, unit) in [
        ("executor.ms", "ms"),
        ("cache.compiles", "count"),
        ("cache.hit_rate", "ratio"),
        ("protocol.submit_bytes", "count"),
        ("protocol.parse_submit_us", "us"),
        ("protocol.encode_reply_us", "us"),
        ("stages.journal_ms", "ms"),
        ("stages.queue_ms", "ms"),
        ("stages.dispatch_ms", "ms"),
        ("stages.exec_ms", "ms"),
        ("stages.finalize_ms", "ms"),
        ("stages.total_ms", "ms"),
        ("queue.batch_p", "count"),
        ("wal.fsync_us", "us"),
        ("wal.group_commit_batch", "count"),
        ("wal.bytes_per_job", "bytes"),
        ("repl.lag_us", "us"),
        ("repl.degraded_acks", "count"),
        ("router.hop_ms", "ms"),
        ("router.redispatches", "count"),
        ("client.outside_server_ms", "ms"),
        ("client.unattributed_ms", "ms"),
        ("scrape.metrics_ms", "ms"),
        ("scrape.metrics_bytes", "bytes"),
        ("scrape.stats_ms", "ms"),
    ] {
        o.push(name, 0.0, unit);
    }
}
