//! The serve benchmark: one workload against a real server on TCP
//! loopback, in one process.
//!
//! ```text
//! perfbench --workload stab|scan|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Two client threads, one connection each, keep 64 requests
//! outstanding per connection (a closed loop) against a server over a
//! 2-shard `HintMSubs` index. The run sets up the server, warms up,
//! measures for `--seconds`, checks every reply and a probe set against
//! the library, and prints the metrics as the last line of stdout, one
//! JSON object. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! prints the per-layer metrics of `DESIGN.md`. Every number comes from
//! outside the program: timed calls into public functions, the kernel's
//! per-thread accounting and the counters public APIs expose.

mod check;
mod layers;
mod load;
mod procfs;

use bench::datasets::{self, Dataset};
use bench::experiments::{model_m, DEFAULT_EXTENT};
use bench::RunConfig;
use hint_core::{
    Domain, HintMSubs, IntervalIndex, RangeQuery, RetunePolicy, Session, ShardedIndex, SubsConfig,
};
use layers::median;
use load::{ConnStats, Gen, Progress, Shared, Workload, CONNS, DEPTH, MEASURE, STOP, WARM};
use serve::{BatchStats, Client, ServeConfig, Server};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering::Relaxed};
use std::time::{Duration, Instant};
use workloads::queries::QueryWorkload;
use workloads::realistic::RealDataset;

/// Shards of the served index.
const SHARDS: usize = 2;
/// Queries in the seeded read pool.
const POOL: usize = 4_096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The measured phase is cut into slices this long; throughput, CPU
/// time per request and the latency percentiles are medians over the
/// slices. A traced run alternates untraced and traced slices.
const SLICE: Duration = Duration::from_secs(1);
/// A slice in which the hypervisor gave more than this share of the
/// machine's CPU time to other guests measures them, not the program: it
/// is left out of the medians and another slice is measured in its
/// place, up to half again the planned number of slices.
const MAX_STEAL: f64 = 0.05;

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload stab|scan|ingest --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The run's set-up time, split by step (seconds).
#[derive(Clone, Copy)]
struct SetupTimes {
    build: f64,
    session: f64,
    server: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.build + self.session + self.server
    }
}

/// Sets the server up: chooses `m`, builds the sharded index, wraps it
/// in a session (seal and pool spawn) and starts the server on a
/// loopback listener. Returns the server, its address and the
/// unsharded `m`.
fn setup(ds: &Dataset) -> (Server, SocketAddr, u32, SetupTimes) {
    let t0 = Instant::now();
    let m = model_m(ds, DEFAULT_EXTENT, RunConfig::default().max_m);
    // K = 2 shards one level shallower keep the unsharded partition width
    let m_shard = m.saturating_sub(SHARDS.trailing_zeros()).max(1);
    let index = ShardedIndex::build_with_domain(&ds.data, 0, ds.domain - 1, SHARDS, |s, lo, hi| {
        HintMSubs::build_with_domain(s, Domain::new(lo, hi, m_shard), SubsConfig::full())
    });
    let t1 = Instant::now();
    let session = Session::with_retune(index, RetunePolicy::Off);
    let t2 = Instant::now();
    let mut server = Server::start(session, ServeConfig::default()).expect("start the server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.listen_tcp(listener).expect("listen");
    let t3 = Instant::now();
    let times = SetupTimes {
        build: (t1 - t0).as_secs_f64(),
        session: (t2 - t1).as_secs_f64(),
        server: (t3 - t2).as_secs_f64(),
    };
    (server, addr, m, times)
}

/// The reference index the served counts are checked against: the
/// served index's construction, untimed.
fn reference(ds: &Dataset, m: u32) -> ShardedIndex<HintMSubs> {
    let m_shard = m.saturating_sub(SHARDS.trailing_zeros()).max(1);
    let mut index =
        ShardedIndex::build_with_domain(&ds.data, 0, ds.domain - 1, SHARDS, |s, lo, hi| {
            HintMSubs::build_with_domain(s, Domain::new(lo, hi, m_shard), SubsConfig::full())
        });
    index.seal();
    index
}

/// Thread groups of the per-thread accounting: a thread-name prefix and
/// its group. Every other thread (the main thread, the acceptor) is in
/// `other`.
const GROUPS: [(&str, &str); 5] = [
    ("serve-read-", "serve.reader"),
    ("serve-scheduler", "serve.scheduler"),
    ("serve-write-", "serve.writer"),
    ("hint-shard-", "pool.worker"),
    ("bench-client-", "client"),
];

fn group(name: &str) -> &'static str {
    GROUPS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("other", |g| g.1)
}

/// `p`-quantile (0..=1) of a sorted sample, nearest rank.
fn quantile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // the library reads HINT_* knobs (retune policy, read replicas,
    // shard threads, ...); the benchmark runs only the defaults
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HINT_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with {} set: the benchmark pins the default configuration",
            knobs.join(", ")
        );
        std::process::exit(2);
    }
    let ok = run(&args);
    std::process::exit(if ok { 0 } else { 1 });
}

/// What the main thread measured across the measured phase.
struct Phase {
    /// Replies completed.
    ops: u64,
    /// Process CPU time (ns).
    cpu_ns: u64,
    /// Bytes the clients received.
    received: u64,
    batch0: BatchStats,
    batch1: BatchStats,
    threads0: HashMap<u64, procfs::ThreadTimes>,
    threads1: HashMap<u64, procfs::ThreadTimes>,
    slices: Vec<Slice>,
}

/// One slice of the measured phase.
struct Slice {
    /// Bounds, in ns since [`Shared::base`].
    start: u64,
    end: u64,
    /// CPU time of every thread (ns).
    cpu_ns: u64,
    /// Replies completed.
    ops: u64,
    /// Whether request spans were recorded.
    traced: bool,
    /// Whether other guests took more than [`MAX_STEAL`] of the CPUs.
    stolen: bool,
}

impl Phase {
    fn per_op(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.ops as f64
    }

    /// The slices the medians are taken over: those other guests left
    /// alone, or every slice when there is none.
    fn measured(&self) -> Vec<&Slice> {
        let clean: Vec<&Slice> = self.slices.iter().filter(|s| !s.stolen).collect();
        if clean.is_empty() {
            self.slices.iter().collect()
        } else {
            clean
        }
    }

    /// Mean queries per batch.
    fn mean_batch(&self) -> f64 {
        let batches = self.batch1.batches - self.batch0.batches;
        (self.batch1.queries - self.batch0.queries) as f64 / batches.max(1) as f64
    }
}

/// Starts one client thread per connection, warms up for 15% of
/// `--seconds` (0.3–1.5 s), measures for `--seconds`, stops the clients
/// and returns what was measured with each connection's client and
/// tallies.
fn drive(
    server: &Server,
    clients: Vec<Client<load::CountingTcp>>,
    gens: &mut [Gen],
    shared: &Shared,
    progress: &[Progress],
    args: &Args,
) -> (Phase, Vec<(Client<load::CountingTcp>, ConnStats)>) {
    let warmup = Duration::from_secs_f64((args.seconds * 0.15).clamp(0.3, 1.5));
    let measure = Duration::from_secs_f64(args.seconds);
    let trace = args.trace;
    let completed = || {
        progress
            .iter()
            .map(|p| p.completed.load(Relaxed))
            .sum::<u64>()
    };
    let received = || {
        progress
            .iter()
            .map(|p| p.received.load(Relaxed))
            .sum::<u64>()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(gens.iter_mut())
            .zip(progress)
            .enumerate()
            .map(|(c, ((client, gen), p))| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(s, move || load::run_conn(client, gen, shared, p))
                    .expect("spawn a client thread")
            })
            .collect();
        std::thread::sleep(warmup);
        let batch0 = server.stats();
        let threads0 = procfs::threads();
        let cpu0 = procfs::process_cpu_ns();
        let (ops0, received0) = (completed(), received());
        shared.phase.store(MEASURE, Relaxed);
        let mut slices = Vec::new();
        let since_base = || shared.base.elapsed().as_nanos() as u64;
        let planned = ((measure.as_secs_f64() / SLICE.as_secs_f64()).round() as usize)
            .max(if trace { 2 } else { 1 });
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
        let mut clean = 0;
        while clean < planned && slices.len() < planned + planned / 2 {
            // a traced run alternates untraced and traced slices: their
            // difference is the tracing overhead
            let traced = trace && slices.len() % 2 == 1;
            shared.tracing.store(traced, Relaxed);
            let (start, cpu0, ops0) = (since_base(), procfs::threads_run_ns(), completed());
            let steal0 = procfs::steal_ns();
            std::thread::sleep(SLICE);
            let end = since_base();
            let steal = (procfs::steal_ns() - steal0) as f64;
            let stolen = steal > MAX_STEAL * cores * (end - start) as f64;
            clean += usize::from(!stolen);
            slices.push(Slice {
                cpu_ns: procfs::threads_run_ns() - cpu0,
                ops: completed() - ops0,
                end,
                start,
                traced,
                stolen,
            });
        }
        let phase = Phase {
            cpu_ns: procfs::process_cpu_ns() - cpu0,
            threads1: procfs::threads(),
            ops: completed() - ops0,
            received: received() - received0,
            batch1: server.stats(),
            batch0,
            threads0,
            slices,
        };
        shared.phase.store(STOP, Relaxed);
        shared.tracing.store(false, Relaxed);
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (phase, conns)
    })
}

fn run(args: &Args) -> bool {
    let workload = args.workload;
    let rc = RunConfig {
        seed: args.seed,
        ..RunConfig::default()
    };
    let ds = datasets::real(
        match workload {
            Workload::Scan => RealDataset::Books,
            Workload::Stab | Workload::Ingest => RealDataset::Taxis,
        },
        &rc,
    );
    let pool_seed = args.seed ^ 0x5EED_F00D_9001;
    let pool: Vec<RangeQuery> = match workload {
        Workload::Stab => QueryWorkload::stabbing(0, ds.domain - 1, POOL, pool_seed),
        Workload::Scan | Workload::Ingest => {
            let extent = ((ds.domain as f64 * DEFAULT_EXTENT) as u64).max(1);
            QueryWorkload::uniform(0, ds.domain - 1, extent, POOL, pool_seed)
        }
    }
    .queries()
    .to_vec();
    let n = ds.data.len();

    // ---- set-up, the first of SETUPS; memory is measured across it
    let rss0 = procfs::rss_bytes();
    let (server, addr, m, first_setup) = setup(&ds);
    let mem_bytes = procfs::rss_bytes().saturating_sub(rss0);

    // ---- load
    let progress: Vec<Progress> = (0..CONNS).map(|_| Progress::default()).collect();
    let clients = progress
        .iter()
        .map(|p| {
            let stream = TcpStream::connect(addr).expect("connect to the server");
            Client::new(load::CountingTcp {
                stream,
                received: p.received.clone(),
            })
            .expect("split the connection")
        })
        .collect();
    let mut gens: Vec<Gen> = (0..CONNS).map(|c| Gen::new(args.seed, c)).collect();
    let (phase, tracing) = (AtomicU8::new(WARM), AtomicBool::new(false));
    let shared = Shared {
        workload,
        pool: &pool,
        data: &ds.data,
        domain: ds.domain,
        phase: &phase,
        tracing: &tracing,
        base: Instant::now(),
    };
    let (ph, conns) = drive(&server, clients, &mut gens, &shared, &progress, args);
    let (mut clients, stats): (Vec<_>, Vec<ConnStats>) = conns.into_iter().unzip();

    // ---- checks: every reply as it came, then a probe set on the final
    // live set, then every served count against the library
    let mut errors: Vec<String> = stats.iter().flat_map(|s| s.errors.clone()).collect();
    let mut sent: u64 = stats.iter().map(|s| s.sent).sum();
    let mut ok: u64 = stats.iter().map(|s| s.ok).sum();
    let mut failed: u64 = stats.iter().map(|s| s.failed).sum();
    let live: Vec<_> = ds
        .data
        .iter()
        .copied()
        .chain(gens.iter().flat_map(|g| g.live.iter().copied()))
        .collect();
    let probe = check::final_probe(&mut clients[0], &pool, &live, ds.domain);
    sent += probe.sent;
    ok += probe.sent - probe.failed;
    failed += probe.failed;
    errors.extend(probe.errors);
    drop(clients);
    let shed = server.stats().shed;
    server.shutdown();
    let reference = reference(&ds, m);
    errors.extend(check::served_counts(workload, &pool, &reference, &stats));

    // ---- the remaining set-ups, timed alone
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (server, _, _, t) = setup(&ds);
        server.shutdown();
        setups.push(t);
    }

    let mut reads: Vec<(u64, u64)> = stats.iter().flat_map(|s| s.reads.iter().copied()).collect();
    reads.sort_unstable();
    let write_ns = sorted(
        stats
            .iter()
            .flat_map(|s| s.write_ns.iter().copied())
            .collect(),
    );
    let seal_ns = sorted(
        stats
            .iter()
            .flat_map(|s| s.seal_ns.iter().copied())
            .collect(),
    );
    println!(
        "perfbench {} | {} n={} domain={} m={} m_shard={} K={} seed={} conns={} depth={} \
         seconds={} available_parallelism={}",
        workload.name(),
        ds.name,
        n,
        ds.domain,
        m,
        m.saturating_sub(SHARDS.trailing_zeros()).max(1),
        SHARDS,
        args.seed,
        CONNS,
        DEPTH,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    );
    println!(
        "requests sent={sent} ok={ok} failed={failed} shed={shed} | samples reads={} writes={} \
         seals={} | mean batch {:.2}",
        reads.len(),
        write_ns.len(),
        seal_ns.len(),
        ph.mean_batch(),
    );
    println!(
        "slices: {} of 1 s, {} left out for steal above {}% of the CPUs",
        ph.slices.len(),
        ph.slices.iter().filter(|s| s.stolen).count(),
        MAX_STEAL * 100.0,
    );
    if reads.is_empty() || write_ns.is_empty() || seal_ns.is_empty() || ph.ops == 0 {
        println!("the run completed too few requests to measure");
        return false;
    }

    let [qps, cpu, p50, p99] = slice_medians(&ph.measured(), &reads);
    let mut metrics = vec![
        Metric::new("throughput_qps", qps, "1/s"),
        Metric::new("p50_us", p50 / 1e3, "us"),
        Metric::new("p99_us", p99 / 1e3, "us"),
        Metric::new("cpu_us_per_op", cpu / 1e3, "us"),
        Metric::new(
            "setup_s",
            median(setups.iter().map(SetupTimes::total).collect()),
            "s",
        ),
        Metric::new("mem_bytes_per_interval", mem_bytes as f64 / n as f64, "B"),
    ];
    // per-layer: under `stab` and `scan` they come from the write probe,
    // whose figures spread too widely across runs to bound
    let writes = [
        Metric::new("write_p50_us", quantile(&write_ns, 0.50) / 1e3, "us"),
        Metric::new("seal_p50_ms", quantile(&seal_ns, 0.50) / 1e6, "ms"),
    ];
    for m in metrics.iter().chain(&writes) {
        println!("  {:<24} {:>14.3} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        metrics = per_layer(&ph, &stats, &setups, &mut errors);
        metrics.extend(writes);
        // the layered pass reads the workload's pool: stabs, or ranges
        let (chunk, budget) = match workload {
            Workload::Stab => (2_048, 3.0),
            Workload::Scan => (512, 3.0),
            Workload::Ingest => (1_024, 3.0),
        };
        metrics.extend(layers::run(&layers::Inputs {
            data: &ds.data,
            domain: ds.domain,
            m,
            sharded: &reference,
            queries: &pool,
            chunk,
            batch: (ph.mean_batch().round() as usize).clamp(1, 64),
            budget: Duration::from_secs_f64(budget),
        }));
    }

    for e in &errors {
        println!("check failed: {e}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        println!("{} is not a number", m.name);
        return false;
    }
    let correct = errors.is_empty() && failed == 0 && shed == 0;
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {sent}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    correct
}

/// Medians over the slices of the measured phase of throughput (1/s),
/// CPU time per reply (ns), and the p50 and p99 read latency (ns) of the
/// reads completed in each slice. `reads` is sorted by completion time.
fn slice_medians(slices: &[&Slice], reads: &[(u64, u64)]) -> [f64; 4] {
    let (mut qps, mut cpu, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in slices {
        qps.push(s.ops as f64 / ((s.end - s.start) as f64 / 1e9));
        cpu.push(s.cpu_ns as f64 / s.ops.max(1) as f64);
        let lo = reads.partition_point(|r| r.0 < s.start);
        let hi = reads.partition_point(|r| r.0 < s.end);
        if hi > lo {
            let lat = sorted(reads[lo..hi].iter().map(|r| r.1).collect());
            p50.push(quantile(&lat, 0.50));
            p99.push(quantile(&lat, 0.99));
        }
    }
    [median(qps), median(cpu), median(p50), median(p99)]
}

/// The per-layer metrics a traced run measured around the load: thread
/// groups, tracing overhead, request spans and the public counters.
fn per_layer(
    ph: &Phase,
    stats: &[ConnStats],
    setups: &[SetupTimes],
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let groups = procfs::group_deltas(&ph.threads0, &ph.threads1, group);
    let mut group_sum = 0;
    for g in GROUPS.iter().map(|g| g.1).chain(["other"]) {
        let (run, wait) = groups.get(g).copied().unwrap_or((0, 0));
        group_sum += run;
        out.push(Metric::new(
            &format!("{g}.cpu_us_per_op"),
            ph.per_op(run),
            "us",
        ));
        out.push(Metric::new(
            &format!("{g}.wait_us_per_op"),
            ph.per_op(wait),
            "us",
        ));
    }
    out.push(Metric::new(
        "process.cpu_us_per_op",
        ph.per_op(ph.cpu_ns),
        "us",
    ));
    let share = group_sum as f64 / ph.cpu_ns as f64;
    println!("thread groups sum to {share:.4} of the process CPU time");
    if (share - 1.0).abs() > 0.03 {
        errors.push(format!(
            "thread groups sum to {share:.4} of the process CPU time"
        ));
    }
    // slices of one kind (traced or not) that other guests left alone, or
    // all of that kind when there is none
    let cpu_per_op = |traced: bool| {
        let per_op = |s: &Slice| s.cpu_ns as f64 / 1e3 / s.ops.max(1) as f64;
        let kind = ph.slices.iter().filter(|s| s.traced == traced);
        let clean: Vec<f64> = kind.clone().filter(|s| !s.stolen).map(per_op).collect();
        median(if clean.is_empty() {
            kind.map(per_op).collect()
        } else {
            clean
        })
    };
    out.push(Metric::new(
        "trace.overhead_us_per_op",
        cpu_per_op(true) - cpu_per_op(false),
        "us",
    ));
    let first_ns = sorted(
        stats
            .iter()
            .flat_map(|s| s.first_ns.iter().copied())
            .collect(),
    );
    let stream_ns = sorted(
        stats
            .iter()
            .flat_map(|s| s.stream_ns.iter().copied())
            .collect(),
    );
    if first_ns.is_empty() {
        errors.push("no traced request streamed results".into());
    } else {
        out.push(Metric::new(
            "client.first_result_us",
            quantile(&first_ns, 0.5) / 1e3,
            "us",
        ));
        out.push(Metric::new(
            "client.stream_us",
            quantile(&stream_ns, 0.5) / 1e3,
            "us",
        ));
    }
    let reads: usize = stats.iter().map(|s| s.reads.len()).sum();
    let read_ids: u64 = stats.iter().map(|s| s.read_ids).sum();
    let (b0, b1) = (&ph.batch0, &ph.batch1);
    out.extend([
        Metric::new(
            "hintm.results_per_query",
            read_ids as f64 / reads.max(1) as f64,
            "count",
        ),
        Metric::new(
            "proto.reply_bytes_per_query",
            ph.received as f64 / ph.ops as f64,
            "B",
        ),
        Metric::new("server.mean_batch", ph.mean_batch(), "count"),
        Metric::new("server.shed", (b1.shed - b0.shed) as f64, "count"),
        Metric::new("server.cur_window", b1.cur_window as f64, "count"),
        Metric::new(
            "setup.build_s",
            median(setups.iter().map(|t| t.build).collect()),
            "s",
        ),
        Metric::new(
            "setup.session_s",
            median(setups.iter().map(|t| t.session).collect()),
            "s",
        ),
        Metric::new(
            "setup.server_s",
            median(setups.iter().map(|t| t.server).collect()),
            "s",
        ),
    ]);
    out
}
