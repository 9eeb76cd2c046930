//! The closed-loop load: what each workload sends, one client thread per
//! connection keeping [`DEPTH`] requests outstanding, and the checks
//! every reply passes on arrival.

use hint_core::{AllenRelation, Interval, RangeQuery};
use serve::{Client, ClientError, Reply, Request, Status, Transport};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Client connections, one thread each.
pub const CONNS: usize = 2;
/// Requests each connection keeps outstanding.
pub const DEPTH: usize = 64;
/// A connection sends a seal after every this many of its writes.
pub const SEAL_EVERY: u64 = 500;
/// Inserts a connection keeps live; at this count its next write
/// deletes its oldest insert instead, so the live count stays flat.
pub const LIVE_PER_CONN: usize = 256;
/// `k` of the top-k requests.
pub const TOP_K: u32 = 16;
/// The Allen relation the `ingest` mix asks for.
pub const ALLEN: AllenRelation = AllenRelation::Overlaps;
/// Writes per connection in the write probe that follows the read-only
/// workloads' measured phase; the probe sends them one at a time.
pub const PROBE_WRITES: u64 = 5_000;
/// Ids of inserted intervals start here, far above the generated ids.
const NEW_ID_BASE: u64 = 1 << 48;

/// Phases of a run, as seen by the client threads.
pub const WARM: u8 = 0;
/// Latencies count only for requests sent and completed in this phase.
pub const MEASURE: u8 = 1;
/// Clients stop sending and drain.
pub const STOP: u8 = 2;
/// Tag of the requests of the write probe.
const PROBE: u8 = 3;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stabbing queries on the TAXIS clone, read-only.
    Stab,
    /// 0.1%-extent range queries on the BOOKS clone, read-only.
    Scan,
    /// Range, top-k and Allen reads mixed with writes and seals on TAXIS.
    Ingest,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stab" => Some(Self::Stab),
            "scan" => Some(Self::Scan),
            "ingest" => Some(Self::Ingest),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Stab => "stab",
            Self::Scan => "scan",
            Self::Ingest => "ingest",
        }
    }
}

/// What an outstanding request asked for; range reads carry their
/// query-pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Range(u32),
    TopK,
    Allen,
    Insert,
    Delete,
    Seal,
}

impl Kind {
    fn is_read(self) -> bool {
        matches!(self, Kind::Range(_) | Kind::TopK | Kind::Allen)
    }
}

/// An outstanding request: its kind and the phase it was sent in.
#[derive(Debug, Clone, Copy)]
pub struct Tag {
    pub kind: Kind,
    pub phase: u8,
}

/// One completed request.
pub struct Done {
    pub tag: Tag,
    pub sent: Instant,
    /// When the first results chunk arrived (recorded only while
    /// tracing is on).
    pub first: Option<Instant>,
    pub end: Instant,
    pub reply: Reply,
    pub ids: usize,
}

/// Drives one connection in a closed loop: keeps `depth` requests from
/// `next` outstanding, hands every reply to `done`, and returns once
/// `next` is exhausted and every reply has arrived.
pub fn closed_loop<T: Transport>(
    client: &mut Client<T>,
    depth: usize,
    tracing: &AtomicBool,
    mut next: impl FnMut() -> Option<(Request, Tag)>,
    mut done: impl FnMut(Done),
) -> Result<(), ClientError> {
    let mut outstanding: VecDeque<(Tag, Instant)> = VecDeque::with_capacity(depth);
    loop {
        while outstanding.len() < depth {
            let Some((req, tag)) = next() else { break };
            let sent = Instant::now();
            client.send(&req)?;
            outstanding.push_back((tag, sent));
        }
        let Some((tag, sent)) = outstanding.pop_front() else {
            return Ok(());
        };
        let spans = tracing.load(Relaxed);
        let mut first = None;
        let mut ids = 0;
        let reply = client.recv_reply(|chunk| {
            if spans && first.is_none() {
                first = Some(Instant::now());
            }
            ids += chunk.len();
        })?;
        done(Done {
            tag,
            sent,
            first,
            end: Instant::now(),
            reply,
            ids,
        });
    }
}

/// A TCP connection whose read half counts the bytes it receives.
pub struct CountingTcp {
    pub stream: TcpStream,
    pub received: Arc<AtomicU64>,
}

/// The read half of a [`CountingTcp`].
pub struct CountingReader {
    inner: TcpStream,
    received: Arc<AtomicU64>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.received.fetch_add(n as u64, Relaxed);
        Ok(n)
    }
}

impl Transport for CountingTcp {
    type Reader = CountingReader;
    type Writer = TcpStream;

    fn split(self) -> io::Result<(CountingReader, TcpStream)> {
        self.stream.set_nodelay(true)?;
        let writer = self.stream.try_clone()?;
        Ok((
            CountingReader {
                inner: self.stream,
                received: self.received,
            },
            writer,
        ))
    }
}

/// Counters a connection publishes while it runs, read by the main
/// thread at phase boundaries.
#[derive(Default)]
pub struct Progress {
    /// Replies received.
    pub completed: AtomicU64,
    /// Bytes received from the server.
    pub received: Arc<AtomicU64>,
}

/// What every client thread reads.
pub struct Shared<'a> {
    pub workload: Workload,
    /// The seeded read pool: stabbing queries for `stab`, 0.1%-extent
    /// ranges otherwise.
    pub pool: &'a [RangeQuery],
    /// The generated intervals; inserts copy the duration of a random one.
    pub data: &'a [Interval],
    /// Domain length: points `0..domain`.
    pub domain: u64,
    pub phase: &'a AtomicU8,
    pub tracing: &'a AtomicBool,
    /// The instant sample times are taken relative to.
    pub base: Instant,
}

/// SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One connection's request stream, fixed by the seed and the
/// connection number.
pub struct Gen {
    rng: u64,
    conn: u64,
    seq: u64,
    writes: u64,
    seal_due: bool,
    /// This connection's inserts not yet deleted, oldest first.
    pub live: VecDeque<Interval>,
}

impl Gen {
    pub fn new(seed: u64, conn: usize) -> Self {
        let mut rng = seed ^ (conn as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        splitmix(&mut rng);
        Self {
            rng,
            conn: conn as u64,
            seq: 0,
            writes: 0,
            seal_due: false,
            live: VecDeque::new(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        splitmix(&mut self.rng) % n
    }

    /// The next request of the workload's mix.
    pub fn next(&mut self, sh: &Shared) -> (Request, Kind) {
        if self.seal_due {
            return self.write(sh);
        }
        let i = self.below(sh.pool.len() as u64) as u32;
        let q = sh.pool[i as usize];
        let roll = match sh.workload {
            Workload::Stab | Workload::Scan => 0,
            Workload::Ingest => self.below(100),
        };
        match roll {
            0..=79 => (Request::Query(q), Kind::Range(i)),
            80..=84 => (Request::TopK { k: TOP_K, q }, Kind::TopK),
            85..=89 => (Request::Allen { rel: ALLEN, q }, Kind::Allen),
            _ => self.write(sh),
        }
    }

    /// The next write: a seal when one is due, else an insert of a new
    /// interval, or the delete of this connection's oldest insert once
    /// [`LIVE_PER_CONN`] are live.
    pub fn write(&mut self, sh: &Shared) -> (Request, Kind) {
        if self.seal_due {
            self.seal_due = false;
            return (Request::Seal, Kind::Seal);
        }
        self.writes += 1;
        self.seal_due = self.writes.is_multiple_of(SEAL_EVERY);
        if self.live.len() < LIVE_PER_CONN {
            let model = sh.data[self.below(sh.data.len() as u64) as usize];
            let span = model.end - model.st;
            let st = self.below(sh.domain - span);
            let id = NEW_ID_BASE + (self.conn << 32) + self.seq;
            self.seq += 1;
            let s = Interval::new(id, st, st + span);
            self.live.push_back(s);
            (Request::Insert(s), Kind::Insert)
        } else {
            let s = self.live.pop_front().expect("LIVE_PER_CONN > 0");
            (Request::Delete(s), Kind::Delete)
        }
    }
}

/// Most check failures kept verbatim per connection.
const MAX_ERRORS: usize = 8;

/// One connection's tallies.
pub struct ConnStats {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Reply counts seen per query-pool index of range reads, as
    /// `(min, max)`; `(u64::MAX, 0)` when never asked.
    pub counts: Vec<(u64, u64)>,
    /// Reads sent and completed in the measured phase, as (completion
    /// time since [`Shared::base`], latency), in ns.
    pub reads: Vec<(u64, u64)>,
    /// Results of those reads.
    pub read_ids: u64,
    /// Ack latencies (ns) of inserts and deletes, measured phase or probe.
    pub write_ns: Vec<u64>,
    /// Seal latencies (ns), measured phase or probe.
    pub seal_ns: Vec<u64>,
    /// Traced reads: send to first results chunk, and first chunk to
    /// end trailer (ns).
    pub first_ns: Vec<u64>,
    pub stream_ns: Vec<u64>,
    pub errors: Vec<String>,
}

impl ConnStats {
    pub fn new(pool: usize) -> Self {
        Self {
            sent: 0,
            ok: 0,
            failed: 0,
            counts: vec![(u64::MAX, 0); pool],
            reads: Vec::new(),
            read_ids: 0,
            write_ns: Vec::new(),
            seal_ns: Vec::new(),
            first_ns: Vec::new(),
            stream_ns: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Checks one reply and records its timings.
    fn record(&mut self, d: Done, phase_now: u8, base: Instant) {
        let Done {
            tag,
            sent,
            first,
            end,
            reply,
            ids,
        } = d;
        if reply.status != Status::Ok {
            self.failed += 1;
            self.error(format!("{:?} answered {:?}", tag.kind, reply.status));
            return;
        }
        self.ok += 1;
        let bad = match tag.kind {
            Kind::Range(i) => {
                let c = &mut self.counts[i as usize];
                *c = (c.0.min(reply.count), c.1.max(reply.count));
                ids as u64 != reply.count
            }
            Kind::TopK => ids as u64 != reply.count || reply.count > TOP_K as u64,
            Kind::Allen => ids as u64 != reply.count,
            Kind::Insert | Kind::Delete => reply.count != 1,
            Kind::Seal => false,
        };
        if bad {
            self.error(format!(
                "{:?}: trailer count {} with {ids} ids streamed",
                tag.kind, reply.count
            ));
        }
        let ns = (end - sent).as_nanos() as u64;
        let measured = (tag.phase == MEASURE && phase_now == MEASURE) || tag.phase == PROBE;
        if !measured {
            return;
        }
        match tag.kind {
            k if k.is_read() => {
                self.reads.push(((end - base).as_nanos() as u64, ns));
                self.read_ids += reply.count;
                if let Some(f) = first {
                    self.first_ns.push((f - sent).as_nanos() as u64);
                    self.stream_ns.push((end - f).as_nanos() as u64);
                }
            }
            Kind::Seal => self.seal_ns.push(ns),
            _ => self.write_ns.push(ns),
        }
    }
}

/// A client thread: runs the workload's mix until the phase turns to
/// [`STOP`], drains, and for the read-only workloads then runs the write
/// probe, one write at a time. Returns the client for the final checks.
pub fn run_conn<T: Transport>(
    mut client: Client<T>,
    gen: &mut Gen,
    sh: &Shared,
    progress: &Progress,
) -> (Client<T>, ConnStats) {
    let mut st = ConnStats::new(sh.pool.len());
    let mut sent = 0u64;
    let tally = |st: &mut ConnStats, d: Done| {
        progress.completed.fetch_add(1, Relaxed);
        st.record(d, sh.phase.load(Relaxed), sh.base);
    };
    let res = closed_loop(
        &mut client,
        DEPTH,
        sh.tracing,
        || {
            let phase = sh.phase.load(Relaxed);
            if phase == STOP {
                return None;
            }
            let (req, kind) = gen.next(sh);
            sent += 1;
            Some((req, Tag { kind, phase }))
        },
        |d| tally(&mut st, d),
    );
    if let Err(e) = res {
        st.failed += 1;
        st.error(format!("connection failed: {e}"));
        st.sent = sent;
        return (client, st);
    }
    if sh.workload != Workload::Ingest {
        let untraced = AtomicBool::new(false);
        let res = closed_loop(
            &mut client,
            1,
            &untraced,
            || {
                if gen.writes >= PROBE_WRITES && !gen.seal_due {
                    return None;
                }
                let (req, kind) = gen.write(sh);
                sent += 1;
                Some((req, Tag { kind, phase: PROBE }))
            },
            |d| tally(&mut st, d),
        );
        if let Err(e) = res {
            st.failed += 1;
            st.error(format!("connection failed in the write probe: {e}"));
        }
    }
    st.sent = sent;
    (client, st)
}
