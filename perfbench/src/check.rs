//! Correctness checks that need a reference: served counts against the
//! library's direct counts, and a probe over the wire against
//! `ScanOracle` and the library's top-k and Allen sinks on the final
//! live set.

use crate::load::{ConnStats, Workload, ALLEN, CONNS, LIVE_PER_CONN, TOP_K};
use hint_core::{
    HintMSubs, Interval, IntervalIndex, RangeQuery, RelationFilter, ScanOracle, ShardedIndex,
    SortedRecords, TopKByDuration,
};
use serve::{Client, Transport};

/// Range queries, top-k and Allen requests in the final probe.
const PROBE_RANGES: usize = 32;
const PROBE_BOUNDED: usize = 16;
/// Mismatching queries reported one by one.
const MAX_REPORTED: usize = 8;

/// Compares every served range count with the direct count on the
/// generated data. Read-only workloads must match exactly; under
/// `ingest` the generated intervals are never deleted and at most
/// `CONNS * LIVE_PER_CONN` inserts are live, which bounds the count.
pub fn served_counts(
    workload: Workload,
    pool: &[RangeQuery],
    reference: &ShardedIndex<HintMSubs>,
    stats: &[ConnStats],
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut mismatches = 0;
    let slack = match workload {
        Workload::Ingest => (CONNS * LIVE_PER_CONN) as u64,
        Workload::Stab | Workload::Scan => 0,
    };
    for (i, &q) in pool.iter().enumerate() {
        let (lo, hi) = stats
            .iter()
            .map(|s| s.counts[i])
            .fold((u64::MAX, 0), |a, c| (a.0.min(c.0), a.1.max(c.1)));
        if lo > hi {
            continue; // never asked
        }
        let direct = reference.count(q) as u64;
        if lo < direct || hi > direct + slack {
            mismatches += 1;
            if errors.len() < MAX_REPORTED {
                errors.push(format!(
                    "query {q:?}: served counts {lo}..={hi}, direct count {direct} (+{slack})"
                ));
            }
        }
    }
    if mismatches > errors.len() {
        errors.push(format!("{mismatches} queries served wrong counts in all"));
    }
    errors
}

/// The outcome of the final probe.
pub struct Probe {
    pub sent: u64,
    /// Requests answered with an error or lost to the transport.
    pub failed: u64,
    /// Every failure and every answer that differs from the library.
    pub errors: Vec<String>,
}

/// Sends the probe set over `client` and compares each answer with the
/// library evaluated on `live`, the final live set.
pub fn final_probe<T: Transport>(
    client: &mut Client<T>,
    pool: &[RangeQuery],
    live: &[Interval],
    domain: u64,
) -> Probe {
    let mut errors = Vec::new();
    let mut sent = 0;
    let mut failed = 0;
    let oracle = ScanOracle::new(live);
    let mut by_id = live.to_vec();
    by_id.sort_unstable_by_key(|s| s.id);
    let records = SortedRecords(&by_id);
    let mut report = |what: &str,
                      q: RangeQuery,
                      served: Result<Vec<u64>, serve::ClientError>,
                      want: Vec<u64>| {
        match served {
            Ok(got) if got == want => {}
            Ok(got) => errors.push(format!(
                "{what} {q:?}: served {} ids, library {}",
                got.len(),
                want.len()
            )),
            Err(e) => {
                failed += 1;
                errors.push(format!("{what} {q:?}: {e}"));
            }
        }
    };
    for &q in &pool[..PROBE_RANGES.min(pool.len())] {
        sent += 1;
        let served = client.query(q).map(sorted);
        let mut want = Vec::new();
        oracle.query(q, &mut want);
        report("range", q, served, sorted(want));
    }
    for &q in &pool[..PROBE_BOUNDED.min(pool.len())] {
        sent += 2;
        let served = client.top_k(TOP_K, q);
        let mut top = TopKByDuration::new(TOP_K as usize, records);
        oracle.query_sink(q, &mut top);
        report("top-k", q, served, top.into_ids());

        let served = client.allen(ALLEN, q).map(sorted);
        let mut want = Vec::new();
        if let Some(probe) = ALLEN.probe(q, 0, domain - 1) {
            let mut filter = RelationFilter::new(ALLEN, q, records, &mut want);
            oracle.query_sink(probe, &mut filter);
        }
        report("allen", q, served, sorted(want));
    }
    Probe {
        sent,
        failed,
        errors,
    }
}

fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}
