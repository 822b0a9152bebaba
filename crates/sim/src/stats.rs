//! Measurement: per-transaction latency, stage breakdowns, throughput over
//! time.
//!
//! The collector mirrors the metrics reported in the paper's evaluation:
//!
//! * **throughput** — transactions confirmed to clients per second (§VII-B);
//! * **latency** — end-to-end delay from submission until the client has
//!   `f + 1` replies (§VII-B);
//! * **latency breakdown** — the five stages of Fig. 6: sending,
//!   pre-processing, partial ordering, global ordering, reply;
//! * **time series** — throughput and latency averaged over 0.5 s intervals
//!   (Fig. 7).

use orthrus_types::{Duration, SimTime, TxId, TxMap, TxTable};
use std::sync::Arc;

/// The processing stages a transaction passes through (paper §VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyStage {
    /// Client sent the transaction → first replica received it.
    Send,
    /// Replica received the transaction → the transaction was included in a
    /// broadcast block.
    Preprocess,
    /// Block broadcast → block delivered by its SB instance.
    PartialOrdering,
    /// Block delivered → transaction confirmed (globally ordered and
    /// executed, or fast-path executed for Orthrus payments).
    GlobalOrdering,
    /// Replica confirmation → client holds `f + 1` matching replies.
    Reply,
}

impl LatencyStage {
    /// All stages in pipeline order.
    pub const ALL: [LatencyStage; 5] = [
        LatencyStage::Send,
        LatencyStage::Preprocess,
        LatencyStage::PartialOrdering,
        LatencyStage::GlobalOrdering,
        LatencyStage::Reply,
    ];

    fn index(self) -> usize {
        match self {
            LatencyStage::Send => 0,
            LatencyStage::Preprocess => 1,
            LatencyStage::PartialOrdering => 2,
            LatencyStage::GlobalOrdering => 3,
            LatencyStage::Reply => 4,
        }
    }

    /// Human-readable label matching Fig. 6's legend.
    pub fn label(self) -> &'static str {
        match self {
            LatencyStage::Send => "Send",
            LatencyStage::Preprocess => "Preprocessing",
            LatencyStage::PartialOrdering => "Partial ordering",
            LatencyStage::GlobalOrdering => "Global ordering",
            LatencyStage::Reply => "Reply",
        }
    }
}

/// A first-write-wins timestamp in one word, holding the time in µs plus
/// one: zero stands for "not reached yet", so a fresh record is all zeroes.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp(u64);

impl Stamp {
    fn is_set(self) -> bool {
        self.0 != 0
    }

    fn get(self) -> Option<SimTime> {
        self.is_set().then(|| SimTime(self.0 - 1))
    }

    /// Record `now` unless a time is already recorded.
    fn set_once(&mut self, now: SimTime) {
        if !self.is_set() {
            self.0 = now.as_micros() + 1;
        }
    }
}

/// Per-transaction timing record: seven one-word stamps, one cache line.
#[derive(Debug, Clone, Default)]
struct TxRecord {
    submitted: Stamp,
    /// First time each stage completed (indexed by [`LatencyStage::index`]).
    stages: [Stamp; 5],
    confirmed: Stamp,
}

/// One point of a throughput or latency time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// End of the measurement bucket, in seconds of virtual time.
    pub time_s: f64,
    /// Value of the metric in this bucket (ktps for throughput, seconds for
    /// latency).
    pub value: f64,
}

/// Average time spent in each stage (Fig. 6 / Fig. 1b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Average sending delay.
    pub send: Duration,
    /// Average pre-processing delay.
    pub preprocess: Duration,
    /// Average partial-ordering (consensus) delay.
    pub partial_ordering: Duration,
    /// Average global-ordering delay.
    pub global_ordering: Duration,
    /// Average reply delay.
    pub reply: Duration,
}

impl LatencyBreakdown {
    /// Total end-to-end latency implied by the breakdown.
    pub fn total(&self) -> Duration {
        self.send + self.preprocess + self.partial_ordering + self.global_ordering + self.reply
    }

    /// Fraction of the total latency attributable to global ordering (the
    /// paper reports up to 92.8% for ISS with a straggler).
    pub fn global_ordering_share(&self) -> f64 {
        let total = self.total().as_micros();
        if total == 0 {
            0.0
        } else {
            self.global_ordering.as_micros() as f64 / total as f64
        }
    }
}

/// Collector of all simulation metrics.
#[derive(Debug, Default)]
pub struct StatsCollector {
    /// One record per transaction any stage was reported for.
    txs: TxMap<TxRecord>,
    /// Total number of blocks delivered by SB instances.
    pub blocks_delivered: u64,
    /// Total number of view changes completed.
    pub view_changes: u64,
    /// Total protocol messages sent (filled in by the engine).
    pub messages_sent: u64,
    /// Total protocol bytes sent (filled in by the engine).
    pub bytes_sent: u64,
    /// Sum of sim-time (µs) data blocks spent at the global-ordering
    /// barrier: from their SB instance's delivery until the replica executed
    /// them from the glog (the bottleneck HYDRA, arXiv:2511.05843, removes).
    pub glog_wait_total_us: u64,
    /// Number of glog-wait samples behind [`Self::glog_wait_total_us`].
    pub glog_wait_count: u64,
    /// Largest single glog wait observed, in µs.
    pub glog_wait_max_us: u64,
}

impl StatsCollector {
    /// Create an empty collector with no transaction table: every record
    /// lives in the table's hashed overflow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty collector whose records are slot-indexed by the run's
    /// transaction table.
    pub fn with_table(table: Arc<TxTable>) -> Self {
        Self {
            txs: TxMap::new(table),
            ..Self::default()
        }
    }

    /// Lookups of ids outside the collector's transaction table, by any
    /// container sharing it (see [`TxTable::misses`]).
    pub fn tx_table_misses(&self) -> u64 {
        self.txs.table().misses()
    }

    fn record(&mut self, id: TxId) -> &mut TxRecord {
        self.txs.get_or_insert_with(id, TxRecord::default)
    }

    /// Record that a client submitted a transaction.
    pub fn tx_submitted(&mut self, id: TxId, now: SimTime) {
        self.record(id).submitted.set_once(now);
    }

    /// Record the first completion time of a pipeline stage for `id`.
    pub fn stage_reached(&mut self, id: TxId, stage: LatencyStage, now: SimTime) {
        self.record(id).stages[stage.index()].set_once(now);
    }

    /// Record that the client collected `f + 1` replies for `id`.
    pub fn tx_confirmed(&mut self, id: TxId, now: SimTime) {
        let entry = self.record(id);
        if !entry.confirmed.is_set() {
            entry.confirmed.set_once(now);
            entry.stages[LatencyStage::Reply.index()].set_once(now);
        }
    }

    /// Record one delivered block.
    pub fn block_delivered(&mut self) {
        self.blocks_delivered += 1;
    }

    /// Record one completed view change.
    pub fn view_change_completed(&mut self) {
        self.view_changes += 1;
    }

    /// Record how long a data block waited at the global-ordering barrier
    /// (sim-time from its instance's delivery to its execution from the
    /// glog).
    pub fn glog_wait(&mut self, wait: Duration) {
        let us = wait.as_micros();
        self.glog_wait_total_us += us;
        self.glog_wait_count += 1;
        self.glog_wait_max_us = self.glog_wait_max_us.max(us);
    }

    /// Mean glog wait in µs (0 when nothing was measured).
    pub fn glog_wait_mean_us(&self) -> f64 {
        if self.glog_wait_count == 0 {
            0.0
        } else {
            self.glog_wait_total_us as f64 / self.glog_wait_count as f64
        }
    }

    /// Number of transactions submitted.
    pub fn submitted_count(&self) -> usize {
        self.txs.values().filter(|r| r.submitted.is_set()).count()
    }

    /// Number of transactions confirmed (successfully or not).
    pub fn confirmed_count(&self) -> usize {
        self.txs.values().filter(|r| r.confirmed.is_set()).count()
    }

    /// End-to-end latencies of all confirmed transactions.
    pub fn latencies(&self) -> Vec<Duration> {
        self.txs
            .values()
            .filter_map(|r| match (r.submitted.get(), r.confirmed.get()) {
                (Some(s), Some(c)) => Some(c - s),
                _ => None,
            })
            .collect()
    }

    /// Average end-to-end latency of confirmed transactions.
    pub fn average_latency(&self) -> Duration {
        let lats = self.latencies();
        if lats.is_empty() {
            return Duration::ZERO;
        }
        let sum: u64 = lats.iter().map(|d| d.as_micros()).sum();
        Duration::from_micros(sum / lats.len() as u64)
    }

    /// Latency at the given percentile (0.0–1.0) of confirmed transactions.
    pub fn latency_percentile(&self, pct: f64) -> Duration {
        let mut lats = self.latencies();
        if lats.is_empty() {
            return Duration::ZERO;
        }
        lats.sort_unstable();
        let idx = ((lats.len() - 1) as f64 * pct.clamp(0.0, 1.0)).round() as usize;
        lats[idx]
    }

    /// Overall throughput in kilo-transactions per second: confirmed
    /// transactions divided by the span from first submission to last
    /// confirmation.
    pub fn throughput_ktps(&self) -> f64 {
        let first_submit = self
            .txs
            .values()
            .filter_map(|r| r.submitted.get())
            .min()
            .unwrap_or(SimTime::ZERO);
        let last_confirm = self.txs.values().filter_map(|r| r.confirmed.get()).max();
        let Some(last) = last_confirm else {
            return 0.0;
        };
        let span = (last - first_submit).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        self.confirmed_count() as f64 / span / 1_000.0
    }

    /// Throughput time series: confirmed transactions per `bucket`, expressed
    /// in ktps, covering the span of the run (Fig. 7a uses 0.5 s buckets).
    pub fn throughput_timeseries(&self, bucket: Duration) -> Vec<ThroughputPoint> {
        let bucket_s = bucket.as_secs_f64();
        if bucket_s <= 0.0 {
            return Vec::new();
        }
        let confirmations: Vec<SimTime> = self
            .txs
            .values()
            .filter_map(|r| r.confirmed.get())
            .collect();
        let Some(&max_t) = confirmations.iter().max() else {
            return Vec::new();
        };
        let buckets = (max_t.as_secs_f64() / bucket_s).floor() as usize + 1;
        let mut counts = vec![0u64; buckets];
        for t in &confirmations {
            let idx = (t.as_secs_f64() / bucket_s).floor() as usize;
            counts[idx] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ThroughputPoint {
                time_s: (i as f64 + 1.0) * bucket_s,
                value: c as f64 / bucket_s / 1_000.0,
            })
            .collect()
    }

    /// Latency time series: average end-to-end latency of transactions
    /// confirmed within each `bucket` (Fig. 7b).
    pub fn latency_timeseries(&self, bucket: Duration) -> Vec<ThroughputPoint> {
        let bucket_s = bucket.as_secs_f64();
        if bucket_s <= 0.0 {
            return Vec::new();
        }
        let samples: Vec<(SimTime, Duration)> = self
            .txs
            .values()
            .filter_map(|r| match (r.submitted.get(), r.confirmed.get()) {
                (Some(s), Some(c)) => Some((c, c - s)),
                _ => None,
            })
            .collect();
        let Some(max_t) = samples.iter().map(|(c, _)| *c).max() else {
            return Vec::new();
        };
        let buckets = (max_t.as_secs_f64() / bucket_s).floor() as usize + 1;
        let mut sums = vec![0u64; buckets];
        let mut counts = vec![0u64; buckets];
        for (c, lat) in &samples {
            let idx = (c.as_secs_f64() / bucket_s).floor() as usize;
            sums[idx] += lat.as_micros();
            counts[idx] += 1;
        }
        (0..buckets)
            .map(|i| ThroughputPoint {
                time_s: (i as f64 + 1.0) * bucket_s,
                value: if counts[i] == 0 {
                    0.0
                } else {
                    (sums[i] as f64 / counts[i] as f64) / 1e6
                },
            })
            .collect()
    }

    /// Average per-stage latency breakdown over all confirmed transactions
    /// (Fig. 6). Missing intermediate stages contribute zero to their stage
    /// and the time is attributed to the previous known stage boundary.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        let mut sums = [0u64; 5];
        let mut count = 0u64;
        for rec in self.txs.values() {
            let (Some(submitted), Some(confirmed)) = (rec.submitted.get(), rec.confirmed.get())
            else {
                continue;
            };
            count += 1;
            let mut prev = submitted;
            for stage in LatencyStage::ALL {
                let idx = stage.index();
                let end = match stage {
                    LatencyStage::Reply => confirmed,
                    _ => rec.stages[idx].get().unwrap_or(prev),
                };
                let end = end.max(prev);
                sums[idx] += (end - prev).as_micros();
                prev = end;
            }
        }
        let avg = |idx: usize| Duration::from_micros(sums[idx].checked_div(count).unwrap_or(0));
        LatencyBreakdown {
            send: avg(0),
            preprocess: avg(1),
            partial_ordering: avg(2),
            global_ordering: avg(3),
            reply: avg(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_types::ClientId;

    fn tx(i: u64) -> TxId {
        TxId::new(ClientId::new(0), i)
    }
    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn record_full_tx(stats: &mut StatsCollector, id: TxId, base_ms: u64) {
        stats.tx_submitted(id, at(base_ms));
        stats.stage_reached(id, LatencyStage::Send, at(base_ms + 10));
        stats.stage_reached(id, LatencyStage::Preprocess, at(base_ms + 20));
        stats.stage_reached(id, LatencyStage::PartialOrdering, at(base_ms + 120));
        stats.stage_reached(id, LatencyStage::GlobalOrdering, at(base_ms + 220));
        stats.tx_confirmed(id, at(base_ms + 260));
    }

    #[test]
    fn end_to_end_latency() {
        let mut s = StatsCollector::new();
        record_full_tx(&mut s, tx(0), 0);
        record_full_tx(&mut s, tx(1), 100);
        assert_eq!(s.confirmed_count(), 2);
        assert_eq!(s.average_latency(), Duration::from_millis(260));
        assert_eq!(s.latency_percentile(1.0), Duration::from_millis(260));
    }

    #[test]
    fn double_reports_keep_first_timestamp() {
        let mut s = StatsCollector::new();
        s.tx_submitted(tx(0), at(5));
        s.tx_submitted(tx(0), at(50));
        s.tx_confirmed(tx(0), at(100));
        s.tx_confirmed(tx(0), at(500));
        assert_eq!(s.average_latency(), Duration::from_millis(95));
    }

    #[test]
    fn breakdown_splits_stages() {
        let mut s = StatsCollector::new();
        record_full_tx(&mut s, tx(0), 0);
        let b = s.latency_breakdown();
        assert_eq!(b.send, Duration::from_millis(10));
        assert_eq!(b.preprocess, Duration::from_millis(10));
        assert_eq!(b.partial_ordering, Duration::from_millis(100));
        assert_eq!(b.global_ordering, Duration::from_millis(100));
        assert_eq!(b.reply, Duration::from_millis(40));
        assert_eq!(b.total(), Duration::from_millis(260));
        assert!(b.global_ordering_share() > 0.35 && b.global_ordering_share() < 0.42);
    }

    #[test]
    fn breakdown_handles_missing_stages() {
        let mut s = StatsCollector::new();
        // A fast-path payment that never went through global ordering.
        s.tx_submitted(tx(0), at(0));
        s.stage_reached(tx(0), LatencyStage::Send, at(10));
        s.stage_reached(tx(0), LatencyStage::PartialOrdering, at(100));
        s.tx_confirmed(tx(0), at(120));
        let b = s.latency_breakdown();
        assert_eq!(b.send, Duration::from_millis(10));
        assert_eq!(b.preprocess, Duration::ZERO);
        assert_eq!(b.partial_ordering, Duration::from_millis(90));
        assert_eq!(b.global_ordering, Duration::ZERO);
        assert_eq!(b.reply, Duration::from_millis(20));
    }

    #[test]
    fn a_record_fits_one_cache_line() {
        // The slot entry of the transaction table, `Option<TxRecord>`.
        assert!(std::mem::size_of::<Option<TxRecord>>() <= 64);
    }

    /// The same reports, in the same order, to a table-backed collector and a
    /// table-less one give identical aggregates — including for ids outside
    /// the table and stages reported before (or without) a submission.
    #[test]
    fn table_backed_collector_matches_the_table_less_one() {
        use orthrus_types::rng::{Rng, StdRng};
        use orthrus_types::ClientId;
        let mut rng = StdRng::seed_from_u64(7);
        let counts: Vec<u64> = (0..40u64).map(|c| c % 4).collect();
        let ids: Vec<TxId> = (0..40u64)
            .flat_map(|c| (0..c % 4).map(move |s| TxId::new(ClientId::new(c), s)))
            .collect();
        let table = Arc::new(TxTable::new(&counts));
        let (mut dense, mut hashed) = (StatsCollector::with_table(table), StatsCollector::new());
        for step in 0..2_000u64 {
            let id = if rng.gen_bool(0.9) {
                ids[rng.gen_range(0..ids.len())]
            } else {
                TxId::new(ClientId::new(rng.gen_range(0..50)), rng.gen_range(0..6))
            };
            let now = at(step + rng.gen_range(0..500));
            for s in [&mut dense, &mut hashed] {
                match step % 3 {
                    0 => s.tx_submitted(id, now),
                    1 => s.stage_reached(id, LatencyStage::ALL[(step % 5) as usize], now),
                    _ => s.tx_confirmed(id, now),
                }
            }
        }
        let bucket = Duration::from_millis(100);
        assert_eq!(dense.submitted_count(), hashed.submitted_count());
        assert_eq!(dense.confirmed_count(), hashed.confirmed_count());
        assert!(dense.confirmed_count() > 100);
        assert_eq!(dense.average_latency(), hashed.average_latency());
        assert_eq!(
            dense.latency_percentile(0.99),
            hashed.latency_percentile(0.99)
        );
        assert_eq!(dense.latency_breakdown(), hashed.latency_breakdown());
        assert_eq!(dense.throughput_ktps(), hashed.throughput_ktps());
        assert_eq!(
            dense.throughput_timeseries(bucket),
            hashed.throughput_timeseries(bucket)
        );
        assert_eq!(
            dense.latency_timeseries(bucket),
            hashed.latency_timeseries(bucket)
        );
    }

    #[test]
    fn first_stamp_wins() {
        let mut s = StatsCollector::new();
        s.tx_submitted(tx(0), at(0));
        s.stage_reached(tx(0), LatencyStage::Send, at(10));
        s.stage_reached(tx(0), LatencyStage::Send, at(15));
        s.stage_reached(tx(0), LatencyStage::Reply, at(50));
        // Confirmation stamps `Reply` only if nothing did before; a second
        // confirmation changes neither stamp.
        s.tx_confirmed(tx(0), at(60));
        s.tx_confirmed(tx(0), at(90));
        s.tx_submitted(tx(1), at(0));
        s.tx_confirmed(tx(1), at(40));
        s.stage_reached(tx(1), LatencyStage::Reply, at(45));
        let (first, second) = (s.txs.get(tx(0)).unwrap(), s.txs.get(tx(1)).unwrap());
        assert_eq!(first.stages[0].get(), Some(at(10)));
        assert_eq!(first.stages[4].get(), Some(at(50)));
        assert_eq!(first.confirmed.get(), Some(at(60)));
        assert_eq!(second.stages[4].get(), Some(at(40)));
        assert_eq!(second.stages[1].get(), None);
        assert_eq!(s.confirmed_count(), 2);
        assert_eq!(s.average_latency(), Duration::from_millis(50));
    }

    #[test]
    fn throughput_counts_confirmations_over_span() {
        let mut s = StatsCollector::new();
        for i in 0..100 {
            s.tx_submitted(tx(i), at(0));
            s.tx_confirmed(tx(i), at(1000));
        }
        // 100 txs over 1 s => 0.1 ktps.
        assert!((s.throughput_ktps() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn timeseries_buckets() {
        let mut s = StatsCollector::new();
        for i in 0..10 {
            s.tx_submitted(tx(i), at(0));
            s.tx_confirmed(tx(i), at(400)); // bucket 0
        }
        for i in 10..14 {
            s.tx_submitted(tx(i), at(0));
            s.tx_confirmed(tx(i), at(900)); // bucket 1
        }
        let series = s.throughput_timeseries(Duration::from_millis(500));
        assert_eq!(series.len(), 2);
        assert!((series[0].value - 10.0 / 0.5 / 1000.0).abs() < 1e-9);
        assert!((series[1].value - 4.0 / 0.5 / 1000.0).abs() < 1e-9);

        let lat_series = s.latency_timeseries(Duration::from_millis(500));
        assert_eq!(lat_series.len(), 2);
        assert!((lat_series[0].value - 0.4).abs() < 1e-9);
        assert!((lat_series[1].value - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_collector_is_sane() {
        let s = StatsCollector::new();
        assert_eq!(s.confirmed_count(), 0);
        assert_eq!(s.average_latency(), Duration::ZERO);
        assert_eq!(s.throughput_ktps(), 0.0);
        assert!(s
            .throughput_timeseries(Duration::from_millis(500))
            .is_empty());
        assert!(s.latency_timeseries(Duration::from_millis(500)).is_empty());
        assert_eq!(s.latency_percentile(0.5), Duration::ZERO);
    }

    #[test]
    fn counters() {
        let mut s = StatsCollector::new();
        s.block_delivered();
        s.block_delivered();
        s.view_change_completed();
        assert_eq!(s.blocks_delivered, 2);
        assert_eq!(s.view_changes, 1);
    }

    #[test]
    fn glog_wait_accumulates() {
        let mut s = StatsCollector::new();
        assert_eq!(s.glog_wait_mean_us(), 0.0);
        s.glog_wait(Duration::from_micros(100));
        s.glog_wait(Duration::from_micros(300));
        assert_eq!(s.glog_wait_count, 2);
        assert_eq!(s.glog_wait_total_us, 400);
        assert_eq!(s.glog_wait_max_us, 300);
        assert_eq!(s.glog_wait_mean_us(), 200.0);
    }
}
