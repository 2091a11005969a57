//! The workloads. `BENCHMARK.json` runs `scan_batch` and `serve_read`;
//! `watch_ingest` is run by hand (see `perfbench/README.md`).
//!
//! Every run reports every end-to-end metric, so every workload runs
//! the whole user path — train, scan, publish, warm start, HTTP reads,
//! ingest cycles — in one process. The workloads differ in which part
//! is large: the input sizes and the share of the run's seconds each
//! phase gets put the work of each workload on a different set of
//! layers. The small parts keep every metric measured everywhere, so a
//! gain in one layer that costs another still shows.

/// Sizes and time shares of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    /// Documents in the training web.
    pub train_docs: usize,
    /// Builtin drivers trained: 3 (all) or 1 (change in management).
    pub drivers: usize,
    /// Documents streamed to harvest the served book.
    pub book_docs: usize,
    /// Fresh documents per timed scan pass.
    pub scan_pass_docs: usize,
    /// Documents polled per ingest cycle.
    pub poll_docs: usize,
    /// Open-loop request rate (req/s).
    pub open_rate: f64,
    /// Whether the open-loop reads run beside the ingest cycles (and so
    /// measure reads under writes) instead of in a phase of their own.
    pub reads_beside_ingest: bool,
    /// Shares of `--seconds` for training, scan, warm start, closed-loop
    /// reads, open-loop reads and ingest (open-loop reads share the
    /// ingest window when `reads_beside_ingest`).
    pub train_share: f64,
    pub scan_share: f64,
    pub warm_share: f64,
    pub closed_share: f64,
    pub open_share: f64,
    pub ingest_share: f64,
}

/// `scan_batch`: a large training web (all three drivers) and a long
/// scan of fresh documents; the served book is small. Training, text,
/// annotate, features and classify do almost all the work.
pub const SCAN_BATCH: Plan = Plan {
    name: "scan_batch",
    train_docs: 16_000,
    drivers: 3,
    book_docs: 10_000,
    scan_pass_docs: 4_096,
    poll_docs: 80,
    open_rate: 4_000.0,
    reads_beside_ingest: false,
    train_share: 0.2,
    scan_share: 0.25,
    warm_share: 0.05,
    closed_share: 0.2,
    open_share: 0.1,
    ingest_share: 0.2,
};

/// `serve_read`: a large book (tens of thousands of events, 64 shards)
/// served read-only after repeated warm starts. Leads2, store, persist,
/// server and JSON do the work; annotate does little.
pub const SERVE_READ: Plan = Plan {
    name: "serve_read",
    train_docs: 4_000,
    drivers: 1,
    book_docs: 150_000,
    scan_pass_docs: 1_024,
    poll_docs: 80,
    open_rate: 2_000.0,
    reads_beside_ingest: false,
    train_share: 0.1,
    scan_share: 0.1,
    warm_share: 0.1,
    closed_share: 0.2,
    open_share: 0.1,
    ingest_share: 0.4,
};

/// `watch_ingest`: the same large book, re-materialized, re-ranked,
/// re-encoded and published by every ingest cycle while reads run
/// beside it at a lower fixed rate. Rank, leads2 and store dominate.
pub const WATCH_INGEST: Plan = Plan {
    name: "watch_ingest",
    train_docs: 4_000,
    drivers: 1,
    book_docs: 150_000,
    scan_pass_docs: 1_024,
    poll_docs: 80,
    open_rate: 1_000.0,
    reads_beside_ingest: true,
    train_share: 0.1,
    scan_share: 0.1,
    warm_share: 0.05,
    closed_share: 0.1,
    open_share: 0.0,
    ingest_share: 0.65,
};

/// The plan named `name`.
#[must_use]
pub fn by_name(name: &str) -> Option<Plan> {
    [SCAN_BATCH, SERVE_READ, WATCH_INGEST]
        .into_iter()
        .find(|p| p.name == name)
}
