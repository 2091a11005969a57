//! One run of one workload: set-up, the timed phases, the checks.
//!
//! 1. **Set-up**, [`SETUP_REPS`] times: generate the training web,
//!    train, stream and harvest the book, publish it as generation 1,
//!    warm-start a server on it. The last set-up is kept.
//! 2. **Timed phases**, interleaved over [`ROUNDS`] rounds; each round
//!    gives each phase its share of the run's seconds (from the
//!    [`Plan`]): training, scan passes, warm starts, closed-loop reads,
//!    open-loop reads, ingest cycles (with the open-loop reads beside
//!    them when the plan says so).
//! 3. **Checks** on what the phases produced.
//!
//! The end-to-end times are means over every sample of the run, and the
//! rates are total work over total time; `setup_s` and `read_p50_ms`
//! are medians. The host this was built on alternates between fast and
//! slow states lasting seconds, so a run's samples fall in two clumps:
//! their median jumps from one clump to the other between runs, while
//! their mean moves only with the share of time spent in each.
//!
//! The untraced run calls the program's composite functions; the
//! traced run calls the public parts they are made of
//! ([`crate::decompose`]) inside spans.

use crate::client::{self, Conn, LoadStats, Target, Unknown};
use crate::decompose;
use crate::plan::Plan;
use crate::stats::{histogram_quantile_ms, mean, median, ms, quantile};
use crate::trace::Tracer;
use etap::{
    BookHandle, DriverSpec, Etap, EtapConfig, IcpConfig, LeadBook, SalesDriver, TrainedEtap,
    TriggerEvent,
};
use etap_annotate::Annotator;
use etap_corpus::{DocStream, SyntheticDoc, SyntheticWeb, WebConfig};
use etap_runtime::{splitmix64, Rng};
use etap_serve::{
    watch, GenerationStore, LeadSnapshot, LeadsFormat, ServeConfig, ServerHandle, WatchConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of every timed phase: `ETAP_THREADS`, training threads,
/// server workers and client connections. The process runs on one CPU
/// (see `pin.rs`), so one thread of each keeps the run from measuring
/// the scheduler. The parallel paths are still checked for equal
/// output, untimed, at [`check_threads`] threads.
pub const THREADS: usize = 1;

/// Threads of the untimed parallel-scan check: the host's count, at
/// least two.
fn check_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .max(2)
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Shards of the published `LEADS v2` book.
const SHARDS: u32 = 64;
/// Generations the store keeps (retention is on during ingest).
const RETAIN: usize = 4;
/// Documents per scan chunk (one scan operation): enough for
/// `identify_events_parallel` to fan out in the parallel-scan check (it
/// runs batches under two 128-document chunks per worker on one
/// thread).
const CHUNK_DOCS: usize = 1_024;
/// The timed phases run interleaved in this many rounds, so that every
/// metric samples the whole run rather than one stretch of it.
const ROUNDS: usize = 10;
/// The per-cycle store counts describe the first this many cycles.
const COUNTED_CYCLES: u64 = 3;
/// Requests one keep-alive connection may carry: above any run's
/// per-connection request count, so the server never closes one.
const KEEPALIVE_CAP: usize = 1 << 26;
/// Companies the skewed company requests draw from, and the skew.
const ZIPF_NAMES: usize = 1_000;
const ZIPF_S: f64 = 1.1;
/// Length of one closed-loop throughput sample.
const WINDOW: Duration = Duration::from_millis(100);
/// Requests per block of the read mix (rounded up to a multiple of the
/// connection count): ten of them lie beyond each block's p99.
const P99_GROUP: usize = 1_000;
/// Calls per sample and samples of each in-process lookup timing.
const LOOKUP_BATCH: usize = 50;
const LOOKUP_SAMPLES: usize = 40;

/// Operations attempted and failed, with what failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Record `ok` successes and `failed` failures of `what`.
    pub fn ops(&mut self, ok: u64, failed: u64, what: &str) {
        self.attempted += ok + failed;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{what}: {failed} of {} failed", ok + failed));
        }
    }

    /// Record one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(u64::from(ok), u64::from(!ok), what);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics: name, value, unit.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics (traced run only): name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Counts that must repeat exactly for a seed: name → (value, unit).
    pub counts: BTreeMap<String, (f64, &'static str)>,
    pub tally: Tally,
    /// Recorded spans, for the trace file.
    pub spans: String,
}

impl Outcome {
    fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    fn count(&mut self, name: &str, value: f64, unit: &'static str) {
        self.counts.insert(name.to_string(), (value, unit));
    }
}

/// A seed for one input stream of the run.
#[must_use]
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut s = seed ^ etap_persist::fnv1a64(stream.as_bytes());
    splitmix64(&mut s)
}

fn training_config(plan: &Plan, threads: usize) -> EtapConfig {
    let mut config = EtapConfig::paper();
    config.training.threads = threads;
    if plan.drivers == 1 {
        config.drivers = vec![DriverSpec::builtin(SalesDriver::ChangeInManagement)];
    }
    config
}

fn serve_config(threads: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: threads,
        keepalive_requests: KEEPALIVE_CAP,
        ..ServeConfig::default()
    }
}

/// The served book's events: every trigger sentence of a streamed
/// corpus, with a deterministic pseudo-score (the classifier is not
/// what builds this book).
fn harvest(docs: usize, seed: u64) -> Vec<TriggerEvent> {
    let salt = sub_seed(seed, "score");
    let mut events = Vec::new();
    for doc in DocStream::new(WebConfig {
        seed: sub_seed(seed, "book"),
        ..WebConfig::with_docs(docs)
    }) {
        let Some(driver) = doc.trigger_driver() else {
            continue;
        };
        for (i, sentence) in doc.trigger_sentences.iter().enumerate() {
            let mut s = salt ^ (doc.id as u64) ^ ((i as u64) << 40);
            let r = splitmix64(&mut s);
            events.push(TriggerEvent {
                driver,
                doc_id: doc.id,
                url: doc.url.clone(),
                snippet: sentence.clone(),
                score: 0.5 + (r as f64 / u64::MAX as f64) * 0.5,
                companies: doc.companies.iter().take(2).cloned().collect(),
                doc_date: doc.date,
            });
        }
    }
    events
}

/// `GET /healthz` on a fresh connection: `200` at `generation`.
fn healthz(server: &ServerHandle, generation: u64) -> bool {
    let mut conn = Conn::new(server.addr());
    let request = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    conn.send(request)
        .is_ok_and(|r| r.status == 200 && r.generation == generation)
}

/// Open the store, load its newest generation, start a server on it and
/// wait for its first healthy `/healthz`.
fn warm_start(root: &Path, threads: usize, t: &mut Tracer) -> Result<(ServerHandle, bool), String> {
    t.span("warm_start", |t| {
        let store = t
            .span("store.open", |_| GenerationStore::open(root))
            .map_err(|e| format!("store open: {e}"))?;
        let snapshot = t.span("store.load", |t| {
            if t.enabled() {
                let newest = store.generations().ok().and_then(|g| g.last().copied());
                let newest = newest.ok_or("store holds no generation")?;
                decompose::load(&store, newest, t).map_err(|e| e.to_string())
            } else {
                match store.load_latest() {
                    Ok(Some((snapshot, _))) => Ok(snapshot),
                    Ok(None) => Err("store holds no valid generation".to_string()),
                    Err(e) => Err(e.to_string()),
                }
            }
        })?;
        let generation = snapshot.generation;
        let server = t
            .span("server.start", |_| {
                etap_serve::start(&serve_config(threads), Arc::new(snapshot))
            })
            .map_err(|e| format!("server start: {e}"))?;
        let ok = t.span("server.healthz", |_| healthz(&server, generation));
        Ok((server, ok))
    })
}

/// `Etap::train`, or its public parts when tracing.
fn train(config: &EtapConfig, web: &SyntheticWeb, t: &mut Tracer) -> TrainedEtap {
    t.span("train", |t| {
        if t.enabled() {
            decompose::train(config, web, t)
        } else {
            Etap::new(config.clone()).train(web)
        }
    })
}

/// The state one set-up leaves.
struct Setup {
    web: SyntheticWeb,
    trained: Arc<TrainedEtap>,
    store: GenerationStore,
    server: ServerHandle,
    train_s: f64,
}

impl Setup {
    fn teardown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

fn setup(
    plan: &Plan,
    seed: u64,
    dir: PathBuf,
    threads: usize,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Setup, String> {
    t.span("setup", |t| {
        let web = t.span("corpus.generate", |_| {
            SyntheticWeb::generate(WebConfig {
                seed: sub_seed(seed, "train"),
                ..WebConfig::with_docs(plan.train_docs)
            })
        });
        let config = training_config(plan, threads);
        let began = Instant::now();
        let trained = train(&config, &web, t);
        let train_s = began.elapsed().as_secs_f64();
        let events = t.span("corpus.generate", |_| harvest(plan.book_docs, seed));
        let book = t.span("rank.book_build", |_| LeadBook::build(events));

        let _ = std::fs::remove_dir_all(&dir);
        let store = GenerationStore::open(&dir)
            .map_err(|e| format!("store open: {e}"))?
            .with_retention(RETAIN)
            .with_leads_format(LeadsFormat::Binary { shards: SHARDS });
        let trained = Arc::new(trained);
        let seed_snapshot = LeadSnapshot {
            generation: 1,
            book: book.into(),
            trained: Arc::clone(&trained),
        };
        t.span("store.seed_publish", |_| store.publish(&seed_snapshot))
            .map_err(|e| format!("seed publish: {e}"))?;
        drop(seed_snapshot);
        let (server, ok) = warm_start(store.root(), threads, t)?;
        tally.check(ok, "set-up: first /healthz");
        Ok(Setup {
            web,
            trained,
            store,
            server,
            train_s,
        })
    })
}

/// Samples gathered across the rounds.
#[derive(Default)]
struct Samples {
    train_s: Vec<f64>,
    /// Documents scanned, and each scan pass's time.
    scan_docs: usize,
    scan_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    windows: Vec<f64>,
    /// Open-loop latencies and send lags, in due-time order.
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// p99 of each block of the mix sent by the open loop.
    block_p99: Vec<f64>,
    cycle_ms: Vec<f64>,
    cycles: u64,
    /// Bytes written, shards written and files linked by the first
    /// [`COUNTED_CYCLES`] cycles.
    counted: (u64, u64, u64),
    reconnects: u64,
    /// Company lookups beside ingest answered `404 unknown company`.
    unknown: Vec<Unknown>,
}

/// The state the timed phases share.
struct Phases<'a> {
    plan: &'a Plan,
    threads: usize,
    t: Tracer,
    out: Outcome,
    web: SyntheticWeb,
    config: EtapConfig,
    trained: Arc<TrainedEtap>,
    store: GenerationStore,
    /// Generation 1, mapped.
    gen1: Arc<LeadSnapshot>,
    /// Serves generation 1 for the whole run.
    reader: ServerHandle,
    /// Serves the ingest cycles' generations.
    ingest: ServerHandle,
    annotator: Annotator,
    stream: DocStream,
    targets: Vec<Target>,
    live: Vec<Target>,
    schedules: Vec<Vec<u32>>,
    /// Requests in one block of the mix (see [`schedules`]).
    block: usize,
    poll: WatchConfig,
    s: Samples,
}

impl Phases<'_> {
    fn train(&mut self, budget: Duration) {
        let began = Instant::now();
        while began.elapsed() < budget {
            let t0 = Instant::now();
            black_box(train(&self.config, &self.web, &mut self.t));
            self.s.train_s.push(t0.elapsed().as_secs_f64());
        }
    }

    fn scan(&mut self, budget: Duration) {
        let began = Instant::now();
        while began.elapsed() < budget {
            let docs: Vec<SyntheticDoc> = self
                .stream
                .by_ref()
                .take(self.plan.scan_pass_docs)
                .collect();
            if self.s.scan_ms.is_empty() {
                scan_check(
                    &self.trained,
                    &self.annotator,
                    &docs,
                    self.threads,
                    &mut self.out,
                );
            }
            let (trained, annotator, threads) = (&self.trained, &self.annotator, self.threads);
            let t0 = Instant::now();
            let book = self.t.span("scan", |t| {
                let mut events = Vec::new();
                for chunk in docs.chunks(CHUNK_DOCS) {
                    if t.enabled() {
                        events.extend(decompose::identify(trained, annotator, chunk, threads, t).0);
                    } else {
                        events.extend(trained.identify_events_parallel(chunk, threads));
                    }
                }
                t.span("rank.build", |_| LeadBook::build(events))
            });
            let elapsed = t0.elapsed();
            black_box(book.len());
            self.s.scan_docs += docs.len();
            self.s.scan_ms.push(ms(elapsed));
            self.out
                .tally
                .ops(docs.len().div_ceil(CHUNK_DOCS) as u64, 0, "scan chunks");
        }
    }

    fn warm(&mut self, budget: Duration) {
        let began = Instant::now();
        while began.elapsed() < budget {
            let t0 = Instant::now();
            match warm_start(self.store.root(), self.threads, &mut self.t) {
                Ok((fresh, ok)) => {
                    self.s.warm_ms.push(ms(t0.elapsed()));
                    self.out.tally.check(ok, "warm start: /healthz");
                    if self.t.enabled() && self.s.warm_ms.len() == 1 {
                        let decomposed = fresh.snapshot();
                        let same = self
                            .store
                            .load_latest()
                            .ok()
                            .flatten()
                            .is_some_and(|(s, _)| s.book == decomposed.book);
                        self.out
                            .tally
                            .check(same, "warm start: decomposed load differs from load_latest");
                    }
                    fresh.shutdown();
                }
                Err(e) => {
                    self.out.tally.check(false, &format!("warm start: {e}"));
                    return;
                }
            }
            if self.t.enabled() {
                let store = &self.store;
                self.t.span("store.load_latest", |_| {
                    black_box(store.load_latest().is_ok())
                });
            }
        }
    }

    /// Closed-loop reads on the generation-1 snapshot, in samples of one
    /// [`WINDOW`] each, every sample against a server and client thread
    /// of its own: the run's throughput is then the mean over many
    /// independent starts spread across the whole run, not the fate of
    /// one pair of threads.
    fn closed(&mut self, budget: Duration) {
        let began = Instant::now();
        while began.elapsed() < budget {
            let server =
                match etap_serve::start(&serve_config(self.threads), Arc::clone(&self.gen1)) {
                    Ok(server) => server,
                    Err(e) => {
                        self.out
                            .tally
                            .check(false, &format!("closed-loop server start: {e}"));
                        return;
                    }
                };
            let stats = client::closed_loop(
                server.addr(),
                &self.targets,
                &self.schedules,
                WINDOW,
                WINDOW,
            );
            server.shutdown();
            self.tally_reads(&stats, "closed-loop reads");
            self.s
                .windows
                .extend(stats.windows.iter().map(|&c| c as f64));
            self.s.reconnects += stats.reconnects;
        }
    }

    fn keep_open(&mut self, stats: LoadStats, what: &str) {
        self.tally_reads(&stats, what);
        // Each run of the open loop starts at the top of the mix block,
        // so its consecutive blocks of samples hold the same requests.
        self.s.block_p99.extend(
            stats
                .latency_ms
                .chunks_exact(self.block)
                .filter_map(|g| quantile(g, 0.99)),
        );
        self.s.unknown.extend(stats.unknown);
        self.s.latency_ms.extend(stats.latency_ms);
        self.s.lag_ms.extend(stats.lag_ms);
        self.s.reconnects += stats.reconnects;
    }

    fn tally_reads(&mut self, stats: &LoadStats, what: &str) {
        match &stats.first_failure {
            Some(first) => {
                self.out
                    .tally
                    .ops(stats.ok, stats.failed, &format!("{what} (first: {first})"))
            }
            None => self.out.tally.ops(stats.ok, stats.failed, what),
        }
    }

    fn open(&mut self, budget: Duration) {
        let stats = client::open_loop(
            self.reader.addr(),
            &self.targets,
            &self.schedules,
            self.plan.open_rate,
            budget,
            &AtomicBool::new(false),
        );
        self.keep_open(stats, "open-loop reads");
    }

    /// Ingest cycles while `budget` lasts, with open-loop reads beside
    /// them when the plan says so.
    fn ingest(&mut self, budget: Duration) {
        if budget.is_zero() {
            return;
        }
        let stop = AtomicBool::new(false);
        let addr = self.ingest.addr();
        let (live, schedules, rate) = (&self.live, &self.schedules, self.plan.open_rate);
        let beside = self.plan.reads_beside_ingest;
        let (t, out, s) = (&mut self.t, &mut self.out, &mut self.s);
        let (ingest, store, poll) = (&self.ingest, &self.store, &self.poll);
        let reads = std::thread::scope(|scope| {
            let reads = beside.then(|| {
                let stop = &stop;
                let forever = budget * 4 + Duration::from_secs(60);
                scope.spawn(move || client::open_loop(addr, live, schedules, rate, forever, stop))
            });
            let began = Instant::now();
            let mut encoded = false;
            while began.elapsed() < budget {
                if t.enabled() {
                    match decompose::cycle(ingest, store, poll, t) {
                        Ok(c) => {
                            out.tally
                                .check(c.generation == s.cycles + 2, "ingest generation");
                            if s.cycles < COUNTED_CYCLES {
                                s.counted.0 += c.outcome.bytes_written;
                                s.counted.1 += c.outcome.shards_written;
                                s.counted.2 += c.outcome.files_linked;
                            }
                        }
                        Err(e) => out.tally.check(false, &format!("ingest cycle: {e}")),
                    }
                    s.cycles += 1;
                    // One separate encode per round is enough samples,
                    // and keeps the extra work from crowding the cycles.
                    if !encoded {
                        decompose::encode(&ingest.snapshot().book, SHARDS, t);
                        encoded = true;
                    }
                } else {
                    let report = watch::run(ingest, store, poll);
                    let failed = report.cycles_failed;
                    out.tally
                        .ops(report.cycles - failed, failed, "ingest cycles");
                    s.cycle_ms
                        .extend(report.cycle_durations.iter().map(|d| ms(*d)));
                    s.cycles += report.cycles;
                    if s.cycles == COUNTED_CYCLES {
                        s.counted.1 = ingest.metrics().shards_dirty_total.load(Ordering::Relaxed);
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
            reads.map(|h| h.join().expect("reader thread beside ingest panicked"))
        });
        if let Some(stats) = reads {
            self.keep_open(stats, "reads beside ingest");
        }
    }
}

/// Run one workload.
///
/// # Errors
/// A set-up step that failed outright (nothing was measured).
pub fn run(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    traced: bool,
    process_start: Instant,
    workdir: &Path,
) -> Result<Outcome, String> {
    let threads = THREADS;
    let mut t = Tracer::new(traced);
    let mut out = Outcome::default();

    // ── set-up ──
    let mut setup_s = Vec::new();
    let mut samples = Samples::default();
    let mut kept: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.teardown();
        }
        let began = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let dir = workdir.join(format!("store-{rep}"));
        let s = setup(plan, seed, dir, threads, &mut t, &mut out.tally)?;
        setup_s.push(began.elapsed().as_secs_f64());
        // The first training of the process also pays for its cold start.
        if rep > 0 {
            samples.train_s.push(s.train_s);
        }
        kept = Some(s);
    }
    let Setup {
        web,
        trained,
        store,
        server: reader,
        ..
    } = kept.expect("at least one set-up ran");
    let config = training_config(plan, threads);
    if traced {
        train_check(&config, &web, &trained, &mut out);
    }
    let noisy: usize = trained
        .drivers
        .iter()
        .map(|d| d.report.noisy_positives)
        .sum();
    let retained: usize = trained
        .drivers
        .iter()
        .map(|d| d.report.retained_positives)
        .sum();
    let queries: usize = trained
        .drivers
        .iter()
        .map(|d| d.spec.smart_queries.len())
        .sum();
    out.count("training.queries", queries as f64, "count");
    out.count("training.noisy_positives", noisy as f64, "count");
    out.count(
        "training.retained_ratio",
        retained as f64 / noisy.max(1) as f64,
        "ratio",
    );

    let gen1 = reader.snapshot();
    out.count(
        "store.bytes_mapped",
        gen1.book.approx_bytes() as f64,
        "bytes",
    );
    let names: Vec<String> = gen1
        .book
        .companies_top(ZIPF_NAMES)
        .iter()
        .map(|c| c.company.to_string())
        .collect();
    let mut targets = read_targets(&gen1.book, &names);
    verify_targets(&reader, &gen1.book, &names, &mut targets, &mut out);
    // Beside ingest the book changes under the reader: any 200 whose
    // generation never goes backwards on its connection is correct, and
    // a company lookup may also be a 404 (see `ingest_check`).
    let live = targets
        .iter()
        .map(|tg| Target {
            kind: tg.kind,
            request: tg.request.clone(),
            expected: None,
            may_be_unknown: tg.kind == COMPANY_EVENTS,
        })
        .collect();
    let (schedules, block) = schedules(seed, threads, &names, &targets);
    let ingest = etap_serve::start(&serve_config(threads), Arc::clone(&gen1))
        .map_err(|e| format!("ingest server start: {e}"))?;
    let mut p = Phases {
        plan,
        threads,
        t,
        out,
        web,
        config,
        trained,
        store,
        gen1: Arc::clone(&gen1),
        reader,
        ingest,
        annotator: Annotator::new(),
        stream: DocStream::new(WebConfig {
            seed: sub_seed(seed, "scan"),
            ..WebConfig::with_docs(1 << 40)
        }),
        schedules,
        block,
        targets,
        live,
        poll: WatchConfig {
            interval: Duration::ZERO,
            cycles: Some(1),
            poll_docs: plan.poll_docs,
            poll_seed: sub_seed(seed, "poll"),
            threads,
            ..WatchConfig::default()
        },
        s: samples,
    };

    // ── timed phases, interleaved over rounds ──
    // Each phase's share of the run accrues round by round, and a phase
    // runs only while it has used less than it has accrued: a sample
    // longer than one round's slice (a training, an ingest cycle) skips
    // later rounds instead of stretching the run.
    let slice = |share: f64| seconds * share / ROUNDS as f64;
    // An open-loop phase sends whole blocks of the mix.
    let block_s = block as f64 / plan.open_rate;
    let whole_blocks = |left: f64| {
        let blocks = (left / block_s).floor();
        Duration::from_secs_f64(if blocks >= 1.0 {
            blocks * block_s + 0.02
        } else {
            0.0
        })
    };
    let mut used = [0.0f64; 6];
    let handled_before = p.reader.metrics().latency.cumulative();
    for round in 1..=ROUNDS {
        let left = |k: usize, share: f64| (slice(share) * round as f64 - used[k]).max(0.0);
        let budgets = [
            Duration::from_secs_f64(left(0, plan.train_share)),
            Duration::from_secs_f64(left(1, plan.scan_share)),
            Duration::from_secs_f64(left(2, plan.warm_share)),
            Duration::from_secs_f64(left(3, plan.closed_share)),
            whole_blocks(left(4, plan.open_share)),
            if plan.reads_beside_ingest {
                whole_blocks(left(5, plan.ingest_share))
            } else {
                Duration::from_secs_f64(left(5, plan.ingest_share))
            },
        ];
        for (k, budget) in budgets.into_iter().enumerate() {
            if budget.is_zero() {
                continue;
            }
            let t0 = Instant::now();
            match k {
                0 => p.train(budget),
                1 => p.scan(budget),
                2 => p.warm(budget),
                3 => p.closed(budget),
                4 => p.open(budget),
                _ => p.ingest(budget),
            }
            used[k] += t0.elapsed().as_secs_f64();
        }
    }
    // The high-water mark of the measured work, before the checks below
    // replay the ingest and hold a second copy of the book.
    let peak_rss_mib = crate::stats::peak_rss_mib();
    let handled_after = if plan.reads_beside_ingest {
        &p.ingest
    } else {
        &p.reader
    }
    .metrics()
    .latency
    .cumulative();
    let handled_before = if plan.reads_beside_ingest {
        vec![(0, 0); handled_after.len()]
    } else {
        handled_before
    };

    let Phases {
        t,
        mut out,
        store,
        reader,
        ingest,
        poll,
        targets,
        mut s,
        ..
    } = p;
    let batch = COUNTED_CYCLES as f64;
    out.count("store.shards_written", s.counted.1 as f64 / batch, "count");
    if traced {
        s.cycle_ms = t.durations_ms("cycle");
        out.count("store.bytes_written", s.counted.0 as f64 / batch, "bytes");
        out.count("store.files_linked", s.counted.2 as f64 / batch, "count");
        out.count(
            "store.dirty_ratio",
            s.counted.1 as f64 / (batch * f64::from(SHARDS)),
            "ratio",
        );
    }
    let first_company = targets
        .iter()
        .position(|tg| tg.kind == COMPANY_EVENTS)
        .unwrap_or(0);
    let unknown: Vec<(&str, u64, u64)> = s
        .unknown
        .iter()
        .map(|u| {
            let name = &names[u.target as usize - first_company];
            (name.as_str(), u.after, u.before)
        })
        .collect();
    let unresolved = ingest_check(
        &ingest, &store, &gen1, &names, &unknown, &poll, s.cycles, &mut out,
    );
    if unresolved > 0 {
        eprintln!(
            "perfbench: after ingest the book no longer resolves {unresolved} company name(s) \
             it served in generation 1 ({} such 404s beside ingest)",
            s.unknown.len()
        );
    }

    // ── end-to-end metrics ──
    let ok = out.tally.attempted - out.tally.failed;
    out.e2e = vec![
        ("setup_s", median(&setup_s), "s"),
        ("train_s", mean(&s.train_s), "s"),
        (
            "scan_docs_per_s",
            s.scan_docs as f64 / (s.scan_ms.iter().sum::<f64>() / 1_000.0),
            "docs/s",
        ),
        ("warm_start_ms", mean(&s.warm_ms), "ms"),
        ("read_p50_ms", median(&s.latency_ms), "ms"),
        ("read_rps", mean(&s.windows) / WINDOW.as_secs_f64(), "req/s"),
        ("cycle_ms", mean(&s.cycle_ms), "ms"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        (
            "ok_ratio",
            ok as f64 / out.tally.attempted.max(1) as f64,
            "ratio",
        ),
    ];

    if traced {
        lookup_layers(&gen1.book, &names, &mut out);
        let handled: Vec<(u64, u64)> = handled_after
            .iter()
            .zip(&handled_before)
            .map(|(&(b, after), &(_, before))| (b, after - before))
            .collect();
        out.layer(
            "server.handle_p50_ms",
            histogram_quantile_ms(&handled, 0.5),
            "ms",
        );
        out.layer(
            "server.handle_p99_ms",
            histogram_quantile_ms(&handled, 0.99),
            "ms",
        );
        out.layer("loadgen.read_p99_ms", median(&s.block_p99), "ms");
        out.layer("loadgen.p99_blocks", s.block_p99.len() as f64, "count");
        out.layer(
            "loadgen.lag_p99_ms",
            quantile(&s.lag_ms, 0.99).unwrap_or(0.0),
            "ms",
        );
        out.layer("loadgen.open_requests", s.latency_ms.len() as f64, "count");
        let shed = reader.metrics().shed_total.load(Ordering::Relaxed)
            + ingest.metrics().shed_total.load(Ordering::Relaxed);
        let late = reader.metrics().deadline_total.load(Ordering::Relaxed)
            + ingest.metrics().deadline_total.load(Ordering::Relaxed);
        out.layer("server.shed", shed as f64, "count");
        out.layer("server.deadline_exceeded", late as f64, "count");
        out.layer("server.reconnects", s.reconnects as f64, "count");
        out.layer(
            "server.unknown_company_404",
            s.unknown.len() as f64,
            "count",
        );
        out.layer("leads2.unresolved_names", unresolved as f64, "count");
        trace_layers(&t, &s.scan_ms, &mut out);
        out.spans = t.dump();
    }

    reader.shutdown();
    ingest.shutdown();
    drop(gen1);
    let _ = std::fs::remove_dir_all(store.root());
    Ok(out)
}

/// The traced run's training must build the same models as
/// `Etap::train`.
fn train_check(config: &EtapConfig, web: &SyntheticWeb, trained: &TrainedEtap, out: &mut Outcome) {
    let api = Etap::new(config.clone()).train(web);
    let same = api.drivers.len() == trained.drivers.len()
        && api
            .drivers
            .iter()
            .zip(&trained.drivers)
            .all(|(a, b)| etap::persist::to_string(a) == etap::persist::to_string(b));
    out.tally.check(
        same,
        "train: public-call decomposition differs from Etap::train",
    );
}

/// The scan checks on the first chunk: the parallel scan (at
/// [`check_threads`] threads) equals the 1-thread scan, and the
/// public-call decomposition equals both.
fn scan_check(
    trained: &TrainedEtap,
    annotator: &Annotator,
    docs: &[SyntheticDoc],
    threads: usize,
    out: &mut Outcome,
) {
    let chunk = &docs[..CHUNK_DOCS.min(docs.len())];
    let one = trained.identify_events_parallel(chunk, 1);
    let many = trained.identify_events_parallel(chunk, check_threads());
    let (parts, snippets) =
        decompose::identify(trained, annotator, chunk, threads, &mut Tracer::new(false));
    out.tally.check(
        one == many,
        "scan: parallel scan differs from the 1-thread scan",
    );
    out.tally.check(
        one == parts,
        "scan: public-call decomposition differs from identify_events_parallel",
    );
    out.count("text.snippets", snippets as f64, "count");
    out.count("events.flagged", one.len() as f64, "count");
    let scored = (snippets * trained.drivers.len()).max(1);
    out.count(
        "classify.flag_ratio",
        one.len() as f64 / scored as f64,
        "ratio",
    );
}

/// Request kinds of the read mix, in target order.
const LEADS_TOP: &str = "leads_top";
const LEADS_DRIVER: &str = "leads_driver";
const COMPANIES: &str = "companies";
const COMPANY_EVENTS: &str = "company_events";
const ICP_SCORE: &str = "icp_score";
const DRIVER_KEYS: [(&str, SalesDriver); 3] = [
    ("ma", SalesDriver::MergersAcquisitions),
    ("cim", SalesDriver::ChangeInManagement),
    ("rev", SalesDriver::RevenueGrowth),
];

/// Every distinct request of the mix: `/leads?top=50`, one
/// `/leads?driver=<key>&top=20` per driver in the book,
/// `/companies?top=20`, then `/companies/<name>/events` and
/// `/score?company=<name>` for each name.
fn read_targets(book: &BookHandle, names: &[String]) -> Vec<Target> {
    let target = |kind, path: String| Target {
        kind,
        request: client::get(&path),
        expected: None,
        may_be_unknown: false,
    };
    let mut out = vec![target(LEADS_TOP, "/leads?top=50".to_string())];
    for (key, driver) in DRIVER_KEYS {
        if book.driver_total(driver) > 0 {
            out.push(target(LEADS_DRIVER, format!("/leads?driver={key}&top=20")));
        }
    }
    out.push(target(COMPANIES, "/companies?top=20".to_string()));
    for name in names {
        out.push(target(
            COMPANY_EVENTS,
            format!("/companies/{}/events", client::encode(name)),
        ));
    }
    for name in names {
        out.push(target(
            ICP_SCORE,
            format!("/score?company={}", client::encode(name)),
        ));
    }
    out
}

/// Every `"doc_id":N` in a response body, in order.
fn doc_ids(body: &[u8]) -> Vec<usize> {
    let key = b"\"doc_id\":";
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(p) = body[at..].windows(key.len()).position(|w| w == key) {
        at += p + key.len();
        let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
        let id = std::str::from_utf8(&body[at..at + digits])
            .ok()
            .and_then(|s| s.parse().ok());
        out.push(id.unwrap_or(usize::MAX));
        at += digits;
    }
    out
}

fn contains(body: &[u8], needle: &str) -> bool {
    body.windows(needle.len()).any(|w| w == needle.as_bytes())
}

/// Fetch every target once and check it against the book; a reply that
/// passes becomes the body every later reply to that request must
/// equal. Counts the bytes of each kind of response.
fn verify_targets(
    server: &ServerHandle,
    book: &BookHandle,
    names: &[String],
    targets: &mut [Target],
    out: &mut Outcome,
) {
    let mut conn = Conn::new(server.addr());
    let mut bytes: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let drivers: Vec<SalesDriver> = DRIVER_KEYS
        .iter()
        .map(|&(_, d)| d)
        .filter(|&d| book.driver_total(d) > 0)
        .collect();
    let icp = IcpConfig::default();
    let (mut ok, mut failed) = (0, 0);
    for (i, target) in targets.iter_mut().enumerate() {
        let Ok(reply) = conn.send(&target.request) else {
            failed += 1;
            continue;
        };
        let body = conn.body(&reply);
        let ids =
            |events: &[etap::EventRef<'_>]| events.iter().map(|e| e.doc_id()).collect::<Vec<_>>();
        let name = |j: usize| &names[j % names.len().max(1)];
        let first_company = 1 + drivers.len() + 1;
        let correct = reply.status == 200
            && match target.kind {
                LEADS_TOP => doc_ids(body) == ids(&book.top(50)),
                LEADS_DRIVER => doc_ids(body) == ids(&book.top_for(drivers[i - 1], 20)),
                COMPANIES => {
                    let mut from = 0;
                    book.companies_top(20).iter().all(|c| {
                        let quoted = etap_serve::json::quote(c.company);
                        let found = body[from..]
                            .windows(quoted.len())
                            .position(|w| w == quoted.as_bytes());
                        found.inspect(|p| from += p + quoted.len()).is_some()
                    })
                }
                COMPANY_EVENTS => {
                    let name = name(i - first_company);
                    book.company_events(name).is_some_and(|(score, events)| {
                        contains(
                            body,
                            &format!("\"company\":{}", etap_serve::json::quote(score.company)),
                        ) && contains(body, &format!("\"event_count\":{}", score.events))
                            && doc_ids(body) == ids(&events)
                    })
                }
                _ => {
                    let name = name(i - first_company - names.len());
                    let score = etap::icp::score(name, &icp).total;
                    contains(body, &format!("\"icp_score\":{score}"))
                }
            };
        if correct {
            ok += 1;
            let entry = bytes.entry(target.kind).or_default();
            entry.0 += body.len() as f64;
            entry.1 += 1.0;
            target.expected = Some(body.to_vec());
        } else {
            failed += 1;
        }
    }
    out.tally.ops(ok, failed, "read verification");
    for kind in [
        LEADS_TOP,
        LEADS_DRIVER,
        COMPANIES,
        COMPANY_EVENTS,
        ICP_SCORE,
    ] {
        let (total, n) = bytes.get(kind).copied().unwrap_or_default();
        let mean = total / n.max(1.0);
        out.count(&format!("server.response_bytes.{kind}"), mean, "bytes");
    }
}

/// The read mix, as one block of requests that every connection cycles
/// through in turn: 20% top leads, 20% per-driver leads (drivers in
/// turn), 10% companies, 30% company events and 20% ICP scores, in
/// exact proportions. The proportions are an assumption, not a
/// measured usage record.
///
/// Company popularity is Zipf-skewed (s = [`ZIPF_S`]) over the book's
/// own company ranking, the order a sales user browses: the j-th of k
/// company requests in a block goes to Zipf rank F⁻¹((j + ½) / k), and
/// rank r is the r-th company of `companies_top`. The run's seed
/// shuffles the block and generates the book behind it. Connection c
/// sends block positions c, c + n, …, so every `block` consecutive
/// requests in due order hold the same mix.
fn schedules(
    seed: u64,
    conns: usize,
    names: &[String],
    targets: &[Target],
) -> (Vec<Vec<u32>>, usize) {
    let block = P99_GROUP.div_ceil(conns) * conns;
    let n_drivers = targets.iter().filter(|t| t.kind == LEADS_DRIVER).count();
    let first_company = 1 + n_drivers + 1;
    let share = |p: f64| (p * block as f64).round() as usize;

    let mut cdf = Vec::with_capacity(names.len());
    let mut acc = 0.0;
    for r in 0..names.len() {
        acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let zipf_names = |k: usize| -> Vec<usize> {
        (0..k)
            .map(|j| {
                let x = (j as f64 + 0.5) / k as f64 * acc;
                cdf.partition_point(|&v| v < x).min(names.len() - 1)
            })
            .collect()
    };

    let mut mix: Vec<u32> = Vec::with_capacity(block);
    mix.extend(std::iter::repeat_n(0, share(0.2)));
    mix.extend((0..share(0.2)).map(|j| (1 + j % n_drivers.max(1)) as u32));
    mix.extend(std::iter::repeat_n((1 + n_drivers) as u32, share(0.1)));
    if !names.is_empty() {
        let events = zipf_names(share(0.3));
        mix.extend(events.iter().map(|&i| (first_company + i) as u32));
        let icp = zipf_names(block - mix.len());
        mix.extend(
            icp.iter()
                .map(|&i| (first_company + names.len() + i) as u32),
        );
    }
    mix.resize(block, 0);
    Rng::seed_from_u64(sub_seed(seed, "mix")).shuffle(&mut mix);
    let per_conn = (0..conns)
        .map(|c| mix.iter().skip(c).step_by(conns).copied().collect())
        .collect();
    (per_conn, block)
}

/// After ingest: the final generation is 1 + cycles, and both the served
/// book and the newest stored generation equal a book built from the
/// base events plus every polled batch, each identified by the model
/// its cycle served (priors adapted cycle by cycle).
///
/// Each accepted `404 unknown company` — name, last generation seen
/// before it, first seen after it — must be right for at least one
/// generation in those bounds: that generation's replayed book does not
/// resolve the name. Generation 1 resolves every name (the verification
/// pass checked it).
///
/// Returns how many of the read mix's generation-1 company names the
/// final book no longer resolves (`company_events` is `None` although
/// the name maps to a canonical company: the book's name keys and its
/// company ranking disagree).
#[allow(clippy::too_many_arguments)]
fn ingest_check(
    server: &ServerHandle,
    store: &GenerationStore,
    gen1: &LeadSnapshot,
    names: &[String],
    unknown: &[(&str, u64, u64)],
    poll: &WatchConfig,
    cycles: u64,
    out: &mut Outcome,
) -> usize {
    let served = server.snapshot();
    let last = served.generation;
    out.tally
        .check(last == 1 + cycles, "ingest: final generation is 1 + cycles");
    let mut pending: Vec<(&str, u64, u64)> = unknown
        .iter()
        .map(|&(name, after, before)| (name, after.max(2), before.min(last)))
        .collect();
    let mut events = gen1.book.events_owned();
    let mut trained = Arc::clone(&gen1.trained);
    let mut expected = None;
    for generation in 2..=last {
        let batch = SyntheticWeb::generate(WebConfig {
            seed: watch::poll_batch_seed(poll.poll_seed, generation),
            drivers: poll.drivers,
            ..WebConfig::with_docs(poll.poll_docs)
        });
        let fresh = trained.identify_events_parallel(batch.docs(), poll.threads);
        let rates = decompose::batch_rates(&trained, &fresh, poll.poll_docs);
        events.extend(fresh);
        trained = Arc::new(trained.with_adapted_priors(&rates, poll.prior_blend));
        let answered = |&(_, lo, hi): &(&str, u64, u64)| lo <= generation && generation <= hi;
        if generation == last {
            expected = Some(LeadBook::build(std::mem::take(&mut events)));
        } else if pending.iter().any(answered) {
            expected = Some(LeadBook::build(events.clone()));
        } else {
            continue;
        }
        let book = expected.as_ref().expect("a book was just built");
        pending.retain(|u| !(answered(u) && book.company_events(u.0).is_none()));
    }
    let expected = expected.unwrap_or_else(|| LeadBook::build(events));
    let wrong = pending.len() as u64;
    out.tally.ops(
        unknown.len() as u64 - wrong,
        wrong,
        "reads beside ingest: 404 for a company every possible generation resolves",
    );
    let stored = store.load_latest().ok().flatten();
    let stored_ok = stored.is_some_and(|(s, _)| {
        s.generation == served.generation && s.book.events_owned() == expected.events()
    });
    out.tally.check(
        served.book.as_owned() == Some(&expected),
        "ingest: served book differs from the rebuilt book",
    );
    out.tally.check(
        stored_ok,
        "ingest: newest stored generation differs from the rebuilt book",
    );
    names
        .iter()
        .filter(|n| expected.company_events(n).is_none())
        .count()
}

/// Median per-call time (µs) of `f` over batches of calls.
fn time_us(mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(LOOKUP_SAMPLES);
    let mut k = 0;
    for _ in 0..LOOKUP_SAMPLES {
        let t0 = Instant::now();
        for _ in 0..LOOKUP_BATCH {
            f(k);
            k += 1;
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e6 / LOOKUP_BATCH as f64);
    }
    median(&samples)
}

/// The lookups each read request makes, timed in-process.
fn lookup_layers(book: &BookHandle, names: &[String], out: &mut Outcome) {
    let drivers: Vec<SalesDriver> = DRIVER_KEYS.iter().map(|&(_, d)| d).collect();
    let name = |k: usize| names[(k * 7919) % names.len().max(1)].as_str();
    let icp = IcpConfig::default();
    out.layer(
        "leads2.top_us",
        time_us(|_| drop(black_box(book.top(50)))),
        "us",
    );
    out.layer(
        "leads2.top_for_us",
        time_us(|k| drop(black_box(book.top_for(drivers[k % 3], 20)))),
        "us",
    );
    out.layer(
        "leads2.companies_top_us",
        time_us(|_| drop(black_box(book.companies_top(20)))),
        "us",
    );
    if !names.is_empty() {
        out.layer(
            "leads2.company_events_us",
            time_us(|k| drop(black_box(book.company_events(name(k))))),
            "us",
        );
        out.layer(
            "icp.score_us",
            time_us(|k| drop(black_box(etap::icp::score(name(k), &icp)))),
            "us",
        );
    }
}

/// Median over root spans of each named layer's self time, plus the
/// root's unattributed share.
fn layer_medians(t: &Tracer, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
    let units = t.breakdown(root);
    let totals = t.durations_ms(root);
    let mut names: Vec<&'static str> = units.iter().flat_map(|u| u.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let medians = names
        .into_iter()
        .map(|n| {
            let values: Vec<f64> = units
                .iter()
                .map(|u| u.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, median(&values))
        })
        .collect();
    let shares: Vec<f64> = units
        .iter()
        .zip(&totals)
        .map(|(u, total)| u.get(root).copied().unwrap_or(0.0) / total.max(1e-9) * 100.0)
        .collect();
    (medians, median(&shares))
}

/// Per-layer self times from the recorded spans.
fn trace_layers(t: &Tracer, scan_ms: &[f64], out: &mut Outcome) {
    let (setup, _) = layer_medians(t, "setup");
    out.layer(
        "corpus.generate_ms",
        setup.get("corpus.generate").copied().unwrap_or(0.0),
        "ms",
    );
    out.layer(
        "rank.book_build_ms",
        setup.get("rank.book_build").copied().unwrap_or(0.0),
        "ms",
    );
    out.layer(
        "store.seed_publish_ms",
        setup.get("store.seed_publish").copied().unwrap_or(0.0),
        "ms",
    );

    let (train, train_un) = layer_medians(t, "train");
    for name in [
        "corpus.search",
        "training.harvest",
        "training.negatives",
        "training.fit",
    ] {
        out.layer(
            format!("{name}_ms"),
            train.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    out.layer("trace.train_unattributed_pct", train_un, "%");

    let (scan, scan_un) = layer_medians(t, "scan");
    for name in [
        "text.snippets",
        "annotate.annotate",
        "features.vectorize",
        "classify.posterior",
        "events.assemble",
        "rank.build",
    ] {
        out.layer(
            format!("{name}_ms"),
            scan.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    out.layer("trace.scan_unattributed_pct", scan_un, "%");
    out.layer("trace.scan_pass_ms", median(scan_ms), "ms");

    let (warm, warm_un) = layer_medians(t, "warm_start");
    for name in [
        "store.open",
        "store.manifest",
        "persist.map",
        "store.checksum",
        "leads2.open",
        "store.models",
        "server.start",
        "server.healthz",
    ] {
        out.layer(
            format!("{name}_ms"),
            warm.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    out.layer("store.load_ms", median(&t.durations_ms("store.load")), "ms");
    out.layer(
        "store.load_latest_ms",
        median(&t.durations_ms("store.load_latest")),
        "ms",
    );
    out.layer("trace.warm_unattributed_pct", warm_un, "%");

    let (cycle, cycle_un) = layer_medians(t, "cycle");
    for name in [
        "corpus.poll",
        "snapshot.materialize",
        "events.identify",
        "rank.cycle_build",
        "training.adapt",
        "snapshot.clone",
        "store.publish",
        "snapshot.drop",
    ] {
        out.layer(
            format!("{name}_ms"),
            cycle.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    out.layer(
        "snapshot.swap_us",
        cycle.get("snapshot.swap").copied().unwrap_or(0.0) * 1_000.0,
        "us",
    );
    out.layer(
        "leads2.encode_ms",
        median(&t.durations_ms("leads2.encode")),
        "ms",
    );
    out.layer("trace.cycle_unattributed_pct", cycle_un, "%");
    let attributed: f64 = cycle
        .iter()
        .filter(|(n, _)| **n != "cycle")
        .map(|(_, v)| v)
        .sum();
    out.layer("trace.cycle_layers_ms", attributed, "ms");
}
