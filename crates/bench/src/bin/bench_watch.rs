//! **Watch-loop latency** — what the continuous-ingest daemon costs
//! per cycle, and how fast it recovers from injected crashes.
//!
//! Setup (untimed): train a one-driver system, seal generation 1 into
//! a fresh store. Timed:
//!
//! * **steady cycle** — mean wall-clock of a fault-free
//!   poll → extend → retrain → publish cycle (`etap_serve::watch`);
//! * **publish → swap** — sealing a prepared snapshot in the store and
//!   hot-swapping it live (the serving cut-over cost alone);
//! * **faulted cycle** — mean successful-cycle latency with
//!   `persist.write=io@0.3` injected: what supervised retries add;
//! * **recovery** — after the faulted run, time from a cold
//!   `GenerationStore::open` through `load_latest` to a started server
//!   (the kill -9 → serving-again path).
//!
//! Writes `BENCH_watch.json` into the current directory:
//!
//! ```json
//! {"cycles": ..., "steady_cycle_ms": ..., "publish_to_swap_ms": ...,
//!  "faulted_cycle_ms": ..., "faulted_retries": ..., "recovery_ms": ...,
//!  "stages": {"watch.poll": ..., "watch.extend": ..., ...}}
//! ```
//!
//! `stages` is the total ms spent per cycle stage across the steady
//! run (the same `etap_runtime::perf` timers the pipeline bench uses;
//! a few scoped timers per cycle cost nanoseconds against ms-scale
//! cycles, so they stay on during the timed run). Besides the four
//! `watch.*` stages it lists the stages nested in them: the scan
//! stages and `rank.build` inside `watch.extend`, `persist.publish`
//! inside `watch.publish`.
//!
//! ```sh
//! cargo run --release -p etap-bench --bin bench_watch
//! ```
//!
//! Knobs: `ETAP_WATCH_CYCLES` (default 5), `ETAP_WATCH_DOCS` (batch
//! size, default 80), `ETAP_SERVE_BENCH_DOCS` (training web size,
//! default 900).

use etap::{DriverSpec, Etap, EtapConfig, SalesDriver};
use etap_bench::env_usize;
use etap_corpus::{SyntheticWeb, WebConfig};
use etap_runtime::fault::{self, FaultPlan};
use etap_runtime::supervise::RetryPolicy;
use etap_serve::{watch, GenerationStore, LeadSnapshot, ServeConfig, WatchConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn mean_ms(durations: &[Duration]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    durations.iter().map(Duration::as_secs_f64).sum::<f64>() / durations.len() as f64 * 1_000.0
}

fn main() {
    let train_docs = env_usize("ETAP_SERVE_BENCH_DOCS", 900);
    let poll_docs = env_usize("ETAP_WATCH_DOCS", 80);
    let cycles = env_usize("ETAP_WATCH_CYCLES", 5).max(1) as u64;

    let web = SyntheticWeb::generate(WebConfig {
        total_docs: train_docs,
        ..WebConfig::default()
    });
    let mut config = EtapConfig::paper();
    config.training.top_docs_per_query = 50;
    config.training.negative_snippets = (train_docs * 3 / 2).min(2_000);
    config.drivers = vec![DriverSpec::builtin(SalesDriver::ChangeInManagement)];
    eprintln!("training watch driver over {train_docs} docs…");
    let trained = Arc::new(Etap::new(config).train(&web));

    let root = std::env::temp_dir().join(format!("etap_bench_watch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = GenerationStore::open(&root)
        .expect("open store")
        .with_retention(64);
    let poll_seed = 0x011_A7C4;
    let crawl = SyntheticWeb::generate(WebConfig {
        seed: watch::poll_batch_seed(poll_seed, 1),
        ..WebConfig::with_docs(poll_docs)
    });
    let gen1 = Arc::new(LeadSnapshot::build(Arc::clone(&trained), crawl.docs(), 1));
    store.publish(&gen1).expect("seal generation 1");

    let serve_config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = etap_serve::start(&serve_config, Arc::clone(&gen1)).expect("server");
    let watch_config = WatchConfig {
        interval: Duration::ZERO,
        cycles: Some(cycles),
        poll_docs,
        poll_seed,
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
        ..WatchConfig::default()
    };

    // Steady state: fault-free cycles, with per-stage timers on.
    eprintln!("running {cycles} steady cycle(s)…");
    etap_runtime::perf::set_enabled(true);
    etap_runtime::perf::reset();
    let steady = watch::run(&server, &store, &watch_config);
    let stage_profile = etap_runtime::perf::report();
    etap_runtime::perf::set_enabled(false);
    assert_eq!(steady.cycles_failed, 0, "{:?}", steady.last_error);
    let steady_cycle_ms = mean_ms(&steady.cycle_durations);

    // Publish → swap: seal a prepared snapshot and cut it over live.
    let base = server.snapshot();
    let delta = SyntheticWeb::generate(WebConfig {
        seed: watch::poll_batch_seed(poll_seed, base.generation + 1),
        ..WebConfig::with_docs(poll_docs)
    });
    let next = Arc::new(LeadSnapshot::extend(
        &base,
        delta.docs(),
        base.generation + 1,
        0,
    ));
    let t0 = Instant::now();
    store.publish(&next).expect("publish prepared snapshot");
    server.publish_snapshot(Arc::clone(&next));
    let publish_to_swap_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    // Faulted cycles: injected write failures exercise the retry path.
    eprintln!("running {cycles} faulted cycle(s) (persist.write=io@0.3)…");
    fault::install(&FaultPlan::parse("persist.write=io@0.3", 42).expect("plan"));
    let faulted = watch::run(&server, &store, &watch_config);
    fault::reset();
    let faulted_cycle_ms = mean_ms(&faulted.cycle_durations);

    // Recovery: cold open → newest sealed generation → serving again.
    server.shutdown();
    let t0 = Instant::now();
    let reopened = GenerationStore::open(&root).expect("reopen");
    let (snapshot, _skipped) = reopened
        .load_latest()
        .expect("scan")
        .expect("sealed generation");
    let revived = etap_serve::start(&serve_config, Arc::new(snapshot)).expect("restart");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    revived.shutdown();

    let json = format!(
        "{{\"cycles\": {cycles}, \"steady_cycle_ms\": {steady_cycle_ms:.2}, \
         \"publish_to_swap_ms\": {publish_to_swap_ms:.2}, \
         \"faulted_cycle_ms\": {faulted_cycle_ms:.2}, \
         \"faulted_retries\": {}, \"recovery_ms\": {recovery_ms:.2}, \
         \"stages\": {}}}",
        faulted.retries,
        stage_profile.to_json_ms()
    );
    println!("{json}");
    std::fs::write("BENCH_watch.json", format!("{json}\n")).expect("write BENCH_watch.json");
    eprintln!("wrote BENCH_watch.json");
    let _ = std::fs::remove_dir_all(&root);
}
