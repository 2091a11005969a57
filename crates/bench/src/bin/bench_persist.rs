//! **Persistence latency** — how long a publish, a load, and a serving
//! warm start take through the generation store.
//!
//! Setup (untimed): train a one-driver system and build a lead snapshot
//! from a fresh crawl. Timed, averaged over `ETAP_PERSIST_ROUNDS`
//! rounds:
//!
//! * **publish** — encode + fsync a whole `LEADS v2` generation
//!   (`GenerationStore::publish`, checksummed MANIFEST protocol);
//! * **load** — map it back fully validated (`GenerationStore::load`:
//!   manifest, per-file checksums, mapped-book validation, models);
//! * **warm start** — `load_latest` + `etap_serve::start` until the
//!   server answers `/healthz` — the crash-recovery path measured to
//!   first served byte;
//! * **extend** — incremental `LeadSnapshot::extend` over a fresh delta
//!   crawl, versus the full rebuild it is guaranteed to match.
//!
//! Writes `BENCH_persist.json` into the current directory:
//!
//! ```json
//! {"events": ..., "publish_ms": ..., "load_ms": ...,
//!  "warm_start_ms": ..., "extend_ms": ..., "full_rebuild_ms": ...}
//! ```
//!
//! ```sh
//! cargo run --release -p etap-bench --bin bench_persist
//! ```
//!
//! Knobs: `ETAP_PERSIST_ROUNDS` (default 5), `ETAP_PERSIST_DOCS`
//! (crawl size, default 400), `ETAP_SERVE_BENCH_DOCS` (training web
//! size, default 900).

use etap::{DriverSpec, Etap, EtapConfig, SalesDriver};
use etap_bench::env_usize;
use etap_corpus::{SyntheticWeb, WebConfig};
use etap_serve::{GenerationStore, LeadSnapshot, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1_000.0
}

fn main() {
    let train_docs = env_usize("ETAP_SERVE_BENCH_DOCS", 900);
    let crawl_docs = env_usize("ETAP_PERSIST_DOCS", 400);
    let rounds = env_usize("ETAP_PERSIST_ROUNDS", 5).max(1);

    let web = SyntheticWeb::generate(WebConfig {
        total_docs: train_docs,
        ..WebConfig::default()
    });
    let mut config = EtapConfig::paper();
    config.training.top_docs_per_query = 50;
    config.training.negative_snippets = (train_docs * 3 / 2).min(2_000);
    config.drivers = vec![DriverSpec::builtin(SalesDriver::ChangeInManagement)];
    eprintln!("training snapshot driver over {train_docs} docs…");
    let trained = Arc::new(Etap::new(config).train(&web));
    let crawl = SyntheticWeb::generate(WebConfig {
        total_docs: crawl_docs,
        seed: 7,
        ..WebConfig::default()
    });
    let delta = SyntheticWeb::generate(WebConfig {
        total_docs: crawl_docs / 4,
        seed: 11,
        ..WebConfig::default()
    });
    let snapshot = LeadSnapshot::build(Arc::clone(&trained), crawl.docs(), 1);
    eprintln!(
        "snapshot: {} events, {} companies",
        snapshot.book.len(),
        snapshot.book.companies_len()
    );

    let root = std::env::temp_dir().join(format!("etap_bench_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = GenerationStore::open(&root).expect("open store");

    let mut publish_ms = 0.0;
    let mut load_ms = 0.0;
    let mut warm_start_ms = 0.0;
    let mut extend_ms = 0.0;
    let mut full_rebuild_ms = 0.0;

    let mut union: Vec<_> = crawl.docs().to_vec();
    union.extend(delta.docs().iter().cloned());

    for round in 0..rounds {
        eprintln!("round {}/{rounds}…", round + 1);
        publish_ms += time_ms(|| {
            store.publish(&snapshot).expect("publish");
        });
        load_ms += time_ms(|| {
            let loaded = store.load(1).expect("load");
            assert_eq!(loaded.book.len(), snapshot.book.len());
        });
        warm_start_ms += time_ms(|| {
            let (loaded, _) = store
                .load_latest()
                .expect("scan")
                .expect("a stored generation");
            let mut cfg = ServeConfig::from_env();
            cfg.addr = "127.0.0.1:0".to_string();
            let server = etap_serve::start(&cfg, Arc::new(loaded)).expect("start");
            // Warm start "done" = first byte served, not just booted.
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")
                .expect("write");
            let mut response = Vec::new();
            stream.read_to_end(&mut response).expect("read");
            assert!(!response.is_empty());
            server.shutdown();
        });
        extend_ms += time_ms(|| {
            let extended = LeadSnapshot::extend(&snapshot, delta.docs(), 2, 0);
            assert!(extended.book.len() >= snapshot.book.len());
        });
        full_rebuild_ms += time_ms(|| {
            let rebuilt = LeadSnapshot::build(Arc::clone(&trained), &union, 2);
            assert!(rebuilt.book.len() >= snapshot.book.len());
        });
    }
    let n = rounds as f64;
    let (publish_ms, load_ms, warm_start_ms, extend_ms, full_rebuild_ms) = (
        publish_ms / n,
        load_ms / n,
        warm_start_ms / n,
        extend_ms / n,
        full_rebuild_ms / n,
    );

    println!("persistence (mean of {rounds} rounds, {} events):", snapshot.book.len());
    println!("  publish      : {publish_ms:>8.2} ms");
    println!("  load         : {load_ms:>8.2} ms");
    println!("  warm start   : {warm_start_ms:>8.2} ms (load_latest → first served byte)");
    println!(
        "  extend       : {extend_ms:>8.2} ms vs full rebuild {full_rebuild_ms:.2} ms ({:.2}×)",
        full_rebuild_ms / extend_ms.max(1e-9)
    );

    let json = format!(
        "{{\"events\": {}, \"publish_ms\": {publish_ms:.2}, \"load_ms\": {load_ms:.2}, \
         \"warm_start_ms\": {warm_start_ms:.2}, \"extend_ms\": {extend_ms:.2}, \
         \"full_rebuild_ms\": {full_rebuild_ms:.2}}}\n",
        snapshot.book.len()
    );
    std::fs::write("BENCH_persist.json", &json).expect("write BENCH_persist.json");
    println!("\nwrote BENCH_persist.json: {json}");

    let _ = std::fs::remove_dir_all(&root);
}
