//! Continuous monitoring: the deployed-ETAP loop, on the real daemon.
//!
//! The paper's product is an *alert program* — §1: "the earlier a
//! potential customer can be approached …, the higher are the chances
//! of converting that prospect". This example runs a compressed week
//! of operation through the actual continuous-ingest subsystem
//! (`etap_serve::watch`, DESIGN.md §10): generation 1 is sealed in a
//! crash-safe store and served over HTTP, then each "day" a supervised
//! cycle polls fresh documents, delta-scans them, adapts the class
//! priors toward the day's trigger rate, and seals + hot-swaps the
//! next generation. Midway, deterministic fault injection turns the
//! infrastructure hostile — failed writes, delayed polls, one panic —
//! and the supervisor retries through all of it.
//!
//! ```sh
//! cargo run --release --example daily_monitor
//! ```

use etap_repro::runtime::fault::{self, FaultPlan};
use etap_repro::serve::{watch, GenerationStore, LeadSnapshot, ServeConfig, WatchConfig};
use etap_repro::system::rank;
use etap_repro::{Etap, EtapConfig, SyntheticWeb, WebConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Train once, offline.
    println!("[setup] training on the archive web…");
    let archive = SyntheticWeb::generate(WebConfig::with_docs(2_000));
    let mut config = EtapConfig::paper();
    config.training.negative_snippets = 3_000;
    let trained = Arc::new(Etap::new(config).train(&archive));

    // Seal generation 1 before serving a single byte: the daemon's
    // crash-safety invariant is that the served generation never runs
    // ahead of the last sealed one.
    let root = std::env::temp_dir().join(format!("etap_daily_monitor_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = GenerationStore::open(&root)
        .expect("open store")
        .with_retention(4);
    let poll_seed = 0xDA11;
    let day_one = SyntheticWeb::generate(WebConfig {
        seed: watch::poll_batch_seed(poll_seed, 1),
        ..WebConfig::with_docs(300)
    });
    let gen1 = Arc::new(LeadSnapshot::build(Arc::clone(&trained), day_one.docs(), 1));
    store.publish(&gen1).expect("seal generation 1");

    let server = etap_repro::serve::start(
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::clone(&gen1),
    )
    .expect("start server");
    println!(
        "[day 1] serving generation 1 at http://{} ({} events, {} companies)",
        server.addr(),
        gen1.book.len(),
        gen1.book.companies_len()
    );

    let week = WatchConfig {
        interval: Duration::ZERO, // a compressed week: no sleep between days
        cycles: Some(2),
        poll_docs: 150,
        poll_seed,
        stage_timeout: Duration::from_secs(60),
        ..WatchConfig::default()
    };

    // Days 2–3: calm weather.
    let calm = watch::run(&server, &store, &week);
    assert_eq!(calm.cycles_failed, 0, "{:?}", calm.last_error);
    digest(&server, "calm days done");

    // Days 4–5: hostile weather — 10% of file writes fail, a fifth of
    // the polls lag, and the retrain stage panics exactly once. Same
    // spec + seed would replay the identical trace at any thread count.
    println!(
        "\n[chaos] arming deterministic faults: \
         persist.write=io@0.1, corpus.poll=delay:5ms@0.2, retrain=panic@once"
    );
    fault::install(
        &FaultPlan::parse(
            "persist.write=io@0.1,corpus.poll=delay:5ms@0.2,retrain=panic@once",
            0xB_ADDA,
        )
        .expect("valid plan"),
    );
    let stormy = watch::run(&server, &store, &week);
    let injected = fault::injected_total();
    fault::reset();
    digest(&server, "stormy days done");
    println!(
        "[chaos] {injected} fault(s) injected, {} stage retr{} absorbed, degraded: {}",
        stormy.retries,
        if stormy.retries == 1 { "y" } else { "ies" },
        stormy.degraded
    );

    let sealed = store.generations().expect("list");
    println!(
        "\n[week summary] generations sealed on disk: {sealed:?} (retention 4); \
         served generation {} == newest sealed {}",
        server.snapshot().generation,
        sealed.last().expect("sealed generations")
    );
    assert_eq!(
        server.snapshot().generation,
        *sealed.last().expect("sealed"),
        "the served generation must be the newest sealed one"
    );
    assert!(
        server.snapshot().generation >= 3,
        "calm days alone must have advanced the generation"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Print the day's top alerts from the *served* snapshot — what a
/// sales team polling `/leads` would see right now.
fn digest(server: &etap_repro::serve::ServerHandle, label: &str) {
    let snapshot = server.snapshot();
    println!(
        "\n=== {label}: serving generation {} ({} events) ===",
        snapshot.generation,
        snapshot.book.len()
    );
    let ranked = rank::rank_by_score(snapshot.book.events_owned());
    for e in ranked.iter().take(3) {
        println!("  [{:.3}] ({}) {}", e.score, e.driver, clip(&e.snippet, 92));
    }
}

fn clip(s: &str, n: usize) -> String {
    let mut t: String = s.chars().take(n).collect();
    if t.chars().count() < s.chars().count() {
        t.push('…');
    }
    t
}
