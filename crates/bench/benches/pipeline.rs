//! Plain-`std` micro-benchmarks for every pipeline stage.
//!
//! These measure the *systems* cost of the reproduction (throughput of
//! tokenization, annotation, classification, retrieval and the
//! end-to-end event-identification path) — the paper reports no
//! performance numbers, but a production ETAP lives or dies on snippet
//! throughput against a live crawl.
//!
//! Formerly a `criterion` harness; rewritten on `std::time::Instant`
//! so the workspace builds with zero external dependencies (see
//! DESIGN.md, "Zero-dependency policy"). Each benchmark warms up, then
//! reports the best-of-N wall time and derived throughput.
//!
//! ```sh
//! cargo bench -p etap-bench
//! ```

use std::time::Instant;

use etap::training::train_driver;
use etap::{DriverSpec, EventIdentifier, SalesDriver, TrainingConfig};
use etap_annotate::Annotator;
use etap_corpus::{SearchEngine, SyntheticWeb, WebConfig};
use etap_text::{SentenceChunker, SnippetGenerator};

/// Run `f` once to warm up, then `reps` timed times; returns the best
/// wall time in seconds. `sink` consumes the result so the optimizer
/// cannot delete the work.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    std::hint::black_box(f()); // warm-up
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn report(group: &str, name: &str, secs: f64, work: f64, unit: &str) {
    println!(
        "{group:<10} {name:<28} {:>10.3} ms   {:>12.0} {unit}/s",
        secs * 1e3,
        work / secs
    );
}

fn sample_text(web: &SyntheticWeb, n: usize) -> String {
    let mut s = String::new();
    for doc in web.docs().iter().take(n) {
        s.push_str(&doc.text());
        s.push('\n');
    }
    s
}

fn bench_tokenize() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(200));
    let text = sample_text(&web, 200);
    let bytes = text.len() as f64;
    let t = time_best(20, || etap_text::tokenize(&text).len());
    report("text", "tokenize", t, bytes, "B");
    let chunker = SentenceChunker::new();
    let t = time_best(20, || chunker.sentences(&text).len());
    report("text", "sentence_chunk", t, bytes, "B");
    let snipgen = SnippetGenerator::new(3);
    let t = time_best(20, || snipgen.snippets(&text).len());
    report("text", "snippets", t, bytes, "B");
}

fn bench_annotate() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(50));
    let snipgen = SnippetGenerator::new(3);
    let snippets: Vec<String> = web
        .docs()
        .iter()
        .flat_map(|d| snipgen.snippets(&d.text()))
        .map(|s| s.text)
        .collect();
    let bytes: usize = snippets.iter().map(String::len).sum();
    let annotator = Annotator::new();
    let t = time_best(10, || {
        snippets
            .iter()
            .map(|s| annotator.annotate(s).entities().len())
            .sum::<usize>()
    });
    report("annotate", "ner_pos_full", t, bytes as f64, "B");
}

fn bench_classify() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(800));
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = TrainingConfig {
        negative_snippets: 1_000,
        ..TrainingConfig::default()
    };
    let spec = DriverSpec::builtin(SalesDriver::ChangeInManagement);
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
    let snipgen = SnippetGenerator::new(3);
    let snippets: Vec<_> = web
        .docs()
        .iter()
        .take(60)
        .flat_map(|d| snipgen.snippets(&d.text()))
        .map(|s| annotator.annotate(&s.text))
        .collect();
    let t = time_best(20, || {
        snippets.iter().map(|s| trained.score(s)).sum::<f64>()
    });
    report("classify", "nb_score_snippets", t, snippets.len() as f64, "snip");
}

fn bench_search() {
    for &docs in &[500usize, 2_000, 8_000] {
        let web = SyntheticWeb::generate(WebConfig::with_docs(docs));
        let engine = SearchEngine::build(web.docs());
        let t = time_best(20, || engine.search("\"new ceo\"", 200).len());
        report(
            "search",
            &format!("bm25_phrase_query/{docs}"),
            t,
            1.0,
            "query",
        );
    }
    let web = SyntheticWeb::generate(WebConfig::with_docs(2_000));
    let t = time_best(5, || SearchEngine::build(web.docs()).num_docs());
    report("search", "index_build_2k_docs", t, web.len() as f64, "doc");
}

fn bench_pipeline() {
    let web = SyntheticWeb::generate(WebConfig::with_docs(800));
    let engine = SearchEngine::build(web.docs());
    let annotator = Annotator::new();
    let config = TrainingConfig {
        negative_snippets: 1_000,
        ..TrainingConfig::default()
    };
    let spec = DriverSpec::builtin(SalesDriver::RevenueGrowth);
    let trained = train_driver(&spec, &engine, &web, &annotator, &config, |_| false);
    let fresh = SyntheticWeb::generate(WebConfig {
        seed: 31,
        ..WebConfig::with_docs(40)
    });
    let identifier = EventIdentifier::new(3);
    let drivers = [trained];
    let t = time_best(10, || identifier.identify(&drivers, fresh.docs()).len());
    report(
        "pipeline",
        "identify_events_40_docs",
        t,
        fresh.len() as f64,
        "doc",
    );
}

fn main() {
    println!(
        "{:<10} {:<28} {:>13}   {:>14}",
        "group", "benchmark", "best time", "throughput"
    );
    bench_tokenize();
    bench_annotate();
    bench_classify();
    bench_search();
    bench_pipeline();
}
