//! The program's composite calls re-expressed as the public calls they
//! make, each inside a span. The traced run uses these in place of
//! `Etap::train`, `TrainedEtap::identify_events_parallel`,
//! `GenerationStore::load_latest` and one `watch::run` cycle; every
//! run also checks that they produce the same output as the composite
//! call, so the per-layer times describe the code the end-to-end
//! metrics time.

use crate::trace::Tracer;
use etap::leads2::encode_book;
use etap::training::{
    collect_pure_positives, harvest_noisy_positives, sample_negatives, TrainedDriver,
    TrainingReport,
};
use etap::{BookHandle, EtapConfig, LeadBook, MappedBook, TrainedEtap, TriggerEvent};
use etap_annotate::{Annotator, EntityCategory};
use etap_classify::denoise::IterativeDenoiser;
use etap_classify::{Classifier, MultinomialNb};
use etap_corpus::{SearchEngine, SyntheticDoc, SyntheticWeb};
use etap_features::{VectorScratch, Vectorizer};
use etap_serve::store::{INDEX_FILE, MANIFEST_KIND, MANIFEST_VERSION, SHARD_DIR};
use etap_serve::{GenerationStore, LeadSnapshot, PublishOutcome, ServerHandle};
use etap_text::SnippetGenerator;
use std::hint::black_box;
use std::io;
use std::sync::Arc;

/// Score at or above which a snippet is a trigger event (the
/// `EventIdentifier` default).
const THRESHOLD: f64 = 0.5;

/// `Etap::train`: index, then per driver harvest → negatives → fit.
///
/// The smart-query searches run twice: once alone under
/// `corpus.search`, and again inside the harvest that needs their hits
/// (the harvest performs them internally). The first pass is extra work
/// of the traced run and shows in its overhead.
pub fn train(config: &EtapConfig, web: &SyntheticWeb, t: &mut Tracer) -> TrainedEtap {
    let tc = &config.training;
    let annotator = Annotator::new();
    let engine = t.span("corpus.search", |_| {
        let engine = SearchEngine::build(web.docs());
        for spec in &config.drivers {
            for query in &spec.smart_queries {
                black_box(engine.search(query, tc.top_docs_per_query));
            }
        }
        engine
    });
    let drivers = config
        .drivers
        .iter()
        .map(|spec| {
            let (harvest, pure) = t.span("training.harvest", |_| {
                (
                    harvest_noisy_positives(spec, &engine, web, &annotator, tc),
                    collect_pure_positives(spec, web, &annotator, tc, |_| false),
                )
            });
            let negatives = t.span("training.negatives", |_| {
                sample_negatives(web, &annotator, tc, |_| false)
            });
            t.span("training.fit", |_| {
                let mut vectorizer = Vectorizer::new(tc.policy.clone()).with_bigrams(tc.bigrams);
                let noisy = vectorizer.vectorize_batch(&harvest.noisy, tc.threads);
                let pure = vectorizer.vectorize_batch(&pure, tc.threads);
                let negatives = vectorizer.vectorize_batch(&negatives, tc.threads);
                vectorizer.freeze();
                let denoiser = IterativeDenoiser {
                    config: tc.denoise,
                    threads: tc.threads,
                };
                let outcome = denoiser.run(&MultinomialNb::new(), &noisy, &pure, &negatives);
                TrainedDriver {
                    spec: spec.clone(),
                    vectorizer,
                    report: TrainingReport {
                        docs_fetched: harvest.docs_fetched,
                        snippets_considered: harvest.snippets_considered,
                        noisy_positives: noisy.len(),
                        retained_positives: outcome.retained.len(),
                        iterations: outcome.iterations(),
                    },
                    model: outcome.model,
                }
            })
        })
        .collect();
    TrainedEtap::from_drivers(drivers, tc.snippet_window)
}

/// `identify_events_parallel` over one chunk: snippets → annotate →
/// vectorize → posterior → events. Returns the events and the number of
/// snippets scored.
pub fn identify(
    trained: &TrainedEtap,
    annotator: &Annotator,
    docs: &[SyntheticDoc],
    threads: usize,
    t: &mut Tracer,
) -> (Vec<TriggerEvent>, usize) {
    let snippets = t.span("text.snippets", |_| {
        let texts: Vec<String> = docs.iter().map(SyntheticDoc::text).collect();
        SnippetGenerator::new(trained.snippet_window()).snippets_batch(&texts, threads)
    });
    let mut owner = Vec::new();
    let mut texts: Vec<&str> = Vec::new();
    for (d, snips) in snippets.iter().enumerate() {
        for s in snips {
            owner.push(d);
            texts.push(&s.text);
        }
    }
    let annotated = t.span("annotate.annotate", |_| {
        annotator.annotate_batch(&texts, threads)
    });
    let vectors: Vec<_> = t.span("features.vectorize", |_| {
        trained
            .drivers
            .iter()
            .map(|d| {
                etap_runtime::par_map_with(&annotated, threads, VectorScratch::new, |s, a| {
                    d.vectorizer.vectorize_frozen(a, s)
                })
            })
            .collect()
    });
    let scores: Vec<Vec<f64>> = t.span("classify.posterior", |_| {
        trained
            .drivers
            .iter()
            .zip(&vectors)
            .map(|(d, v)| d.model.posterior_batch(v, threads))
            .collect()
    });
    let events = t.span("events.assemble", |_| {
        let mut events = Vec::new();
        for (i, ann) in annotated.iter().enumerate() {
            let doc = &docs[owner[i]];
            for (d, trained) in trained.drivers.iter().enumerate() {
                let score = scores[d][i];
                if score < THRESHOLD {
                    continue;
                }
                let companies = ann
                    .entities()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.category == EntityCategory::Org)
                    .map(|(ei, _)| ann.entity_text(ei))
                    .collect();
                events.push(TriggerEvent {
                    driver: trained.spec.driver,
                    doc_id: doc.id,
                    url: doc.url.clone(),
                    snippet: texts[i].to_string(),
                    score,
                    companies,
                    doc_date: doc.date,
                });
            }
        }
        events
    });
    (events, texts.len())
}

/// `GenerationStore::load` of one binary generation: manifest → map
/// and checksum each file → validate the mapped book → load models.
///
/// # Errors
/// Any file or validation failure, as an `io::Error`.
pub fn load(store: &GenerationStore, generation: u64, t: &mut Tracer) -> io::Result<LeadSnapshot> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let dir = store.root().join(format!("gen-{generation}"));
    let (_, records) = t
        .span("store.manifest", |_| {
            etap_persist::read_file(&dir.join("MANIFEST"), MANIFEST_KIND, MANIFEST_VERSION)
        })
        .map_err(|e| invalid(e.to_string()))?;
    let mut window = 3usize;
    let mut index = None;
    let mut shards = Vec::new();
    let mut drivers = Vec::new();
    for rec in &records {
        match rec.tag() {
            "window" => window = rec.parse(1).map_err(|e| invalid(e.to_string()))?,
            "file" => {
                let field = |i| rec.str(i).map_err(|e| invalid(e.to_string()));
                let name = field(1)?;
                let checksum =
                    u64::from_str_radix(field(2)?, 16).map_err(|e| invalid(e.to_string()))?;
                let path = dir.join(name);
                if name.ends_with(".model") {
                    drivers.push(t.span("store.models", |_| etap::persist::load(&path))?);
                    continue;
                }
                let arena = Arc::new(t.span("persist.map", |_| etap_persist::open_arena(&path))?);
                let sum = t.span("store.checksum", |_| etap_persist::fnv1a64(arena.bytes()));
                if sum != checksum {
                    return Err(invalid(format!("{name}: checksum mismatch")));
                }
                if name == INDEX_FILE {
                    index = Some(arena);
                } else if name.starts_with(SHARD_DIR) {
                    shards.push(arena);
                }
            }
            _ => {}
        }
    }
    let index = index.ok_or_else(|| invalid("no book.index in manifest".to_string()))?;
    let book = t
        .span("leads2.open", |_| MappedBook::open(index, shards))
        .map_err(|e| invalid(e.to_string()))?;
    Ok(LeadSnapshot {
        generation,
        book: BookHandle::Mapped(Arc::new(book)),
        trained: Arc::new(TrainedEtap::from_drivers(drivers, window)),
    })
}

/// What one decomposed ingest cycle wrote.
pub struct Cycle {
    pub outcome: PublishOutcome,
    pub generation: u64,
}

/// One `watch::run` cycle: poll → extend (materialize, identify,
/// re-rank) → adapt priors → publish → swap, with the same pinning.
///
/// # Errors
/// The store publish failure.
pub fn cycle(
    server: &ServerHandle,
    store: &GenerationStore,
    poll: &etap_serve::WatchConfig,
    t: &mut Tracer,
) -> io::Result<Cycle> {
    t.span("cycle", |t| {
        let base = server.snapshot();
        let generation = base.generation + 1;
        let docs = t.span("corpus.poll", |_| {
            SyntheticWeb::generate(etap_corpus::WebConfig {
                seed: etap_serve::watch::poll_batch_seed(poll.poll_seed, generation),
                drivers: poll.drivers,
                ..etap_corpus::WebConfig::with_docs(poll.poll_docs)
            })
            .docs()
            .to_vec()
        });
        let mut events = t.span("snapshot.materialize", |_| base.book.events_owned());
        let fresh = t.span("events.identify", |_| {
            base.trained.identify_events_parallel(&docs, poll.threads)
        });
        let rates = batch_rates(&base.trained, &fresh, poll.poll_docs);
        events.extend(fresh);
        let extended: BookHandle = t
            .span("rank.cycle_build", |_| LeadBook::build(events))
            .into();
        // The retrain stage builds its snapshot from a clone of the
        // extended book, which for an owned book is a deep copy.
        let next = t.span("training.adapt", |t| LeadSnapshot {
            generation,
            book: t.span("snapshot.clone", |_| extended.clone()),
            trained: Arc::new(base.trained.with_adapted_priors(&rates, poll.prior_blend)),
        });
        store.pin(base.generation);
        let outcome = t.span("store.publish", |_| store.publish(&next))?;
        t.span("snapshot.swap", |_| server.publish_snapshot(Arc::new(next)));
        store.pin(generation);
        t.span("snapshot.drop", |_| drop((extended, base)));
        Ok(Cycle {
            outcome,
            generation,
        })
    })
}

/// Per-driver trigger rate of one polled batch: the rates `watch::run`
/// blends into the class priors.
#[must_use]
pub fn batch_rates(trained: &TrainedEtap, fresh: &[TriggerEvent], poll_docs: usize) -> Vec<f64> {
    trained
        .drivers
        .iter()
        .map(|d| {
            let n = fresh.iter().filter(|e| e.driver == d.spec.driver).count();
            n as f64 / poll_docs.max(1) as f64
        })
        .collect()
}

/// Time `encode_book` alone on an owned book (the store publish encodes
/// internally; this separate call attributes that part).
pub fn encode(book: &BookHandle, shards: u32, t: &mut Tracer) {
    if let Some(owned) = book.as_owned() {
        t.span("leads2.encode", |_| black_box(encode_book(owned, shards)));
    }
}
