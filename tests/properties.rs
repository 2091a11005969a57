//! Property-based tests over the core data structures and invariants,
//! spanning crates (tokenizer ↔ chunker ↔ snippets ↔ annotator ↔
//! vectorizer ↔ classifiers).
//!
//! Compiled only under the off-by-default `proptest` cargo feature: the
//! external `proptest` crate cannot be fetched in the offline build
//! environment. Restore the dev-dependency and run
//! `cargo test --features proptest` to execute these.
#![cfg(feature = "proptest")]

use etap_repro::annotate::Annotator;
use etap_repro::classify::{Classifier, Dataset, Label, MultinomialNb, Trainer};
use etap_repro::features::{SparseVec, Vectorizer};
use etap_repro::system::aliases::AliasResolver;
use etap_repro::system::temporal::{Date, TemporalResolver};
use etap_repro::text::{tokenize, SentenceChunker, SnippetGenerator};
use proptest::prelude::*;

/// Text made of words, digits, punctuation and whitespace — adversarial
/// but printable.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-zA-Z]{1,12}".prop_map(|s| s),
            "[0-9]{1,6}".prop_map(|s| s),
            Just(".".to_string()),
            Just("!".to_string()),
            Just("?".to_string()),
            Just(",".to_string()),
            Just("$".to_string()),
            Just("%".to_string()),
            Just("Mr.".to_string()),
            Just("Inc.".to_string()),
            Just("5.3".to_string()),
            Just("IBM".to_string()),
            Just("New York".to_string()),
        ],
        0..60,
    )
    .prop_map(|words| words.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tokens_map_back_to_source(text in arb_text()) {
        for tok in tokenize(&text) {
            prop_assert_eq!(&text[tok.start..tok.end], tok.text);
        }
    }

    #[test]
    fn tokens_are_ordered_and_disjoint(text in arb_text()) {
        let toks = tokenize(&text);
        for w in toks.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn tokens_cover_all_non_whitespace(text in arb_text()) {
        let toks = tokenize(&text);
        let covered: usize = toks.iter().map(|t| t.text.len()).sum();
        let expected: usize = text
            .chars()
            .filter(|c| !c.is_whitespace() && !c.is_control())
            .map(char::len_utf8)
            .sum();
        prop_assert_eq!(covered, expected);
    }

    #[test]
    fn sentences_are_ordered_disjoint_and_nonempty(text in arb_text()) {
        let chunker = SentenceChunker::new();
        let spans = chunker.sentences(&text);
        for w in spans.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        for s in &spans {
            prop_assert!(s.start < s.end);
            prop_assert!(!s.text(&text).trim().is_empty());
        }
    }

    #[test]
    fn disjoint_snippets_partition_sentences(text in arb_text(), n in 1usize..6) {
        let gen = SnippetGenerator::new(n);
        let chunker = SentenceChunker::new();
        let n_sentences = chunker.sentences(&text).len();
        let snippets = gen.snippets(&text);
        let total: usize = snippets.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, n_sentences);
        for s in &snippets {
            prop_assert!(s.len >= 1 && s.len <= n);
        }
    }

    #[test]
    fn annotator_entities_are_ordered_disjoint(text in arb_text()) {
        let ann = Annotator::new().annotate(&text);
        for w in ann.entities().windows(2) {
            prop_assert!(
                w[0].first_token + w[0].token_len <= w[1].first_token,
                "{:?}", ann.entities()
            );
        }
        // Every entity token index is in range and links back.
        for (ei, e) in ann.entities().iter().enumerate() {
            for ti in e.token_range() {
                prop_assert_eq!(ann.entity_of(ti), Some(ei));
            }
        }
    }

    #[test]
    fn vectorizer_is_pure_given_frozen_vocab(text in arb_text()) {
        let annotated = Annotator::new().annotate(&text);
        let mut vz = Vectorizer::paper_default();
        let _ = vz.vectorize(&annotated);
        vz.freeze();
        let a = vz.vectorize(&annotated);
        let b = vz.vectorize(&annotated);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sparse_vec_dedup_invariants(pairs in proptest::collection::vec((0u32..500, 0.5f32..4.0), 0..40)) {
        let v = SparseVec::from_pairs(pairs.clone());
        // Sorted, unique ids.
        let ids: Vec<u32> = v.iter().map(|&(id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(&ids, &sorted);
        // Total preserved.
        let total_in: f64 = pairs.iter().map(|&(_, c)| f64::from(c)).sum();
        prop_assert!((v.total() - total_in).abs() < 1e-3);
    }

    #[test]
    fn nb_posterior_is_probability(
        pos_ids in proptest::collection::vec(0u32..50, 1..10),
        neg_ids in proptest::collection::vec(50u32..100, 1..10),
        probe in proptest::collection::vec(0u32..120, 0..15),
    ) {
        let mut data = Dataset::new();
        for _ in 0..5 {
            data.push(pos_ids.iter().map(|&i| (i, 1.0)).collect(), Label::Positive);
            data.push(neg_ids.iter().map(|&i| (i, 1.0)).collect(), Label::Negative);
        }
        let model = MultinomialNb::new().fit(&data);
        let v: SparseVec = probe.iter().map(|&i| (i, 1.0)).collect();
        let p = model.posterior(&v);
        prop_assert!((0.0..=1.0).contains(&p), "{}", p);
        prop_assert!(p.is_finite());
    }

    #[test]
    fn nb_training_features_classified_correctly(
        seed_pos in 0u32..40,
        seed_neg in 40u32..80,
    ) {
        let mut data = Dataset::new();
        for _ in 0..10 {
            data.push([(seed_pos, 1.0f32)].into_iter().collect(), Label::Positive);
            data.push([(seed_neg, 1.0f32)].into_iter().collect(), Label::Negative);
        }
        let model = MultinomialNb::new().fit(&data);
        let pv: SparseVec = [(seed_pos, 1.0f32)].into_iter().collect();
        let nv: SparseVec = [(seed_neg, 1.0f32)].into_iter().collect();
        prop_assert!(model.posterior(&pv) > 0.5);
        prop_assert!(model.posterior(&nv) < 0.5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alias_canonicalization_is_idempotent(name in "[A-Z][a-z]{2,10}( [A-Z][a-z]{2,10}){0,2}") {
        let mut r = AliasResolver::new();
        let a = r.canonicalize(&name);
        let b = r.canonicalize(&name);
        let c = r.canonicalize(&a);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn alias_designators_never_split_a_company(
        base in "[A-Z][a-z]{3,10}",
        suffix in prop_oneof![
            Just("Inc"), Just("Corp"), Just("Ltd"), Just("Group"), Just("Holdings")
        ],
    ) {
        let mut r = AliasResolver::new();
        let plain = r.canonicalize(&base);
        let with_suffix = r.canonicalize(&format!("{base} {suffix}"));
        prop_assert_eq!(plain, with_suffix);
    }

    #[test]
    fn temporal_resolution_never_panics(phrase in "[a-zA-Z0-9 ,]{0,40}") {
        let resolver = TemporalResolver::new();
        let _ = resolver.resolve(&phrase, Date::new(2005, 6, 15));
    }

    #[test]
    fn temporal_years_resolve_to_themselves(y in 1900u16..2099) {
        let resolver = TemporalResolver::new();
        let d = resolver.resolve(&y.to_string(), Date::new(2005, 6, 15));
        prop_assert_eq!(d.map(|d| d.year), Some(y));
    }

    #[test]
    fn recency_score_is_bounded(
        y in 1950u16..2010,
        m in 1u8..=12,
        half_life in 10.0f64..5000.0,
    ) {
        let ann = Annotator::new();
        let snip = ann.annotate(&format!("Revenue peaked back in {y}."));
        let score = TemporalResolver::new().recency_score(
            &snip,
            Date::new(2005, m, 15),
            half_life,
        );
        prop_assert!((0.0..=1.0).contains(&score), "{}", score);
    }

    #[test]
    fn date_ordering_matches_days_since(
        y1 in 1990u16..2010, m1 in 1u8..=12, d1 in 1u8..=28,
        y2 in 1990u16..2010, m2 in 1u8..=12, d2 in 1u8..=28,
    ) {
        let a = Date::new(y1, m1, d1);
        let b = Date::new(y2, m2, d2);
        if a > b {
            prop_assert!(a.days_since(b) > 0.0);
        }
        if a < b {
            prop_assert!(a.days_since(b) < 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole text front-end must be total over arbitrary unicode.
    #[test]
    fn text_pipeline_never_panics_on_arbitrary_unicode(text in "\\PC{0,200}") {
        let toks = tokenize(&text);
        for t in &toks {
            prop_assert_eq!(&text[t.start..t.end], t.text);
        }
        let _ = SentenceChunker::new().sentences(&text);
        let _ = SnippetGenerator::new(3).snippets(&text);
        let _ = Annotator::new().annotate(&text);
    }

    #[test]
    fn stemmer_total_and_ascii_lowercase_closed(word in "\\PC{0,30}") {
        let stemmed = etap_repro::text::stem(&word);
        // Porter only shortens or preserves ASCII-lowercase words; any
        // other input passes through unchanged.
        if word.bytes().all(|b| b.is_ascii_lowercase()) && word.len() > 2 {
            prop_assert!(stemmed.len() <= word.len() + 1); // +1 for the -e restore cases
        } else {
            prop_assert_eq!(stemmed, word);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The model parser must reject (not panic on) arbitrary garbage,
    /// including the dropped pre-codec `ETAP-MODEL v1` format.
    #[test]
    fn persist_parser_is_total(garbage in "\\PC{0,400}") {
        let _ = etap_repro::system::persist::from_str(&garbage);
        let v1 = etap_repro::system::persist::from_str(&format!("ETAP-MODEL v1\n{garbage}"));
        prop_assert!(v1.is_err());
    }

    /// Deduplication is idempotent: re-checking any text already seen
    /// always reports it as a duplicate.
    #[test]
    fn deduper_is_idempotent(texts in proptest::collection::vec("[a-z]{3,8}( [a-z]{3,8}){4,12}", 1..12)) {
        let mut d = etap_repro::system::EventDeduper::new(0.9);
        let verdicts: Vec<bool> = texts.iter().map(|t| d.is_new(t)).collect();
        // Second pass: everything is now a known duplicate.
        for t in &texts {
            prop_assert!(!d.is_new(t));
        }
        // At least the first text was new.
        prop_assert!(verdicts[0]);
        // Cluster count equals the number of accepted texts.
        prop_assert_eq!(d.clusters(), verdicts.iter().filter(|v| **v).count());
    }

    /// Orientation scoring is total and sign-consistent with its lexicon.
    #[test]
    fn orientation_score_is_total(text in "\\PC{0,200}") {
        let lex = etap_repro::OrientationLexicon::revenue_growth();
        let s = lex.score(&text);
        prop_assert!(s.is_finite());
    }
}

/// Arbitrary NE-filter trees over the full leaf alphabet (categories,
/// ATLEAST counts, keywords, TRUE) with bounded depth.
fn arb_filter() -> impl Strategy<Value = etap_repro::system::Filter> {
    use etap_repro::annotate::EntityCategory;
    use etap_repro::system::Filter;
    let cat = proptest::sample::select(EntityCategory::ALL.to_vec());
    let leaf = prop_oneof![
        cat.clone().prop_map(Filter::cat),
        (cat, 1usize..5).prop_map(|(c, n)| Filter::AtLeast(c, n)),
        "[a-z]{1,10}".prop_map(|w| Filter::kw(&w)),
        Just(Filter::True),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Filter::negate),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The filter grammar's Display is a parseable fixed point:
    /// parse(display(f)) == f, and re-rendering is byte-stable.
    #[test]
    fn filter_display_parse_round_trips(f in arb_filter()) {
        use etap_repro::system::Filter;
        let shown = f.to_string();
        let reparsed: Filter = shown.parse().expect("display output must parse");
        prop_assert_eq!(&reparsed, &f, "{}", shown);
        prop_assert_eq!(reparsed.to_string(), shown);
    }

    /// The filter parser is total: arbitrary garbage returns a typed
    /// error with an in-bounds position, never a panic.
    #[test]
    fn filter_parser_is_total(garbage in "\\PC{0,120}") {
        use etap_repro::system::Filter;
        if let Err(e) = garbage.parse::<Filter>() {
            prop_assert!(e.pos <= garbage.len());
        }
    }
}
