//! Property tests: `LeadBook::build` and the company ranking run on
//! interned surface ids and an indexed prefix link; they must be
//! observably identical to the original per-mention code — a two-pass
//! build that canonicalizes every mention through a resolver which
//! scans every registered key for a prefix link. That original is kept
//! here, verbatim in behaviour, as the executable spec.
//!
//! The inputs are seeded adversarial alias corpora drawn with the
//! in-tree PRNG: acronyms, `The …` and designator variants, surfaces
//! whose key normalizes to nothing, short forms whose prefix link flips
//! from unique to ambiguous partway through a build, and long forms
//! registered after their short form (reverse prefix).

use std::collections::HashMap;

use etap::leads2::encode_book;
use etap::rank::{self, event_order, CompanyScore};
use etap::{AliasResolver, LeadBook, SalesDriver, TriggerEvent};
use etap_runtime::Rng;

// ---------------------------------------------------------------------
// The reference: the pre-interning resolver and two-pass build.
// ---------------------------------------------------------------------

/// The original resolver: the prefix link scans every registered key.
#[derive(Default)]
struct RefResolver {
    canon: HashMap<String, String>,
    acronyms: HashMap<String, String>,
}

impl RefResolver {
    fn canonicalize(&mut self, surface: &str) -> String {
        let key = AliasResolver::normalize(surface);
        if key.is_empty() {
            return surface.to_string();
        }
        if let Some(display) = self.canon.get(&key) {
            return display.clone();
        }
        if !key.contains(' ') && key.len() <= 5 {
            if let Some(target) = self.acronyms.get(&key) {
                if let Some(display) = self.canon.get(target) {
                    return display.clone();
                }
            }
        }
        if !key.contains(' ') {
            let mut matches = self
                .canon
                .keys()
                .filter(|k| k.starts_with(&key) && k[key.len()..].starts_with(' '));
            if let (Some(only), None) = (matches.next(), matches.next()) {
                return self.canon[only].clone();
            }
        }
        if key.contains(' ') {
            let first = key.split(' ').next().expect("non-empty");
            if let Some(display) = self.canon.get(first).cloned() {
                self.register(&key, display.clone());
                return display;
            }
        }
        let display = surface.trim().to_string();
        self.register(&key, display.clone());
        display
    }

    fn register(&mut self, key: &str, display: String) {
        if key.contains(' ') {
            let acro: String = key.split(' ').filter_map(|w| w.chars().next()).collect();
            if acro.len() >= 2 {
                self.acronyms.entry(acro).or_insert_with(|| key.to_string());
            }
        }
        self.canon.insert(key.to_string(), display);
    }
}

/// The original Eq. 2 ranking: every mention is named through `name_of`.
fn ref_rank_companies_with(
    events: &[TriggerEvent],
    mut name_of: impl FnMut(&str) -> String,
) -> Vec<CompanyScore> {
    let mut by_driver: HashMap<SalesDriver, Vec<&TriggerEvent>> = HashMap::new();
    for e in events {
        by_driver.entry(e.driver).or_default().push(e);
    }
    let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
    let mut driver_lists: Vec<(SalesDriver, Vec<&TriggerEvent>)> = by_driver.into_iter().collect();
    driver_lists.sort_by_key(|(d, _)| *d);
    for (_, list) in &mut driver_lists {
        list.sort_by(|a, b| event_order(a, b));
        for (idx, e) in list.iter().enumerate() {
            let rank = idx + 1;
            for company in &e.companies {
                let entry = sums.entry(name_of(company)).or_insert((0.0, 0));
                entry.0 += 1.0 / rank as f64;
                entry.1 += 1;
            }
        }
    }
    let mut out: Vec<CompanyScore> = sums
        .into_iter()
        .map(|(company, (sum, count))| CompanyScore {
            company,
            mrr: sum / count as f64,
            events: count,
        })
        .collect();
    out.sort_by(|a, b| {
        b.mrr
            .total_cmp(&a.mrr)
            .then(b.events.cmp(&a.events))
            .then(a.company.cmp(&b.company))
    });
    out
}

/// The original two-pass `LeadBook::build`.
fn ref_build(events: Vec<TriggerEvent>) -> LeadBook {
    let events = rank::rank_by_score(events);
    let mut by_driver: Vec<(SalesDriver, Vec<usize>)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        match by_driver.iter_mut().find(|(d, _)| *d == e.driver) {
            Some((_, idxs)) => idxs.push(i),
            None => by_driver.push((e.driver, vec![i])),
        }
    }
    by_driver.sort_by_key(|(d, _)| *d);

    let mut resolver = RefResolver::default();
    let companies = ref_rank_companies_with(&events, |s| resolver.canonicalize(s));

    let mut by_company: HashMap<String, Vec<usize>> = HashMap::new();
    let mut name_keys: HashMap<String, String> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        for surface in &e.companies {
            let canonical = resolver.canonicalize(surface);
            let idxs = by_company.entry(canonical.clone()).or_default();
            if idxs.last() != Some(&i) {
                idxs.push(i);
            }
            name_keys.insert(AliasResolver::normalize(surface), canonical.clone());
            name_keys.insert(AliasResolver::normalize(&canonical), canonical);
        }
    }
    LeadBook::from_parts(events, by_driver, companies, by_company, name_keys)
}

// ---------------------------------------------------------------------
// Adversarial alias corpora.
// ---------------------------------------------------------------------

/// First words. Several are shared by more than one long form, so a
/// short mention's prefix link flips from unique to ambiguous as the
/// second long form registers.
const HEADS: &[&str] = &[
    "Veridian", "Acme", "Orion", "Nimbus", "Zed", "Apex", "Advanced", "Union", "Tata", "Micro",
];
/// Further words: long forms, and initials that collide across names.
const TAILS: &[&str] = &[
    "Systems",
    "Networks",
    "Labs",
    "Capital",
    "Micro",
    "Devices",
    "Bank",
    "Switzerland",
    "Media",
    "Data",
    "Consultancy",
    "Cloud",
];
const DESIGNATORS: &[&str] = &[
    " Inc.",
    " Corp",
    " Corp.",
    " Ltd",
    " Group",
    " Holdings",
    " International",
    ", Inc.",
];
/// Surfaces whose normalized key is empty or a lone designator.
const DEGENERATE: &[&str] = &[
    "The", "the", "...", "", "  ", "&", "Inc.", "Group", "The Inc.",
];
/// Short all-caps mentions, some of which abbreviate a long form above.
const ACRONYMS: &[&str] = &["AMD", "UBS", "VS", "ANL", "TC", "ZED", "OC", "AMDX", "NC"];

fn arb_name(rng: &mut Rng) -> String {
    match rng.gen_range(0..20u32) {
        0 => return (*rng.choose(DEGENERATE).expect("non-empty")).to_string(),
        1 | 2 => return (*rng.choose(ACRONYMS).expect("non-empty")).to_string(),
        _ => {}
    }
    let mut name = String::new();
    if rng.gen_bool(0.15) {
        name.push_str("The ");
    }
    name.push_str(rng.choose(HEADS).expect("non-empty"));
    for _ in 0..rng.gen_range(0..3u32) {
        name.push(' ');
        name.push_str(rng.choose(TAILS).expect("non-empty"));
    }
    if rng.gen_bool(0.3) {
        name.push_str(rng.choose(DESIGNATORS).expect("non-empty"));
    }
    match rng.gen_range(0..20u32) {
        0 => name.to_uppercase(),
        1 => name.to_lowercase(),
        2 => format!("  {name} "),
        _ => name,
    }
}

fn arb_events(rng: &mut Rng, max_events: usize) -> Vec<TriggerEvent> {
    let n = rng.gen_range(0..max_events);
    (0..n)
        .map(|_| {
            let doc_id = rng.gen_range(0..40usize);
            TriggerEvent {
                driver: *rng.choose(&SalesDriver::ALL).expect("non-empty"),
                doc_id,
                url: format!("http://t/{doc_id}"),
                snippet: format!("snippet {}", rng.gen_range(0..3u32)),
                // Few distinct scores, so ties exercise the full order.
                score: f64::from(rng.gen_range(1..8u32)) / 8.0,
                companies: (0..rng.gen_range(0..4u32)).map(|_| arb_name(rng)).collect(),
                doc_date: (2005, 6, 15),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Parity assertions.
// ---------------------------------------------------------------------

fn assert_scores_identical(got: &[CompanyScore], want: &[CompanyScore], what: &str) {
    assert_eq!(got, want, "{what}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.mrr.to_bits(),
            w.mrr.to_bits(),
            "{what}: mrr bits of {}",
            g.company
        );
    }
}

fn assert_book_parity(events: &[TriggerEvent], what: &str) {
    let book = LeadBook::build(events.to_vec());
    let reference = ref_build(events.to_vec());
    assert_scores_identical(book.companies(), reference.companies(), what);
    assert!(
        book == reference,
        "{what}: book differs from the reference build"
    );
    for shards in [1, 16, 64] {
        let (a, b) = (encode_book(&book, shards), encode_book(&reference, shards));
        assert!(
            a.index == b.index && a.shards == b.shards,
            "{what}: encode_book bytes differ at {shards} shards"
        );
    }
}

/// Rank `events` through both resolvers (each primed with `primer`),
/// then probe both with `probes`: every later answer must agree too.
fn assert_ranking_parity(
    events: &[TriggerEvent],
    primer: &[String],
    probes: &[String],
    what: &str,
) {
    let mut resolver = AliasResolver::new();
    let mut reference = RefResolver::default();
    for name in primer {
        assert_eq!(
            resolver.canonicalize(name),
            reference.canonicalize(name),
            "{what}: primer {name:?}"
        );
    }
    let got = rank::rank_companies_resolved(events, &mut resolver);
    let want = ref_rank_companies_with(events, |s| reference.canonicalize(s));
    assert_scores_identical(&got, &want, what);
    for name in probes {
        assert_eq!(
            resolver.canonicalize(name),
            reference.canonicalize(name),
            "{what}: probe {name:?}"
        );
    }
    assert_scores_identical(
        &rank::rank_companies(events),
        &ref_rank_companies_with(events, ToString::to_string),
        what,
    );
}

#[test]
fn random_alias_corpora_build_identical_books() {
    let mut rng = Rng::seed_from_u64(0x626f6f6b); // "book"
    for case in 0..300 {
        let events = arb_events(&mut rng, 120);
        assert_book_parity(&events, &format!("case {case}"));
    }
}

#[test]
fn random_alias_corpora_rank_identically_and_leave_equal_resolvers() {
    let mut rng = Rng::seed_from_u64(0x72616e6b); // "rank"
    for case in 0..300 {
        let events = arb_events(&mut rng, 120);
        let primer: Vec<String> = (0..rng.gen_range(0..6u32))
            .map(|_| arb_name(&mut rng))
            .collect();
        let probes: Vec<String> = (0..40).map(|_| arb_name(&mut rng)).collect();
        assert_ranking_parity(&events, &primer, &probes, &format!("case {case}"));
    }
}

#[test]
fn resolver_answers_match_the_linear_scan_call_by_call() {
    let mut rng = Rng::seed_from_u64(0x616c6961); // "alia"
    for case in 0..200 {
        let mut resolver = AliasResolver::new();
        let mut reference = RefResolver::default();
        for _ in 0..rng.gen_range(0..80u32) {
            let name = arb_name(&mut rng);
            assert_eq!(
                resolver.canonicalize(&name),
                reference.canonicalize(&name),
                "case {case}: {name:?}"
            );
        }
    }
}

fn event(driver: SalesDriver, doc_id: usize, score: f64, companies: &[&str]) -> TriggerEvent {
    TriggerEvent {
        driver,
        doc_id,
        url: format!("http://t/{doc_id}"),
        snippet: format!("snippet {doc_id}"),
        score,
        companies: companies.iter().map(ToString::to_string).collect(),
        doc_date: (2005, 6, 15),
    }
}

/// The first-seen, two-pass semantics the parity pins, spelled out: the
/// ranking pass links `Veridian` to the then-unique `Veridian Systems`;
/// `Veridian Networks` registers later in that pass, so the second pass
/// finds the prefix ambiguous and files `Veridian`'s event under a new
/// company of its own — one the Eq. 2 ranking never saw.
#[test]
fn prefix_link_that_turns_ambiguous_mid_build_is_kept_as_is() {
    let d = SalesDriver::RevenueGrowth;
    let events = vec![
        event(d, 0, 0.9, &["Veridian Systems"]),
        event(d, 1, 0.8, &["Veridian"]),
        event(d, 2, 0.7, &["Veridian Networks"]),
    ];
    assert_book_parity(&events, "flip");
    let book = LeadBook::build(events);
    let ranked: Vec<&str> = book
        .companies()
        .iter()
        .map(|c| c.company.as_str())
        .collect();
    assert_eq!(ranked, ["Veridian Systems", "Veridian Networks"]);
    let (systems, systems_events) = book.company_events("Veridian Systems").expect("ranked");
    assert_eq!((systems.events, systems_events.len()), (2, 1));
    assert_eq!(book.resolve_company("veridian"), Some("Veridian"));
    assert!(book.company_events("Veridian").is_none());
}

/// Hand-picked corpora for each alias path, including a larger one with
/// many distinct names.
#[test]
fn alias_paths_build_identical_books() {
    let d = SalesDriver::ALL;
    let cases: Vec<Vec<TriggerEvent>> = vec![
        // Acronym after its long form, and a colliding acronym.
        vec![
            event(d[0], 0, 0.9, &["Advanced Micro Devices"]),
            event(d[1], 1, 0.9, &["AMD", "Apex Media Data"]),
            event(d[2], 2, 0.5, &["AMD"]),
        ],
        // `The …` and designator variants, empty keys.
        vec![
            event(d[0], 0, 0.9, &["The Acme Group", "The", "..."]),
            event(d[0], 1, 0.8, &["Acme Corp.", "Inc.", ""]),
            event(d[1], 2, 0.8, &["ACME", "The"]),
        ],
        // Reverse prefix: the long form after the short one.
        vec![
            event(d[2], 0, 0.9, &["Nimbus"]),
            event(d[2], 1, 0.8, &["Nimbus Cloud Inc."]),
            event(d[0], 2, 0.7, &["Nimbus Cloud", "NC"]),
        ],
        // The same company twice in one event.
        vec![event(d[0], 0, 0.9, &["Zed", "Zed Ltd", "Zed"])],
        // Many distinct names.
        (0..400)
            .map(|i| {
                let a = format!("Company{} Systems", i % 97);
                let b = format!("Company{}", i % 89);
                event(
                    d[i % 3],
                    i,
                    f64::from(i as u32 % 13) / 13.0,
                    &[a.as_str(), b.as_str()],
                )
            })
            .collect(),
    ];
    for (i, events) in cases.iter().enumerate() {
        assert_book_parity(events, &format!("fixed case {i}"));
        assert_ranking_parity(events, &[], &[], &format!("fixed case {i}"));
    }
}
