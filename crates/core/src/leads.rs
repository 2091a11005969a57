//! The lead book: a serving-ready index over identified trigger events.
//!
//! The offline pipeline ends with an unordered `Vec<TriggerEvent>`; the
//! ranked views the paper's end users consume (§4) — the per-driver
//! score ranking of Figure 7 and the Eq. 2 `MRR(c)` company ranking —
//! were previously recomputed ad hoc by every CLI command. A
//! [`LeadBook`] computes them **once**, alias-resolved, and freezes the
//! result into an immutable index designed to be read concurrently:
//! every accessor takes `&self`, so a book wrapped in an `Arc` can be
//! shared across server worker threads and hot-swapped wholesale
//! (see the `etap-serve` crate).
//!
//! Determinism carries over from the ranking functions: the same events
//! produce a byte-identical book regardless of thread count or
//! insertion order of equal-score events (ties break by document id).

use crate::aliases::AliasResolver;
use crate::events::TriggerEvent;
use crate::rank::{self, grow, CompanyNames, CompanyScore};
use etap_corpus::SalesDriver;
use etap_runtime::perf::Stage;
use std::collections::HashMap;

static STAGE_BUILD: Stage = Stage::new("rank.build");

/// An immutable, query-ready index over ranked trigger events.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadBook {
    /// All events, globally ranked by classifier score (best first).
    events: Vec<TriggerEvent>,
    /// Per-driver rankings: indices into `events`, best first.
    by_driver: Vec<(SalesDriver, Vec<usize>)>,
    /// Companies ranked by Eq. 2 MRR, alias-resolved.
    companies: Vec<CompanyScore>,
    /// Canonical company name → indices into `events` (score order).
    by_company: HashMap<String, Vec<usize>>,
    /// Normalized lookup key → canonical company name.
    name_keys: HashMap<String, String>,
}

impl LeadBook {
    /// Build the book from identified events: rank globally, per driver,
    /// and per company (alias-resolved, Eq. 2).
    ///
    /// Cost: one sort of the events, then O(mentions) hash lookups and
    /// O(distinct company surfaces) string work — each distinct surface
    /// is normalized once and resolved through indexed alias maps.
    #[must_use]
    pub fn build(events: Vec<TriggerEvent>) -> Self {
        let _t = STAGE_BUILD.scope();
        let events = rank::rank_by_score(events);
        let by_driver = rank::driver_rankings(&events);
        let mut book = Self {
            events,
            by_driver,
            companies: Vec::new(),
            by_company: HashMap::new(),
            name_keys: HashMap::new(),
        };
        book.index_companies();
        book
    }

    /// Fill the company ranking, per-company event lists and name-lookup
    /// keys. Two passes over one resolver: the Eq. 2 ranking (driver
    /// order), then a pass in global rank order that files every mention
    /// under the canonical name the resolver gives it *then*, and
    /// records `normalize(surface)` and `normalize(canonical)` as lookup
    /// keys, the later mention winning a shared key. Both passes run on
    /// interned ids; the string maps are materialized once at the end.
    fn index_companies(&mut self) {
        let events = &self.events;
        let mut resolver = AliasResolver::new();
        let mut names = CompanyNames::new(Some(&mut resolver));
        let mentions = names.intern(events);
        self.companies = rank::rank_companies_in(&self.by_driver, &mentions, &mut names);

        // Per canonical id: its events. Per surface / canonical id: the
        // ordinal of the last mention that wrote its lookup key (and,
        // for a surface, the canonical id written). A mention's two
        // writes carry the same value, so they may share an ordinal.
        let mut by_company: Vec<Vec<usize>> = Vec::new();
        let mut surface_writes: Vec<Option<(usize, usize)>> = Vec::new();
        let mut canon_writes: Vec<Option<usize>> = Vec::new();
        let mut mention = 0;
        for i in 0..events.len() {
            for &s in mentions.of(i) {
                let c = names.canonical(s);
                let idxs = grow(&mut by_company, c);
                if idxs.last() != Some(&i) {
                    idxs.push(i);
                }
                *grow(&mut surface_writes, s) = Some((mention, c));
                *grow(&mut canon_writes, c) = Some(mention);
                mention += 1;
            }
        }

        let mut writes: Vec<(usize, String, usize)> =
            surface_writes
                .iter()
                .enumerate()
                .filter_map(|(s, w)| w.map(|(at, c)| (at, names.key(s).to_string(), c)))
                .chain(canon_writes.iter().enumerate().filter_map(|(c, w)| {
                    w.map(|at| (at, AliasResolver::normalize(names.canon(c)), c))
                }))
                .collect();
        writes.sort_unstable_by_key(|w| w.0);
        self.name_keys = HashMap::with_capacity(writes.len());
        for (_, key, c) in writes {
            self.name_keys.insert(key, names.canon(c).to_string());
        }
        self.by_company = by_company
            .into_iter()
            .enumerate()
            .filter(|(_, idxs)| !idxs.is_empty())
            .map(|(c, idxs)| (names.canon(c).to_string(), idxs))
            .collect();
    }

    /// Assemble a book from precomputed parts, unchecked. Not part of
    /// the stable API: it exists so the parity suite can compare
    /// [`build`](Self::build) against a reference implementation.
    #[doc(hidden)]
    #[must_use]
    pub fn from_parts(
        events: Vec<TriggerEvent>,
        by_driver: Vec<(SalesDriver, Vec<usize>)>,
        companies: Vec<CompanyScore>,
        by_company: HashMap<String, Vec<usize>>,
        name_keys: HashMap<String, String>,
    ) -> Self {
        Self {
            events,
            by_driver,
            companies,
            by_company,
            name_keys,
        }
    }

    /// All events, best first.
    #[must_use]
    pub fn events(&self) -> &[TriggerEvent] {
        &self.events
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> &[TriggerEvent] {
        &self.events[..top.min(self.events.len())]
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<&TriggerEvent> {
        self.by_driver
            .iter()
            .find(|(d, _)| *d == driver)
            .map(|(_, idxs)| idxs.iter().take(top).map(|&i| &self.events[i]).collect())
            .unwrap_or_default()
    }

    /// Companies ranked by `MRR(c)` (Eq. 2), best first.
    #[must_use]
    pub fn companies(&self) -> &[CompanyScore] {
        &self.companies
    }

    /// Resolve a company name (any surface variation) to its canonical
    /// form, without mutating the book.
    #[must_use]
    pub fn resolve_company(&self, name: &str) -> Option<&str> {
        self.name_keys
            .get(&AliasResolver::normalize(name))
            .map(String::as_str)
    }

    /// A company's MRR score and its events (score order), looked up by
    /// any surface variation of its name.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(&CompanyScore, Vec<&TriggerEvent>)> {
        let canonical = self.resolve_company(name)?;
        let score = self.companies.iter().find(|c| c.company == canonical)?;
        let events = self
            .by_company
            .get(canonical)
            .map(|idxs| idxs.iter().map(|&i| &self.events[i]).collect())
            .unwrap_or_default();
        Some((score, events))
    }

    /// Total ranked events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the book holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drivers present in the book, in canonical order.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        self.by_driver.iter().map(|(d, _)| *d).collect()
    }

    /// Per-driver index lists, for the binary encoder (`leads2`).
    pub(crate) fn by_driver_raw(&self) -> &[(SalesDriver, Vec<usize>)] {
        &self.by_driver
    }

    /// Per-company index lists, for the binary encoder (`leads2`).
    pub(crate) fn by_company_raw(&self) -> &HashMap<String, Vec<usize>> {
        &self.by_company
    }

    /// Normalized-name lookup keys, for the binary encoder (`leads2`).
    pub(crate) fn name_keys_raw(&self) -> &HashMap<String, String> {
        &self.name_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sample() -> Vec<TriggerEvent> {
        vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme Corp."]),
            event(SalesDriver::MergersAcquisitions, 2, 0.95, &["Zed Ltd"]),
            event(SalesDriver::RevenueGrowth, 3, 0.7, &["Zed"]),
        ]
    }

    #[test]
    fn global_ranking_is_score_descending() {
        let book = LeadBook::build(sample());
        let scores: Vec<f64> = book.events().iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.95, 0.9, 0.8, 0.7]);
        assert_eq!(book.top(2).len(), 2);
        assert_eq!(book.len(), 4);
    }

    #[test]
    fn per_driver_ranking_filters_and_orders() {
        let book = LeadBook::build(sample());
        let rev = book.top_for(SalesDriver::RevenueGrowth, 10);
        assert_eq!(rev.len(), 3);
        assert!(rev.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(book.top_for(SalesDriver::ChangeInManagement, 10).len(), 0);
        assert_eq!(
            book.drivers(),
            vec![
                SalesDriver::MergersAcquisitions,
                SalesDriver::RevenueGrowth
            ]
        );
    }

    #[test]
    fn company_lookup_resolves_aliases() {
        let book = LeadBook::build(sample());
        // "Acme" and "Acme Corp." merged; lookup works through either.
        let (score, events) = book.company_events("Acme Corp.").expect("found");
        assert_eq!(score.company, "Acme");
        assert_eq!(events.len(), 2);
        assert_eq!(score.events, 2);
        assert!(book.company_events("Nonexistent Industries").is_none());
        // Zed and Zed Ltd merged too.
        let (zed, zed_events) = book.company_events("zed").expect("found");
        assert_eq!(zed.events, 2);
        assert_eq!(zed_events.len(), 2);
    }

    #[test]
    fn mrr_matches_rank_companies_resolved() {
        let events = sample();
        let book = LeadBook::build(events.clone());
        let ranked = rank::rank_by_score(events);
        let mut resolver = AliasResolver::new();
        let expected = rank::rank_companies_resolved(&ranked, &mut resolver);
        assert_eq!(book.companies(), &expected[..]);
    }

    #[test]
    fn empty_book() {
        let book = LeadBook::build(Vec::new());
        assert!(book.is_empty());
        assert!(book.companies().is_empty());
        assert!(book.top(5).is_empty());
    }
}
