//! Company-name variation resolution — the paper's §6 future work.
//!
//! > *"To determine an overall score of a company based on its trigger
//! > events, we need to know all the variations to the reference of the
//! > company. This information is not always available and automated
//! > methods to determine variations of a company name need to be
//! > developed."*
//!
//! The resolver canonicalizes surface forms so that `IBM Corp.`,
//! `IBM Corporation` and `IBM` aggregate to one prospect in the Eq. 2
//! company ranking:
//!
//! 1. **normalization** — lowercase, strip punctuation, drop leading
//!    articles and trailing corporate designators (`Inc`, `Corp`, `Ltd`,
//!    `Group`, …);
//! 2. **acronym linking** — a short all-caps mention (`UBS`, `AMD`)
//!    unifies with a previously seen multi-word name whose initials
//!    match (`Advanced Micro Devices`);
//! 3. **prefix linking** — a shortened mention (`Veridian`) unifies
//!    with a longer registered name that extends it (`Veridian
//!    Systems`), provided the link is unambiguous.
//!
//! Every step is a constant number of hash lookups: the prefix link is
//! indexed by first word rather than found by scanning the registered
//! names.

use std::collections::HashMap;

/// Trailing tokens that are corporate designators, not name content.
const DESIGNATORS: &[&str] = &[
    "inc",
    "corp",
    "corporation",
    "co",
    "company",
    "ltd",
    "limited",
    "plc",
    "llc",
    "llp",
    "ag",
    "sa",
    "nv",
    "gmbh",
    "group",
    "holdings",
    "industries",
    "international",
    "worldwide",
    "enterprises",
    "bancorp",
];

/// Canonicalizes company-name variations.
#[derive(Debug, Default, Clone)]
pub struct AliasResolver {
    /// normalized key → canonical display form (first surface seen).
    canon: HashMap<String, String>,
    /// acronym → normalized key of the multi-word name it abbreviates.
    acronyms: HashMap<String, String>,
    /// first word → the one registered multi-word key that starts with
    /// it, or `None` once two or more do: the prefix-link index.
    prefixes: HashMap<String, Option<String>>,
}

impl AliasResolver {
    /// Empty resolver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Normalize a surface form to its comparison key.
    #[must_use]
    pub fn normalize(surface: &str) -> String {
        let mut words: Vec<String> = etap_text::tokenize(surface)
            .iter()
            .filter(|t| t.kind.is_word() || t.kind.is_numeric())
            .map(|t| t.lower().into_owned())
            .collect();
        if words.first().map(String::as_str) == Some("the") {
            words.remove(0);
        }
        while words.len() > 1 && DESIGNATORS.contains(&words.last().expect("non-empty").as_str()) {
            words.pop();
        }
        words.join(" ")
    }

    /// Resolve a surface form to its canonical display name, registering
    /// it if unseen. Subsequent variations of the same company resolve
    /// to the first-seen display form.
    ///
    /// ```
    /// use etap::AliasResolver;
    /// let mut r = AliasResolver::new();
    /// let canon = r.canonicalize("IBM");
    /// assert_eq!(r.canonicalize("IBM Corp."), canon);
    /// assert_eq!(r.canonicalize("The IBM Company"), canon);
    /// ```
    pub fn canonicalize(&mut self, surface: &str) -> String {
        let key = Self::normalize(surface);
        self.resolve_key(&key, surface).0.to_string()
    }

    /// [`canonicalize`](Self::canonicalize) for a surface whose key
    /// [`normalize`](Self::normalize) already computed. Also returns
    /// whether the answer is *settled*: true once `key` is registered
    /// (or empty), after which every later call with this key returns
    /// the same name and leaves the resolver unchanged. Acronym and
    /// prefix-link answers are never settled: registering a second long
    /// form turns a unique prefix link into a new company of its own.
    pub(crate) fn resolve_key<'a>(&'a mut self, key: &str, surface: &'a str) -> (&'a str, bool) {
        if key.is_empty() {
            return (surface, true);
        }

        // Exact normalized match.
        if self.canon.contains_key(key) {
            return (&self.canon[key], true);
        }

        if !key.contains(' ') {
            // Acronym: single short token, previously registered initials.
            if key.len() <= 5 {
                let target = self
                    .acronyms
                    .get(key)
                    .filter(|t| self.canon.contains_key(*t));
                if let Some(target) = target {
                    return (&self.canon[target], false);
                }
            }
            // Prefix link: "veridian" → unique registered "veridian systems".
            if let Some(Some(only)) = self.prefixes.get(key) {
                return (&self.canon[only], false);
            }
        } else if let Some((first, _)) = key.split_once(' ') {
            // Reverse prefix: registering the LONG form after the short
            // one ("Veridian" seen, now "Veridian Systems") — the long
            // form inherits the earlier mention's display name and its
            // key is registered for exact future hits.
            if let Some(display) = self.canon.get(first).cloned() {
                self.register(key, display);
                return (&self.canon[key], true);
            }
        }

        // New company: register surface as the canonical display.
        self.register(key, surface.trim().to_string());
        (&self.canon[key], true)
    }

    /// Register an unseen `key`.
    fn register(&mut self, key: &str, display: String) {
        if let Some((first, _)) = key.split_once(' ') {
            // Acronym index for multi-word names.
            let acro: String = key.split(' ').filter_map(|w| w.chars().next()).collect();
            if acro.len() >= 2 {
                self.acronyms.entry(acro).or_insert_with(|| key.to_string());
            }
            // Prefix-link index: a second long form under the same first
            // word makes the short form ambiguous.
            match self.prefixes.get_mut(first) {
                Some(only) => *only = None,
                None => {
                    self.prefixes
                        .insert(first.to_string(), Some(key.to_string()));
                }
            }
        }
        self.canon.insert(key.to_string(), display);
    }

    /// Number of distinct canonical companies seen.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut displays: Vec<&String> = self.canon.values().collect();
        displays.sort_unstable();
        displays.dedup();
        displays.len()
    }

    /// True when no names have been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_strips_designators_and_articles() {
        assert_eq!(AliasResolver::normalize("IBM Corp."), "ibm");
        assert_eq!(AliasResolver::normalize("The Acme Group"), "acme");
        assert_eq!(
            AliasResolver::normalize("Veridian Systems Inc."),
            "veridian systems"
        );
        assert_eq!(
            AliasResolver::normalize("Tata Consultancy"),
            "tata consultancy"
        );
        // A lone designator is kept (nothing else identifies the name).
        assert_eq!(AliasResolver::normalize("Group"), "group");
    }

    #[test]
    fn variations_unify() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("IBM");
        assert_eq!(r.canonicalize("IBM Corp."), a);
        assert_eq!(r.canonicalize("IBM Corporation"), a);
        assert_eq!(r.canonicalize("The IBM Company"), a);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn acronyms_link_to_full_names() {
        let mut r = AliasResolver::new();
        let full = r.canonicalize("Advanced Micro Devices");
        assert_eq!(r.canonicalize("AMD"), full);
    }

    #[test]
    fn short_mention_links_to_unique_long_form() {
        let mut r = AliasResolver::new();
        let full = r.canonicalize("Veridian Systems");
        assert_eq!(r.canonicalize("Veridian"), full);
    }

    #[test]
    fn long_form_after_short_unifies() {
        let mut r = AliasResolver::new();
        let short = r.canonicalize("Veridian");
        assert_eq!(r.canonicalize("Veridian Systems Inc."), short);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ambiguous_prefix_does_not_link() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("Veridian Systems");
        let b = r.canonicalize("Veridian Networks");
        assert_ne!(a, b);
        // "Veridian" alone is ambiguous → becomes its own entry.
        let c = r.canonicalize("Veridian");
        assert_ne!(c, a);
        assert_ne!(c, b);
    }

    #[test]
    fn distinct_companies_stay_distinct() {
        let mut r = AliasResolver::new();
        let a = r.canonicalize("Oracle");
        let b = r.canonicalize("Microsoft");
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_and_junk_surfaces() {
        let mut r = AliasResolver::new();
        assert_eq!(r.canonicalize("..."), "...");
        assert!(r.is_empty());
    }
}
