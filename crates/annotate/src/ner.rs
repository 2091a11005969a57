//! Named-entity recognition.
//!
//! A rule + gazetteer recognizer that emits the paper's 13 entity
//! categories over a token stream. The matcher scans left to right; at
//! every position it collects candidate matches from all rules and keeps
//! the *longest* one (ties broken by rule priority), then jumps past it —
//! the standard longest-match span-resolution strategy.
//!
//! Rule inventory (priority order within equal lengths):
//!
//! | rule | category |
//! |------|----------|
//! | currency symbol/word + figure (+ scale word) | CURRENCY |
//! | figure + `%` / `percent` | PRCNT |
//! | figure + `a.m.`/`p.m.` or `HH:MM` | TIM |
//! | month (+ day) (+ year), weekday, ordinal + `quarter` | PERIOD |
//! | bare 19xx/20xx figure | YEAR |
//! | figure + measurement unit | LNGTH |
//! | figure + plural noun, spelled-out numbers | CNT |
//! | honorific + capitalised run, given-name + surname | PRSN |
//! | org gazetteer, capitalised run + org suffix | ORG |
//! | designation lexicon (case-insensitive) | DESIG |
//! | place gazetteer | PLC |
//! | product gazetteer | PROD |
//! | object gazetteer | OBJ |
//!
//! Unknown capitalised words that match no rule are deliberately left
//! unannotated (they surface as `np` POS tokens downstream) — this is the
//! realistic imperfection the paper's §6 discusses.
//!
//! ## Zero-allocation matching
//!
//! All rules run over a [`Toks`] token source — either borrowed `Token`
//! slices (the compatibility path) or `(&str, &[TokenSpan])` pairs (the
//! hot path fed by [`etap_text::tokenize_into`]). Gazetteer probes walk
//! the byte trie incrementally instead of building `String` keys, and
//! case-insensitive word checks fold ASCII in place (`eq_ignore_ascii_case`),
//! falling back to a caller-kept scratch `String` only for non-ASCII
//! tokens. Steady-state recognition allocates nothing.

use crate::entity::{EntityCategory, EntitySpan};
use crate::gazetteer::{self, Gazetteer};
use etap_text::{is_capitalized, lower_into, tokenize, Token, TokenKind, TokenSpan};

/// A candidate match produced by one rule at one position.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    category: EntityCategory,
    token_len: usize,
    /// Lower value wins among equal lengths.
    priority: u8,
}

/// A read-only token source the recognizer rules run over: either a
/// borrowed `[Token]` slice or spans resolved against a text buffer.
/// Monomorphised, so the rules compile to the same code for both.
trait Toks {
    fn len(&self) -> usize;
    fn text(&self, i: usize) -> &str;
    fn kind(&self, i: usize) -> TokenKind;
    fn start(&self, i: usize) -> usize;
    fn end(&self, i: usize) -> usize;
    fn capitalized(&self, i: usize) -> bool {
        is_capitalized(self.text(i), self.kind(i))
    }
}

impl Toks for [Token<'_>] {
    fn len(&self) -> usize {
        <[Token<'_>]>::len(self)
    }
    fn text(&self, i: usize) -> &str {
        self[i].text
    }
    fn kind(&self, i: usize) -> TokenKind {
        self[i].kind
    }
    fn start(&self, i: usize) -> usize {
        self[i].start
    }
    fn end(&self, i: usize) -> usize {
        self[i].end
    }
}

/// Spans over a text buffer — the structure-of-arrays token source.
struct SpanToks<'a> {
    text: &'a str,
    spans: &'a [TokenSpan],
}

impl Toks for SpanToks<'_> {
    fn len(&self) -> usize {
        self.spans.len()
    }
    fn text(&self, i: usize) -> &str {
        self.spans[i].text(self.text)
    }
    fn kind(&self, i: usize) -> TokenKind {
        self.spans[i].kind
    }
    fn start(&self, i: usize) -> usize {
        self.spans[i].start as usize
    }
    fn end(&self, i: usize) -> usize {
        self.spans[i].end as usize
    }
}

/// Case-insensitive membership of `text` in a list of lowercase words.
/// ASCII compares in place; non-ASCII lowers through `scratch` (the
/// built-in lists are all ASCII, so the fold direction matches the old
/// `Token::lower` comparison exactly).
fn lower_in(text: &str, words: &[&str], scratch: &mut String) -> bool {
    if text.is_ascii() {
        words.iter().any(|w| text.eq_ignore_ascii_case(w))
    } else {
        lower_into(text, scratch);
        words.contains(&scratch.as_str())
    }
}

/// Case-insensitive equality against one lowercase word.
fn lower_eq(text: &str, word: &str, scratch: &mut String) -> bool {
    if text.is_ascii() {
        text.eq_ignore_ascii_case(word)
    } else {
        lower_into(text, scratch);
        scratch.as_str() == word
    }
}

/// Gazetteer- and rule-based NER for the 13 ETAP categories.
#[derive(Debug, Clone)]
pub struct NamedEntityRecognizer {
    orgs: Gazetteer,
    places: Gazetteer,
    products: Gazetteer,
    objects: Gazetteer,
    given_names: Gazetteer,
    surnames: Gazetteer,
    designations: Gazetteer,
    org_suffixes: Gazetteer,
}

impl Default for NamedEntityRecognizer {
    fn default() -> Self {
        Self {
            orgs: normalized(gazetteer::ORGANIZATIONS, false),
            places: normalized(gazetteer::PLACES, false),
            products: normalized(gazetteer::PRODUCTS, false),
            objects: normalized(gazetteer::OBJECTS, false),
            given_names: normalized(gazetteer::GIVEN_NAMES, false),
            surnames: normalized(gazetteer::SURNAMES, false),
            designations: normalized(gazetteer::DESIGNATIONS, true),
            org_suffixes: normalized(gazetteer::ORG_SUFFIXES, false),
        }
    }
}

/// Tokenize each entry and join with single spaces so that gazetteer keys
/// match the token stream exactly (e.g. `J. P. Morgan` → `J . P . Morgan`).
fn normalized(entries: &[&str], lowercase: bool) -> Gazetteer {
    let mut g = Gazetteer::default();
    for e in entries {
        let joined = join_tokens(e, lowercase);
        if !joined.is_empty() {
            g.insert(&joined);
        }
    }
    g
}

fn join_tokens(text: &str, lowercase: bool) -> String {
    let toks = tokenize(text);
    let mut s = String::with_capacity(text.len());
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        if lowercase {
            s.push_str(&t.lower());
        } else {
            s.push_str(t.text);
        }
    }
    s
}

const HONORIFICS: &[&str] = &["Mr", "Mrs", "Ms", "Dr", "Prof", "Sir", "Madam"];
const SCALE_WORDS: &[&str] = &[
    "million", "billion", "trillion", "thousand", "crore", "lakh", "m", "bn",
];
const CURRENCY_SYMBOLS: &[&str] = &["$", "€", "£", "¥", "₹"];
const CURRENCY_CODES: &[&str] = &["rs", "usd", "eur", "gbp", "inr", "jpy"];
const PERIOD_HEADS: &[&str] = &[
    "first", "second", "third", "fourth", "last", "next", "this", "current", "previous", "fiscal",
];
const COUNT_NOUNS: &[&str] = &[
    "employees",
    "people",
    "workers",
    "staff",
    "stores",
    "offices",
    "branches",
    "customers",
    "subscribers",
    "users",
    "units",
    "shares",
    "subsidiaries",
    "plants",
    "factories",
    "countries",
    "cities",
    "products",
    "patents",
    "clients",
    "members",
    "engineers",
];

impl NamedEntityRecognizer {
    /// Create a recognizer with the built-in gazetteers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an organization name at runtime (e.g. from a domain list).
    pub fn add_organization(&mut self, name: &str) {
        let j = join_tokens(name, false);
        self.orgs.insert(&j);
    }

    /// Add a person's given name.
    pub fn add_given_name(&mut self, name: &str) {
        self.given_names.insert(&join_tokens(name, false));
    }

    /// Add a surname.
    pub fn add_surname(&mut self, name: &str) {
        self.surnames.insert(&join_tokens(name, false));
    }

    /// Add a place name.
    pub fn add_place(&mut self, name: &str) {
        self.places.insert(&join_tokens(name, false));
    }

    /// Add a product name.
    pub fn add_product(&mut self, name: &str) {
        self.products.insert(&join_tokens(name, false));
    }

    /// Recognize entities in pre-tokenized text.
    #[must_use]
    pub fn recognize(&self, tokens: &[Token<'_>]) -> Vec<EntitySpan> {
        let mut out = Vec::new();
        let mut scratch = String::new();
        self.recognize_impl(tokens, &mut scratch, &mut out);
        out
    }

    /// Recognize entities over token spans, writing into a caller-kept
    /// output vector (cleared first). `scratch` is the lowercase fold
    /// buffer for non-ASCII tokens; with ASCII input nothing allocates.
    pub fn recognize_into(
        &self,
        text: &str,
        spans: &[TokenSpan],
        scratch: &mut String,
        out: &mut Vec<EntitySpan>,
    ) {
        out.clear();
        self.recognize_impl(&SpanToks { text, spans }, scratch, out);
    }

    /// Convenience: tokenize and recognize in one call, returning entity
    /// surfaces borrowed from `text`.
    #[must_use]
    pub fn recognize_text<'a>(&self, text: &'a str) -> Vec<(EntityCategory, &'a str)> {
        let tokens = tokenize(text);
        self.recognize(&tokens)
            .into_iter()
            .map(|s| (s.category, &text[s.start..s.end]))
            .collect()
    }

    fn recognize_impl<S: Toks + ?Sized>(
        &self,
        toks: &S,
        scratch: &mut String,
        out: &mut Vec<EntitySpan>,
    ) {
        let mut i = 0usize;
        while i < toks.len() {
            if let Some(best) = self.best_candidate(toks, i, scratch) {
                let last = i + best.token_len - 1;
                out.push(EntitySpan {
                    category: best.category,
                    first_token: i,
                    token_len: best.token_len,
                    start: toks.start(i),
                    end: toks.end(last),
                });
                i += best.token_len;
            } else {
                i += 1;
            }
        }
    }

    fn best_candidate<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        let mut consider = |c: Option<Candidate>| {
            if let Some(c) = c {
                best = match best {
                    None => Some(c),
                    Some(b)
                        if c.token_len > b.token_len
                            || (c.token_len == b.token_len && c.priority < b.priority) =>
                    {
                        Some(c)
                    }
                    b => b,
                };
            }
        };
        consider(self.match_currency(toks, i, sc));
        consider(self.match_percent(toks, i, sc));
        consider(self.match_time(toks, i, sc));
        consider(self.match_period(toks, i, sc));
        consider(self.match_year(toks, i));
        consider(self.match_length(toks, i, sc));
        consider(self.match_count(toks, i, sc));
        consider(self.match_person(toks, i));
        consider(self.match_org(toks, i));
        consider(self.match_designation(toks, i, sc));
        consider(self.match_gazetteer(&self.places, toks, i, EntityCategory::Plc, 40));
        consider(self.match_gazetteer(&self.products, toks, i, EntityCategory::Prod, 50));
        consider(self.match_gazetteer(&self.objects, toks, i, EntityCategory::Obj, 60));
        best
    }

    /// Longest gazetteer match starting at `i` (case-preserving): one
    /// incremental trie walk over the candidate run, no key strings. The
    /// walk dying mid-token proves no longer entry can match either.
    fn match_gazetteer<S: Toks + ?Sized>(
        &self,
        g: &Gazetteer,
        toks: &S,
        i: usize,
        category: EntityCategory,
        priority: u8,
    ) -> Option<Candidate> {
        let max = g.max_len().min(toks.len() - i);
        let mut walk = g.walk();
        let mut found: Option<usize> = None;
        for len in 1..=max {
            if len > 1 && !walk.sep() {
                break;
            }
            if !walk.token(toks.text(i + len - 1)) {
                break;
            }
            if walk.matched() {
                found = Some(len);
            }
        }
        found.map(|token_len| Candidate {
            category,
            token_len,
            priority,
        })
    }

    /// Same, but case-folded (designations are stored lowercase).
    fn match_designation<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let g = &self.designations;
        let max = g.max_len().min(toks.len() - i);
        let mut walk = g.walk();
        let mut found: Option<usize> = None;
        for len in 1..=max {
            if len > 1 && !walk.sep() {
                break;
            }
            if !walk.token_folded(toks.text(i + len - 1), sc) {
                break;
            }
            if walk.matched() {
                found = Some(len);
            }
        }
        found.map(|token_len| Candidate {
            category: EntityCategory::Desig,
            token_len,
            priority: 30,
        })
    }

    fn match_currency<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let n = toks.len();
        let text = toks.text(i);
        // Symbol form: $ 160 [million], or the range "$5-7 million"
        // (tokenized as $ , 5-7, million — the hyphenated number run).
        if CURRENCY_SYMBOLS.contains(&text) {
            if i + 1 >= n {
                return None;
            }
            let num = toks.text(i + 1);
            let numeric_range = num.contains('-')
                && num
                    .split('-')
                    .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()));
            if toks.kind(i + 1).is_numeric() || numeric_range {
                let mut len = 2;
                if i + 2 < n && lower_in(toks.text(i + 2), SCALE_WORDS, sc) {
                    len = 3;
                }
                return Some(Candidate {
                    category: EntityCategory::Currency,
                    token_len: len,
                    priority: 1,
                });
            }
            return None;
        }
        // "Rs 5 crore", "USD 3 million".
        if lower_in(text, CURRENCY_CODES, sc) {
            if i + 1 >= n {
                return None;
            }
            if toks.kind(i + 1).is_numeric() {
                let mut len = 2;
                if i + 2 < n && lower_in(toks.text(i + 2), SCALE_WORDS, sc) {
                    len = 3;
                }
                return Some(Candidate {
                    category: EntityCategory::Currency,
                    token_len: len,
                    priority: 1,
                });
            }
        }
        // Number-first form: "160 million dollars", "5 crore rupees".
        if toks.kind(i).is_numeric() {
            let mut j = i + 1;
            if j < n && lower_in(toks.text(j), SCALE_WORDS, sc) {
                j += 1;
            }
            if j < n && lower_in(toks.text(j), gazetteer::CURRENCY_WORDS, sc) {
                return Some(Candidate {
                    category: EntityCategory::Currency,
                    token_len: j - i + 1,
                    priority: 1,
                });
            }
        }
        None
    }

    fn match_percent<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        if !toks.kind(i).is_numeric() || i + 1 >= toks.len() {
            return None;
        }
        let next = toks.text(i + 1);
        if next == "%" || lower_in(next, &["percent", "pct"], sc) {
            return Some(Candidate {
                category: EntityCategory::Prcnt,
                token_len: 2,
                priority: 2,
            });
        }
        // "3 percentage points" (basis-point phrasing of rate moves).
        if lower_eq(next, "percentage", sc)
            && i + 2 < toks.len()
            && lower_in(toks.text(i + 2), &["points", "point"], sc)
        {
            return Some(Candidate {
                category: EntityCategory::Prcnt,
                token_len: 3,
                priority: 2,
            });
        }
        None
    }

    fn match_time<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let n = toks.len();
        // Named times of day.
        if lower_in(toks.text(i), &["noon", "midnight"], sc) {
            return Some(Candidate {
                category: EntityCategory::Tim,
                token_len: 1,
                priority: 3,
            });
        }
        if !toks.kind(i).is_numeric() {
            return None;
        }
        // "4 p.m." — tokenizer yields ["4","p",".","m","."] or "4 pm".
        if i + 1 < n {
            let next = toks.text(i + 1);
            if lower_in(next, &["am", "pm"], sc) {
                return Some(Candidate {
                    category: EntityCategory::Tim,
                    token_len: 2,
                    priority: 3,
                });
            }
            if (lower_eq(next, "a", sc) || lower_eq(next, "p", sc))
                && i + 3 < n
                && toks.text(i + 2) == "."
                && lower_eq(toks.text(i + 3), "m", sc)
            {
                let len = if i + 4 < n && toks.text(i + 4) == "." {
                    5
                } else {
                    4
                };
                return Some(Candidate {
                    category: EntityCategory::Tim,
                    token_len: len,
                    priority: 3,
                });
            }
            // HH:MM
            if next == ":"
                && i + 2 < n
                && toks.kind(i + 2) == TokenKind::Number
                && toks.start(i + 1) == toks.end(i)
            {
                return Some(Candidate {
                    category: EntityCategory::Tim,
                    token_len: 3,
                    priority: 3,
                });
            }
        }
        None
    }

    fn match_period<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let n = toks.len();
        let text = toks.text(i);
        // Quarter shorthand: "Q3", "Q4 2005", "H1 2006".
        if text.len() == 2
            && (text.starts_with('Q') || text.starts_with('H'))
            && text[1..].chars().all(|c| c.is_ascii_digit())
        {
            let len = if i + 1 < n && is_year(toks.text(i + 1)) {
                2
            } else {
                1
            };
            return Some(Candidate {
                category: EntityCategory::Period,
                token_len: len,
                priority: 4,
            });
        }
        // Month [day] [, year] / Month year.
        if gazetteer::MONTHS.contains(&text) {
            let mut len = 1;
            if i + 1 < n {
                let day = toks.text(i + 1);
                // A day-of-month ("April 12") or a year ("April 2004").
                if toks.kind(i + 1) == TokenKind::Number && (day.len() <= 2 || is_year(day)) {
                    len = 2;
                }
            }
            // Optional ", 2004" after a day.
            if len == 2
                && i + 3 < n
                && toks.text(i + 2) == ","
                && is_year(toks.text(i + 3))
            {
                len = 4;
            }
            return Some(Candidate {
                category: EntityCategory::Period,
                token_len: len,
                priority: 4,
            });
        }
        if gazetteer::WEEKDAYS.contains(&text) {
            return Some(Candidate {
                category: EntityCategory::Period,
                token_len: 1,
                priority: 4,
            });
        }
        // "fourth quarter", "last year", "this week", "fiscal 2004".
        if lower_in(text, PERIOD_HEADS, sc) && i + 1 < n {
            let next = toks.text(i + 1);
            if lower_in(next, gazetteer::PERIOD_WORDS, sc) {
                return Some(Candidate {
                    category: EntityCategory::Period,
                    token_len: 2,
                    priority: 4,
                });
            }
            if lower_eq(text, "fiscal", sc) && is_year(next) {
                return Some(Candidate {
                    category: EntityCategory::Period,
                    token_len: 2,
                    priority: 4,
                });
            }
        }
        // Ordinal + quarter: "4th quarter".
        if toks.kind(i) == TokenKind::Ordinal
            && i + 1 < n
            && lower_in(toks.text(i + 1), gazetteer::PERIOD_WORDS, sc)
        {
            return Some(Candidate {
                category: EntityCategory::Period,
                token_len: 2,
                priority: 4,
            });
        }
        None
    }

    fn match_year<S: Toks + ?Sized>(&self, toks: &S, i: usize) -> Option<Candidate> {
        if toks.kind(i) == TokenKind::Number && is_year(toks.text(i)) {
            return Some(Candidate {
                category: EntityCategory::Year,
                token_len: 1,
                priority: 10, // any longer/earlier rule (date, currency) wins
            });
        }
        None
    }

    fn match_length<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        if !toks.kind(i).is_numeric() || i + 1 >= toks.len() {
            return None;
        }
        if lower_in(toks.text(i + 1), gazetteer::UNITS, sc) {
            return Some(Candidate {
                category: EntityCategory::Lngth,
                token_len: 2,
                priority: 5,
            });
        }
        None
    }

    fn match_count<S: Toks + ?Sized>(
        &self,
        toks: &S,
        i: usize,
        sc: &mut String,
    ) -> Option<Candidate> {
        let text = toks.text(i);
        // Digit + count noun: "5,000 employees".
        if toks.kind(i).is_numeric()
            && !is_year(text)
            && i + 1 < toks.len()
            && lower_in(toks.text(i + 1), COUNT_NOUNS, sc)
        {
            return Some(Candidate {
                category: EntityCategory::Cnt,
                token_len: 2,
                priority: 6,
            });
        }
        // Spelled number + count noun: "three subsidiaries".
        if lower_in(text, gazetteer::NUMBER_WORDS, sc)
            && i + 1 < toks.len()
            && lower_in(toks.text(i + 1), COUNT_NOUNS, sc)
        {
            return Some(Candidate {
                category: EntityCategory::Cnt,
                token_len: 2,
                priority: 6,
            });
        }
        None
    }

    fn match_person<S: Toks + ?Sized>(&self, toks: &S, i: usize) -> Option<Candidate> {
        let n = toks.len();
        let text = toks.text(i);
        // Honorific (+ .) + capitalised run.
        if HONORIFICS.contains(&text) {
            let mut j = i + 1;
            if j < n && toks.text(j) == "." {
                j += 1;
            }
            let mut namelen = 0usize;
            while namelen < 3 && j + namelen < n {
                let k = j + namelen;
                if toks.capitalized(k) && !self.is_nonperson_capital(toks.text(k)) {
                    namelen += 1;
                } else {
                    break;
                }
            }
            if namelen > 0 {
                return Some(Candidate {
                    category: EntityCategory::Prsn,
                    token_len: j + namelen - i,
                    priority: 7,
                });
            }
            return None;
        }
        if !toks.capitalized(i) {
            return None;
        }
        let is_given = self.given_names.contains(text);
        let is_surname = self.surnames.contains(text);
        if is_given {
            // Given [Middle-initial .] Surname / Given Capitalised.
            let mut j = i + 1;
            if j < n
                && toks.text(j).chars().count() == 1
                && toks.capitalized(j)
                && j + 1 < n
                && toks.text(j + 1) == "."
            {
                j += 2;
            }
            if j < n && toks.capitalized(j) && !self.is_nonperson_capital(toks.text(j)) {
                return Some(Candidate {
                    category: EntityCategory::Prsn,
                    token_len: j + 1 - i,
                    priority: 7,
                });
            }
            // Lone given name is a weak person mention.
            return Some(Candidate {
                category: EntityCategory::Prsn,
                token_len: 1,
                priority: 25,
            });
        }
        if is_surname {
            return Some(Candidate {
                category: EntityCategory::Prsn,
                token_len: 1,
                priority: 26,
            });
        }
        None
    }

    /// A capitalised token that should never be absorbed into a person
    /// name (known org/place/month, org suffix).
    fn is_nonperson_capital(&self, text: &str) -> bool {
        self.orgs.contains(text)
            || self.places.contains(text)
            || self.org_suffixes.contains(text)
            || gazetteer::MONTHS.contains(&text)
            || gazetteer::WEEKDAYS.contains(&text)
    }

    fn match_org<S: Toks + ?Sized>(&self, toks: &S, i: usize) -> Option<Candidate> {
        let n = toks.len();
        // Gazetteer orgs (longest match).
        let gaz = self.match_gazetteer(&self.orgs, toks, i, EntityCategory::Org, 20);
        // Unknown capitalised run ending in an org suffix: "Zenlith
        // Systems Inc." — up to 4 tokens + suffix (+ optional dot).
        let mut suffix_match: Option<Candidate> = None;
        if toks.capitalized(i) {
            let mut run = 1usize;
            while run < 6 && i + run < n {
                let k = i + run;
                if !toks.capitalized(k) {
                    break;
                }
                if self.org_suffixes.contains(toks.text(k)) {
                    let mut len = run + 1;
                    // Absorb abbreviation dot: "Inc."
                    if i + len < n
                        && toks.text(i + len) == "."
                        && toks.start(i + len) == toks.end(i + len - 1)
                    {
                        len += 1;
                    }
                    // Keep the longest suffix-terminated run:
                    // "Zenlith Systems Inc." beats "Zenlith Systems".
                    suffix_match = Some(Candidate {
                        category: EntityCategory::Org,
                        token_len: len,
                        priority: 8,
                    });
                }
                run += 1;
            }
            // A leading org-suffix word alone ("Group said") is not an org.
        }
        match (gaz, suffix_match) {
            (Some(a), Some(b)) => Some(if b.token_len > a.token_len { b } else { a }),
            (a, b) => a.or(b),
        }
    }
}

/// Is `text` a plausible year literal (1900–2099)?
fn is_year(text: &str) -> bool {
    text.len() == 4
        && text.starts_with("19") | text.starts_with("20")
        && text.bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ner() -> NamedEntityRecognizer {
        NamedEntityRecognizer::new()
    }

    fn cats(text: &str) -> Vec<(EntityCategory, &str)> {
        ner().recognize_text(text)
    }

    fn has(text: &str, cat: EntityCategory, surface: &str) -> bool {
        cats(text).iter().any(|(c, s)| *c == cat && *s == surface)
    }

    #[test]
    fn currency_symbol_forms() {
        assert!(has(
            "IBM paid $160 million for it",
            EntityCategory::Currency,
            "$160 million"
        ));
        assert!(has("a fee of $42", EntityCategory::Currency, "$42"));
        assert!(has(
            "Rs 500 crore deal",
            EntityCategory::Currency,
            "Rs 500 crore"
        ));
    }

    #[test]
    fn currency_word_forms() {
        assert!(has(
            "worth 160 million dollars today",
            EntityCategory::Currency,
            "160 million dollars"
        ));
    }

    #[test]
    fn percent_forms() {
        assert!(has(
            "revenue grew 10 % in Q4",
            EntityCategory::Prcnt,
            "10 %"
        ));
        assert!(has(
            "a 5.3 percent rise",
            EntityCategory::Prcnt,
            "5.3 percent"
        ));
    }

    #[test]
    fn year_and_period() {
        assert!(has(
            "profits of 1996 were flat",
            EntityCategory::Year,
            "1996"
        ));
        assert!(has(
            "the deal closed in April 2004",
            EntityCategory::Period,
            "April 2004"
        ));
        assert!(has("announced on Monday", EntityCategory::Period, "Monday"));
        assert!(has(
            "in the fourth quarter",
            EntityCategory::Period,
            "fourth quarter"
        ));
        assert!(has(
            "results for fiscal 2005",
            EntityCategory::Period,
            "fiscal 2005"
        ));
    }

    #[test]
    fn date_with_day_and_year() {
        assert!(has(
            "signed on April 12, 2004 in Delhi",
            EntityCategory::Period,
            "April 12, 2004"
        ));
    }

    #[test]
    fn time_expressions() {
        assert!(has("the call is at 4 pm", EntityCategory::Tim, "4 pm"));
        assert!(has("opens at 09:30 sharp", EntityCategory::Tim, "09:30"));
        assert!(has("closes at 4 p.m. today", EntityCategory::Tim, "4 p.m."));
    }

    #[test]
    fn length_and_count() {
        assert!(has("a 5 km pipeline", EntityCategory::Lngth, "5 km"));
        assert!(has(
            "added 40 gigabytes of storage",
            EntityCategory::Lngth,
            "40 gigabytes"
        ));
        assert!(has(
            "hired 5,000 employees",
            EntityCategory::Cnt,
            "5,000 employees"
        ));
        assert!(has(
            "opened three subsidiaries",
            EntityCategory::Cnt,
            "three subsidiaries"
        ));
    }

    #[test]
    fn person_forms() {
        assert!(has(
            "Mr. Andersen resigned",
            EntityCategory::Prsn,
            "Mr. Andersen"
        ));
        assert!(has(
            "James Wilson joined the board",
            EntityCategory::Prsn,
            "James Wilson"
        ));
        assert!(has(
            "John F. Kennedy spoke",
            EntityCategory::Prsn,
            "John F. Kennedy"
        ));
    }

    #[test]
    fn organizations() {
        assert!(has("IBM acquired Daksh", EntityCategory::Org, "IBM"));
        assert!(has("IBM acquired Daksh", EntityCategory::Org, "Daksh"));
        assert!(has(
            "Bank of America said",
            EntityCategory::Org,
            "Bank of America"
        ));
        // Unknown name + suffix.
        assert!(has(
            "Zenlith Systems Inc. announced",
            EntityCategory::Org,
            "Zenlith Systems Inc."
        ));
    }

    #[test]
    fn designations_case_insensitive() {
        assert!(has(
            "was named CEO of the firm",
            EntityCategory::Desig,
            "CEO"
        ));
        assert!(has(
            "the new chief executive officer",
            EntityCategory::Desig,
            "chief executive officer"
        ));
        assert!(has(
            "a Vice President at Oracle",
            EntityCategory::Desig,
            "Vice President"
        ));
    }

    #[test]
    fn places_and_products() {
        assert!(has("based in Bangalore", EntityCategory::Plc, "Bangalore"));
        assert!(has("moved to New York", EntityCategory::Plc, "New York"));
        assert!(has("the ThinkPad line", EntityCategory::Prod, "ThinkPad"));
    }

    #[test]
    fn objects() {
        assert!(has("the Nasdaq fell", EntityCategory::Obj, "Nasdaq"));
    }

    #[test]
    fn longest_match_wins() {
        // "New York" must be one PLC, not PRSN("New")+... etc.
        let got = cats("offices in New York City Monday");
        assert!(got
            .iter()
            .any(|(c, s)| *c == EntityCategory::Plc && *s == "New York"));
    }

    #[test]
    fn date_beats_bare_year() {
        let got = cats("in April 2004");
        // The PERIOD span should absorb the year.
        assert!(got
            .iter()
            .any(|(c, s)| *c == EntityCategory::Period && *s == "April 2004"));
        assert!(!got.iter().any(|(c, _)| *c == EntityCategory::Year));
    }

    #[test]
    fn unknown_capitalized_word_left_unannotated() {
        let got = cats("Qwzx announced gains");
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn spans_are_disjoint_and_ordered() {
        let text = "IBM paid $160 million for Daksh in April 2004, said Mr. Palmisano, CEO of IBM, in Bangalore.";
        let toks = tokenize(text);
        let spans = ner().recognize(&toks);
        for w in spans.windows(2) {
            assert!(w[0].first_token + w[0].token_len <= w[1].first_token);
        }
        assert!(spans.len() >= 6, "{spans:?}");
    }

    #[test]
    fn runtime_extension() {
        let mut n = ner();
        assert!(n.recognize_text("Frobnicate announced").is_empty());
        n.add_organization("Frobnicate");
        assert!(n
            .recognize_text("Frobnicate announced")
            .iter()
            .any(|(c, s)| *c == EntityCategory::Org && *s == "Frobnicate"));
    }

    #[test]
    fn quarter_shorthand_and_named_times() {
        assert!(has(
            "results for Q3 were flat",
            EntityCategory::Period,
            "Q3"
        ));
        assert!(has(
            "guidance for Q4 2005 rose",
            EntityCategory::Period,
            "Q4 2005"
        ));
        assert!(has("the call starts at noon", EntityCategory::Tim, "noon"));
        assert!(has(
            "servers restart at midnight",
            EntityCategory::Tim,
            "midnight"
        ));
    }

    #[test]
    fn percentage_points_and_currency_ranges() {
        assert!(has(
            "margins rose 3 percentage points",
            EntityCategory::Prcnt,
            "3 percentage points"
        ));
        assert!(has(
            "a deal worth $5-7 million",
            EntityCategory::Currency,
            "$5-7 million"
        ));
    }

    #[test]
    fn is_year_bounds() {
        assert!(is_year("1996"));
        assert!(is_year("2004"));
        assert!(!is_year("1896"));
        assert!(!is_year("210"));
        assert!(!is_year("21000"));
        assert!(!is_year("20a4"));
    }

    #[test]
    fn recognize_into_matches_recognize() {
        use etap_text::tokenize_into;
        let texts = [
            "IBM paid $160 million for Daksh in April 2004, said Mr. Palmisano, CEO of IBM.",
            "Bank of America opened 40 offices in New York City on Monday at 09:30.",
            "Société Générale gained 5.3 percent in Q3 2005.",
            "Zenlith Systems Inc. hired 5,000 employees for three subsidiaries.",
        ];
        let n = ner();
        let mut spans = Vec::new();
        let mut out = Vec::new();
        let mut scratch = String::new();
        for text in texts {
            let toks = tokenize(text);
            let expect = n.recognize(&toks);
            tokenize_into(text, &mut spans);
            n.recognize_into(text, &spans, &mut scratch, &mut out);
            assert_eq!(out, expect, "mismatch on {text:?}");
        }
    }
}
