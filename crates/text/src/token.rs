//! Offset-preserving tokenizer.
//!
//! The tokenizer is the very first stage of the ETAP pipeline: documents
//! are tokenized before sentence chunking, named-entity annotation and
//! feature extraction. Tokens carry their byte span in the source text so
//! that annotations produced later (entity spans, sentence spans) can be
//! mapped back to the original document for display, exactly like the
//! ETAP UI snapshots in Figures 7 and 8 of the paper.

use std::borrow::Cow;
use std::fmt;

/// Coarse lexical shape of a token, computed during tokenization.
///
/// The shape is used by the part-of-speech tagger (capitalisation cues)
/// and the named-entity recognizer (numbers, currency symbols and
/// ordinals participate in CURRENCY/PRCNT/CNT rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// All-lowercase alphabetic word (`acquired`).
    Lower,
    /// Word with an initial capital followed by lowercase (`Monsanto`).
    Capitalized,
    /// Word entirely in capitals, length ≥ 2 (`IBM`).
    AllCaps,
    /// Mixed-case word that fits none of the above (`eShopMonitor`).
    MixedCase,
    /// Pure digit run (`1996`, `42`).
    Number,
    /// Number containing `.` or `,` separators (`5.3`, `1,200,000`).
    DecimalNumber,
    /// Ordinal number (`4th`, `22nd`).
    Ordinal,
    /// Alphanumeric mix that is not an ordinal (`Q3`, `B2B`).
    Alphanumeric,
    /// A single punctuation or symbol character (`.`, `$`, `%`).
    Punct,
}

impl TokenKind {
    /// Whether this token is a word (alphabetic or alphanumeric), as
    /// opposed to a number or punctuation.
    #[must_use]
    pub fn is_word(self) -> bool {
        matches!(
            self,
            TokenKind::Lower
                | TokenKind::Capitalized
                | TokenKind::AllCaps
                | TokenKind::MixedCase
                | TokenKind::Alphanumeric
        )
    }

    /// Whether this token is numeric (`Number`, `DecimalNumber` or
    /// `Ordinal`).
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            TokenKind::Number | TokenKind::DecimalNumber | TokenKind::Ordinal
        )
    }
}

/// A single token: a borrowed slice of the source text plus its byte span
/// and lexical shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, borrowed from the source document.
    pub text: &'a str,
    /// Byte offset of the first byte of the token in the source.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// Lexical shape.
    pub kind: TokenKind,
}

impl<'a> Token<'a> {
    /// Lowercased view of the token text. Borrows (no allocation) when
    /// the token is already lowercase ASCII — the overwhelmingly common
    /// case in English text, and previously a fresh `String` per call on
    /// the NER/POS/feature hot paths. Mixed-case ASCII takes a cheap
    /// byte-mapping allocation; only non-ASCII falls back to the full
    /// Unicode lowering.
    #[must_use]
    pub fn lower(&self) -> Cow<'a, str> {
        lower_cow(self.text)
    }

    /// Whether the token starts with an uppercase letter.
    #[must_use]
    pub fn is_capitalized(&self) -> bool {
        is_capitalized(self.text, self.kind)
    }
}

/// Whether a word with shape `kind` and text `text` starts with an
/// uppercase letter — the span-based equivalent of
/// [`Token::is_capitalized`] for code that works over [`TokenSpan`]s.
#[must_use]
pub fn is_capitalized(text: &str, kind: TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Capitalized | TokenKind::AllCaps | TokenKind::MixedCase
    ) && text.chars().next().is_some_and(char::is_uppercase)
}

/// A token as a `(start, end, kind)` span over external text — the
/// structure-of-arrays form of [`Token`] used by the zero-allocation
/// annotation path. Spans never own text; they are resolved against the
/// snippet buffer on demand, so tokenizing allocates nothing beyond the
/// caller's reused span vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenSpan {
    /// Byte offset of the first byte of the token in the source.
    pub start: u32,
    /// Byte offset one past the last byte of the token.
    pub end: u32,
    /// Lexical shape.
    pub kind: TokenKind,
}

impl TokenSpan {
    /// Resolve the span against its source text.
    #[must_use]
    pub fn text<'a>(&self, source: &'a str) -> &'a str {
        &source[self.start as usize..self.end as usize]
    }

    /// Length of the token in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span is empty (never true for tokenizer output).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text)
    }
}

/// Lowercase `text`, borrowing when no byte needs to change. The ASCII
/// fast paths produce byte-identical output to `str::to_lowercase` (for
/// ASCII input the Unicode mapping *is* the ASCII mapping); non-ASCII
/// text takes the full Unicode path.
#[must_use]
pub fn lower_cow(text: &str) -> Cow<'_, str> {
    if text.is_ascii() {
        if text.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(text.to_ascii_lowercase())
        } else {
            Cow::Borrowed(text)
        }
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

/// Lowercase `text` into a caller-kept buffer (cleared first): the
/// zero-allocation companion of [`lower_cow`] for loops that lowercase
/// every token into the same scratch `String`.
pub fn lower_into(text: &str, out: &mut String) {
    out.clear();
    if text.is_ascii() {
        for b in text.bytes() {
            out.push(b.to_ascii_lowercase() as char);
        }
    } else {
        out.extend(text.chars().flat_map(char::to_lowercase));
    }
}

/// Shape classification for all-ASCII word tokens, operating directly on
/// bytes. Must stay byte-identical to [`classify_word`] on ASCII input
/// (for ASCII the Unicode case/alpha/digit predicates *are* the ASCII
/// ones); the property suite in `tests/tokenizer_parity.rs` holds the two
/// together.
fn classify_ascii(word: &[u8]) -> TokenKind {
    let has_digit = word.iter().any(u8::is_ascii_digit);
    let has_alpha = word.iter().any(u8::is_ascii_alphabetic);

    if has_digit && has_alpha {
        let digits_end = word
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(word.len());
        if digits_end > 0 {
            if let &[a, b] = &word[digits_end..] {
                if matches!(
                    (a.to_ascii_lowercase(), b.to_ascii_lowercase()),
                    (b's', b't') | (b'n', b'd') | (b'r', b'd') | (b't', b'h')
                ) {
                    return TokenKind::Ordinal;
                }
            }
        }
        return TokenKind::Alphanumeric;
    }
    if has_digit {
        if word.contains(&b'.') || word.contains(&b',') {
            return TokenKind::DecimalNumber;
        }
        return TokenKind::Number;
    }
    if word[0].is_ascii_uppercase() {
        let rest = &word[1..];
        if word.len() >= 2 && rest.iter().all(u8::is_ascii_uppercase) {
            TokenKind::AllCaps
        } else if rest.iter().all(|b| !b.is_ascii_uppercase()) {
            TokenKind::Capitalized
        } else {
            TokenKind::MixedCase
        }
    } else if word[1..].iter().any(u8::is_ascii_uppercase) {
        TokenKind::MixedCase
    } else {
        TokenKind::Lower
    }
}

fn classify_word(text: &str) -> TokenKind {
    let mut chars = text.chars();
    let first = chars.next().expect("token is non-empty");
    let has_digit = text.chars().any(|c| c.is_ascii_digit());
    let has_alpha = text.chars().any(char::is_alphabetic);

    if has_digit && has_alpha {
        // Ordinals: digits followed by st/nd/rd/th.
        let digits_end = text
            .char_indices()
            .find(|(_, c)| !c.is_ascii_digit())
            .map_or(text.len(), |(i, _)| i);
        let suffix = &text[digits_end..];
        if digits_end > 0
            && matches!(
                suffix.to_ascii_lowercase().as_str(),
                "st" | "nd" | "rd" | "th"
            )
        {
            return TokenKind::Ordinal;
        }
        return TokenKind::Alphanumeric;
    }
    if has_digit {
        if text.contains('.') || text.contains(',') {
            return TokenKind::DecimalNumber;
        }
        return TokenKind::Number;
    }
    if first.is_uppercase() {
        let rest_lower = chars.clone().all(|c| !c.is_uppercase());
        let rest_upper = text.chars().skip(1).all(|c| c.is_uppercase());
        if text.chars().count() >= 2 && rest_upper {
            TokenKind::AllCaps
        } else if rest_lower {
            TokenKind::Capitalized
        } else {
            TokenKind::MixedCase
        }
    } else if text.chars().skip(1).any(char::is_uppercase) {
        TokenKind::MixedCase
    } else {
        TokenKind::Lower
    }
}

/// Is `c` a character that continues a word token?
///
/// Apostrophes and hyphens join word parts (`O'Brien`, `third-quarter`);
/// dots and commas join digits (`5.3`, `1,200`).
fn continues(prev: char, c: char, next: Option<char>) -> bool {
    if c.is_alphanumeric() {
        return true;
    }
    match c {
        '\'' | '\u{2019}' => next.is_some_and(char::is_alphabetic) && prev.is_alphabetic(),
        '-' => next.is_some_and(char::is_alphanumeric) && prev.is_alphanumeric(),
        '.' | ',' => {
            // Only inside digit runs: 5.3, 1,200,000.
            prev.is_ascii_digit() && next.is_some_and(|n| n.is_ascii_digit())
        }
        _ => false,
    }
}

/// Tokenize `text` into words, numbers and punctuation.
///
/// Guarantees:
/// * spans are non-overlapping, strictly increasing, and lie on character
///   boundaries of `text`;
/// * concatenating `token.text` over all tokens reproduces `text` minus
///   whitespace and control characters;
/// * every non-whitespace character of `text` is covered by exactly one
///   token.
///
/// ```
/// use etap_text::{tokenize, TokenKind};
/// let toks = tokenize("IBM acquired Daksh for $160 million.");
/// let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
/// assert_eq!(
///     texts,
///     ["IBM", "acquired", "Daksh", "for", "$", "160", "million", "."]
/// );
/// assert_eq!(toks[0].kind, TokenKind::AllCaps);
/// assert_eq!(toks[4].kind, TokenKind::Punct);
/// assert_eq!(toks[5].kind, TokenKind::Number);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    let mut tokens = Vec::with_capacity(text.len() / 5);
    tokenize_core(text, |start, end, kind| {
        tokens.push(Token {
            text: &text[start..end],
            start,
            end,
            kind,
        });
    });
    tokens
}

/// Tokenize `text` into a caller-kept span vector (cleared first): the
/// zero-allocation companion of [`tokenize`] for the annotation hot path.
/// Spans carry the same boundaries, order and shapes as [`tokenize`]
/// output; resolve them with [`TokenSpan::text`].
pub fn tokenize_into(text: &str, out: &mut Vec<TokenSpan>) {
    debug_assert!(u32::try_from(text.len()).is_ok(), "snippet exceeds u32 span range");
    out.clear();
    tokenize_core(text, |start, end, kind| {
        out.push(TokenSpan {
            start: start as u32,
            end: end as u32,
            kind,
        });
    });
}

/// Decode the character starting at byte `i` (must be a char boundary).
#[inline]
fn char_after(text: &str, i: usize) -> Option<char> {
    text[i..].chars().next()
}

/// Extend a word token starting at `start` (first char `first` already
/// accepted). Returns the end offset and whether every consumed byte was
/// ASCII. The joiner rules mirror [`continues`]: apostrophes between
/// letters, hyphens between alphanumerics, `.`/`,` inside digit runs.
fn scan_word(text: &str, start: usize, first: char) -> (usize, bool) {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut end = start + first.len_utf8();
    let mut ascii = first.is_ascii();
    let mut prev = first;
    while end < n {
        let b = bytes[end];
        if b.is_ascii_alphanumeric() {
            prev = b as char;
            end += 1;
            continue;
        }
        if b < 0x80 {
            let joins = match b {
                b'\'' => {
                    prev.is_alphabetic()
                        && char_after(text, end + 1).is_some_and(char::is_alphabetic)
                }
                b'-' => {
                    prev.is_alphanumeric()
                        && char_after(text, end + 1).is_some_and(char::is_alphanumeric)
                }
                b'.' | b',' => {
                    prev.is_ascii_digit()
                        && char_after(text, end + 1).is_some_and(|c| c.is_ascii_digit())
                }
                _ => false,
            };
            if !joins {
                break;
            }
            prev = b as char;
            end += 1;
        } else {
            let c = char_after(text, end).expect("end is a char boundary inside text");
            let w = c.len_utf8();
            if c.is_alphanumeric()
                || (c == '\u{2019}'
                    && prev.is_alphabetic()
                    && char_after(text, end + w).is_some_and(char::is_alphabetic))
            {
                prev = c;
                ascii = false;
                end += w;
            } else {
                break;
            }
        }
    }
    (end, ascii)
}

/// Byte-cursor tokenizer core shared by [`tokenize`] and
/// [`tokenize_into`]. ASCII text never decodes a `char` on the skip and
/// word paths; non-ASCII characters fall back to the exact Unicode
/// predicates of the original char-iterator implementation (kept as
/// [`reference::tokenize`], the executable spec for the parity suite).
#[inline]
fn tokenize_core(text: &str, mut push: impl FnMut(usize, usize, TokenKind)) {
    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        let b = bytes[i];
        if b < 0x80 {
            // ASCII whitespace + control is exactly 0x00..=0x20 and 0x7F.
            if b <= b' ' || b == 0x7f {
                i += 1;
            } else if b.is_ascii_alphanumeric() {
                let (end, ascii) = scan_word(text, i, b as char);
                let kind = if ascii {
                    classify_ascii(&bytes[i..end])
                } else {
                    classify_word(&text[i..end])
                };
                push(i, end, kind);
                i = end;
            } else {
                push(i, i + 1, TokenKind::Punct);
                i += 1;
            }
            continue;
        }
        let c = char_after(text, i).expect("i is a char boundary inside text");
        let w = c.len_utf8();
        if c.is_whitespace() || c.is_control() {
            i += w;
        } else if c.is_alphanumeric() {
            let (end, ascii) = scan_word(text, i, c);
            let kind = if ascii {
                classify_ascii(&bytes[i..end])
            } else {
                classify_word(&text[i..end])
            };
            push(i, end, kind);
            i = end;
        } else {
            push(i, i + w, TokenKind::Punct);
            i += w;
        }
    }
}

/// The original character-iterator tokenizer, kept verbatim as the
/// executable specification for the byte-level scanner. The parity
/// property suite asserts `tokenize ≡ reference::tokenize` on arbitrary
/// input (including UTF-8 multibyte and char-boundary edge cases); it is
/// not used by the pipeline itself.
#[doc(hidden)]
pub mod reference {
    use super::{classify_word, continues, Token, TokenKind};

    /// Char-iterator tokenizer (pre-byte-scanner implementation).
    #[must_use]
    pub fn tokenize(text: &str) -> Vec<Token<'_>> {
        let mut tokens = Vec::with_capacity(text.len() / 5);
        let mut iter = text.char_indices().peekable();

        while let Some((start, c)) = iter.next() {
            if c.is_whitespace() || c.is_control() {
                continue;
            }
            if c.is_alphanumeric() {
                let mut end = start + c.len_utf8();
                let mut prev = c;
                while let Some(&(i, nc)) = iter.peek() {
                    let next = text[i + nc.len_utf8()..].chars().next();
                    if continues(prev, nc, next) {
                        end = i + nc.len_utf8();
                        prev = nc;
                        iter.next();
                    } else {
                        break;
                    }
                }
                let tok = &text[start..end];
                tokens.push(Token {
                    text: tok,
                    start,
                    end,
                    kind: classify_word(tok),
                });
            } else {
                let end = start + c.len_utf8();
                tokens.push(Token {
                    text: &text[start..end],
                    start,
                    end,
                    kind: TokenKind::Punct,
                });
            }
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &str) -> Vec<&str> {
        tokenize(s).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn empty_input_yields_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn splits_simple_sentence() {
        assert_eq!(texts("The cat sat."), vec!["The", "cat", "sat", "."]);
    }

    #[test]
    fn keeps_decimal_numbers_together() {
        assert_eq!(texts("up 5.3 percent"), vec!["up", "5.3", "percent"]);
        let toks = tokenize("up 5.3 percent");
        assert_eq!(toks[1].kind, TokenKind::DecimalNumber);
    }

    #[test]
    fn keeps_thousand_separators_together() {
        let toks = tokenize("$1,200,000 in cash");
        assert_eq!(toks[1].text, "1,200,000");
        assert_eq!(toks[1].kind, TokenKind::DecimalNumber);
        assert_eq!(toks[0].kind, TokenKind::Punct);
    }

    #[test]
    fn trailing_dot_is_not_part_of_number() {
        let toks = tokenize("grew 10.");
        assert_eq!(toks[1].text, "10");
        assert_eq!(toks[2].text, ".");
    }

    #[test]
    fn apostrophes_join_words() {
        assert_eq!(texts("O'Brien's firm"), vec!["O'Brien's", "firm"]);
    }

    #[test]
    fn hyphens_join_words() {
        assert_eq!(
            texts("third-quarter results"),
            vec!["third-quarter", "results"]
        );
    }

    #[test]
    fn dangling_hyphen_is_punct() {
        assert_eq!(
            texts("pre- and post-merger"),
            vec!["pre", "-", "and", "post-merger"]
        );
    }

    #[test]
    fn classifies_shapes() {
        assert_eq!(tokenize("IBM")[0].kind, TokenKind::AllCaps);
        assert_eq!(tokenize("Daksh")[0].kind, TokenKind::Capitalized);
        assert_eq!(tokenize("eShopMonitor")[0].kind, TokenKind::MixedCase);
        assert_eq!(tokenize("revenue")[0].kind, TokenKind::Lower);
        assert_eq!(tokenize("1996")[0].kind, TokenKind::Number);
        assert_eq!(tokenize("4th")[0].kind, TokenKind::Ordinal);
        assert_eq!(tokenize("Q3")[0].kind, TokenKind::Alphanumeric);
        assert_eq!(tokenize("B2B")[0].kind, TokenKind::Alphanumeric);
    }

    #[test]
    fn ordinal_detection() {
        assert_eq!(tokenize("22nd")[0].kind, TokenKind::Ordinal);
        assert_eq!(tokenize("1st")[0].kind, TokenKind::Ordinal);
        assert_eq!(tokenize("3rd")[0].kind, TokenKind::Ordinal);
        // Not ordinals:
        assert_eq!(tokenize("4x")[0].kind, TokenKind::Alphanumeric);
    }

    #[test]
    fn spans_map_back_to_source() {
        let src = "Acme Corp. reported a 10% rise.";
        for tok in tokenize(src) {
            assert_eq!(&src[tok.start..tok.end], tok.text);
        }
    }

    #[test]
    fn spans_are_strictly_increasing_and_disjoint() {
        let src = "Mr. Andersen was the CEO of XYZ Inc. from 1980-1985.";
        let toks = tokenize(src);
        for pair in toks.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn covers_all_non_whitespace() {
        let src = "A $5 billion, 10% stake!";
        let toks = tokenize(src);
        let covered: usize = toks.iter().map(|t| t.text.len()).sum();
        let expected: usize = src
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(char::len_utf8)
            .sum();
        assert_eq!(covered, expected);
    }

    #[test]
    fn handles_unicode_words() {
        let toks = tokenize("Société Générale gained");
        assert_eq!(toks[0].text, "Société");
        assert_eq!(toks[0].kind, TokenKind::Capitalized);
    }

    #[test]
    fn currency_symbols_are_single_punct_tokens() {
        let toks = tokenize("€5 and $7");
        assert_eq!(toks[0].text, "€");
        assert_eq!(toks[0].kind, TokenKind::Punct);
    }

    #[test]
    fn is_capitalized_helper() {
        assert!(tokenize("IBM")[0].is_capitalized());
        assert!(tokenize("Daksh")[0].is_capitalized());
        assert!(!tokenize("daksh")[0].is_capitalized());
    }

    #[test]
    fn tokenize_into_matches_tokenize() {
        let src = "IBM's Q3: Société Générale gained 5.3% — $1,200,000 (pre- and post-merger), O'Brien's 4th deal.";
        let toks = tokenize(src);
        let mut spans = Vec::new();
        tokenize_into(src, &mut spans);
        assert_eq!(spans.len(), toks.len());
        for (s, t) in spans.iter().zip(&toks) {
            assert_eq!(s.start as usize, t.start);
            assert_eq!(s.end as usize, t.end);
            assert_eq!(s.kind, t.kind);
            assert_eq!(s.text(src), t.text);
        }
    }

    #[test]
    fn tokenize_into_reuses_the_buffer() {
        let mut spans = Vec::new();
        tokenize_into("one two three four five", &mut spans);
        assert_eq!(spans.len(), 5);
        let cap = spans.capacity();
        tokenize_into("six", &mut spans);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans.capacity(), cap);
    }

    #[test]
    fn byte_scanner_matches_reference_on_curated_edges() {
        let cases = [
            "",
            "   \t\n ",
            "plain ascii words only",
            "IBM acquired Daksh for $160 million.",
            "up 5.3 percent, down 1,200,000",
            "O'Brien's firm \u{2019}quoted\u{2019} word\u{2019}s end\u{2019}",
            "pre- and post-merger B2B 4th 22nd Q3",
            "Société Générale — café naïve Ёлка 中文分词",
            "€5 and $7 and ₹9",
            "mixed中ascii and 5中3 and a\u{2019}中",
            "trailing' and -leading and 10. end,",
            "\u{0B}vertical\u{7f}tab\u{85}next\u{a0}line",
        ];
        for src in cases {
            let a = tokenize(src);
            let b = reference::tokenize(src);
            assert_eq!(a, b, "tokenizer mismatch on {src:?}");
        }
    }
}
