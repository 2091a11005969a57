//! `LEADS v2`: the sharded, memory-mappable binary lead book.
//!
//! The one on-disk book format. Loading it is O(mmap) plus a checksum
//! pass — no parse into owned heap structures and no private copy per
//! replica:
//!
//! * [`encode_book`] splits a [`LeadBook`] into **shards** keyed by the
//!   event's primary company (driver id for company-less events), each
//!   shard a sealed `ETAPBIN` container of length-prefixed records plus
//!   an offset table, and one **index** file holding every ranking
//!   (global, per-driver, per-company) as `(shard, idx)` references.
//! * [`MappedBook`] opens those containers over [`Arena`]s — usually
//!   mmap-backed — and serves them **zero-copy**: string fields stay
//!   offset+len views into the arena until response-write time.
//! * [`BookHandle`] is the serving-layer wrapper that makes owned and
//!   mapped books interchangeable behind one API ([`EventRef`] /
//!   [`CompanyRef`] borrow from either).
//!
//! Shard stability is the point of the split: a shard's records are its
//! events in global rank order, which is a total order
//! ([`rank::event_order`](crate::rank)) restricted to the shard's
//! subset — so extending the book with events that land in *other*
//! shards leaves this shard's bytes **bit-identical**, and the
//! generation store can hard-link clean shards instead of rewriting
//! them. For the same reason shard bytes never embed the generation
//! number.

use std::collections::HashMap;
use std::sync::Arc;

use etap_corpus::SalesDriver;
use etap_persist::{bin_open, fnv1a64, Arena, BinWriter, CodecError};

use crate::aliases::AliasResolver;
use crate::events::TriggerEvent;
use crate::leads::LeadBook;
use crate::rank::CompanyScore;

/// `ETAPBIN` kind of one shard file (`shards/shard-NNN.leads2`).
pub const SHARD_KIND: &str = "LEADS";
/// `ETAPBIN` kind of the index file (`book.index`).
pub const INDEX_KIND: &str = "LEADS-IDX";
/// Format version of both containers.
pub const LEADS2_VERSION: u32 = 2;
/// Default shard count when the caller doesn't choose one.
pub const DEFAULT_SHARDS: u32 = 16;

/// On-disk driver code: registry index + 1 (0 is reserved). The three
/// built-ins therefore keep their historical codes 1, 2, 3; registered
/// drivers get 4+ and the index grows a trailing code→key section so a
/// fresh process (with a possibly different interning order) can map
/// codes back to [`DriverId`]s. Books holding only built-in drivers
/// emit no such section and stay byte-identical to the pre-registry
/// format.
fn driver_code(d: SalesDriver) -> u8 {
    (d.index() + 1) as u8
}

/// Builtin-only code lookup; custom codes resolve through [`CodeMap`].
fn driver_from_code(c: u8) -> Option<SalesDriver> {
    match c {
        1 => Some(SalesDriver::MergersAcquisitions),
        2 => Some(SalesDriver::ChangeInManagement),
        3 => Some(SalesDriver::RevenueGrowth),
        _ => None,
    }
}

/// Code→driver table decoded from the index's trailing section (empty
/// for builtin-only books).
#[derive(Debug, Default)]
struct CodeMap {
    custom: Vec<(u8, SalesDriver)>,
}

impl CodeMap {
    fn resolve(&self, c: u8) -> Option<SalesDriver> {
        driver_from_code(c).or_else(|| {
            self.custom
                .iter()
                .find(|(code, _)| *code == c)
                .map(|(_, d)| *d)
        })
    }
}

/// The shard an event belongs to: FNV of its primary key (first company
/// surface form, else the driver id) modulo the shard count. Company
/// keyed so one company's events cluster and an incremental crawl
/// dirties few shards.
#[must_use]
pub fn shard_of(event: &TriggerEvent, n_shards: u32) -> u32 {
    let key = event
        .companies
        .first()
        .map_or_else(|| event.driver.id(), String::as_str);
    (fnv1a64(key.as_bytes()) % u64::from(n_shards.max(1))) as u32
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_ref(out: &mut Vec<u8>, (shard, idx): (u32, u32)) {
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&idx.to_le_bytes());
}

fn encode_event(out: &mut Vec<u8>, e: &TriggerEvent) {
    out.push(driver_code(e.driver));
    out.extend_from_slice(&(e.doc_id as u64).to_le_bytes());
    out.extend_from_slice(&e.score.to_bits().to_le_bytes());
    out.extend_from_slice(&e.doc_date.0.to_le_bytes());
    out.push(e.doc_date.1);
    out.push(e.doc_date.2);
    put_str(out, &e.url);
    put_str(out, &e.snippet);
    out.extend_from_slice(&(e.companies.len() as u16).to_le_bytes());
    for c in &e.companies {
        put_str(out, c);
    }
}

/// A [`LeadBook`] serialized into `LEADS v2` containers, ready to be
/// written (or hard-linked, when unchanged) by the generation store.
#[derive(Debug)]
pub struct EncodedBook {
    /// Sealed shard containers; `shards[i]` is shard id `i`.
    pub shards: Vec<Vec<u8>>,
    /// Sealed index container referencing the shards.
    pub index: Vec<u8>,
}

/// Serialize `book` into `n_shards` shard containers plus one index.
///
/// Deterministic: the same book produces byte-identical output, and a
/// shard whose event subset is unchanged between two books produces
/// byte-identical shard bytes (see module docs).
#[must_use]
pub fn encode_book(book: &LeadBook, n_shards: u32) -> EncodedBook {
    let n_shards = n_shards.max(1);
    let events = book.events();

    // Assign events to shards in global rank order; remember each
    // event's (shard, idx-within-shard) reference.
    let mut shard_events: Vec<Vec<usize>> = vec![Vec::new(); n_shards as usize];
    let mut rank_refs: Vec<(u32, u32)> = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let s = shard_of(e, n_shards);
        let idx = shard_events[s as usize].len() as u32;
        shard_events[s as usize].push(i);
        rank_refs.push((s, idx));
    }

    let shards = shard_events
        .iter()
        .enumerate()
        .map(|(sid, idxs)| {
            let mut records = Vec::new();
            let mut offsets = Vec::with_capacity(idxs.len() * 8);
            for &gi in idxs {
                offsets.extend_from_slice(&(records.len() as u64).to_le_bytes());
                encode_event(&mut records, &events[gi]);
            }
            let mut meta = Vec::with_capacity(16);
            meta.extend_from_slice(&(sid as u32).to_le_bytes());
            meta.extend_from_slice(&n_shards.to_le_bytes());
            meta.extend_from_slice(&(idxs.len() as u64).to_le_bytes());
            let mut w = BinWriter::new(SHARD_KIND, LEADS2_VERSION);
            w.section(meta).section(offsets).section(records);
            w.finish()
        })
        .collect();

    // Index section 0: meta + per-shard counts.
    let mut meta = Vec::with_capacity(16 + shard_events.len() * 8);
    meta.extend_from_slice(&n_shards.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());
    meta.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for s in &shard_events {
        meta.extend_from_slice(&(s.len() as u64).to_le_bytes());
    }

    // Section 1: the global ranking as (shard, idx) refs.
    let mut rank_bytes = Vec::with_capacity(rank_refs.len() * 8);
    for &r in &rank_refs {
        put_ref(&mut rank_bytes, r);
    }

    // Sections 2+3: per-driver directory + refs blob.
    let by_driver = book.by_driver_raw();
    let mut driver_dir = Vec::new();
    let mut driver_refs = Vec::new();
    driver_dir.extend_from_slice(&(by_driver.len() as u32).to_le_bytes());
    for (d, idxs) in by_driver {
        let off = (driver_refs.len() / 8) as u64;
        for &gi in idxs {
            put_ref(&mut driver_refs, rank_refs[gi]);
        }
        driver_dir.push(driver_code(*d));
        driver_dir.extend_from_slice(&[0, 0, 0]);
        driver_dir.extend_from_slice(&off.to_le_bytes());
        driver_dir.extend_from_slice(&(idxs.len() as u64).to_le_bytes());
    }

    // Sections 4+5: company directory (MRR order) + refs blob.
    let companies = book.companies();
    let mut company_dir = Vec::new();
    let mut company_refs = Vec::new();
    company_dir.extend_from_slice(&(companies.len() as u64).to_le_bytes());
    for c in companies {
        let off = (company_refs.len() / 8) as u64;
        let idxs = book
            .by_company_raw()
            .get(&c.company)
            .map_or(&[][..], Vec::as_slice);
        for &gi in idxs {
            put_ref(&mut company_refs, rank_refs[gi]);
        }
        put_str(&mut company_dir, &c.company);
        company_dir.extend_from_slice(&c.mrr.to_bits().to_le_bytes());
        company_dir.extend_from_slice(&(c.events as u64).to_le_bytes());
        company_dir.extend_from_slice(&off.to_le_bytes());
        company_dir.extend_from_slice(&(idxs.len() as u64).to_le_bytes());
    }

    // Section 6: normalized-name lookup keys, sorted for determinism.
    let canon_idx: HashMap<&str, u64> = companies
        .iter()
        .enumerate()
        .map(|(i, c)| (c.company.as_str(), i as u64))
        .collect();
    let mut keys: Vec<(&String, &String)> = book.name_keys_raw().iter().collect();
    keys.sort();
    let entries: Vec<(&String, u64)> = keys
        .iter()
        .filter_map(|(k, canon)| canon_idx.get(canon.as_str()).map(|&i| (*k, i)))
        .collect();
    let mut name_keys = Vec::new();
    name_keys.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (k, i) in entries {
        put_str(&mut name_keys, k);
        name_keys.extend_from_slice(&i.to_le_bytes());
    }

    // Optional section 7: code→key table for registered (non-builtin)
    // drivers. Omitted entirely when only built-ins are present, which
    // keeps those indexes byte-identical to the pre-registry format.
    let custom: Vec<SalesDriver> = by_driver
        .iter()
        .map(|(d, _)| *d)
        .filter(|d| !d.is_builtin())
        .collect();
    let code_table = (!custom.is_empty()).then(|| {
        let mut tbl = Vec::new();
        tbl.extend_from_slice(&(custom.len() as u32).to_le_bytes());
        for d in &custom {
            tbl.push(driver_code(*d));
            put_str(&mut tbl, d.id());
        }
        tbl
    });

    let mut w = BinWriter::new(INDEX_KIND, LEADS2_VERSION);
    w.section(meta)
        .section(rank_bytes)
        .section(driver_dir)
        .section(driver_refs)
        .section(company_dir)
        .section(company_refs)
        .section(name_keys);
    if let Some(tbl) = code_table {
        w.section(tbl);
    }
    EncodedBook {
        shards,
        index: w.finish(),
    }
}

/// A bounds-checked forward cursor over a byte slice; every read fails
/// with [`CodecError::Truncated`] instead of slicing out of bounds.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, at: 0 }
    }

    /// Validate a corpus-controlled entry count against the bytes left:
    /// each entry occupies at least `min_entry` bytes, so a count that
    /// cannot fit is corruption — caught *before* any `with_capacity`
    /// preallocation can abort on an absurd size.
    fn count(&mut self, n: usize, min_entry: usize) -> Result<usize, CodecError> {
        if n > (self.b.len() - self.at) / min_entry.max(1) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let s = self.b.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn str_view(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| CodecError::Truncated)
    }
}

/// A lazily decoded event inside a mapped shard: the string fields are
/// views into the arena, copied only if the caller owns them.
#[derive(Debug, Clone, Copy)]
pub struct EventView<'a> {
    driver: SalesDriver,
    doc_id: u64,
    score: f64,
    date: (u16, u8, u8),
    url: &'a str,
    snippet: &'a str,
    /// Length-prefixed company strings, validated at decode.
    companies: &'a [u8],
    n_companies: usize,
}

impl<'a> EventView<'a> {
    fn decode(rec: &'a [u8], codes: &CodeMap) -> Result<Self, CodecError> {
        let mut c = Cur::new(rec);
        let driver = codes.resolve(c.u8()?).ok_or(CodecError::Truncated)?;
        let doc_id = c.u64()?;
        let score = f64::from_bits(c.u64()?);
        let date = (c.u16()?, c.u8()?, c.u8()?);
        let url = c.str_view()?;
        let snippet = c.str_view()?;
        let n_companies = c.u16()? as usize;
        let companies_start = c.at;
        for _ in 0..n_companies {
            c.str_view()?;
        }
        Ok(Self {
            driver,
            doc_id,
            score,
            date,
            url,
            snippet,
            companies: &rec[companies_start..c.at],
            n_companies,
        })
    }

    /// The event's sales driver.
    #[must_use]
    pub fn driver(&self) -> SalesDriver {
        self.driver
    }

    /// Source document id.
    #[must_use]
    pub fn doc_id(&self) -> usize {
        self.doc_id as usize
    }

    /// Classifier confidence.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Publication date `(year, month, day)`.
    #[must_use]
    pub fn date(&self) -> (u16, u8, u8) {
        self.date
    }

    /// Source URL, borrowed from the arena.
    #[must_use]
    pub fn url(&self) -> &'a str {
        self.url
    }

    /// Snippet text, borrowed from the arena.
    #[must_use]
    pub fn snippet(&self) -> &'a str {
        self.snippet
    }

    /// Company surface forms, borrowed from the arena.
    #[must_use]
    pub fn companies(&self) -> Vec<&'a str> {
        let mut c = Cur::new(self.companies);
        (0..self.n_companies)
            .filter_map(|_| c.str_view().ok())
            .collect()
    }

    /// Copy into an owned [`TriggerEvent`].
    #[must_use]
    pub fn to_event(&self) -> TriggerEvent {
        TriggerEvent {
            driver: self.driver,
            doc_id: self.doc_id(),
            url: self.url.to_string(),
            snippet: self.snippet.to_string(),
            score: self.score,
            companies: self.companies().iter().map(ToString::to_string).collect(),
            doc_date: self.date,
        }
    }
}

struct ShardMap {
    arena: Arc<Arena>,
    count: usize,
    /// `(start, len)` of the offset table within the arena bytes.
    offsets: (usize, usize),
    /// `(start, len)` of the records blob within the arena bytes.
    records: (usize, usize),
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("count", &self.count)
            .field("bytes", &self.arena.len())
            .finish()
    }
}

#[derive(Debug)]
struct DriverEntry {
    driver: SalesDriver,
    refs_off: usize,
    count: usize,
}

#[derive(Debug)]
struct CompanyEntry {
    name: String,
    mrr: f64,
    events: usize,
    refs_off: usize,
    count: usize,
}

/// A lead book served directly from `LEADS v2` arenas — usually mmap'd
/// files — without materializing events. The small directories (driver
/// table, company table, name keys) are decoded eagerly, O(#companies);
/// the event records and all ranking refs stay in the arenas.
#[derive(Debug)]
pub struct MappedBook {
    index: Arc<Arena>,
    shards: Vec<ShardMap>,
    total: usize,
    rank_refs: (usize, usize),
    drivers: Vec<DriverEntry>,
    driver_refs: (usize, usize),
    companies: Vec<CompanyEntry>,
    company_refs: (usize, usize),
    name_keys: HashMap<String, usize>,
    codes: CodeMap,
}

impl MappedBook {
    /// Open a book over a validated index arena and its shard arenas
    /// (`shard_arenas[i]` must be shard id `i`).
    ///
    /// Structural validation happens here — counts cross-checked
    /// between index and shards, every directory bounds-checked — so
    /// the per-request accessors can be simple `Option` lookups that
    /// never slice out of bounds.
    ///
    /// # Errors
    /// A typed [`CodecError`] on any structural mismatch; integrity
    /// checksums are the caller's job (the generation-store manifest
    /// already hashes every file).
    pub fn open(index: Arc<Arena>, shard_arenas: Vec<Arc<Arena>>) -> Result<Self, CodecError> {
        let malformed = |msg: String| CodecError::Malformed { line: 0, msg };
        let iv = bin_open(index.bytes(), INDEX_KIND, LEADS2_VERSION, false)?;

        let mut c = Cur::new(iv.section(0)?);
        let n_shards = c.u32()? as usize;
        let _pad = c.u32()?;
        let total = c.u64()? as usize;
        let n_shards = c.count(n_shards, 8)?;
        let mut counts = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            counts.push(c.u64()? as usize);
        }
        if counts.iter().sum::<usize>() != total {
            return Err(malformed("shard counts do not sum to total".into()));
        }
        if shard_arenas.len() != n_shards {
            return Err(malformed(format!(
                "index expects {n_shards} shards, got {}",
                shard_arenas.len()
            )));
        }

        let mut shards = Vec::with_capacity(n_shards);
        for (sid, arena) in shard_arenas.into_iter().enumerate() {
            let sv = bin_open(arena.bytes(), SHARD_KIND, LEADS2_VERSION, false)?;
            let mut mc = Cur::new(sv.section(0)?);
            let file_sid = mc.u32()? as usize;
            let file_n = mc.u32()? as usize;
            let count = mc.u64()? as usize;
            if file_sid != sid || file_n != n_shards || count != counts[sid] {
                return Err(malformed(format!(
                    "shard {sid} metadata mismatch (claims id {file_sid}, {file_n} shards, {count} events)"
                )));
            }
            let offsets = sv.section_range(1)?;
            if offsets.1 != count * 8 {
                return Err(malformed(format!("shard {sid} offset table length")));
            }
            let records = sv.section_range(2)?;
            shards.push(ShardMap {
                arena,
                count,
                offsets,
                records,
            });
        }

        let rank_refs = iv.section_range(1)?;
        if rank_refs.1 != total * 8 {
            return Err(malformed("rank table length".into()));
        }

        // The trailing code→key table (absent on builtin-only books)
        // decodes first: the driver directory below resolves through it.
        let mut codes = CodeMap::default();
        if iv.section_count() > 7 {
            let mut c = Cur::new(iv.section(7)?);
            let n = c.u32()? as usize;
            let n = c.count(n, 5)?;
            for _ in 0..n {
                let code = c.u8()?;
                let key = c.str_view()?;
                let driver = SalesDriver::intern(key)
                    .map_err(|e| malformed(format!("driver key {key:?}: {e}")))?;
                codes.custom.push((code, driver));
            }
        }

        let mut c = Cur::new(iv.section(2)?);
        let n = c.u32()? as usize;
        let n = c.count(n, 20)?;
        let driver_refs = iv.section_range(3)?;
        let mut drivers = Vec::with_capacity(n);
        for _ in 0..n {
            let code = c.u8()?;
            c.bytes(3)?;
            let refs_off = c.u64()? as usize;
            let count = c.u64()? as usize;
            let driver = codes
                .resolve(code)
                .ok_or_else(|| malformed(format!("unknown driver code {code}")))?;
            if refs_off
                .checked_add(count)
                .is_none_or(|end| end * 8 > driver_refs.1)
            {
                return Err(malformed(format!("driver {} refs out of bounds", driver.id())));
            }
            drivers.push(DriverEntry {
                driver,
                refs_off,
                count,
            });
        }

        let mut c = Cur::new(iv.section(4)?);
        let n = c.u64()? as usize;
        let n = c.count(n, 36)?;
        let company_refs = iv.section_range(5)?;
        let mut companies = Vec::with_capacity(n);
        for _ in 0..n {
            let name = c.str_view()?.to_string();
            let mrr = f64::from_bits(c.u64()?);
            let events = c.u64()? as usize;
            let refs_off = c.u64()? as usize;
            let count = c.u64()? as usize;
            if refs_off
                .checked_add(count)
                .is_none_or(|end| end * 8 > company_refs.1)
            {
                return Err(malformed(format!("company {name:?} refs out of bounds")));
            }
            companies.push(CompanyEntry {
                name,
                mrr,
                events,
                refs_off,
                count,
            });
        }

        let mut c = Cur::new(iv.section(6)?);
        let n = c.u64()? as usize;
        let n = c.count(n, 12)?;
        let mut name_keys = HashMap::with_capacity(n);
        for _ in 0..n {
            let key = c.str_view()?.to_string();
            let idx = c.u64()? as usize;
            if idx >= companies.len() {
                return Err(malformed(format!("name key {key:?} points past company table")));
            }
            name_keys.insert(key, idx);
        }

        Ok(Self {
            index,
            shards,
            total,
            rank_refs,
            drivers,
            driver_refs,
            companies,
            company_refs,
            name_keys,
            codes,
        })
    }

    /// Total ranked events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the book holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of shards backing this book.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total bytes across index and shard arenas (mapped or heap).
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        self.index.len() + self.shards.iter().map(|s| s.arena.len()).sum::<usize>()
    }

    /// Whether every arena is an actual file mapping.
    #[must_use]
    pub fn is_fully_mapped(&self) -> bool {
        self.index.is_mapped() && self.shards.iter().all(|s| s.arena.is_mapped())
    }

    fn ref_at(&self, (start, len): (usize, usize), i: usize) -> Option<(u32, u32)> {
        let at = start + i.checked_mul(8)?;
        if at + 8 > start + len {
            return None;
        }
        let b = self.index.bytes();
        let shard = u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?);
        let idx = u32::from_le_bytes(b.get(at + 4..at + 8)?.try_into().ok()?);
        Some((shard, idx))
    }

    /// The event at a `(shard, idx)` reference, if structurally valid.
    #[must_use]
    pub fn event_at(&self, shard: u32, idx: u32) -> Option<EventView<'_>> {
        let sm = self.shards.get(shard as usize)?;
        if idx as usize >= sm.count {
            return None;
        }
        let b = sm.arena.bytes();
        let off_at = sm.offsets.0 + idx as usize * 8;
        let rec_off =
            u64::from_le_bytes(b.get(off_at..off_at + 8)?.try_into().ok()?) as usize;
        let rec = b.get(sm.records.0 + rec_off..sm.records.0 + sm.records.1)?;
        EventView::decode(rec, &self.codes).ok()
    }

    fn events_from(&self, refs: (usize, usize), off: usize, n: usize) -> Vec<EventView<'_>> {
        (off..off + n)
            .filter_map(|i| self.ref_at(refs, i))
            .filter_map(|(s, x)| self.event_at(s, x))
            .collect()
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> Vec<EventView<'_>> {
        self.events_from(self.rank_refs, 0, top.min(self.total))
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<EventView<'_>> {
        self.drivers
            .iter()
            .find(|d| d.driver == driver)
            .map(|d| self.events_from(self.driver_refs, d.refs_off, d.count.min(top)))
            .unwrap_or_default()
    }

    /// Total events for one driver — O(1), no materialization.
    #[must_use]
    pub fn driver_total(&self, driver: SalesDriver) -> usize {
        self.drivers
            .iter()
            .find(|d| d.driver == driver)
            .map_or(0, |d| d.count)
    }

    /// Drivers present, in canonical order.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        self.drivers.iter().map(|d| d.driver).collect()
    }

    /// Number of ranked companies.
    #[must_use]
    pub fn companies_len(&self) -> usize {
        self.companies.len()
    }

    /// The top `top` companies by MRR (best first).
    #[must_use]
    pub fn companies_top(&self, top: usize) -> Vec<CompanyRef<'_>> {
        self.companies
            .iter()
            .take(top)
            .map(CompanyEntry::as_ref)
            .collect()
    }

    /// A company's MRR entry and its events (score order), looked up by
    /// any surface variation of its name.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(CompanyRef<'_>, Vec<EventView<'_>>)> {
        let &idx = self.name_keys.get(&AliasResolver::normalize(name))?;
        let entry = self.companies.get(idx)?;
        let events = self.events_from(self.company_refs, entry.refs_off, entry.count);
        Some((entry.as_ref(), events))
    }

    /// Copy every event out in global rank order — the path back to
    /// owned structures (diff, extend, re-encode, parity checks).
    /// O(book); defeats the purpose if called per request.
    #[must_use]
    pub fn events_owned(&self) -> Vec<TriggerEvent> {
        self.top(self.total).iter().map(EventView::to_event).collect()
    }
}

impl CompanyEntry {
    fn as_ref(&self) -> CompanyRef<'_> {
        CompanyRef {
            company: &self.name,
            mrr: self.mrr,
            events: self.events,
        }
    }
}

/// A company ranking entry borrowed from either book backing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompanyRef<'a> {
    /// Canonical company name.
    pub company: &'a str,
    /// Eq. 2 MRR score.
    pub mrr: f64,
    /// Number of events mentioning the company.
    pub events: usize,
}

impl<'a> From<&'a CompanyScore> for CompanyRef<'a> {
    fn from(c: &'a CompanyScore) -> Self {
        Self {
            company: &c.company,
            mrr: c.mrr,
            events: c.events,
        }
    }
}

/// An event borrowed from either book backing: a reference into an
/// owned [`LeadBook`] or a zero-copy [`EventView`] into an arena.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// Borrowed from an owned book.
    Owned(&'a TriggerEvent),
    /// Decoded view into a mapped arena.
    View(EventView<'a>),
}

impl<'a> EventRef<'a> {
    /// The event's sales driver.
    #[must_use]
    pub fn driver(&self) -> SalesDriver {
        match self {
            EventRef::Owned(e) => e.driver,
            EventRef::View(v) => v.driver(),
        }
    }

    /// Source document id.
    #[must_use]
    pub fn doc_id(&self) -> usize {
        match self {
            EventRef::Owned(e) => e.doc_id,
            EventRef::View(v) => v.doc_id(),
        }
    }

    /// Classifier confidence.
    #[must_use]
    pub fn score(&self) -> f64 {
        match self {
            EventRef::Owned(e) => e.score,
            EventRef::View(v) => v.score(),
        }
    }

    /// Publication date `(year, month, day)`.
    #[must_use]
    pub fn date(&self) -> (u16, u8, u8) {
        match self {
            EventRef::Owned(e) => e.doc_date,
            EventRef::View(v) => v.date(),
        }
    }

    /// Source URL.
    #[must_use]
    pub fn url(&self) -> &'a str {
        match self {
            EventRef::Owned(e) => &e.url,
            EventRef::View(v) => v.url(),
        }
    }

    /// Snippet text.
    #[must_use]
    pub fn snippet(&self) -> &'a str {
        match self {
            EventRef::Owned(e) => &e.snippet,
            EventRef::View(v) => v.snippet(),
        }
    }

    /// Company surface forms.
    #[must_use]
    pub fn companies_vec(&self) -> Vec<&'a str> {
        match self {
            EventRef::Owned(e) => e.companies.iter().map(String::as_str).collect(),
            EventRef::View(v) => v.companies(),
        }
    }

    /// Copy into an owned [`TriggerEvent`].
    #[must_use]
    pub fn to_owned_event(&self) -> TriggerEvent {
        match self {
            EventRef::Owned(e) => (*e).clone(),
            EventRef::View(v) => v.to_event(),
        }
    }
}

/// The serving-layer book: an owned [`LeadBook`] or a zero-copy
/// [`MappedBook`], behind one ranking/query API. Both are shared behind
/// an `Arc`, so cloning a handle of either kind is a refcount bump.
#[derive(Debug, Clone)]
pub enum BookHandle {
    /// Heap-owned book built from events in this process.
    Owned(Arc<LeadBook>),
    /// Book served from mapped `LEADS v2` arenas.
    Mapped(Arc<MappedBook>),
}

impl From<LeadBook> for BookHandle {
    fn from(book: LeadBook) -> Self {
        BookHandle::Owned(Arc::new(book))
    }
}

impl From<Arc<MappedBook>> for BookHandle {
    fn from(book: Arc<MappedBook>) -> Self {
        BookHandle::Mapped(book)
    }
}

impl PartialEq for BookHandle {
    /// Semantic equality: two handles are equal when they rank the same
    /// events identically, regardless of backing. Owned-vs-owned
    /// compares the full books; any mapped side compares materialized
    /// events (tests and checks — not a hot path).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (BookHandle::Owned(a), BookHandle::Owned(b)) => a == b,
            _ => self.events_owned() == other.events_owned(),
        }
    }
}

impl BookHandle {
    /// Total ranked events.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BookHandle::Owned(b) => b.len(),
            BookHandle::Mapped(m) => m.len(),
        }
    }

    /// Whether the book holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when served from mapped arenas rather than owned heap.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self, BookHandle::Mapped(_))
    }

    /// The owned book, when this handle is the owned backing.
    #[must_use]
    pub fn as_owned(&self) -> Option<&LeadBook> {
        match self {
            BookHandle::Owned(b) => Some(b),
            BookHandle::Mapped(_) => None,
        }
    }

    /// The mapped book, when this handle is the mapped backing.
    #[must_use]
    pub fn as_mapped(&self) -> Option<&Arc<MappedBook>> {
        match self {
            BookHandle::Owned(_) => None,
            BookHandle::Mapped(m) => Some(m),
        }
    }

    /// Approximate resident/mapped size in bytes, for observability.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        match self {
            BookHandle::Owned(b) => b
                .events()
                .iter()
                .map(|e| {
                    std::mem::size_of::<TriggerEvent>()
                        + e.url.len()
                        + e.snippet.len()
                        + e.companies.iter().map(String::len).sum::<usize>()
                })
                .sum(),
            BookHandle::Mapped(m) => m.arena_bytes(),
        }
    }

    /// The top `top` events across all drivers (best first).
    #[must_use]
    pub fn top(&self, top: usize) -> Vec<EventRef<'_>> {
        match self {
            BookHandle::Owned(b) => b.top(top).iter().map(EventRef::Owned).collect(),
            BookHandle::Mapped(m) => m.top(top).into_iter().map(EventRef::View).collect(),
        }
    }

    /// The top `top` events for one driver (best first).
    #[must_use]
    pub fn top_for(&self, driver: SalesDriver, top: usize) -> Vec<EventRef<'_>> {
        match self {
            BookHandle::Owned(b) => b.top_for(driver, top).into_iter().map(EventRef::Owned).collect(),
            BookHandle::Mapped(m) => m.top_for(driver, top).into_iter().map(EventRef::View).collect(),
        }
    }

    /// Total events for one driver.
    #[must_use]
    pub fn driver_total(&self, driver: SalesDriver) -> usize {
        match self {
            BookHandle::Owned(b) => b
                .by_driver_raw()
                .iter()
                .find(|(d, _)| *d == driver)
                .map_or(0, |(_, idxs)| idxs.len()),
            BookHandle::Mapped(m) => m.driver_total(driver),
        }
    }

    /// Drivers present, in canonical order.
    #[must_use]
    pub fn drivers(&self) -> Vec<SalesDriver> {
        match self {
            BookHandle::Owned(b) => b.drivers(),
            BookHandle::Mapped(m) => m.drivers(),
        }
    }

    /// Number of ranked companies.
    #[must_use]
    pub fn companies_len(&self) -> usize {
        match self {
            BookHandle::Owned(b) => b.companies().len(),
            BookHandle::Mapped(m) => m.companies_len(),
        }
    }

    /// The top `top` companies by MRR (best first).
    #[must_use]
    pub fn companies_top(&self, top: usize) -> Vec<CompanyRef<'_>> {
        match self {
            BookHandle::Owned(b) => b.companies().iter().take(top).map(CompanyRef::from).collect(),
            BookHandle::Mapped(m) => m.companies_top(top),
        }
    }

    /// A company's MRR entry and its events, by any name variation.
    #[must_use]
    pub fn company_events(&self, name: &str) -> Option<(CompanyRef<'_>, Vec<EventRef<'_>>)> {
        match self {
            BookHandle::Owned(b) => b.company_events(name).map(|(c, evs)| {
                (
                    CompanyRef::from(c),
                    evs.into_iter().map(EventRef::Owned).collect(),
                )
            }),
            BookHandle::Mapped(m) => m.company_events(name).map(|(c, evs)| {
                (c, evs.into_iter().map(EventRef::View).collect())
            }),
        }
    }

    /// Copy every event out in global rank order (owned structures).
    #[must_use]
    pub fn events_owned(&self) -> Vec<TriggerEvent> {
        match self {
            BookHandle::Owned(b) => b.events().to_vec(),
            BookHandle::Mapped(m) => m.events_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(
        driver: SalesDriver,
        doc_id: usize,
        score: f64,
        companies: &[&str],
    ) -> TriggerEvent {
        TriggerEvent {
            driver,
            doc_id,
            url: format!("http://t/{doc_id}"),
            snippet: format!("snippet {doc_id} with details"),
            score,
            companies: companies.iter().map(ToString::to_string).collect(),
            doc_date: (2005, 6, 15),
        }
    }

    fn sample_events(n: usize) -> Vec<TriggerEvent> {
        (0..n)
            .map(|i| {
                let driver = SalesDriver::ALL[i % 3];
                let companies: Vec<String> = match i % 4 {
                    0 => vec![format!("Acme {}", i % 7)],
                    1 => vec![format!("Zed {}", i % 5), "Acme 0".to_string()],
                    2 => vec![],
                    _ => vec![format!("Nadir {}", i % 3)],
                };
                let refs: Vec<&str> = companies.iter().map(String::as_str).collect();
                event(driver, i, 0.5 + (i as f64 % 97.0) / 200.0, &refs)
            })
            .collect()
    }

    fn open_encoded(enc: &EncodedBook) -> MappedBook {
        let index = Arc::new(Arena::Heap(enc.index.clone()));
        let shards = enc
            .shards
            .iter()
            .map(|s| Arc::new(Arena::Heap(s.clone())))
            .collect();
        MappedBook::open(index, shards).expect("open")
    }

    #[test]
    fn builtin_books_have_no_code_table_and_custom_books_round_trip() {
        // Builtin-only books encode exactly the seven legacy sections —
        // the byte-layout contract that keeps them identical to
        // pre-registry LEADS v2 artifacts.
        let builtin = LeadBook::build(sample_events(40));
        let enc = encode_book(&builtin, 4);
        let iv = bin_open(&enc.index, INDEX_KIND, LEADS2_VERSION, true).expect("open");
        assert_eq!(iv.section_count(), 7);

        // A custom driver adds the trailing code table, and the mapped
        // book resolves its events back to the registered DriverId.
        let custom = SalesDriver::register("test_leads2_custom", "pilot programs")
            .expect("register");
        let mut events = sample_events(12);
        events.push(event(custom, 90, 0.91, &["Acme 0"]));
        events.push(event(custom, 91, 0.81, &[]));
        let book = LeadBook::build(events);
        let enc = encode_book(&book, 4);
        let iv = bin_open(&enc.index, INDEX_KIND, LEADS2_VERSION, true).expect("open");
        assert_eq!(iv.section_count(), 8, "custom drivers append the code table");

        let mapped = open_encoded(&enc);
        assert_eq!(mapped.events_owned(), book.events());
        assert!(mapped.drivers().contains(&custom));
        assert_eq!(mapped.driver_total(custom), 2);
        let views: Vec<f64> = mapped
            .top_for(custom, usize::MAX)
            .iter()
            .map(EventView::score)
            .collect();
        assert_eq!(views, vec![0.91, 0.81]);
    }

    #[test]
    fn mapped_book_matches_owned_book_exactly() {
        let book = LeadBook::build(sample_events(120));
        let enc = encode_book(&book, 8);
        assert_eq!(enc.shards.len(), 8);
        let mapped = open_encoded(&enc);

        assert_eq!(mapped.len(), book.len());
        assert_eq!(mapped.events_owned(), book.events());
        assert_eq!(mapped.drivers(), book.drivers());
        for d in SalesDriver::ALL {
            assert_eq!(mapped.driver_total(d), book.top_for(d, usize::MAX).len());
            let owned: Vec<TriggerEvent> =
                book.top_for(d, 10).into_iter().cloned().collect();
            let viewed: Vec<TriggerEvent> =
                mapped.top_for(d, 10).iter().map(EventView::to_event).collect();
            assert_eq!(owned, viewed, "driver {d:?}");
        }
        assert_eq!(mapped.companies_len(), book.companies().len());
        for (c, m) in book.companies().iter().zip(mapped.companies_top(usize::MAX)) {
            assert_eq!(c.company, m.company);
            assert_eq!(c.mrr.to_bits(), m.mrr.to_bits());
            assert_eq!(c.events, m.events);
        }
    }

    #[test]
    fn company_lookup_resolves_aliases_in_mapped_book() {
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.9, &["Acme"]),
            event(SalesDriver::RevenueGrowth, 1, 0.8, &["Acme Corp."]),
            event(SalesDriver::MergersAcquisitions, 2, 0.95, &["Zed Ltd"]),
        ];
        let book = LeadBook::build(events);
        let mapped = open_encoded(&encode_book(&book, 4));

        let (owned_score, owned_events) = book.company_events("Acme Corp.").expect("owned");
        let (mapped_score, mapped_events) = mapped.company_events("Acme Corp.").expect("mapped");
        assert_eq!(owned_score.company, mapped_score.company);
        assert_eq!(owned_events.len(), mapped_events.len());
        assert!(mapped.company_events("Nonexistent Industries").is_none());
    }

    #[test]
    fn clean_shards_are_byte_identical_under_extend() {
        let n_shards = 8;
        let base_events = sample_events(60);
        let base = LeadBook::build(base_events.clone());
        let base_enc = encode_book(&base, n_shards);

        // Extend with events that all target one company, i.e. one shard.
        let mut extended_events = base_events;
        for i in 0..10 {
            extended_events.push(event(
                SalesDriver::RevenueGrowth,
                1000 + i,
                0.6 + i as f64 / 100.0,
                &["Hotspot Inc"],
            ));
        }
        let hot = shard_of(&extended_events[60], n_shards);
        let ext = LeadBook::build(extended_events);
        let ext_enc = encode_book(&ext, n_shards);

        let mut identical = 0;
        for sid in 0..n_shards as usize {
            if sid == hot as usize {
                assert_ne!(
                    base_enc.shards[sid], ext_enc.shards[sid],
                    "hot shard must change"
                );
            } else if base_enc.shards[sid] == ext_enc.shards[sid] {
                identical += 1;
            }
        }
        // Every shard that received no new events must be bit-identical.
        assert_eq!(identical, n_shards as usize - 1);
    }

    #[test]
    fn encode_is_deterministic() {
        let book = LeadBook::build(sample_events(50));
        let a = encode_book(&book, 4);
        let b = encode_book(&book, 4);
        assert_eq!(a.index, b.index);
        assert_eq!(a.shards, b.shards);
    }

    #[test]
    fn roundtrip_is_bit_exact_and_a_byte_fixpoint() {
        // Awkward strings (tabs, newlines, a company name with a tab)
        // and scores without a short decimal form must survive the
        // mapped book exactly; re-encoding what it materializes gives
        // the same bytes, the fixpoint the store's checksums rely on.
        let mut tricky = event(SalesDriver::ChangeInManagement, 2, 1.0 / 3.0, &["Zed Ltd", "A\tB"]);
        tricky.snippet = "snippet\twith tab\nand newline".to_string();
        let events = vec![
            event(SalesDriver::RevenueGrowth, 0, 0.912_345_678_901_234_5, &["Acme"]),
            event(SalesDriver::MergersAcquisitions, 1, 0.5, &[]),
            tricky,
        ];
        let book = LeadBook::build(events);
        let enc = encode_book(&book, 4);
        let back = open_encoded(&enc).events_owned();
        assert_eq!(back.len(), book.len());
        for (a, b) in back.iter().zip(book.events()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!((&a.snippet, &a.companies), (&b.snippet, &b.companies));
        }
        let again = encode_book(&LeadBook::build(back), 4);
        assert_eq!(again.index, enc.index);
        assert_eq!(again.shards, enc.shards);
    }

    #[test]
    fn corrupt_structures_fail_typed_never_panic() {
        let book = LeadBook::build(sample_events(30));
        let enc = encode_book(&book, 4);

        // Truncated index.
        let short = Arc::new(Arena::Heap(enc.index[..enc.index.len() / 2].to_vec()));
        let shards: Vec<Arc<Arena>> = enc
            .shards
            .iter()
            .map(|s| Arc::new(Arena::Heap(s.clone())))
            .collect();
        assert!(MappedBook::open(short, shards.clone()).is_err());

        // Wrong shard count.
        let index = Arc::new(Arena::Heap(enc.index.clone()));
        assert!(MappedBook::open(index.clone(), shards[..2].to_vec()).is_err());

        // Shards in the wrong order (metadata cross-check).
        let mut swapped = shards.clone();
        swapped.swap(0, 1);
        assert!(MappedBook::open(index.clone(), swapped).is_err());

        // Bit flips through the whole index: open may fail (typed) or
        // succeed with a benign view, but must never panic or read OOB.
        for at in (0..enc.index.len()).step_by(7) {
            let mut corrupt = enc.index.clone();
            corrupt[at] ^= 0x10;
            let arena = Arc::new(Arena::Heap(corrupt));
            if let Ok(m) = MappedBook::open(arena, shards.clone()) {
                let _ = m.top(5);
                let _ = m.companies_top(5);
                let _ = m.company_events("Acme 0");
            }
        }
    }

    #[test]
    fn handle_api_is_backing_agnostic() {
        let book = LeadBook::build(sample_events(40));
        let enc = encode_book(&book, 4);
        let mapped: BookHandle = Arc::new(open_encoded(&enc)).into();
        let owned: BookHandle = book.into();

        assert_eq!(owned, mapped);
        assert!(mapped.is_mapped() && !owned.is_mapped());
        assert_eq!(owned.len(), mapped.len());
        assert_eq!(owned.drivers(), mapped.drivers());
        for (a, b) in owned.top(10).iter().zip(mapped.top(10)) {
            assert_eq!(a.to_owned_event(), b.to_owned_event());
            assert_eq!(a.snippet(), b.snippet());
            assert_eq!(a.companies_vec(), b.companies_vec());
        }
        assert!(owned.approx_bytes() > 0 && mapped.approx_bytes() > 0);
    }

    #[test]
    fn events_without_companies_shard_by_driver() {
        let e = event(SalesDriver::RevenueGrowth, 1, 0.7, &[]);
        assert_eq!(
            shard_of(&e, 16),
            (fnv1a64(b"revenue_growth") % 16) as u32
        );
    }
}
