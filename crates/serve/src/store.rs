//! The durable generation store: every published [`LeadSnapshot`]
//! persisted as an on-disk *generation*, so a restarted server
//! warm-starts from the newest valid one instead of re-crawling.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   gen-4/
//!     MANIFEST                ETAP GEN-MANIFEST v2 (written last)
//!     book.index              ETAPBIN LEADS-IDX — rankings as refs
//!     shards/
//!       shard-00000.leads2    ETAPBIN LEADS — event records, one
//!       shard-00001.leads2    shard per company-hash bucket
//!     model-000-<id>.model    ETAP MODEL v2 — one per trained driver,
//!     model-001-<id>.model    numbered to preserve driver order
//!   gen-5/
//!     …
//! ```
//!
//! Sharded `LEADS v2` is the only book format. A generation written by
//! an older build in the text `LEADS v1` format (`events.leads`, a v1
//! manifest or `format text`) is rejected by [`GenerationStore::load`]
//! with a [`StoreError::Invalid`] naming the dropped format, so
//! [`GenerationStore::load_latest`] skips it (DESIGN.md §9).
//!
//! Generations are **content-addressed**: before writing a
//! payload file, its FNV + size are compared against the previous
//! generation's manifest; an unchanged file is `hard_link`ed instead of
//! rewritten (links survive pruning of the source directory — the inode
//! lives until its last link drops). Since a clean shard's bytes are
//! bit-identical under extend (see `etap::leads2`), an incremental
//! publish writes only the dirty shards, the index, and the manifest.
//!
//! At load, book payloads are opened as [`Arena`]s — mmap-backed on
//! Linux — and served zero-copy through a `MappedBook`: warm start is
//! O(mmap) + one checksum pass, never O(parse).
//!
//! ## Crash safety
//!
//! A generation is *visible* exactly when its directory name has no
//! `.tmp` suffix, and *valid* exactly when its `MANIFEST` checks out.
//! The publish protocol makes both transitions atomic:
//!
//! 1. write every payload file into `gen-<n>.tmp/`, fsync each;
//! 2. write `MANIFEST` (listing every file with size + FNV-1a 64
//!    checksum) last, fsync it;
//! 3. `rename` the directory to `gen-<n>`; fsync the store root.
//!
//! A crash before (3) leaves a `.tmp` directory that readers ignore
//! (and the next publish sweeps); a torn file inside a visible
//! generation fails its manifest or codec checksum and the loader
//! [falls back](GenerationStore::load_latest) to the newest generation
//! that *does* validate. No partial state is ever served.
//!
//! ## Retention vs. live readers
//!
//! A server that mmaps a generation keeps serving it while `prune`
//! might want to delete the directory. [`GenerationStore::pin`] marks
//! the generation a live server in this process currently serves;
//! `prune` deletes around it. (On Linux an unlinked mapping would stay
//! readable anyway, but pinning also keeps the *directory* loadable so
//! a concurrent warm start can't race into `ENOENT`.)

use crate::snapshot::LeadSnapshot;
use etap::leads2::{self, MappedBook};
use etap::{BookHandle, LeadBook, TrainedEtap};
use etap_persist::{open_arena, Arena, CodecError, Writer};
use etap_runtime::perf::Stage;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Codec kind of generation manifests.
pub const MANIFEST_KIND: &str = "GEN-MANIFEST";
/// Highest `GEN-MANIFEST` version this build reads/writes. v2 added the
/// `format`/`shards` records; a v1 manifest described a text generation
/// and no longer loads.
pub const MANIFEST_VERSION: u32 = 2;
/// The ranking-index file inside each generation.
pub const INDEX_FILE: &str = "book.index";
/// Subdirectory holding the shard files.
pub const SHARD_DIR: &str = "shards";

/// Perf stages for the persistence paths (no-ops unless `ETAP_PERF=1`);
/// `persist.mmap` lives in `etap_persist::arena`.
static STAGE_PUBLISH: Stage = Stage::new("persist.publish");
static STAGE_LOAD: Stage = Stage::new("persist.load");

/// A manifest's `file name → (fnv, size)` table.
type ManifestMap = HashMap<String, (u64, usize)>;

/// Generations [`GenerationStore::load_latest`] skipped, newest first,
/// each with the reason it failed to load.
type SkippedGenerations = Vec<(u64, String)>;

/// On-disk representation of the lead book inside a generation. Sharded
/// binary `LEADS v2` is the only one; the enum carries its shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeadsFormat {
    /// Sharded `LEADS v2` binary: mmap'd at load, served zero-copy.
    Binary {
        /// Number of company-hash shards (clamped to ≥ 1).
        shards: u32,
    },
}

/// What one publish actually touched — the observability payload behind
/// the incremental-publish guarantee ("clean shards are linked, not
/// rewritten").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The sealed generation directory.
    pub dir: PathBuf,
    /// Payload files newly written (dirty shards, index, changed models).
    pub files_written: u64,
    /// Shard files among [`files_written`](Self::files_written) — the
    /// dirty-shard count an incremental publish is judged by.
    pub shards_written: u64,
    /// Payload files hard-linked unchanged from the previous generation.
    pub files_linked: u64,
    /// Bytes of payload newly written (excludes linked files and the
    /// manifest).
    pub bytes_written: u64,
}

/// Why a stored generation could not be loaded.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// A file failed codec validation (checksum, version, grammar).
    Codec(CodecError),
    /// The manifest's own invariants failed (missing/duplicated file
    /// entry, size or checksum mismatch, generation number mismatch), or
    /// the generation is in a dropped format (text `LEADS v1`).
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o: {e}"),
            Self::Codec(e) => write!(f, "codec: {e}"),
            Self::Invalid(msg) => write!(f, "invalid generation: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// Pinned generations, keyed by canonicalized store root. Process-global
/// rather than per-instance because the watch loop re-opens the store
/// on every publish attempt — a pin taken by the serving path must
/// survive those re-opens. One pin slot per root: pinning replaces.
static PINNED: OnceLock<Mutex<HashMap<PathBuf, u64>>> = OnceLock::new();

fn pinned_map() -> &'static Mutex<HashMap<PathBuf, u64>> {
    PINNED.get_or_init(|| Mutex::new(HashMap::new()))
}

fn shard_file(sid: usize) -> String {
    format!("{SHARD_DIR}/shard-{sid:05}.leads2")
}

fn shard_id(name: &str) -> Option<u32> {
    name.strip_prefix(SHARD_DIR)?
        .strip_prefix('/')?
        .strip_prefix("shard-")?
        .strip_suffix(".leads2")?
        .parse()
        .ok()
}

/// A directory of persisted snapshot generations.
#[derive(Debug)]
pub struct GenerationStore {
    root: PathBuf,
    /// When set, [`publish`](Self::publish) auto-prunes to this many
    /// newest generations so a long-running watch loop cannot fill the
    /// disk.
    retention: Option<usize>,
    /// Shard count for generations this store *writes*; reads take it
    /// from each generation's manifest.
    leads_format: LeadsFormat,
}

impl GenerationStore {
    /// Open (creating if needed) a store rooted at `root`, writing
    /// [`leads2::DEFAULT_SHARDS`] shards per generation.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            retention: None,
            leads_format: LeadsFormat::Binary {
                shards: leads2::DEFAULT_SHARDS,
            },
        })
    }

    /// Auto-prune to the `keep` newest generations after every
    /// successful publish (`keep == 0` is treated as 1, matching
    /// [`prune`](Self::prune)).
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retention = Some(keep.max(1));
        self
    }

    /// Choose the shard count of future publishes.
    #[must_use]
    pub fn with_leads_format(mut self, format: LeadsFormat) -> Self {
        self.leads_format = format;
        self
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured auto-prune retention, if any.
    #[must_use]
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// The format (shard count) future publishes will use.
    #[must_use]
    pub fn leads_format(&self) -> LeadsFormat {
        self.leads_format
    }

    fn gen_dir(&self, generation: u64) -> PathBuf {
        self.root.join(format!("gen-{generation}"))
    }

    /// The identity of this store for the process-global pin table:
    /// canonicalized so every re-open of the same directory shares the
    /// pin slot.
    fn pin_key(&self) -> PathBuf {
        self.root.canonicalize().unwrap_or_else(|_| self.root.clone())
    }

    /// Mark `generation` as actively served: [`prune`](Self::prune) and
    /// retention will delete around it until [`unpin`](Self::unpin) or
    /// a newer pin replaces it. One pinned generation per store root,
    /// process-wide.
    pub fn pin(&self, generation: u64) {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(self.pin_key(), generation);
    }

    /// Clear this store's pinned generation, if any.
    pub fn unpin(&self) {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.pin_key());
    }

    /// The currently pinned generation, if any.
    #[must_use]
    pub fn pinned(&self) -> Option<u64> {
        pinned_map()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&self.pin_key())
            .copied()
    }

    /// The newest visible generation other than `exclude`, with its
    /// manifest's `name → (fnv, size)` map — the content-address table
    /// incremental publishes link against. Any failure (no previous
    /// generation, unreadable manifest) degrades to a full write.
    fn link_base(&self, exclude: u64) -> Option<(PathBuf, ManifestMap)> {
        let newest = self
            .generations()
            .ok()?
            .into_iter()
            .rfind(|&g| g != exclude)?;
        let dir = self.gen_dir(newest);
        let (_, records) =
            etap_persist::read_file(&dir.join("MANIFEST"), MANIFEST_KIND, MANIFEST_VERSION).ok()?;
        let mut map = HashMap::new();
        for rec in &records {
            if rec.tag() == "file" {
                let name = rec.str(1).ok()?.to_string();
                let fnv = u64::from_str_radix(rec.str(2).ok()?, 16).ok()?;
                let size: usize = rec.parse(3).ok()?;
                map.insert(name, (fnv, size));
            }
        }
        Some((dir, map))
    }

    /// Persist one snapshot as generation `snapshot.generation`,
    /// following the crash-safety protocol (tmp dir → fsync'd files →
    /// manifest last → rename → root fsync). Republishing an existing
    /// generation number replaces it atomically. Shard files whose bytes
    /// are unchanged from the previous generation are hard-linked
    /// instead of rewritten.
    ///
    /// # Errors
    /// Propagates filesystem errors; the store is left without a
    /// partially visible generation in every failure case.
    pub fn publish(&self, snapshot: &LeadSnapshot) -> io::Result<PublishOutcome> {
        let _t = STAGE_PUBLISH.scope();
        // Fault seam: lets chaos runs fail whole publishes before any
        // tmp directory exists (distinct from `persist.write`, which
        // fails individual file writes mid-publish).
        etap_runtime::fault::check_io("store.publish")?;
        let generation = snapshot.generation;
        let final_dir = self.gen_dir(generation);
        let tmp_dir = self.root.join(format!("gen-{generation}.tmp"));
        if tmp_dir.exists() {
            std::fs::remove_dir_all(&tmp_dir)?;
        }
        std::fs::create_dir_all(&tmp_dir)?;

        let link_base = self.link_base(generation);

        let mut manifest = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
        manifest.record(["generation", &generation.to_string()]);
        manifest.record(["window", &snapshot.trained.snippet_window().to_string()]);
        manifest.record(["events", &snapshot.book.len().to_string()]);
        let LeadsFormat::Binary { shards } = self.leads_format;
        manifest.record(["format", "binary"]);
        manifest.record(["shards", &shards.max(1).to_string()]);

        let mut outcome = PublishOutcome {
            dir: final_dir.clone(),
            files_written: 0,
            shards_written: 0,
            files_linked: 0,
            bytes_written: 0,
        };
        let mut write_payload =
            |name: &str, contents: &[u8], outcome: &mut PublishOutcome| -> io::Result<()> {
                let fnv = etap_persist::fnv1a64(contents);
                let dst = tmp_dir.join(name);
                // Only shard files are content-address linked: they
                // carry virtually all the bytes, and sharing an inode
                // couples the linked generations' fates under in-place
                // corruption — acceptable for checksummed bulk shards,
                // not worth it for the small manifest-adjacent files
                // whose independence the fallback story leans on.
                let linked = shard_id(name).is_some()
                    && link_base.as_ref().is_some_and(|(prev_dir, map)| {
                        map.get(name) == Some(&(fnv, contents.len()))
                            && std::fs::hard_link(prev_dir.join(name), &dst).is_ok()
                    });
                if linked {
                    outcome.files_linked += 1;
                } else {
                    write_synced(&dst, contents)?;
                    outcome.files_written += 1;
                    outcome.bytes_written += contents.len() as u64;
                }
                manifest.record([
                    "file",
                    name,
                    &format!("{fnv:016x}"),
                    &contents.len().to_string(),
                ]);
                Ok(())
            };

        // Encode from the owned book when available; a mapped book
        // republishing under a different shard count first materializes
        // (republish-in-place links everything, so the cost only occurs
        // on genuine re-encodes).
        let encoded = match snapshot.book.as_owned() {
            Some(book) => leads2::encode_book(book, shards),
            None => leads2::encode_book(&LeadBook::build(snapshot.book.events_owned()), shards),
        };
        std::fs::create_dir_all(tmp_dir.join(SHARD_DIR))?;
        write_payload(INDEX_FILE, &encoded.index, &mut outcome)?;
        for (sid, bytes) in encoded.shards.iter().enumerate() {
            let before = outcome.files_written;
            write_payload(&shard_file(sid), bytes, &mut outcome)?;
            outcome.shards_written += outcome.files_written - before;
        }
        for (i, driver) in snapshot.trained.drivers.iter().enumerate() {
            let name = format!("model-{i:03}-{}.model", driver.spec.driver.id());
            write_payload(&name, etap::persist::to_string(driver).as_bytes(), &mut outcome)?;
        }

        write_synced(&tmp_dir.join("MANIFEST"), manifest.finish().as_bytes())?;
        if final_dir.exists() {
            std::fs::remove_dir_all(&final_dir)?;
        }
        std::fs::rename(&tmp_dir, &final_dir)?;
        etap_persist::sync_dir(&self.root);
        // Retention runs after the rename: the new generation is
        // already sealed, so a prune failure must not fail the publish.
        if let Some(keep) = self.retention {
            let _ = self.prune(keep);
        }
        Ok(outcome)
    }

    /// Generation numbers currently visible (sorted ascending).
    /// In-flight `.tmp` directories are excluded by construction.
    ///
    /// # Errors
    /// Propagates directory-read failures.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let name = entry.file_name();
            let Some(n) = name.to_str().and_then(|s| s.strip_prefix("gen-")) else {
                continue;
            };
            if let Ok(g) = n.parse::<u64>() {
                out.push(g);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Load and fully validate one generation: the manifest must parse,
    /// list each file exactly once with matching size and checksum, and
    /// every payload file must itself decode. The book mmaps into a
    /// zero-copy `MappedBook` (the manifest FNV pass over the arenas is
    /// the integrity check — no parse happens). A text `LEADS v1`
    /// generation fails with [`StoreError::Invalid`].
    ///
    /// # Errors
    /// See [`StoreError`]; any failure means this generation is not
    /// servable (callers typically fall back to an older one).
    pub fn load(&self, generation: u64) -> Result<LeadSnapshot, StoreError> {
        let _t = STAGE_LOAD.scope();
        // Fault seam: chaos runs inject read failures here, exercising
        // the load_latest fall-back-to-older-generation path.
        etap_runtime::fault::check_io("store.load")?;
        let dir = self.gen_dir(generation);
        let (_, records) = etap_persist::read_file(
            &dir.join("MANIFEST"),
            MANIFEST_KIND,
            MANIFEST_VERSION,
        )?;

        let mut stated_generation: Option<u64> = None;
        let mut window: Option<usize> = None;
        let mut event_count: Option<usize> = None;
        let mut format: Option<String> = None;
        let mut shard_count: Option<u32> = None;
        let mut files: Vec<(String, u64, usize)> = Vec::new();
        for rec in &records {
            match rec.tag() {
                "generation" => stated_generation = Some(rec.parse(1)?),
                "window" => window = Some(rec.parse(1)?),
                "events" => event_count = Some(rec.parse(1)?),
                "format" => format = Some(rec.str(1)?.to_string()),
                "shards" => shard_count = Some(rec.parse(1)?),
                "file" => {
                    let name = rec.str(1)?.to_string();
                    if files.iter().any(|(n, _, _)| *n == name) {
                        return Err(StoreError::Invalid(format!(
                            "manifest lists {name:?} twice"
                        )));
                    }
                    let checksum = u64::from_str_radix(rec.str(2)?, 16)
                        .map_err(|_| rec.malformed("bad checksum field"))?;
                    let size: usize = rec.parse(3)?;
                    files.push((name, checksum, size));
                }
                other => {
                    return Err(StoreError::Invalid(format!(
                        "unknown manifest record `{other}`"
                    )))
                }
            }
        }
        let missing = |what: &str| StoreError::Invalid(format!("manifest missing {what} record"));
        let stated_generation = stated_generation.ok_or_else(|| missing("generation"))?;
        if stated_generation != generation {
            return Err(StoreError::Invalid(format!(
                "directory gen-{generation} holds manifest for generation {stated_generation}"
            )));
        }
        let window = window.ok_or_else(|| missing("window"))?;
        let event_count = event_count.ok_or_else(|| missing("events"))?;
        match format.as_deref() {
            Some("binary") => {}
            // v1 manifests predate the record; v2 text ones omitted it.
            None | Some("text") => {
                return Err(StoreError::Invalid(
                    "LEADS v1 text generation: no longer supported, republish as LEADS v2"
                        .to_string(),
                ))
            }
            Some(other) => {
                return Err(StoreError::Invalid(format!(
                    "unknown leads format {other:?}"
                )))
            }
        }

        // Verify + decode each payload in manifest order (which
        // preserves the driver order the snapshot was published with).
        let verify = |name: &str, bytes: &[u8], checksum: u64, size: usize| {
            if bytes.len() != size {
                return Err(StoreError::Invalid(format!(
                    "{name}: manifest says {size} bytes, file has {}",
                    bytes.len()
                )));
            }
            let computed = etap_persist::fnv1a64(bytes);
            if computed != checksum {
                return Err(StoreError::Invalid(format!(
                    "{name}: checksum mismatch ({checksum:016x} vs {computed:016x})"
                )));
            }
            Ok(())
        };
        let mut drivers = Vec::new();
        let mut index_arena: Option<Arc<Arena>> = None;
        let mut shard_arenas: Vec<(u32, Arc<Arena>)> = Vec::new();
        for (name, checksum, size) in &files {
            let path = dir.join(name);
            if name == INDEX_FILE || shard_id(name).is_some() {
                let arena = Arc::new(open_arena(&path)?);
                verify(name, arena.bytes(), *checksum, *size)?;
                if name == INDEX_FILE {
                    index_arena = Some(arena);
                } else if let Some(sid) = shard_id(name) {
                    shard_arenas.push((sid, arena));
                }
            } else if name.ends_with(".model") {
                let bytes = std::fs::read(&path)?;
                verify(name, &bytes, *checksum, *size)?;
                let text = String::from_utf8(bytes)
                    .map_err(|_| StoreError::Invalid(format!("{name}: not UTF-8")))?;
                drivers.push(etap::persist::from_str(&text)?);
            } else {
                return Err(StoreError::Invalid(format!(
                    "manifest lists unrecognized file {name:?}"
                )));
            }
        }

        let n = shard_count.ok_or_else(|| missing("shards"))?.max(1) as usize;
        let index = index_arena.ok_or_else(|| missing("book.index file"))?;
        shard_arenas.sort_by_key(|(sid, _)| *sid);
        if shard_arenas.len() != n
            || shard_arenas
                .iter()
                .enumerate()
                .any(|(i, (sid, _))| *sid != i as u32)
        {
            return Err(StoreError::Invalid(format!(
                "manifest lists {} shard files, expected shards 0..{n}",
                shard_arenas.len()
            )));
        }
        let shards = shard_arenas.into_iter().map(|(_, a)| a).collect();
        let book = BookHandle::Mapped(Arc::new(MappedBook::open(index, shards)?));
        if book.len() != event_count {
            return Err(StoreError::Invalid(format!(
                "manifest says {event_count} events, book has {}",
                book.len()
            )));
        }

        Ok(LeadSnapshot {
            generation,
            book,
            trained: Arc::new(TrainedEtap::from_drivers(drivers, window)),
        })
    }

    /// Warm-start entry point: load the newest generation that fully
    /// validates, skipping invalid ones. Returns the snapshot plus a
    /// `(generation, reason)` list of everything skipped (for logs and
    /// metrics), or `None` when no valid generation exists.
    ///
    /// # Errors
    /// Propagates only root-directory read failures; per-generation
    /// failures are *reported*, not raised.
    pub fn load_latest(
        &self,
    ) -> io::Result<Option<(LeadSnapshot, SkippedGenerations)>> {
        let mut skipped = Vec::new();
        for generation in self.generations()?.into_iter().rev() {
            match self.load(generation) {
                Ok(snapshot) => return Ok(Some((snapshot, skipped))),
                Err(err) => skipped.push((generation, err.to_string())),
            }
        }
        Ok(None)
    }

    /// Retention: delete the oldest generations beyond the `keep`
    /// newest (by generation number), plus any stale `.tmp` directories
    /// from interrupted publishes. A [`pin`](Self::pin)ned generation is
    /// never deleted, whatever its age — the serving path pins what it
    /// currently has mapped. Returns the deleted generation numbers.
    /// `keep == 0` is treated as 1 — the store never deletes its only
    /// warm-start source.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn prune(&self, keep: usize) -> io::Result<Vec<u64>> {
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|s| s.starts_with("gen-") && s.ends_with(".tmp")) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let keep = keep.max(1);
        let pinned = self.pinned();
        let generations = self.generations()?;
        let mut removed = Vec::new();
        if generations.len() > keep {
            for &generation in &generations[..generations.len() - keep] {
                if Some(generation) == pinned {
                    continue;
                }
                std::fs::remove_dir_all(self.gen_dir(generation))?;
                removed.push(generation);
            }
            if !removed.is_empty() {
                etap_persist::sync_dir(&self.root);
            }
        }
        Ok(removed)
    }
}

/// Write + fsync one file (no rename dance needed: the whole directory
/// is renamed into visibility afterwards).
fn write_synced(path: &Path, contents: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    // Same seam name as etap_persist::write_atomic: `persist.write`
    // covers every durable file write in the publish path.
    etap_runtime::fault::check_io("persist.write")?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents)?;
    f.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etap::{LeadBook, SalesDriver, TriggerEvent};

    fn temp_store(tag: &str) -> GenerationStore {
        let root = std::env::temp_dir().join(format!(
            "etap_store_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        GenerationStore::open(root).expect("open store")
    }

    fn snapshot(generation: u64, n_events: usize) -> LeadSnapshot {
        let events: Vec<TriggerEvent> = (0..n_events)
            .map(|i| TriggerEvent {
                driver: SalesDriver::RevenueGrowth,
                doc_id: i,
                url: format!("http://example/{i}"),
                snippet: format!("snippet {i} of gen {generation}"),
                score: 0.5 + (i as f64) / (2.0 * n_events.max(1) as f64),
                companies: vec![format!("Company {i}")],
                doc_date: (2005, 3, 1),
            })
            .collect();
        LeadSnapshot {
            generation,
            book: LeadBook::build(events).into(),
            trained: Arc::new(TrainedEtap::from_drivers(Vec::new(), 3)),
        }
    }

    /// A snapshot whose extra events all hit one company (one shard),
    /// layered on top of `snapshot(1, base)`'s events — the base events
    /// are byte-identical to generation 1's, so clean shards can link.
    fn extended_snapshot(generation: u64, base: usize, extra: usize) -> LeadSnapshot {
        let mut events = snapshot(1, base).book.events_owned();
        for i in 0..extra {
            events.push(TriggerEvent {
                driver: SalesDriver::MergersAcquisitions,
                doc_id: 10_000 + i,
                url: format!("http://example/x{i}"),
                snippet: format!("extension snippet {i}"),
                score: 0.4 + (i as f64) / 100.0,
                companies: vec!["Hotspot Inc".to_string()],
                doc_date: (2005, 4, 2),
            });
        }
        LeadSnapshot {
            generation,
            book: LeadBook::build(events).into(),
            trained: Arc::new(TrainedEtap::from_drivers(Vec::new(), 3)),
        }
    }

    #[test]
    fn publish_load_roundtrip() {
        let store = temp_store("roundtrip");
        store.publish(&snapshot(1, 5)).expect("publish");
        let loaded = store.load(1).expect("load");
        assert_eq!(loaded.generation, 1);
        assert!(loaded.book.is_mapped());
        assert_eq!(loaded.book, snapshot(1, 5).book);
        assert_eq!(loaded.trained.snippet_window(), 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn binary_publish_roundtrips_and_maps() {
        let store =
            temp_store("binround").with_leads_format(LeadsFormat::Binary { shards: 4 });
        let outcome = store.publish(&snapshot(1, 12)).expect("publish");
        // Full publish, nothing to link: index + 4 shards.
        assert_eq!(outcome.files_linked, 0);
        assert_eq!(outcome.files_written, 5);
        assert!(store.root().join("gen-1").join(INDEX_FILE).exists());

        let loaded = store.load(1).expect("load");
        assert!(loaded.book.is_mapped(), "binary load must map, not parse");
        assert_eq!(loaded.book, snapshot(1, 12).book);
        assert_eq!(loaded.trained.snippet_window(), 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn incremental_binary_publish_links_clean_shards() {
        let store =
            temp_store("binlink").with_leads_format(LeadsFormat::Binary { shards: 8 });
        store.publish(&snapshot(1, 40)).expect("publish 1");
        let incremental = store.publish(&extended_snapshot(2, 40, 6)).expect("publish 2");
        assert!(
            incremental.files_linked > 0,
            "clean shards must be hard-linked: {incremental:?}"
        );

        // The same snapshot published cold (no previous generation to
        // link against) writes every byte — the incremental publish
        // must write strictly fewer.
        let cold_store =
            temp_store("binlink_cold").with_leads_format(LeadsFormat::Binary { shards: 8 });
        let full = cold_store.publish(&extended_snapshot(2, 40, 6)).expect("cold");
        assert_eq!(full.files_linked, 0);
        assert!(
            incremental.bytes_written < full.bytes_written,
            "incremental {} vs full {}",
            incremental.bytes_written,
            full.bytes_written
        );
        assert!(incremental.files_written < full.files_written);

        // And the linked generation still loads + matches.
        let loaded = store.load(2).expect("load 2");
        assert_eq!(loaded.book, extended_snapshot(2, 40, 6).book);
        let _ = std::fs::remove_dir_all(store.root());
        let _ = std::fs::remove_dir_all(cold_store.root());
    }

    #[test]
    fn linked_files_survive_pruning_the_source_generation() {
        let store =
            temp_store("linksurvive").with_leads_format(LeadsFormat::Binary { shards: 4 });
        store.publish(&snapshot(1, 20)).expect("publish 1");
        store.publish(&extended_snapshot(2, 20, 3)).expect("publish 2");
        // Deleting gen-1 must not corrupt gen-2's hard-linked files.
        let removed = store.prune(1).expect("prune");
        assert_eq!(removed, vec![1]);
        let loaded = store.load(2).expect("load after prune");
        assert_eq!(loaded.book, extended_snapshot(2, 20, 3).book);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn owned_and_mapped_books_agree_bit_exactly() {
        let store = temp_store("parity");
        let owned = snapshot(1, 9);
        assert!(!owned.book.is_mapped());
        store.publish(&owned).expect("publish");
        let mapped = store.load(1).expect("load");
        assert!(mapped.book.is_mapped());

        // Every field of every event, scores compared by bit pattern.
        let (a, b) = (owned.book.events_owned(), mapped.book.events_owned());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!((x.driver, x.doc_id, x.doc_date), (y.driver, y.doc_id, y.doc_date));
            assert_eq!((&x.url, &x.snippet, &x.companies), (&y.url, &y.snippet, &y.companies));
        }
        // Re-encoding the materialized mapped book reproduces the
        // owned book's bytes exactly.
        let (x, y) = (
            leads2::encode_book(owned.book.as_owned().expect("owned"), 4),
            leads2::encode_book(&LeadBook::build(b), 4),
        );
        assert_eq!((x.index, x.shards), (y.index, y.shards));
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// Hand-write generation `generation` the way a text-format build
    /// did: a `LEADS v1` events file under a manifest of
    /// `manifest_version`, with an optional `format` record.
    fn write_text_generation(
        store: &GenerationStore,
        generation: u64,
        manifest_version: u32,
        format: Option<&str>,
    ) {
        let dir = store.root().join(format!("gen-{generation}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut leads = Writer::new("LEADS", 1);
        leads.record(["count", "0"]);
        let leads = leads.finish();
        std::fs::write(dir.join("events.leads"), &leads).unwrap();
        let mut manifest = Writer::new(MANIFEST_KIND, manifest_version);
        manifest.record(["generation", &generation.to_string()]);
        manifest.record(["window", "3"]);
        manifest.record(["events", "0"]);
        if let Some(format) = format {
            manifest.record(["format", format]);
        }
        let sum = format!("{:016x}", etap_persist::fnv1a64(leads.as_bytes()));
        manifest.record(["file", "events.leads", &sum, &leads.len().to_string()]);
        std::fs::write(dir.join("MANIFEST"), manifest.finish()).unwrap();
    }

    #[test]
    fn text_generations_are_skipped_naming_the_dropped_format() {
        let store = temp_store("textdropped");
        store.publish(&snapshot(1, 3)).expect("publish 1");
        write_text_generation(&store, 2, 1, None);
        write_text_generation(&store, 3, 2, None);
        write_text_generation(&store, 4, 2, Some("text"));
        for generation in 2..=4 {
            match store.load(generation) {
                Err(StoreError::Invalid(msg)) => {
                    assert!(msg.contains("LEADS v1 text"), "gen {generation}: {msg}");
                }
                other => panic!("gen {generation}: expected Invalid, got {other:?}"),
            }
        }
        let (loaded, skipped) = store.load_latest().expect("scan").expect("gen 1");
        assert_eq!(loaded.generation, 1);
        assert_eq!(skipped.iter().map(|(g, _)| *g).collect::<Vec<_>>(), vec![4, 3, 2]);
        assert!(skipped.iter().all(|(_, why)| why.contains("no longer supported")));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_binary_arena_fails_cleanly() {
        let store =
            temp_store("bincorrupt").with_leads_format(LeadsFormat::Binary { shards: 2 });
        store.publish(&snapshot(1, 10)).expect("publish");

        // Bit-flip inside a shard: manifest checksum catches it.
        let victim = store.root().join("gen-1").join(shard_file(0));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&victim, &bytes).unwrap();
        match store.load(1) {
            Err(StoreError::Invalid(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected Invalid(checksum), got {other:?}"),
        }

        // Truncated index: size mismatch, typed error, no panic.
        store.publish(&snapshot(2, 10)).expect("publish 2");
        let index = store.root().join("gen-2").join(INDEX_FILE);
        let bytes = std::fs::read(&index).unwrap();
        std::fs::write(&index, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(store.load(2), Err(StoreError::Invalid(_))));

        // load_latest falls back past both corrupt generations.
        assert!(store.load_latest().expect("scan").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn load_latest_skips_corrupt_generations() {
        let store = temp_store("fallback");
        store.publish(&snapshot(1, 3)).expect("publish 1");
        store.publish(&snapshot(2, 4)).expect("publish 2");
        store.publish(&snapshot(3, 5)).expect("publish 3");
        // Corrupt generation 3's index (flip a byte, keep length).
        let victim = store.root().join("gen-3").join(INDEX_FILE);
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, bytes).unwrap();

        let (loaded, skipped) = store.load_latest().expect("scan").expect("some valid");
        assert_eq!(loaded.generation, 2);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 3);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_manifest_invalidates_generation() {
        let store = temp_store("truncman");
        store.publish(&snapshot(1, 3)).expect("publish");
        let manifest = store.root().join("gen-1").join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        assert!(store.load(1).is_err());
        assert!(store.load_latest().expect("scan").is_none());
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn duplicate_manifest_entry_invalidates_generation() {
        let store = temp_store("dupentry");
        store.publish(&snapshot(1, 2)).expect("publish");
        let dir = store.root().join("gen-1");
        let index = std::fs::read(dir.join(INDEX_FILE)).unwrap();
        let mut manifest = Writer::new(MANIFEST_KIND, MANIFEST_VERSION);
        manifest.record(["generation", "1"]);
        manifest.record(["window", "3"]);
        manifest.record(["events", "2"]);
        manifest.record(["format", "binary"]);
        manifest.record(["shards", &leads2::DEFAULT_SHARDS.to_string()]);
        let sum = format!("{:016x}", etap_persist::fnv1a64(&index));
        let size = index.len().to_string();
        manifest.record(["file", INDEX_FILE, &sum, &size]);
        manifest.record(["file", INDEX_FILE, &sum, &size]);
        std::fs::write(dir.join("MANIFEST"), manifest.finish()).unwrap();
        match store.load(1) {
            Err(StoreError::Invalid(msg)) => assert!(msg.contains("twice"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn future_manifest_version_is_skipped_not_fatal() {
        let store = temp_store("future");
        store.publish(&snapshot(1, 2)).expect("publish 1");
        store.publish(&snapshot(2, 2)).expect("publish 2");
        // Rewrite gen-2's manifest with a future version header.
        let manifest = store.root().join("gen-2").join("MANIFEST");
        let w = Writer::new(MANIFEST_KIND, MANIFEST_VERSION + 1);
        std::fs::write(&manifest, w.finish()).unwrap();
        let (loaded, skipped) = store.load_latest().expect("scan").expect("some valid");
        assert_eq!(loaded.generation, 1);
        assert!(skipped[0].1.contains("newer"), "{}", skipped[0].1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn prune_keeps_newest_and_sweeps_tmp() {
        let store = temp_store("prune");
        for g in 1..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        std::fs::create_dir_all(store.root().join("gen-9.tmp")).unwrap();
        let removed = store.prune(2).expect("prune");
        assert_eq!(removed, vec![1, 2, 3]);
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        assert!(!store.root().join("gen-9.tmp").exists());
        // keep == 0 never deletes the last generation.
        let removed = store.prune(0).expect("prune 0");
        assert_eq!(removed, vec![4]);
        assert_eq!(store.generations().unwrap(), vec![5]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn publish_auto_prunes_with_retention() {
        let store = temp_store("autoprune").with_retention(2);
        for g in 1..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn pinned_generation_survives_prune_and_retention() {
        let store = temp_store("pinprune").with_retention(2);
        store.publish(&snapshot(1, 2)).expect("publish 1");
        // The serving path pins what it has mapped.
        store.pin(1);
        for g in 2..=5 {
            store.publish(&snapshot(g, 2)).expect("publish");
        }
        // Retention kept gen-1 alive through four auto-prunes.
        assert_eq!(store.generations().unwrap(), vec![1, 4, 5]);
        assert!(store.load(1).is_ok(), "pinned generation must stay loadable");

        // An explicit prune skips it too…
        let removed = store.prune(1).expect("prune");
        assert_eq!(removed, vec![4]);
        assert_eq!(store.generations().unwrap(), vec![1, 5]);

        // …until the pin moves on, after which it is reclaimed.
        store.pin(5);
        let removed = store.prune(1).expect("prune after re-pin");
        assert_eq!(removed, vec![1]);
        assert_eq!(store.generations().unwrap(), vec![5]);
        store.unpin();
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn pin_survives_store_reopen_kill_prune_read_interleaving() {
        // Regression for the retention-prune race: a "server" holds
        // generation 1 mapped while a watch loop — which re-opens the
        // store on every attempt, as after a crash/restart — publishes
        // and aggressively prunes. The mapped generation must stay
        // readable throughout.
        let store = temp_store("pinrace").with_leads_format(LeadsFormat::Binary { shards: 2 });
        store.publish(&snapshot(1, 6)).expect("publish 1");
        let served = store.load(1).expect("server load");
        store.pin(served.generation);

        for g in 2..=6 {
            // Fresh store handle per cycle (the watch loop's re-open),
            // with retention 1: without the pin, gen-1 dies on the
            // first publish.
            let watch = GenerationStore::open(store.root())
                .expect("reopen")
                .with_retention(1)
                .with_leads_format(LeadsFormat::Binary { shards: 2 });
            watch.publish(&snapshot(g, 6)).expect("watch publish");
        }
        assert!(
            store.generations().unwrap().contains(&1),
            "pinned generation deleted by concurrent prune"
        );
        // The kill-prune-read interleaving: a cold reader (new process
        // after kill -9) can still load the pinned generation.
        let reread = GenerationStore::open(store.root()).expect("cold open");
        assert!(reread.load(1).is_ok());
        // Old snapshot still serves from its mapping.
        assert_eq!(served.book.top(3).len(), 3);

        store.unpin();
        let reopened = GenerationStore::open(store.root()).expect("reopen");
        reopened.prune(1).expect("final prune");
        assert_eq!(reopened.generations().unwrap(), vec![6]);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn interrupted_publish_is_invisible() {
        let store = temp_store("interrupted");
        store.publish(&snapshot(1, 2)).expect("publish 1");
        // Simulate a crash mid-publish: a .tmp dir with payload but no
        // completed rename.
        let tmp = store.root().join("gen-2.tmp");
        std::fs::create_dir_all(tmp.join(SHARD_DIR)).unwrap();
        std::fs::write(tmp.join(INDEX_FILE), "partial").unwrap();
        std::fs::write(tmp.join(shard_file(0)), "partial").unwrap();
        assert_eq!(store.generations().unwrap(), vec![1]);
        let (loaded, skipped) = store.load_latest().expect("scan").expect("valid");
        assert_eq!(loaded.generation, 1);
        assert!(skipped.is_empty());
        let _ = std::fs::remove_dir_all(store.root());
    }
}
