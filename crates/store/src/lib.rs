//! `snr-store`: the durable, content-addressed result store — the L2
//! disk layer under the in-memory warm cache (ROADMAP item 2).
//!
//! # Layout
//!
//! ```text
//! <root>/
//!   entries/run/<key>.entry        completed run results
//!   entries/suite/<key>.entry      completed suite rows
//!   entries/pareto/<key>.entry     evaluated Pareto-sweep points
//!   corrupt/                       quarantined entries (kept for triage)
//!   store.lock                     maintenance lock (sweeps only)
//! ```
//!
//! # Entry format
//!
//! Every entry is one file: a four-line ASCII header followed by the raw
//! payload bytes.
//!
//! ```text
//! snr-store 1
//! key <16 hex digits>
//! kind <run|suite-row|pareto-point>
//! payload <len> fnv <16 hex digits>
//! <len payload bytes>
//! ```
//!
//! The payload is a sequence of length-prefixed named sections
//! (`section <name> <len>\n<bytes>\n`), so readers never scan for
//! delimiters inside data. The `fnv` checksum covers exactly the payload
//! bytes; the `key` line repeats the content-hash fingerprint the entry
//! was filed under.
//!
//! # Integrity and self-healing
//!
//! [`ResultStore::load`] re-verifies everything a read trusts: version
//! line, fingerprint, payload length, checksum, and section framing. Any
//! mismatch — torn write, bit flip, truncation, version skew — moves the
//! file into `corrupt/` ([`Lookup::Quarantined`]) and the caller falls
//! through to a clean recompute; the next save heals the slot. A verified
//! entry can therefore never be returned stale or wrong: it is the bytes
//! the writer saved, or it is gone.
//!
//! # Concurrency
//!
//! Writes stage through per-process temp files and land with a
//! last-writer-wins atomic rename ([`snr_fsio::atomic_write_unique`]);
//! readers see a complete old entry or a complete new one, never a torn
//! mix, even under SIGKILL. The only lock is a maintenance lock around
//! the orphan-temp sweep at open; data reads and writes are lock-free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use snr_fsio::{atomic_write_unique, process_alive, temp_writer_pid, LockFile};

#[cfg(feature = "fault-inject")]
pub mod faultinject;

/// Content-hash key of a cache/store entry. Stable across processes for
/// the same inputs ([`ContentHasher`], no randomized hasher).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Odd multiplier of the content hash's word step: ⌊2⁶⁴/φ⌋.
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental content hasher over domain-separated byte chunks.
///
/// Each chunk is its length followed by its bytes as little-endian `u64`
/// words (the last one zero-padded); every word is folded in with one
/// xor–multiply–rotate step, and [`finish`](Self::finish) ends with a
/// 64-bit avalanche. A step is a bijection of the state for a fixed word
/// and of the word for a fixed state, so inputs of equal length that
/// differ in one word never collide. Keys name on-disk entries, so this
/// function is part of the store format: changing it turns every stored
/// entry into a miss.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl ContentHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Feeds one chunk, prefixed with its length so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn chunk(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        let mut buf = [0u8; 8];
        for w in &mut words {
            buf.copy_from_slice(w);
            self.word(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(buf));
        }
        self
    }

    fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(WORD_MUL).rotate_left(31);
    }

    /// The finished key: the state through a 64-bit avalanche (the
    /// MurmurHash3 finalizer), so every input bit reaches every key bit.
    pub fn finish(&self) -> CacheKey {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        CacheKey(h)
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain FNV-1a over `bytes` (no length prefix) — the entry checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    state
}

/// The store's entry format version. Bumped on any layout change; entries
/// from other versions are quarantined, never misread.
pub const FORMAT_VERSION: u32 = 1;

/// What kind of result an entry holds; kinds live in separate
/// subdirectories and separate key spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A full `run` result (rendered JSON, human text, supervision).
    Run,
    /// One suite-table row.
    SuiteRow,
    /// One evaluated Pareto-sweep point (exact objective bits).
    ParetoPoint,
}

impl StoreKind {
    /// Every kind, in directory-creation order.
    pub const ALL: [StoreKind; 3] = [StoreKind::Run, StoreKind::SuiteRow, StoreKind::ParetoPoint];

    /// The header spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StoreKind::Run => "run",
            StoreKind::SuiteRow => "suite-row",
            StoreKind::ParetoPoint => "pareto-point",
        }
    }

    fn dir(self) -> &'static str {
        match self {
            StoreKind::Run => "run",
            StoreKind::SuiteRow => "suite",
            StoreKind::ParetoPoint => "pareto",
        }
    }
}

/// Why an entry was quarantined — the verification step that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The header was not parseable as any store entry.
    BadHeader,
    /// A parseable header with a different format version.
    VersionSkew,
    /// The header's fingerprint or kind does not match what the caller
    /// asked for (a misfiled or key-corrupted entry).
    KeyMismatch,
    /// Fewer payload bytes than the header promised (torn write).
    Truncated,
    /// The payload checksum does not match (bit rot, partial overwrite).
    ChecksumMismatch,
    /// The checksummed payload's section framing is malformed.
    BadFraming,
    /// The payload verified, but lacks sections its reader needs (an
    /// incompatible writer's layout).
    MissingSections,
}

impl QuarantineReason {
    /// Stable machine-readable spelling (used in quarantine file names
    /// and degradation details).
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::BadHeader => "bad-header",
            QuarantineReason::VersionSkew => "version-skew",
            QuarantineReason::KeyMismatch => "key-mismatch",
            QuarantineReason::Truncated => "truncated",
            QuarantineReason::ChecksumMismatch => "checksum-mismatch",
            QuarantineReason::BadFraming => "bad-framing",
            QuarantineReason::MissingSections => "missing-sections",
        }
    }
}

/// A verified entry's payload: named sections in file order.
pub type Sections = Vec<(String, Vec<u8>)>;

/// The outcome of [`ResultStore::load`], or of
/// [`ResultStore::load_decoded`] with `T` the decoded value.
#[derive(Debug)]
pub enum Lookup<T = Sections> {
    /// The entry verified end-to-end; these are exactly the bytes saved
    /// (or their decoding).
    Hit(T),
    /// No entry under this key.
    Miss,
    /// An entry existed but failed verification; it has been moved to
    /// `corrupt/` and the caller must recompute.
    Quarantined(QuarantineReason),
}

/// Counter snapshot for stats rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Verified loads served.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Entries quarantined by failed verification.
    pub quarantined: u64,
    /// Entries written.
    pub writes: u64,
}

/// The disk-backed result store. Cheap to open; safe to share by
/// reference across threads (all counters are atomic, all I/O is
/// per-call).
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    writes: AtomicU64,
    /// Disambiguates quarantine file names within one process.
    quarantine_seq: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root`, and sweeps
    /// orphaned temp files whose writers are provably dead. The sweep
    /// runs under the maintenance lock; if another process holds it, the
    /// sweep is skipped — it is an optimization, not a correctness need.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the store directories.
    pub fn open(root: &Path) -> io::Result<ResultStore> {
        for kind in StoreKind::ALL {
            fs::create_dir_all(root.join("entries").join(kind.dir()))?;
        }
        fs::create_dir_all(root.join("corrupt"))?;
        let store = ResultStore {
            root: root.to_owned(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantine_seq: AtomicU64::new(0),
        };
        if let Ok(Some(_lock)) = LockFile::try_acquire(&root.join("store.lock")) {
            store.sweep_orphan_temps();
        }
        Ok(store)
    }

    /// Whether `root` is laid out as a result store: an `entries/`
    /// directory and nothing outside the layout in the module docs.
    /// Callers that clear or remove a store directory check this first, so
    /// a mistyped path never deletes anything else.
    pub fn is_store(root: &Path) -> bool {
        let layout = |name: &std::ffi::OsStr| {
            ["entries", "corrupt", "store.lock"].iter().any(|n| name == *n)
        };
        root.join("entries").is_dir()
            && fs::read_dir(root)
                .is_ok_and(|listing| listing.filter_map(Result::ok).all(|e| layout(&e.file_name())))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of the entry for `key` under `kind`.
    pub fn entry_path(&self, kind: StoreKind, key: CacheKey) -> PathBuf {
        self.root
            .join("entries")
            .join(kind.dir())
            .join(format!("{:016x}.entry", key.0))
    }

    /// The quarantine directory.
    pub fn corrupt_dir(&self) -> PathBuf {
        self.root.join("corrupt")
    }

    /// Removes `*.tmp` stage files whose writer pid is dead — debris from
    /// SIGKILLed writers. Live writers' stages are left alone.
    fn sweep_orphan_temps(&self) {
        for kind in StoreKind::ALL {
            let dir = self.root.join("entries").join(kind.dir());
            let Ok(listing) = fs::read_dir(&dir) else { continue };
            for entry in listing.filter_map(Result::ok) {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "tmp") {
                    match temp_writer_pid(&path) {
                        Some(pid) if process_alive(pid) => {}
                        // Dead writer, or a name no live writer produces.
                        _ => {
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
            }
        }
    }

    /// Serializes header + payload for `sections`.
    fn render_entry(kind: StoreKind, key: CacheKey, sections: &[(&str, &[u8])]) -> Vec<u8> {
        let mut payload = Vec::new();
        for (name, bytes) in sections {
            payload.extend_from_slice(
                format!("section {} {}\n", name, bytes.len()).as_bytes(),
            );
            payload.extend_from_slice(bytes);
            payload.push(b'\n');
        }
        let mut out = format!(
            "snr-store {FORMAT_VERSION}\nkey {:016x}\nkind {}\npayload {} fnv {:016x}\n",
            key.0,
            kind.as_str(),
            payload.len(),
            fnv64(&payload),
        )
        .into_bytes();
        out.extend_from_slice(&payload);
        out
    }

    /// Writes (or overwrites) the entry for `key`. Atomic and
    /// last-writer-wins: concurrent writers of the same key race the
    /// final rename, and either complete entry is a correct answer
    /// because keys are content hashes of the whole computation.
    ///
    /// # Errors
    ///
    /// Any I/O error from the staged write.
    pub fn save(
        &self,
        kind: StoreKind,
        key: CacheKey,
        sections: &[(&str, &[u8])],
    ) -> io::Result<()> {
        let bytes = Self::render_entry(kind, key, sections);
        atomic_write_unique(&self.entry_path(kind, key), &bytes)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads and verifies the entry for `key`. See [`Lookup`] for the
    /// three outcomes; this never panics and never returns unverified
    /// bytes.
    pub fn load(&self, kind: StoreKind, key: CacheKey) -> Lookup {
        self.load_decoded(kind, key, Some)
    }

    /// [`ResultStore::load`], with `decode` as the last verification step:
    /// sections it rejects are quarantined as
    /// [`QuarantineReason::MissingSections`], and the load counts as
    /// quarantined, not as a hit.
    pub fn load_decoded<T>(
        &self,
        kind: StoreKind,
        key: CacheKey,
        decode: impl FnOnce(Sections) -> Option<T>,
    ) -> Lookup<T> {
        let path = self.entry_path(kind, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
            // An unreadable entry (permissions, transient I/O) degrades
            // to a recompute rather than an error.
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
        };
        let decoded = parse_entry(&bytes, kind, key)
            .and_then(|sections| decode(sections).ok_or(QuarantineReason::MissingSections));
        match decoded {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(value)
            }
            Err(reason) => {
                self.quarantine_file(&path, reason);
                Lookup::Quarantined(reason)
            }
        }
    }

    fn quarantine_file(&self, path: &Path, reason: QuarantineReason) {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".to_owned());
        let seq = self.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        let dest = self.corrupt_dir().join(format!(
            "{name}.{}.{}-{seq}",
            reason.as_str(),
            std::process::id(),
        ));
        // A NotFound rename means a racing reader quarantined (or a
        // racing writer healed) the entry first; both are fine.
        let _ = fs::rename(path, dest);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    /// How many entries of `kind` are on disk right now.
    ///
    /// # Errors
    ///
    /// Any I/O error listing the entry directory.
    pub fn entry_count(&self, kind: StoreKind) -> io::Result<usize> {
        Ok(fs::read_dir(self.root.join("entries").join(kind.dir()))?
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "entry"))
            .count())
    }
}

/// Splits one header line off `rest`. `None` when no newline remains
/// within the header region (truncated header).
fn take_line<'b>(rest: &mut &'b [u8]) -> Option<&'b str> {
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let (line, tail) = rest.split_at(nl);
    *rest = &tail[1..];
    std::str::from_utf8(line).ok()
}

/// Strict decimal parse: digits only (no sign, no whitespace), so every
/// single-bit corruption of a length field is detectable.
fn parse_dec(s: &str) -> Option<usize> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

/// Strict 16-digit lowercase-hex parse. Case-insensitive parsing would
/// let a single bit flip (`a` ^ 0x20 = `A`) leave the value unchanged.
fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Full verification of entry `bytes` against the expected identity.
fn parse_entry(
    bytes: &[u8],
    kind: StoreKind,
    key: CacheKey,
) -> Result<Sections, QuarantineReason> {
    let mut rest = bytes;

    let version = take_line(&mut rest).ok_or(QuarantineReason::BadHeader)?;
    match version.strip_prefix("snr-store ") {
        None => return Err(QuarantineReason::BadHeader),
        Some(v) if v != FORMAT_VERSION.to_string() => {
            return Err(QuarantineReason::VersionSkew)
        }
        Some(_) => {}
    }

    let key_line = take_line(&mut rest).ok_or(QuarantineReason::BadHeader)?;
    let stored_key = key_line
        .strip_prefix("key ")
        .and_then(parse_hex16)
        .ok_or(QuarantineReason::BadHeader)?;
    if stored_key != key.0 {
        return Err(QuarantineReason::KeyMismatch);
    }

    let kind_line = take_line(&mut rest).ok_or(QuarantineReason::BadHeader)?;
    match kind_line.strip_prefix("kind ") {
        Some(k) if k == kind.as_str() => {}
        Some(_) => return Err(QuarantineReason::KeyMismatch),
        None => return Err(QuarantineReason::BadHeader),
    }

    let payload_line = take_line(&mut rest).ok_or(QuarantineReason::BadHeader)?;
    let spec = payload_line
        .strip_prefix("payload ")
        .ok_or(QuarantineReason::BadHeader)?;
    let (len_text, fnv_text) = spec.split_once(" fnv ").ok_or(QuarantineReason::BadHeader)?;
    let len = parse_dec(len_text).ok_or(QuarantineReason::BadHeader)?;
    let want_fnv = parse_hex16(fnv_text).ok_or(QuarantineReason::BadHeader)?;

    if rest.len() < len {
        return Err(QuarantineReason::Truncated);
    }
    if rest.len() > len {
        // Trailing garbage after the promised payload: not the file the
        // writer produced.
        return Err(QuarantineReason::BadFraming);
    }
    if fnv64(rest) != want_fnv {
        return Err(QuarantineReason::ChecksumMismatch);
    }

    parse_sections(rest)
}

/// Parses the checksummed payload's `section <name> <len>\n<bytes>\n`
/// framing.
fn parse_sections(mut rest: &[u8]) -> Result<Sections, QuarantineReason> {
    let mut sections = Vec::new();
    while !rest.is_empty() {
        let header = take_line(&mut rest).ok_or(QuarantineReason::BadFraming)?;
        let spec = header.strip_prefix("section ").ok_or(QuarantineReason::BadFraming)?;
        let (name, len_text) = spec.rsplit_once(' ').ok_or(QuarantineReason::BadFraming)?;
        let len = parse_dec(len_text).ok_or(QuarantineReason::BadFraming)?;
        if rest.len() < len + 1 || name.is_empty() {
            return Err(QuarantineReason::BadFraming);
        }
        let (body, tail) = rest.split_at(len);
        if tail[0] != b'\n' {
            return Err(QuarantineReason::BadFraming);
        }
        sections.push((name.to_owned(), body.to_vec()));
        rest = &tail[1..];
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, ResultStore) {
        let d = std::env::temp_dir().join(format!("snr-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let store = ResultStore::open(&d).unwrap();
        (d, store)
    }

    const KEY: CacheKey = CacheKey(0x1234_5678_9abc_def0);

    fn save_one(store: &ResultStore) {
        store
            .save(
                StoreKind::Run,
                KEY,
                &[("run_json", b"{\"a\": 1}"), ("human", b"line one\nline two\n")],
            )
            .unwrap();
    }

    #[test]
    fn save_load_roundtrip_preserves_sections_exactly() {
        let (d, store) = tmp_store("roundtrip");
        assert!(matches!(store.load(StoreKind::Run, KEY), Lookup::Miss));
        save_one(&store);
        let Lookup::Hit(sections) = store.load(StoreKind::Run, KEY) else {
            panic!("expected hit")
        };
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0], ("run_json".to_owned(), b"{\"a\": 1}".to_vec()));
        assert_eq!(sections[1], ("human".to_owned(), b"line one\nline two\n".to_vec()));
        assert_eq!(
            store.stats(),
            StoreStats { hits: 1, misses: 1, quarantined: 0, writes: 1 }
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sections_the_decoder_rejects_count_as_quarantined_not_hit() {
        let (d, store) = tmp_store("decode");
        save_one(&store);
        let lookup = store.load_decoded(StoreKind::Run, KEY, |_| None::<()>);
        assert!(matches!(lookup, Lookup::Quarantined(QuarantineReason::MissingSections)));
        assert!(matches!(store.load(StoreKind::Run, KEY), Lookup::Miss), "moved to corrupt/");
        assert_eq!(
            store.stats(),
            StoreStats { hits: 0, misses: 1, quarantined: 1, writes: 1 }
        );
        fs::remove_dir_all(&d).unwrap();
    }

    /// Workers saving one key at once (a daemon's racing cold requests)
    /// never fail, never tear the entry and never quarantine: every save
    /// stages through its own temp file.
    #[test]
    fn concurrent_saves_of_one_key_all_land_intact() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 60;
        let (d, store) = tmp_store("concurrent");
        // Distinct payload lengths per thread, so an interleaved write
        // could not pass as any one writer's entry.
        let payloads: Vec<Vec<u8>> = (0..THREADS).map(|t| vec![b'a' + t as u8; 512 + 97 * t]).collect();
        let barrier = std::sync::Barrier::new(THREADS);
        // Failures are counted, not panicked on, so every thread keeps
        // meeting the barrier.
        let failed: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = payloads
                .iter()
                .map(|payload| {
                    let (store, barrier) = (&store, &barrier);
                    scope.spawn(move || {
                        (0..ROUNDS)
                            .filter(|_| {
                                barrier.wait();
                                store.save(StoreKind::Run, KEY, &[("run_json", payload)]).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("saver thread panicked")).sum()
        });
        assert_eq!(failed, 0, "every racing save lands");
        let Lookup::Hit(sections) = store.load(StoreKind::Run, KEY) else {
            panic!("expected a verified hit")
        };
        assert_eq!(sections.len(), 1);
        assert!(payloads.contains(&sections[0].1), "entry is one writer's whole payload");
        let stats = store.stats();
        assert_eq!((stats.writes, stats.quarantined), ((THREADS * ROUNDS) as u64, 0));
        assert_eq!(fs::read_dir(store.corrupt_dir()).unwrap().count(), 0);
        let dir = store.entry_path(StoreKind::Run, KEY);
        let stages = fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(stages, 0, "no stage file survives");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn kinds_are_separate_key_spaces() {
        let (d, store) = tmp_store("kinds");
        save_one(&store);
        assert!(matches!(store.load(StoreKind::SuiteRow, KEY), Lookup::Miss));
        assert_eq!(store.entry_count(StoreKind::Run).unwrap(), 1);
        assert_eq!(store.entry_count(StoreKind::SuiteRow).unwrap(), 0);
        fs::remove_dir_all(&d).unwrap();
    }

    /// Each corruption category quarantines with the right reason and
    /// leaves the slot empty (next load is a miss), never panicking.
    #[test]
    fn every_corruption_category_quarantines() {
        type Mutator = fn(&[u8]) -> Vec<u8>;
        let cases: &[(&str, Mutator, QuarantineReason)] = &[
            ("bitflip", |b| {
                let mut v = b.to_vec();
                let last = v.len() - 1;
                v[last] ^= 0x40; // payload byte
                v
            }, QuarantineReason::ChecksumMismatch),
            ("truncate", |b| b[..b.len() - 5].to_vec(), QuarantineReason::Truncated),
            ("stale-version", |b| {
                let mut v = b.to_vec();
                v[10] = b'0'; // "snr-store 1" -> "snr-store 0"
                v
            }, QuarantineReason::VersionSkew),
            ("garbage", |_| b"not an entry at all".to_vec(), QuarantineReason::BadHeader),
            ("trailing", |b| {
                let mut v = b.to_vec();
                v.extend_from_slice(b"extra");
                v
            }, QuarantineReason::BadFraming),
        ];
        for (tag, mutate, want) in cases {
            let (d, store) = tmp_store(&format!("corrupt-{tag}"));
            save_one(&store);
            let path = store.entry_path(StoreKind::Run, KEY);
            let original = fs::read(&path).unwrap();
            fs::write(&path, mutate(&original)).unwrap();
            match store.load(StoreKind::Run, KEY) {
                Lookup::Quarantined(reason) => assert_eq!(reason, *want, "{tag}"),
                other => panic!("{tag}: expected quarantine, got {other:?}"),
            }
            assert!(!path.exists(), "{tag}: entry must move out of the slot");
            assert_eq!(
                fs::read_dir(store.corrupt_dir()).unwrap().count(),
                1,
                "{tag}: quarantine keeps the evidence"
            );
            assert!(matches!(store.load(StoreKind::Run, KEY), Lookup::Miss), "{tag}");
            // Self-heal: a fresh save fills the slot again.
            save_one(&store);
            assert!(matches!(store.load(StoreKind::Run, KEY), Lookup::Hit(_)), "{tag}");
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn key_mismatch_is_detected() {
        let (d, store) = tmp_store("keymismatch");
        save_one(&store);
        // File the entry under a different key (simulates fs-level mixups).
        let other = CacheKey(KEY.0 ^ 1);
        fs::rename(
            store.entry_path(StoreKind::Run, KEY),
            store.entry_path(StoreKind::Run, other),
        )
        .unwrap();
        assert!(matches!(
            store.load(StoreKind::Run, other),
            Lookup::Quarantined(QuarantineReason::KeyMismatch)
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn open_sweeps_dead_writers_temps_but_not_live_ones() {
        let (d, store) = tmp_store("sweep");
        let dir = d.join("entries").join("run");
        // Pid 0 never has a /proc entry: provably dead.
        fs::write(dir.join("abc.entry.0.tmp"), b"debris").unwrap();
        let live = dir.join(format!("abc.entry.{}.tmp", std::process::id()));
        fs::write(&live, b"in flight").unwrap();
        drop(store);
        let _ = ResultStore::open(&d).unwrap();
        if cfg!(target_os = "linux") {
            assert!(!dir.join("abc.entry.0.tmp").exists(), "dead writer's temp swept");
        }
        assert!(live.exists(), "live writer's temp kept");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn is_store_recognises_only_the_store_layout() {
        let (d, store) = tmp_store("layout");
        save_one(&store);
        assert!(ResultStore::is_store(&d), "an opened store");
        fs::write(d.join("notes.txt"), b"not ours").unwrap();
        assert!(!ResultStore::is_store(&d), "a file outside the layout");
        fs::remove_file(d.join("notes.txt")).unwrap();
        fs::remove_dir_all(d.join("entries")).unwrap();
        assert!(!ResultStore::is_store(&d), "no entries/ directory");
        fs::remove_dir_all(&d).unwrap();
        assert!(!ResultStore::is_store(&d), "a missing directory");
    }

    #[test]
    fn content_hash_separates_chunks_and_is_stable() {
        let a = ContentHasher::new().chunk(b"ab").chunk(b"c").finish();
        let b = ContentHasher::new().chunk(b"a").chunk(b"bc").finish();
        assert_ne!(a, b);
        let again = ContentHasher::new().chunk(b"ab").chunk(b"c").finish();
        assert_eq!(a, again);
    }

    /// Keys name on-disk entries, so the hash function itself is pinned:
    /// a change here orphans every stored entry.
    #[test]
    fn content_hash_known_answers() {
        let key = |chunks: &[&[u8]]| {
            let mut h = ContentHasher::new();
            for c in chunks {
                h.chunk(c);
            }
            h.finish().0
        };
        let long: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let got = [
            key(&[]),
            key(&[b""]),
            key(&[b"a"]),
            key(&[b"abcdefgh"]),
            key(&[b"abcdefghi"]),
            key(&[b"ab", b"c"]),
            key(&[b"a", b"bc"]),
            key(&[b"abc", b""]),
            key(&[&long]),
        ];
        let want: [u64; 9] = [
            0xefd0_1f60_ba99_2926,
            0x7222_6624_8b6d_5286,
            0x96b8_86df_c490_7d92,
            0x257f_5cdf_97ac_8f32,
            0xd232_1966_c324_4414,
            0x8c88_9feb_ec1e_24d0,
            0x087d_37c6_83e9_f0a7,
            0x0699_7370_73e9_8f47,
            0x33d0_28cb_6140_d8e4,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }
}
