//! Crash-safe filesystem primitives for result artifacts and the result
//! store.
//!
//! * **No partial artifacts.** [`atomic_write`] writes through a fixed
//!   sibling temp file (`<path>.tmp`) and renames into place, so a reader
//!   either sees the old complete file or the new complete file — never a
//!   truncated one. The temp name is *fixed* (not randomized) so an orphan
//!   left by a killed process is simply overwritten by the next run, and
//!   chaos tests can assert none survive a successful one.
//! * **Concurrent writers never clobber each other.**
//!   [`atomic_write_unique`] stages through a per-call temp file, so racing
//!   writers of one destination land last-writer-wins; [`temp_writer_pid`]
//!   and [`process_alive`] let sweepers tell a dead writer's orphan from a
//!   live stage, and [`LockFile`] guards that maintenance work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed sibling temp path [`atomic_write`] stages through.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// A per-call sibling temp path (`<path>.<pid>.<seq>.tmp`), for writers
/// that may race other processes *or threads* on the same destination: the
/// pid separates processes and a process-wide sequence number separates
/// calls within one, so every writer stages through its own temp file and
/// the final rename is last-writer-wins.
pub fn unique_temp_path(path: &Path) -> PathBuf {
    // Relaxed: the counter only has to hand out distinct values; it
    // publishes no other data.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{}.{seq}.tmp", std::process::id()));
    PathBuf::from(os)
}

/// Extracts the writer pid from a [`unique_temp_path`] file name, so
/// sweepers can tell orphans (writer dead) from in-flight stages (writer
/// alive). Accepts `<stem>.<pid>.<seq>.tmp` and the older per-process
/// `<stem>.<pid>.tmp`, which writers from earlier releases still produce;
/// two numeric components before `.tmp` are read as pid and sequence, so
/// the destination's own name must not end in a numeric extension. `None`
/// when the name matches neither form.
pub fn temp_writer_pid(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".tmp")?;
    let (rest, last) = stem.rsplit_once('.')?;
    let numeric = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    match rest.rsplit_once('.') {
        Some((_, pid)) if numeric(pid) && numeric(last) => pid.parse().ok(),
        _ => last.parse().ok(),
    }
}

/// Whether the process `pid` is still alive. Used for stale lock-file and
/// orphan temp-file detection; on non-Linux platforms this conservatively
/// answers `true` (never steal, never sweep).
pub fn process_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Like [`atomic_write`], but stages through [`unique_temp_path`] so
/// concurrent writers in different processes never clobber each other's
/// stage file; whichever rename lands last wins, and the destination is
/// complete either way.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename; the temp file is removed
/// on a failed rename.
pub fn atomic_write_unique(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = unique_temp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// A cooperative cross-process lock: a `create_new` file holding the
/// owner's pid. Held for *maintenance* work (sweeps, compactions) that
/// must not run twice concurrently; data writes themselves rely on
/// [`atomic_write_unique`] and need no lock.
///
/// A lock left behind by a SIGKILLed owner is stolen once its pid is
/// provably dead (see [`process_alive`]), so a crash never wedges the
/// store.
#[derive(Debug)]
pub struct LockFile {
    path: PathBuf,
}

impl LockFile {
    /// Tries to take the lock at `path`. Returns `None` when another
    /// *live* process holds it; a dead owner's lock is removed and
    /// re-acquired.
    ///
    /// # Errors
    ///
    /// Any I/O error other than the lock being held.
    pub fn try_acquire(path: &Path) -> io::Result<Option<LockFile>> {
        // Bounded steal loop: each retry only happens after removing a
        // provably-dead owner's file, and a racing acquirer winning the
        // re-create is a "held" answer, not an error.
        for _ in 0..4 {
            match OpenOptions::new().write(true).create_new(true).open(path) {
                Ok(mut f) => {
                    let _ = f.write_all(std::process::id().to_string().as_bytes());
                    let _ = f.sync_data();
                    return Ok(Some(LockFile { path: path.to_owned() }));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let owner: Option<u32> = fs::read_to_string(path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    match owner {
                        Some(pid) if !process_alive(pid) => {
                            // Dead owner: remove and retry. NotFound means
                            // another acquirer stole it first.
                            let _ = fs::remove_file(path);
                        }
                        // Held by a live process — or mid-write (no pid
                        // yet), which we must treat as live.
                        _ => return Ok(None),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Writes `contents` to `path` atomically: stage into [`temp_path`], sync,
/// then rename over the destination. After an interruption at any point,
/// `path` holds either its previous complete contents or the new complete
/// contents.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename; the temp file is removed
/// on a failed rename.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("snr-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn atomic_write_creates_and_overwrites_without_orphans() {
        let d = tmpdir("aw");
        let p = d.join("out.json");
        atomic_write(&p, b"first").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"first");
        atomic_write(&p, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second, longer contents");
        assert!(!temp_path(&p).exists(), "temp must not survive");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stale_temp_from_a_killed_run_is_overwritten() {
        let d = tmpdir("stale");
        let p = d.join("out.csv");
        fs::write(temp_path(&p), b"half-written garb").unwrap();
        atomic_write(&p, b"clean").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"clean");
        assert!(!temp_path(&p).exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn unique_temp_write_and_pid_parse() {
        let d = tmpdir("utmp");
        let p = d.join("entry.bin");
        let tmp = unique_temp_path(&p);
        assert_eq!(temp_writer_pid(&tmp), Some(std::process::id()));
        assert_ne!(unique_temp_path(&p), tmp, "every call stages through its own file");
        assert_eq!(temp_writer_pid(&temp_path(&p)), None, "fixed temp has no pid");
        // The older per-process form still parses, as does a
        // per-call name on a dotted destination.
        assert_eq!(temp_writer_pid(&d.join("abc.entry.4242.tmp")), Some(4242));
        assert_eq!(temp_writer_pid(&d.join("abc.entry.4242.17.tmp")), Some(4242));
        assert_eq!(temp_writer_pid(&d.join("abc.entry.x.tmp")), None);
        atomic_write_unique(&p, b"payload").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"payload");
        let left: Vec<_> = fs::read_dir(&d).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, vec![std::ffi::OsString::from("entry.bin")], "no stage file survives");
        // Last-writer-wins over an existing destination.
        atomic_write_unique(&p, b"newer").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"newer");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn lock_excludes_self_and_is_stolen_from_the_dead() {
        let d = tmpdir("lock");
        let p = d.join("maint.lock");
        let held = LockFile::try_acquire(&p).unwrap().expect("first acquire");
        assert!(LockFile::try_acquire(&p).unwrap().is_none(), "held lock excludes");
        drop(held);
        assert!(!p.exists(), "drop releases the lock");
        // A lock whose owner pid is provably dead is stolen. Pid 0 is the
        // kernel's; no /proc/0 entry exists, so it reads as dead.
        fs::write(&p, b"0").unwrap();
        if cfg!(target_os = "linux") {
            assert!(LockFile::try_acquire(&p).unwrap().is_some(), "dead owner is stolen");
        }
        let _ = fs::remove_dir_all(&d);
    }
}
