//! Run-directory lock: at most one supervisor (or sweep service) may
//! write a ledger at a time.
//!
//! Two supervisors interleaving appends into one `ledger.jsonl` would
//! corrupt the journal's meaning (their `run-start` boundaries and point
//! attempts shuffle together), so every writer takes `supervisor.lock`
//! first. The claim is an advisory kernel lock on that file
//! ([`File::try_lock`]), held for as long as the [`RunLock`] guard keeps
//! the file open. The kernel releases it when the handle closes, however
//! the holder ends — SIGKILL included — so a lock never goes stale and
//! nothing has to judge whether a recorded owner still lives.
//!
//! The file itself is never deleted: a process that unlinked it while
//! another still held it would let a third lock a fresh inode beside the
//! held one. It is not fsynced either: no process holds a lock after a
//! power loss, so a durable lock file would guarantee nothing. Its body,
//! `pid <n>`, only names the holder in the refusal message.
//!
//! A held lock makes acquisition fail with
//! [`std::io::ErrorKind::WouldBlock`], which the CLI and the service map
//! to exit code 8 (`noc_sim::exit::LOCKED`).

use std::fs::{File, TryLockError};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Lock file name inside a run directory.
pub const LOCK_FILE: &str = "supervisor.lock";

/// RAII guard on a run directory. Dropping it closes the file, which
/// releases the lock.
#[derive(Debug)]
pub struct RunLock {
    path: PathBuf,
    _file: File,
}

impl RunLock {
    /// Claim `dir` (created if missing) for this process. Returns
    /// [`io::ErrorKind::WouldBlock`] when another holder has it.
    pub fn acquire(dir: &Path) -> io::Result<RunLock> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        let mut file =
            File::options().read(true).write(true).create(true).truncate(false).open(&path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                let mut held = String::new();
                let _ = file.read_to_string(&mut held);
                let pid = held.strip_prefix("pid ").and_then(|s| s.split_whitespace().next());
                let pid = pid.unwrap_or("?");
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    format!(
                        "{} is locked by live process {pid}; a concurrent supervisor on one \
                         run-dir would corrupt the ledger",
                        dir.display(),
                    ),
                ));
            }
            Err(TryLockError::Error(e)) => return Err(e),
        }
        file.set_len(0)?;
        file.write_all(format!("pid {}\n", std::process::id()).as_bytes())?;
        Ok(RunLock { path, _file: file })
    }

    /// The lock file path (tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc-lock-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn acquire_release_reacquire() {
        let dir = scratch("rr");
        let lock = RunLock::acquire(&dir).expect("fresh dir must lock");
        assert!(lock.path().exists());
        drop(lock);
        let _again = RunLock::acquire(&dir).expect("released lock must re-acquire");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_holder_blocks_second_acquire() {
        let dir = scratch("live");
        let _held = RunLock::acquire(&dir).unwrap();
        // The lock belongs to the open file description, so a second open
        // conflicts even within one process.
        let e = RunLock::acquire(&dir).expect_err("second writer must be refused");
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
        assert!(e.to_string().contains("locked by live process"), "got: {e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_dead_pid_is_taken_over() {
        let dir = scratch("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A PID from the far end of the default pid space: almost
        // certainly dead, and if alive the start time (0) will not match.
        std::fs::write(dir.join(LOCK_FILE), "pid 4194303 start 0\n").unwrap();
        let lock = RunLock::acquire(&dir).expect("dead holder must be taken over");
        assert!(std::fs::read_to_string(lock.path())
            .unwrap()
            .contains(&format!("pid {}", std::process::id())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_lock_is_stale() {
        let dir = scratch("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOCK_FILE), "not a lock token").unwrap();
        RunLock::acquire(&dir).expect("garbage content is stale, not fatal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Racers released together onto a left-over lock file: every round
    /// admits exactly one holder. Winners keep their guard until all
    /// racers of the round have tried, so a late racer cannot win a lock
    /// released early.
    #[test]
    fn racing_acquirers_admit_exactly_one_holder() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Arc, Barrier};

        const RACERS: usize = 8;
        const ROUNDS: usize = 300;
        let dir = scratch("race");
        std::fs::create_dir_all(&dir).unwrap();
        for round in 0..ROUNDS {
            std::fs::write(dir.join(LOCK_FILE), "pid 4194303 start 0\n").unwrap();
            let start = Arc::new(Barrier::new(RACERS));
            let tried = Arc::new(Barrier::new(RACERS));
            let holders = Arc::new(AtomicUsize::new(0));
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    let (dir, start, tried) = (dir.clone(), start.clone(), tried.clone());
                    let holders = holders.clone();
                    std::thread::spawn(move || {
                        start.wait();
                        let got = RunLock::acquire(&dir);
                        if got.is_ok() {
                            holders.fetch_add(1, Ordering::SeqCst);
                        }
                        tried.wait();
                        got.map(drop).map_err(|e| e.kind())
                    })
                })
                .collect();
            for r in racers {
                if let Err(kind) = r.join().unwrap() {
                    assert_eq!(kind, io::ErrorKind::WouldBlock, "round {round}");
                }
            }
            assert_eq!(holders.load(Ordering::SeqCst), 1, "round {round}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
