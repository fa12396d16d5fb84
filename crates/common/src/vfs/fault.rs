//! Fault-injecting [`Vfs`] wrapper for failure testing.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};

use super::{SharedVfs, Vfs, VfsFile};

/// Shared fault schedule. Counters tick down on each matching operation;
/// when one reaches zero the operation (and all subsequent ones of that
/// kind, while `sticky`) fails with an injected I/O error.
#[derive(Default)]
pub struct FaultPlan {
    /// 0 = disarmed; n = the n-th operation (counting from arming) fails.
    sync_target: AtomicU64,
    append_target: AtomicU64,
    read_target: AtomicU64,
    syncs_seen: AtomicU64,
    appends_seen: AtomicU64,
    reads_seen: AtomicU64,
    sticky: AtomicBool,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan with no faults armed.
    pub fn new() -> Arc<FaultPlan> {
        Arc::new(FaultPlan::default())
    }

    /// Fail the `n`-th sync from now (1 = the very next one).
    pub fn fail_sync_after(&self, n: u64) {
        assert!(n > 0, "n is 1-based");
        self.syncs_seen.store(0, Ordering::SeqCst);
        self.sync_target.store(n, Ordering::SeqCst);
    }

    /// Fail the `n`-th append from now (1 = the very next one).
    pub fn fail_append_after(&self, n: u64) {
        assert!(n > 0, "n is 1-based");
        self.appends_seen.store(0, Ordering::SeqCst);
        self.append_target.store(n, Ordering::SeqCst);
    }

    /// Fail the `n`-th read from now (1 = the very next one): a sector
    /// that no longer reads back.
    pub fn fail_read_after(&self, n: u64) {
        assert!(n > 0, "n is 1-based");
        self.reads_seen.store(0, Ordering::SeqCst);
        self.read_target.store(n, Ordering::SeqCst);
    }

    /// When set, every matching operation after the first failure also
    /// fails (a dead device rather than a transient hiccup).
    pub fn set_sticky(&self, sticky: bool) {
        self.sticky.store(sticky, Ordering::SeqCst);
    }

    /// Clear every armed fault (the device was replaced; counters and
    /// stickiness reset, `injected` keeps its tally). A restarting node
    /// whose plan stays armed would otherwise re-fail immediately.
    pub fn disarm(&self) {
        self.sync_target.store(0, Ordering::SeqCst);
        self.append_target.store(0, Ordering::SeqCst);
        self.read_target.store(0, Ordering::SeqCst);
        self.syncs_seen.store(0, Ordering::SeqCst);
        self.appends_seen.store(0, Ordering::SeqCst);
        self.reads_seen.store(0, Ordering::SeqCst);
        self.sticky.store(false, Ordering::SeqCst);
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn check(&self, target: &AtomicU64, seen: &AtomicU64) -> Result<()> {
        let t = target.load(Ordering::SeqCst);
        if t == 0 {
            return Ok(());
        }
        let n = seen.fetch_add(1, Ordering::SeqCst) + 1;
        if n == t || (n > t && self.sticky.load(Ordering::SeqCst)) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(Error::Io(io::Error::other("injected fault")));
        }
        Ok(())
    }

    fn check_sync(&self) -> Result<()> {
        self.check(&self.sync_target, &self.syncs_seen)
    }

    fn check_append(&self) -> Result<()> {
        self.check(&self.append_target, &self.appends_seen)
    }

    fn check_read(&self) -> Result<()> {
        self.check(&self.read_target, &self.reads_seen)
    }
}

/// A [`Vfs`] forwarding to an inner backend while honouring a [`FaultPlan`].
pub struct FaultVfs {
    inner: SharedVfs,
    plan: Arc<FaultPlan>,
    /// When set, only files whose path starts with this prefix are
    /// fault-wrapped; everything else passes straight through.
    scope: Option<String>,
}

impl FaultVfs {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: SharedVfs, plan: Arc<FaultPlan>) -> FaultVfs {
        FaultVfs { inner, plan, scope: None }
    }

    /// Wrap `inner`, injecting faults only into files under `prefix`
    /// (e.g. `"wal/"` to fail log appends/syncs while SSTable writes
    /// stay healthy — the shape of a dying log device).
    pub fn scoped(inner: SharedVfs, plan: Arc<FaultPlan>, prefix: &str) -> FaultVfs {
        FaultVfs { inner, plan, scope: Some(prefix.to_string()) }
    }

    fn wrap(&self, path: &str, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        match &self.scope {
            Some(prefix) if !path.starts_with(prefix.as_str()) => file,
            _ => Box::new(FaultFile { inner: file, plan: self.plan.clone() }),
        }
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    plan: Arc<FaultPlan>,
}

impl VfsFile for FaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.plan.check_read()?;
        self.inner.read_at(offset, buf)
    }

    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.plan.check_append()?;
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        self.plan.check_sync()?;
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open(path)?))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::super::MemVfs;
    use super::*;

    #[test]
    fn nth_sync_fails_once() {
        let plan = FaultPlan::new();
        plan.fail_sync_after(2);
        let vfs = FaultVfs::new(Arc::new(MemVfs::new()), plan.clone());
        let mut f = vfs.create("f").unwrap();
        f.append(b"x").unwrap();
        assert!(f.sync().is_ok(), "first sync passes");
        assert!(f.sync().is_err(), "second sync fails");
        assert!(f.sync().is_ok(), "non-sticky: third sync passes again");
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn sticky_faults_persist() {
        let plan = FaultPlan::new();
        plan.fail_append_after(1);
        plan.set_sticky(true);
        let vfs = FaultVfs::new(Arc::new(MemVfs::new()), plan.clone());
        let mut f = vfs.create("f").unwrap();
        assert!(f.append(b"x").is_err());
        assert!(f.append(b"x").is_err());
        assert!(plan.injected() >= 2);
    }

    #[test]
    fn disarm_clears_armed_faults() {
        let plan = FaultPlan::new();
        plan.fail_sync_after(1);
        plan.set_sticky(true);
        let vfs = FaultVfs::new(Arc::new(MemVfs::new()), plan.clone());
        let mut f = vfs.create("f").unwrap();
        assert!(f.sync().is_err());
        plan.disarm();
        assert!(f.sync().is_ok(), "disarmed plan injects nothing");
        assert_eq!(plan.injected(), 1, "the tally survives disarm");
    }

    #[test]
    fn scoped_plan_spares_other_paths() {
        let plan = FaultPlan::new();
        plan.fail_sync_after(1);
        plan.set_sticky(true);
        let vfs = FaultVfs::scoped(Arc::new(MemVfs::new()), plan, "wal/");
        let mut store = vfs.create("store-r1/t0").unwrap();
        assert!(store.sync().is_ok(), "out-of-scope file never faults");
        let mut log = vfs.create("wal/seg-1.log").unwrap();
        assert!(log.sync().is_err(), "in-scope file faults");
    }

    #[test]
    fn reads_unaffected() {
        let plan = FaultPlan::new();
        plan.fail_sync_after(1);
        let mem = Arc::new(MemVfs::new());
        let vfs = FaultVfs::new(mem, plan);
        let mut f = vfs.create("f").unwrap();
        f.append(b"data").unwrap();
        let mut buf = [0u8; 4];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"data");
    }

    #[test]
    fn nth_read_fails_once() {
        let plan = FaultPlan::new();
        plan.fail_read_after(2);
        let vfs = FaultVfs::new(Arc::new(MemVfs::new()), plan.clone());
        let mut f = vfs.create("f").unwrap();
        f.append(b"data").unwrap();
        assert!(f.read_bytes_at(0, 4).is_ok(), "first read passes");
        assert!(f.read_bytes_at(0, 4).is_err(), "second read fails");
        assert_eq!(f.read_bytes_at(0, 4).unwrap().as_ref(), b"data", "non-sticky");
        assert_eq!(plan.injected(), 1);
    }
}
