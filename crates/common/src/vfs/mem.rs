//! In-memory file system with crash semantics.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};

use super::{Vfs, VfsFile};

#[derive(Default)]
struct FileState {
    data: Vec<u8>,
    /// Length guaranteed to survive a crash (advanced by `sync`).
    synced_len: usize,
}

type Files = BTreeMap<String, Arc<Mutex<FileState>>>;

/// An in-memory [`Vfs`].
///
/// Cloning the handle shares the namespace (like two handles to one disk).
/// [`MemVfs::crash_clone`] produces the state a real machine would expose
/// after a power failure: every file truncated to its last synced length.
#[derive(Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<Files>>,
}

impl MemVfs {
    /// Fresh, empty file system.
    pub fn new() -> MemVfs {
        MemVfs::default()
    }

    /// Simulate a crash: a *new* independent file system containing only
    /// data that had been synced. The original handle keeps working (it
    /// models the disk of a different, still-running node).
    pub fn crash_clone(&self) -> MemVfs {
        let files = self.files.lock();
        let mut out: Files = BTreeMap::new();
        for (path, file) in files.iter() {
            let st = file.lock();
            out.insert(
                path.clone(),
                Arc::new(Mutex::new(FileState {
                    data: st.data[..st.synced_len].to_vec(),
                    synced_len: st.synced_len,
                })),
            );
        }
        MemVfs { files: Arc::new(Mutex::new(out)) }
    }

    /// Total bytes stored (for tests asserting on compaction/GC effects).
    pub fn total_bytes(&self) -> usize {
        self.files.lock().values().map(|f| f.lock().data.len()).sum()
    }
}

struct MemFile {
    state: Arc<Mutex<FileState>>,
}

impl VfsFile for MemFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let st = self.state.lock();
        let off = offset as usize;
        if off >= st.data.len() {
            return Ok(0);
        }
        let n = buf.len().min(st.data.len() - off);
        buf[..n].copy_from_slice(&st.data[off..off + n]);
        Ok(n)
    }

    fn append(&mut self, data: &[u8]) -> Result<()> {
        self.state.lock().data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut st = self.state.lock();
        st.synced_len = st.data.len();
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.state.lock().data.len() as u64)
    }
}

fn not_found(path: &str) -> Error {
    Error::Io(io::Error::new(io::ErrorKind::NotFound, format!("no such file: {path}")))
}

impl Vfs for MemVfs {
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let state = Arc::new(Mutex::new(FileState::default()));
        self.files.lock().insert(path.to_string(), state.clone());
        Ok(Box::new(MemFile { state }))
    }

    fn open(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let files = self.files.lock();
        let state = files.get(path).ok_or_else(|| not_found(path))?.clone();
        Ok(Box::new(MemFile { state }))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.files.lock().contains_key(path))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self.files.lock().keys().filter(|p| p.starts_with(prefix)).cloned().collect())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.files.lock().remove(path).map(|_| ()).ok_or_else(|| not_found(path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut files = self.files.lock();
        let state = files.remove(from).ok_or_else(|| not_found(from))?;
        // Renames are treated as immediately durable, matching the
        // journalled-metadata behaviour storage engines rely on.
        files.insert(to.to_string(), state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_drops_unsynced_tail() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("log").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b"+volatile").unwrap();

        let after = vfs.crash_clone();
        assert_eq!(after.read_all("log").unwrap(), b"durable");
        // The original (still-running node) keeps its full view.
        assert_eq!(vfs.read_all("log").unwrap(), b"durable+volatile");
    }

    #[test]
    fn crash_drops_never_synced_files_content() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("never-synced").unwrap();
        f.append(b"gone").unwrap();
        let after = vfs.crash_clone();
        assert_eq!(after.read_all("never-synced").unwrap(), b"");
    }

    #[test]
    fn clone_shares_namespace() {
        let a = MemVfs::new();
        let b = a.clone();
        a.create("x").unwrap();
        assert!(b.exists("x").unwrap());
    }

    #[test]
    fn crash_clone_is_independent() {
        let vfs = MemVfs::new();
        let mut f = vfs.create("f").unwrap();
        f.append(b"a").unwrap();
        f.sync().unwrap();
        let snap = vfs.crash_clone();
        f.append(b"b").unwrap();
        f.sync().unwrap();
        assert_eq!(snap.read_all("f").unwrap(), b"a");
        assert_eq!(vfs.read_all("f").unwrap(), b"ab");
    }
}
