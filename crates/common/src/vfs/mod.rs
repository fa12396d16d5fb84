//! Virtual file system.
//!
//! The WAL and SSTable code are written against the [`Vfs`]/[`VfsFile`]
//! traits so the same storage engine runs entirely in memory
//! ([`MemVfs`]) for the deterministic simulator and tests, and under
//! scripted fault injection ([`FaultVfs`]).
//!
//! Paths are plain `/`-separated relative strings (`"wal/000001.log"`).
//! Crash semantics are modeled by [`MemVfs::crash_clone`]: data appended
//! after the last `sync` is lost, which is exactly what recovery code must
//! tolerate on a real machine with its write cache disabled (the paper's
//! Appendix C testbed).

mod fault;
mod mem;

pub use fault::{FaultPlan, FaultVfs};
pub use mem::MemVfs;

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::error::Result;

/// A file system namespace.
pub trait Vfs: Send + Sync {
    /// Create (or truncate) a file and open it for append + random reads.
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>>;

    /// Open an existing file for append + random reads.
    fn open(&self, path: &str) -> Result<Box<dyn VfsFile>>;

    /// Whether `path` exists.
    fn exists(&self, path: &str) -> Result<bool>;

    /// All file paths starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Remove a file. Removing a missing file is an error.
    fn delete(&self, path: &str) -> Result<()>;

    /// Atomically rename `from` to `to`, replacing `to` if present.
    /// Used for the classic write-sideways-then-rename durability pattern.
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Read an entire file into memory.
    fn read_all(&self, path: &str) -> Result<Vec<u8>> {
        let f = self.open(path)?;
        let len = f.len()? as usize;
        let mut buf = vec![0u8; len];
        let n = f.read_at(0, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// Write a whole file durably: write sideways, sync, rename into place.
    fn write_atomic(&self, path: &str, data: &[u8]) -> Result<()> {
        let tmp = format!("{path}.tmp");
        let mut f = self.create(&tmp)?;
        f.append(data)?;
        f.sync()?;
        drop(f);
        self.rename(&tmp, path)
    }
}

/// An open file handle. `Sync` because reads take `&self`: an open table
/// shares its one handle between its readers.
pub trait VfsFile: Send + Sync {
    /// Read up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short reads only at end-of-file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Read exactly `buf.len()` bytes at `offset` or fail.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let n = self.read_at(offset, buf)?;
        if n != buf.len() {
            return Err(crate::error::Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("short read: wanted {} got {n}", buf.len()),
            )));
        }
        Ok(())
    }

    /// Read exactly `len` bytes at `offset` into a buffer of their own
    /// and hand it back as the [`Bytes`] that views it — one allocation,
    /// no copy — for readers that decode views out of what they read.
    fn read_bytes_at(&self, offset: u64, len: usize) -> Result<Bytes> {
        let mut buf = BytesMut::zeroed(len);
        self.read_exact_at(offset, &mut buf)?;
        Ok(buf.freeze())
    }

    /// Append bytes at the end of the file.
    fn append(&mut self, data: &[u8]) -> Result<()>;

    /// Force appended data to stable storage.
    fn sync(&mut self) -> Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;

    /// True when the file holds no bytes.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Shared, clonable handle to any `Vfs` implementation.
pub type SharedVfs = Arc<dyn Vfs>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercise the common contract against both backends.
    fn contract(vfs: &dyn Vfs) {
        // create / append / read
        let mut f = vfs.create("dir/a.bin").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        assert_eq!(f.len().unwrap(), 11);
        let mut buf = [0u8; 5];
        f.read_exact_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        // short read at EOF
        let mut big = [0u8; 32];
        assert_eq!(f.read_at(6, &mut big).unwrap(), 5);
        f.sync().unwrap();
        drop(f);

        // reopen preserves contents
        let f = vfs.open("dir/a.bin").unwrap();
        assert_eq!(f.len().unwrap(), 11);
        drop(f);

        // exists / list
        assert!(vfs.exists("dir/a.bin").unwrap());
        assert!(!vfs.exists("dir/missing").unwrap());
        vfs.create("dir/b.bin").unwrap();
        vfs.create("other/c.bin").unwrap();
        assert_eq!(vfs.list("dir/").unwrap(), vec!["dir/a.bin".to_string(), "dir/b.bin".into()]);

        // write_atomic + read_all
        vfs.write_atomic("dir/meta", b"m1").unwrap();
        assert_eq!(vfs.read_all("dir/meta").unwrap(), b"m1");
        vfs.write_atomic("dir/meta", b"m2-longer").unwrap();
        assert_eq!(vfs.read_all("dir/meta").unwrap(), b"m2-longer");
        assert!(!vfs.exists("dir/meta.tmp").unwrap());

        // rename & delete
        vfs.rename("dir/b.bin", "dir/renamed.bin").unwrap();
        assert!(!vfs.exists("dir/b.bin").unwrap());
        vfs.delete("dir/renamed.bin").unwrap();
        assert!(vfs.delete("dir/renamed.bin").is_err(), "double delete errors");
        assert!(vfs.open("dir/renamed.bin").is_err(), "open of deleted errors");
    }

    #[test]
    fn mem_vfs_contract() {
        contract(&MemVfs::new());
    }
}
