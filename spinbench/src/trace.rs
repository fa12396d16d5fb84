//! Span recording from the benchmark's own files: a [`Tracer`] that
//! nests spans and attributes self time, and a [`CountingVfs`] that
//! wraps every file-system call of the traced nodes in a child span.
//!
//! Nothing inside the crates under test is instrumented; spans wrap the
//! calls *into* each layer. A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spinnaker_common::vfs::{Vfs, VfsFile};
use spinnaker_common::Result;

use crate::json::quote;

/// Spans kept verbatim for the trace file; later ones only aggregate.
const SPAN_CAP: usize = 60_000;

/// One finished span, in Chrome trace-event terms.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (1-based, in order of opening).
    pub id: u64,
    /// Id of the enclosing span (0 = none).
    pub parent: u64,
    /// Kind name.
    pub name: &'static str,
    /// Node the call ran on (trace `tid`).
    pub node: u32,
    /// Client operation this span served (0 = none).
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub ts_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Aggregate of one span kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTotal {
    /// Spans of this kind.
    pub count: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
    /// Bytes they moved (file-system kinds only).
    pub bytes: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    node: u32,
    start: Instant,
    child_ns: u64,
}

struct State {
    t0: Instant,
    stack: Vec<Open>,
    next_id: u64,
    op: u64,
    node: u32,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, KindTotal>,
}

/// Records nested spans on one thread. Shared (`Arc`) between the host
/// loop and the file-system wrapper; the mutex exists only because
/// `Vfs` must be `Sync`.
pub struct Tracer {
    enabled: bool,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    live: bool,
}

impl Tracer {
    /// A tracer; with `enabled` false every call is a no-op (the
    /// untraced twin run that measures tracing overhead).
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            state: Mutex::new(State {
                t0: Instant::now(),
                stack: Vec::new(),
                next_id: 1,
                op: 0,
                node: 0,
                spans: Vec::new(),
                totals: BTreeMap::new(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer mutex poisoned by a panic while recording")
    }

    /// Tag subsequent spans with client operation `op` on `node`.
    pub fn set_context(&self, op: u64, node: u32) {
        if self.enabled {
            let mut s = self.lock();
            s.op = op;
            s.node = node;
        }
    }

    /// Open a span of kind `name`; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, live: false };
        }
        let mut s = self.lock();
        let id = s.next_id;
        s.next_id += 1;
        let node = s.node;
        s.stack.push(Open { id, name, node, start: Instant::now(), child_ns: 0 });
        SpanGuard { tracer: self, live: true }
    }

    /// Credit `bytes` moved to kind `name`.
    pub fn add_bytes(&self, name: &'static str, bytes: u64) {
        if self.enabled {
            self.lock().totals.entry(name).or_default().bytes += bytes;
        }
    }

    fn close(&self) {
        let end = Instant::now();
        let mut s = self.lock();
        let Some(open) = s.stack.pop() else { return };
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let parent = match s.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        let total = s.totals.entry(open.name).or_default();
        total.count += 1;
        total.self_ns += dur_ns.saturating_sub(open.child_ns);
        if s.spans.len() < SPAN_CAP {
            let span = Span {
                id: open.id,
                parent,
                name: open.name,
                node: open.node,
                op: s.op,
                ts_ns: open.start.duration_since(s.t0).as_nanos() as u64,
                dur_ns,
            };
            s.spans.push(span);
        }
    }

    /// Per-kind aggregates so far.
    pub fn totals(&self) -> BTreeMap<&'static str, KindTotal> {
        self.lock().totals.clone()
    }

    /// The recorded spans (the first 60 000; later ones only aggregate).
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// The recorded spans as a Chrome trace-event document
    /// (`chrome://tracing`, Perfetto): complete events with `args.op`
    /// shared by all spans of one client operation and `args.parent`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 120);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"op\": {}, \"parent\": {}}}}}{}\n",
                quote(s.name),
                s.node,
                s.ts_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.op,
                s.parent,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.live {
            self.tracer.close();
        }
    }
}

/// File-system span kinds, by path and direction.
fn kind_of(path: &str, write: bool, sync: bool) -> &'static str {
    let sst = path.contains("/sst-");
    if path.starts_with("wal/seg-") {
        match (sync, write) {
            (true, _) => "wal_sync",
            (false, true) => "wal_append",
            (false, false) => "wal_read",
        }
    } else if sst && !write && !sync {
        "sst_read"
    } else if sst {
        "sst_write"
    } else {
        // Manifests, WAL checkpoints and skipped-LSN sidecars.
        "manifest"
    }
}

/// A [`Vfs`] that wraps every call to `inner` in a child span and counts
/// the bytes it moves.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    tracer: Arc<Tracer>,
}

impl CountingVfs {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn Vfs>, tracer: Arc<Tracer>) -> CountingVfs {
        CountingVfs { inner, tracer }
    }

    fn file(&self, path: &str, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile { path: path.to_string(), inner, tracer: self.tracer.clone() })
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let _s = self.tracer.span(kind_of(path, true, false));
        Ok(self.file(path, self.inner.create(path)?))
    }

    fn open(&self, path: &str) -> Result<Box<dyn VfsFile>> {
        let _s = self.tracer.span(kind_of(path, false, false));
        Ok(self.file(path, self.inner.open(path)?))
    }

    fn exists(&self, path: &str) -> Result<bool> {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, path: &str) -> Result<()> {
        let _s = self.tracer.span(kind_of(path, true, false));
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let _s = self.tracer.span(kind_of(to, true, false));
        self.inner.rename(from, to)
    }
}

struct CountingFile {
    path: String,
    inner: Box<dyn VfsFile>,
    tracer: Arc<Tracer>,
}

impl VfsFile for CountingFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let kind = kind_of(&self.path, false, false);
        let _s = self.tracer.span(kind);
        let n = self.inner.read_at(offset, buf)?;
        self.tracer.add_bytes(kind, n as u64);
        Ok(n)
    }

    fn append(&mut self, data: &[u8]) -> Result<()> {
        let kind = kind_of(&self.path, true, false);
        let _s = self.tracer.span(kind);
        self.tracer.add_bytes(kind, data.len() as u64);
        self.inner.append(data)
    }

    fn sync(&mut self) -> Result<()> {
        let _s = self.tracer.span(kind_of(&self.path, true, true));
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinnaker_common::vfs::MemVfs;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let t = Tracer::new(true);
        {
            let _root = t.span("host");
            t.set_context(7, 2);
            let _a = t.span("client_put");
            let _b = t.span("wal_append");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "host").unwrap();
        let put = spans.iter().find(|s| s.name == "client_put").unwrap();
        let wal = spans.iter().find(|s| s.name == "wal_append").unwrap();
        assert_eq!((root.parent, put.parent, wal.parent), (0, root.id, put.id));
        assert_eq!((put.op, put.node), (7, 2));
        let self_sum: u64 = t.totals().values().map(|k| k.self_ns).sum();
        assert_eq!(self_sum, root.dur_ns, "self times partition the root span");
        assert!(t.totals()["wal_append"].self_ns >= 2_000_000);
        crate::json::Json::parse(&t.chrome_json()).expect("trace file is valid JSON");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let _s = t.span("host");
        t.add_bytes("wal_append", 10);
        drop(_s);
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }

    #[test]
    fn counting_vfs_classifies_paths() {
        let t = Tracer::new(true);
        let vfs = CountingVfs::new(Arc::new(MemVfs::new()), t.clone());
        let mut wal = vfs.create("wal/seg-0000000001.log").unwrap();
        wal.append(b"abcd").unwrap();
        wal.sync().unwrap();
        let mut sst = vfs.create("store-r0/sst-0000000001").unwrap();
        sst.append(b"0123456789").unwrap();
        let mut buf = [0u8; 4];
        sst.read_at(0, &mut buf).unwrap();
        vfs.write_atomic("store-r0/MANIFEST", b"m").unwrap();
        let totals = t.totals();
        assert_eq!(totals["wal_append"].bytes, 4);
        assert_eq!(totals["wal_sync"].count, 1);
        assert_eq!(totals["sst_write"].bytes, 10);
        assert_eq!(totals["sst_read"].bytes, 4);
        assert!(totals["manifest"].count >= 3);
    }
}
