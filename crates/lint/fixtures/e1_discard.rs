//! Fixture: E1 discarded results (never compiled; lint input only).
fn maintain(&mut self, rt: &mut Runtime<'_>) {
    let _ = rt.wal.append(&record);
    let _ = self.vfs.delete(&name);
    let _ = self
        .store
        .flush();
    let _ = self.coord.delete(&path);
    let _ = wal.sync(); // a bare binding, not a field of the node
    let _kept = self.wal.sync(); // a named binding is not a discard
    let synced = self.wal.sync().is_ok();
    // spinlint: allow(E1) -- fixture exercising a waived discard
    let _ = self.wal.set_checkpoint(range, lsn);
    // spinlint: allow(E1) -- fixture exercising a waived coordination discard
    let _ = rt.coord.exists_watch(&path);
    let _ = coord.create(boot, path); // a bare coordination handle, not a field
}

#[cfg(test)]
mod tests {
    fn discard_in_a_test(&mut self) {
        let _ = self.store.flush();
    }
}
