//! Node-side client for the coordination service.
//!
//! Wraps a shared [`Coord`] instance plus this node's session. Mutating
//! calls can trigger watch deliveries for *other* sessions; those are
//! pushed onto a shared delivery bus that the hosting runtime drains and
//! routes as [`crate::messages::NodeInput::Coord`] events — preserving the
//! asynchronous, notification-driven shape of real ZooKeeper while keeping
//! the service itself deterministic.
//!
//! The paper stresses that the coordination service is *not* on the
//! read/write critical path (§4.2): only heartbeats flow in steady state,
//! which is exactly what this client does.

use std::cell::RefCell;
use std::rc::Rc;

use spinnaker_common::Epoch;
use spinnaker_coord::{Coord, CoordError, CoordResult, CreateMode, Delivery, SessionId, Stat};

/// Shared handle to the coordination service (single-threaded runtimes).
pub type SharedCoord = Rc<RefCell<Coord>>;

/// Shared watch-delivery bus drained by the hosting runtime.
pub type DeliveryBus = Rc<RefCell<Vec<Delivery>>>;

/// A node's connection to the coordination service.
pub struct CoordClient {
    svc: SharedCoord,
    session: SessionId,
    bus: DeliveryBus,
}

impl CoordClient {
    /// Wrap an existing session.
    pub fn new(svc: SharedCoord, session: SessionId, bus: DeliveryBus) -> CoordClient {
        CoordClient { svc, session, bus }
    }

    /// The session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    fn push(&self, deliveries: Vec<Delivery>) {
        if !deliveries.is_empty() {
            self.bus.borrow_mut().extend(deliveries);
        }
    }

    /// Create a persistent node, ignoring "already exists".
    pub fn ensure_path(&self, path: &str) {
        let mut svc = self.svc.borrow_mut();
        if let Ok((_, d)) = svc.create(self.session, path, Vec::new(), CreateMode::Persistent) {
            drop(svc);
            self.push(d);
        }
    }

    /// Create an ephemeral node.
    pub fn create_ephemeral(&self, path: &str, data: Vec<u8>) -> CoordResult<()> {
        let d = {
            let mut svc = self.svc.borrow_mut();
            svc.create(self.session, path, data, CreateMode::Ephemeral)?.1
        };
        self.push(d);
        Ok(())
    }

    /// Create an ephemeral sequential node; returns the actual path.
    pub fn create_ephemeral_sequential(&self, prefix: &str, data: Vec<u8>) -> CoordResult<String> {
        let (path, d) = {
            let mut svc = self.svc.borrow_mut();
            svc.create(self.session, prefix, data, CreateMode::EphemeralSequential)?
        };
        self.push(d);
        Ok(path)
    }

    /// Delete a node.
    pub fn delete(&self, path: &str) -> CoordResult<()> {
        let d = {
            let mut svc = self.svc.borrow_mut();
            svc.delete(self.session, path)?
        };
        self.push(d);
        Ok(())
    }

    /// Delete a node and everything under it (garbage collection of a
    /// dissolved range's `/r{N}` subtree).
    pub fn delete_recursive(&self, path: &str) -> CoordResult<()> {
        let d = {
            let mut svc = self.svc.borrow_mut();
            svc.delete_recursive(self.session, path)?
        };
        self.push(d);
        Ok(())
    }

    /// Read data and stat without watching.
    pub fn get_data(&self, path: &str) -> CoordResult<(Vec<u8>, Stat)> {
        self.svc.borrow_mut().get_data(path, None)
    }

    /// Conditionally replace a node's data (compare-and-set on the data
    /// version). Used for shared metadata like the range table, where two
    /// leaders must never both win a read-modify-write race.
    pub fn set_data_cas(
        &self,
        path: &str,
        data: Vec<u8>,
        expected_version: u64,
    ) -> CoordResult<()> {
        let d = {
            let mut svc = self.svc.borrow_mut();
            svc.set_data_cas(self.session, path, data, expected_version)?
        };
        self.push(d);
        Ok(())
    }

    /// Read data, registering a one-shot data watch.
    pub fn get_data_watch(&self, path: &str) -> CoordResult<Vec<u8>> {
        Ok(self.svc.borrow_mut().get_data(path, Some(self.session))?.0)
    }

    /// List children, registering a one-shot child watch.
    pub fn get_children_watch(&self, path: &str) -> CoordResult<Vec<String>> {
        self.svc.borrow_mut().get_children(path, Some(self.session))
    }

    /// Existence check, registering a one-shot exists watch (fires on
    /// creation).
    pub fn exists_watch(&self, path: &str) -> CoordResult<bool> {
        Ok(self.svc.borrow_mut().exists(path, Some(self.session))?.is_some())
    }

    /// Read the epoch counter stored at `path` (0 when absent).
    pub fn read_epoch(&self, path: &str) -> Epoch {
        match self.svc.borrow_mut().get_data(path, None) {
            Ok((data, _)) => {
                std::str::from_utf8(&data).ok().and_then(|s| s.parse().ok()).unwrap_or(0)
            }
            Err(_) => 0,
        }
    }

    /// Persist a new epoch at `path` (create-or-set).
    pub fn write_epoch(&self, path: &str, epoch: Epoch) {
        let data = epoch.to_string().into_bytes();
        let result = {
            let mut svc = self.svc.borrow_mut();
            match svc.set_data(self.session, path, data.clone()) {
                Ok(d) => Ok(d),
                Err(CoordError::NoNode(_)) => {
                    svc.create(self.session, path, data, CreateMode::Persistent).map(|(_, d)| d)
                }
                Err(e) => Err(e),
            }
        };
        if let Ok(d) = result {
            self.push(d);
        }
    }

    /// Refresh the session.
    pub fn heartbeat(&self, now: u64) {
        // It fails only on an expired session, which the service also
        // reports as `SessionExpired`; the host restarts the node on it.
        let _ = self.svc.borrow_mut().heartbeat(self.session, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> (SharedCoord, DeliveryBus, CoordClient) {
        let svc: SharedCoord = Rc::new(RefCell::new(Coord::new()));
        let session = svc.borrow_mut().create_session(u64::MAX / 2, 0);
        let bus: DeliveryBus = Rc::new(RefCell::new(Vec::new()));
        (svc.clone(), bus.clone(), CoordClient::new(svc, session, bus))
    }

    #[test]
    fn ensure_path_is_idempotent() {
        let (_svc, _bus, c) = client();
        c.ensure_path("/r0");
        c.ensure_path("/r0");
        c.ensure_path("/r0/candidates");
        assert!(c.get_data("/r0/candidates").is_ok());
    }

    #[test]
    fn epoch_cycle() {
        let (_svc, _bus, c) = client();
        assert_eq!(c.read_epoch("/r0/epoch"), 0, "missing epoch reads as 0");
        c.ensure_path("/r0");
        c.write_epoch("/r0/epoch", 1);
        assert_eq!(c.read_epoch("/r0/epoch"), 1);
        c.write_epoch("/r0/epoch", 2);
        assert_eq!(c.read_epoch("/r0/epoch"), 2);
    }

    #[test]
    fn deliveries_reach_the_bus() {
        let (svc, bus, c) = client();
        c.ensure_path("/r0");
        // Another session watches; our mutation must land on the bus.
        let other = svc.borrow_mut().create_session(u64::MAX / 2, 0);
        svc.borrow_mut().get_children("/r0", Some(other)).unwrap();
        c.create_ephemeral_sequential("/r0/c-", b"x".to_vec()).unwrap();
        let deliveries = bus.borrow();
        assert!(deliveries.iter().any(|(s, _)| *s == other), "watcher notified via bus");
    }
}
