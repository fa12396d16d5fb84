//! ZooKeeper-like distributed coordination service (paper §4.2, §7.1).
//!
//! Spinnaker delegates failure detection, group membership, and leader
//! election metadata to a coordination service. This crate implements the
//! subset of ZooKeeper the paper uses: a znode tree with persistent /
//! ephemeral / sequential nodes, one-shot watches, and heartbeat-based
//! session expiry. The service is a deterministic state machine
//! ([`Coord`]): every operation takes the caller's clock and returns the
//! watch deliveries it triggered, so the same code runs under the
//! discrete-event simulator and in the hand-driven node tests.
//!
//! The real ZooKeeper is itself replicated with a Paxos-like protocol; the
//! paper (§4.2, Appendix A.1) treats it as an externally fault-tolerant
//! black box that is *not* on the read/write critical path, and so do we:
//! the service runs unreplicated, inside the simulation.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use service::{
    basename, parent, Coord, CoordError, CoordResult, CreateMode, Delivery, Nanos, SessionId, Stat,
    WatchEvent, Zxid,
};

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = 1_000_000_000;

    fn svc_with_session() -> (Coord, SessionId) {
        let mut c = Coord::new();
        let s = c.create_session(2 * SEC, 0);
        (c, s)
    }

    #[test]
    fn create_get_set_delete_cycle() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/app", b"root".to_vec(), CreateMode::Persistent).unwrap();
        let (data, stat) = c.get_data("/app", None).unwrap();
        assert_eq!(data, b"root");
        assert_eq!(stat.version, 0);
        c.set_data(s, "/app", b"v2".to_vec()).unwrap();
        let (data, stat) = c.get_data("/app", None).unwrap();
        assert_eq!(data, b"v2");
        assert_eq!(stat.version, 1);
        c.delete(s, "/app").unwrap();
        assert!(matches!(c.get_data("/app", None), Err(CoordError::NoNode(_))));
    }

    #[test]
    fn set_data_cas_rejects_stale_versions() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/table", b"v0".to_vec(), CreateMode::Persistent).unwrap();
        // Version 0: the CAS with expected=0 wins and bumps to 1.
        c.set_data_cas(s, "/table", b"v1".to_vec(), 0).unwrap();
        let (_, stat) = c.get_data("/table", None).unwrap();
        assert_eq!(stat.version, 1);
        // A second writer still holding expected=0 must lose.
        match c.set_data_cas(s, "/table", b"loser".to_vec(), 0) {
            Err(CoordError::BadVersion { expected: 0, actual: 1, .. }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
        let (data, _) = c.get_data("/table", None).unwrap();
        assert_eq!(data, b"v1", "losing CAS left the data untouched");
        // The winner can continue from the observed version.
        c.set_data_cas(s, "/table", b"v2".to_vec(), 1).unwrap();
        assert_eq!(c.get_data("/table", None).unwrap().0, b"v2");
    }

    #[test]
    fn create_requires_parent() {
        let (mut c, s) = svc_with_session();
        assert!(matches!(
            c.create(s, "/a/b", vec![], CreateMode::Persistent),
            Err(CoordError::NoNode(_))
        ));
        c.create(s, "/a", vec![], CreateMode::Persistent).unwrap();
        c.create(s, "/a/b", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(c.get_children("/a", None).unwrap(), vec!["b"]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/x", vec![], CreateMode::Persistent).unwrap();
        assert!(matches!(
            c.create(s, "/x", vec![], CreateMode::Persistent),
            Err(CoordError::NodeExists(_))
        ));
    }

    #[test]
    fn delete_nonempty_rejected() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/a", vec![], CreateMode::Persistent).unwrap();
        c.create(s, "/a/b", vec![], CreateMode::Persistent).unwrap();
        assert!(matches!(c.delete(s, "/a"), Err(CoordError::NotEmpty(_))));
        c.delete_recursive(s, "/a").unwrap();
        assert!(c.exists("/a", None).unwrap().is_none());
    }

    #[test]
    fn bad_paths_rejected() {
        let (mut c, s) = svc_with_session();
        for p in ["noslash", "/trailing/", "/dou//ble", ""] {
            assert!(
                matches!(
                    c.create(s, p, vec![], CreateMode::Persistent),
                    Err(CoordError::BadPath(_))
                ),
                "path {p:?}"
            );
        }
    }

    #[test]
    fn sequential_znodes_get_unique_increasing_suffixes() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/r", vec![], CreateMode::Persistent).unwrap();
        c.create(s, "/r/candidates", vec![], CreateMode::Persistent).unwrap();
        let (p1, _) = c
            .create(s, "/r/candidates/c-", b"10".to_vec(), CreateMode::EphemeralSequential)
            .unwrap();
        let (p2, _) = c
            .create(s, "/r/candidates/c-", b"20".to_vec(), CreateMode::EphemeralSequential)
            .unwrap();
        assert_eq!(p1, "/r/candidates/c-0000000000");
        assert_eq!(p2, "/r/candidates/c-0000000001");
        assert!(p1 < p2, "sequence numbers break ties in election");
        let stat = c.exists(&p2, None).unwrap().unwrap();
        assert_eq!(stat.sequence, Some(1));
    }

    #[test]
    fn ephemerals_vanish_on_session_expiry_and_watches_fire() {
        let mut c = Coord::new();
        let leader = c.create_session(2 * SEC, 0);
        let observer = c.create_session(2 * SEC, 0);
        c.create(leader, "/r", vec![], CreateMode::Persistent).unwrap();
        c.create(leader, "/r/leader", b"node-a".to_vec(), CreateMode::Ephemeral).unwrap();
        // Observer watches the leader node (the Fig. 7 pattern).
        c.get_data("/r/leader", Some(observer)).unwrap();

        // Heartbeats keep the session alive...
        c.heartbeat(leader, SEC).unwrap();
        c.heartbeat(observer, SEC).unwrap();
        assert!(c.tick(2 * SEC).is_empty());
        c.heartbeat(observer, 2 * SEC).unwrap();
        // ...then the leader goes silent and times out.
        let events = c.tick(4 * SEC);
        assert!(events.contains(&(leader, WatchEvent::SessionExpired)));
        assert!(events.contains(&(observer, WatchEvent::Deleted("/r/leader".into()))));
        assert!(c.exists("/r/leader", None).unwrap().is_none());
        assert!(!c.session_alive(leader));
    }

    #[test]
    fn watches_are_one_shot() {
        let (mut c, s) = svc_with_session();
        let w = c.create_session(10 * SEC, 0);
        c.create(s, "/n", vec![], CreateMode::Persistent).unwrap();
        c.get_data("/n", Some(w)).unwrap();
        let ev1 = c.set_data(s, "/n", b"1".to_vec()).unwrap();
        assert_eq!(ev1, vec![(w, WatchEvent::DataChanged("/n".into()))]);
        let ev2 = c.set_data(s, "/n", b"2".to_vec()).unwrap();
        assert!(ev2.is_empty(), "watch must not fire twice without re-registration");
    }

    #[test]
    fn child_watches_fire_on_create_and_delete() {
        let (mut c, s) = svc_with_session();
        let w = c.create_session(10 * SEC, 0);
        c.create(s, "/r", vec![], CreateMode::Persistent).unwrap();
        c.get_children("/r", Some(w)).unwrap();
        let (_, ev) = c.create(s, "/r/a", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(ev, vec![(w, WatchEvent::ChildrenChanged("/r".into()))]);
        c.get_children("/r", Some(w)).unwrap();
        let ev = c.delete(s, "/r/a").unwrap();
        assert!(ev.contains(&(w, WatchEvent::ChildrenChanged("/r".into()))));
    }

    #[test]
    fn exists_watch_fires_on_creation() {
        let (mut c, s) = svc_with_session();
        let w = c.create_session(10 * SEC, 0);
        assert!(c.exists("/future", Some(w)).unwrap().is_none());
        let (_, ev) = c.create(s, "/future", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(ev, vec![(w, WatchEvent::Created("/future".into()))]);
    }

    #[test]
    fn expired_session_cannot_mutate() {
        let mut c = Coord::new();
        let s = c.create_session(SEC, 0);
        c.tick(3 * SEC);
        assert!(matches!(
            c.create(s, "/x", vec![], CreateMode::Persistent),
            Err(CoordError::SessionExpired(_))
        ));
        assert!(matches!(c.heartbeat(s, 4 * SEC), Err(CoordError::SessionExpired(_))));
    }

    #[test]
    fn ephemerals_cannot_have_children() {
        let (mut c, s) = svc_with_session();
        c.create(s, "/e", vec![], CreateMode::Ephemeral).unwrap();
        assert!(matches!(
            c.create(s, "/e/child", vec![], CreateMode::Persistent),
            Err(CoordError::NoChildrenForEphemerals(_))
        ));
    }

    #[test]
    fn close_session_is_graceful_expiry() {
        let mut c = Coord::new();
        let s = c.create_session(10 * SEC, 0);
        c.create(s, "/tmp-node", vec![], CreateMode::Ephemeral).unwrap();
        let events = c.close_session(s);
        assert!(events.contains(&(s, WatchEvent::SessionExpired)));
        assert!(c.exists("/tmp-node", None).unwrap().is_none());
    }

    #[test]
    fn dead_sessions_receive_no_watch_events() {
        let mut c = Coord::new();
        let alive = c.create_session(10 * SEC, 0);
        let doomed = c.create_session(SEC, 0);
        c.create(alive, "/n", vec![], CreateMode::Persistent).unwrap();
        c.get_data("/n", Some(doomed)).unwrap();
        c.tick(5 * SEC); // doomed expires
        let ev = c.set_data(alive, "/n", b"x".to_vec()).unwrap();
        assert!(ev.is_empty(), "expired watcher must not receive events");
    }

    #[test]
    fn election_pattern_end_to_end() {
        // The full Fig. 7 dance at the coordination-service level: three
        // candidates advertise last-LSNs in sequential ephemerals; everyone
        // can deterministically pick the max; the loser learns the leader
        // by reading /r/leader; when the leader dies the others are woken.
        let mut c = Coord::new();
        let (a, b, d) = (
            c.create_session(2 * SEC, 0),
            c.create_session(2 * SEC, 0),
            c.create_session(2 * SEC, 0),
        );
        let admin = c.create_session(60 * SEC, 0);
        c.create(admin, "/r", vec![], CreateMode::Persistent).unwrap();
        c.create(admin, "/r/candidates", vec![], CreateMode::Persistent).unwrap();

        c.create(a, "/r/candidates/n-", b"1.20".to_vec(), CreateMode::EphemeralSequential).unwrap();
        c.create(b, "/r/candidates/n-", b"1.21".to_vec(), CreateMode::EphemeralSequential).unwrap();
        let kids = c.get_children("/r/candidates", None).unwrap();
        assert_eq!(kids.len(), 2);
        // Max advertised LSN wins: session b.
        let winner = kids
            .iter()
            .map(|k| c.get_data(&format!("/r/candidates/{k}"), None).unwrap().0)
            .max()
            .unwrap();
        assert_eq!(winner, b"1.21");
        c.create(b, "/r/leader", b"node-b".to_vec(), CreateMode::Ephemeral).unwrap();

        // The third replica comes up late, reads the leader, sets a watch.
        c.get_data("/r/leader", Some(d)).unwrap();
        c.heartbeat(a, SEC).unwrap();
        c.heartbeat(d, SEC).unwrap();
        c.heartbeat(a, 2 * SEC).unwrap();
        c.heartbeat(d, 2 * SEC).unwrap();
        // b dies; d must be woken by the leader-znode deletion.
        let events = c.tick(3 * SEC + 1);
        assert!(events.contains(&(d, WatchEvent::Deleted("/r/leader".into()))));
        // b's candidate znode is gone too; a new round can start.
        assert_eq!(c.get_children("/r/candidates", None).unwrap().len(), 1);
    }

    #[test]
    fn path_helpers() {
        assert_eq!(parent("/a/b/c"), "/a/b");
        assert_eq!(parent("/a"), "/");
        assert_eq!(basename("/a/b/c"), "c");
        assert_eq!(basename("/a"), "a");
    }

    #[test]
    fn zxid_increases_on_mutations_only() {
        let (mut c, s) = svc_with_session();
        let z0 = c.zxid();
        c.create(s, "/m", vec![], CreateMode::Persistent).unwrap();
        let z1 = c.zxid();
        assert!(z1 > z0);
        c.get_data("/m", None).unwrap();
        assert_eq!(c.zxid(), z1, "reads do not bump zxid");
    }
}
