//! Classic Paxos, as sketched in the paper's Appendix A.
//!
//! Spinnaker's replication protocol is "a variation of Multi-Paxos"; this
//! crate implements the *unvaried* baseline for comparison and testing:
//!
//! * [`single`] — single-decree Paxos (propose / promise / accept / ok)
//!   with the value-adoption rule that makes it safe,
//! * [`multi`] — Multi-Paxos over a log, with a stable leader that skips
//!   phase 1 and a takeover path that re-proposes in-flight slots.
//!
//! The property tests drive these state machines through a lossy,
//! reordering network and assert the two safety properties the paper
//! leans on: **agreement** (no two learners decide differently) and
//! **validity** (only proposed values are chosen), plus durability of
//! acceptor state across crashes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod multi;
pub mod single;

pub use multi::{Effect, Leader, MultiMsg, Replica, Slot};
pub use single::{Acceptor, Action, Msg, ProposalN, Proposer};

#[cfg(test)]
mod chaos {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// In-flight message in the lossy network.
    struct Packet {
        from: u32,
        to: u32,
        msg: Msg<u64>,
    }

    const N: usize = 5;
    const PROPOSERS: usize = 3;

    /// Run one full chaotic consensus episode; returns the value each
    /// proposer believes was chosen (if any) and the final acceptors.
    ///
    /// Proposer `i` talks to acceptors over the wire; replies are routed
    /// back by the packet's `to` field. Proposer ids and acceptor ids are
    /// separate spaces: packets to acceptors carry `to < N`, replies to
    /// proposers carry `to < PROPOSERS`.
    fn run_chaos(
        seed: u64,
        drop_p: f64,
        crash_one: bool,
    ) -> (Vec<Option<u64>>, Vec<Acceptor<u64>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut acceptors: Vec<Acceptor<u64>> = (0..N).map(|_| Acceptor::new()).collect();
        let mut proposers: Vec<Proposer<u64>> =
            (0..PROPOSERS).map(|i| Proposer::new(i as u32, N, 1000 + i as u64)).collect();
        let mut wire: Vec<Packet> = Vec::new();
        let crash_victim = if crash_one { Some(rng.gen_range(0..N)) } else { None };

        fn broadcast(wire: &mut Vec<Packet>, from: u32, msg: &Msg<u64>) {
            for to in 0..N as u32 {
                wire.push(Packet { from, to, msg: msg.clone() });
            }
        }

        for (i, p) in proposers.iter_mut().enumerate() {
            if let Action::Broadcast(m) = p.start() {
                broadcast(&mut wire, i as u32, &m);
            }
        }

        for step in 0..20_000 {
            if wire.is_empty() {
                // Quiescent: restart any nacked proposer so progress resumes.
                let mut restarted = false;
                for (i, p) in proposers.iter_mut().enumerate() {
                    if p.chosen().is_none() && p.needs_restart() {
                        if let Action::Broadcast(m) = p.start() {
                            broadcast(&mut wire, i as u32, &m);
                            restarted = true;
                        }
                    }
                }
                if !restarted {
                    break;
                }
            }
            // Random delivery order = arbitrary reordering.
            let idx = rng.gen_range(0..wire.len());
            let pkt = wire.swap_remove(idx);
            if rng.gen_bool(drop_p) {
                continue; // lost
            }
            // Occasionally crash-restart an acceptor from durable state.
            if let Some(victim) = crash_victim {
                if step == 500 {
                    let (promised, accepted) = acceptors[victim].durable_state();
                    acceptors[victim] = Acceptor::restore(promised, accepted);
                }
            }
            let to = pkt.to as usize;
            match pkt.msg.clone() {
                Msg::Prepare { n } => {
                    let reply = acceptors[to].on_prepare(n);
                    wire.push(Packet { from: pkt.to, to: pkt.from, msg: reply });
                }
                Msg::Accept { n, value } => {
                    if let Some(ok) = acceptors[to].on_accept(n, value) {
                        wire.push(Packet { from: pkt.to, to: pkt.from, msg: ok });
                    }
                }
                reply => {
                    // A reply destined for a proposer.
                    if to < proposers.len() {
                        if let Some(Action::Broadcast(m)) = proposers[to].on_msg(pkt.from, reply) {
                            broadcast(&mut wire, pkt.to, &m);
                        }
                    }
                }
            }
        }
        (proposers.iter().map(|p| p.chosen().copied()).collect(), acceptors)
    }

    fn assert_safety(chosen: &[Option<u64>]) {
        let decided: Vec<u64> = chosen.iter().flatten().copied().collect();
        if let Some(first) = decided.first() {
            assert!(decided.iter().all(|v| v == first), "agreement violated: {decided:?}");
            assert!(
                (1000..1000 + PROPOSERS as u64).contains(first),
                "validity violated: {first} was never proposed"
            );
        }
    }

    #[test]
    fn agreement_under_loss_and_reorder() {
        let mut decided_runs = 0;
        for seed in 0..60 {
            let (chosen, _) = run_chaos(seed, 0.10, false);
            assert_safety(&chosen);
            if chosen.iter().any(Option::is_some) {
                decided_runs += 1;
            }
        }
        assert!(decided_runs > 40, "liveness too poor: {decided_runs}/60 runs decided");
    }

    #[test]
    fn agreement_under_heavy_loss() {
        for seed in 100..130 {
            let (chosen, _) = run_chaos(seed, 0.35, false);
            assert_safety(&chosen);
        }
    }

    #[test]
    fn agreement_with_acceptor_crash_restart() {
        for seed in 200..240 {
            let (chosen, _) = run_chaos(seed, 0.15, true);
            assert_safety(&chosen);
        }
    }

    #[test]
    fn chosen_value_survives_in_majority_of_acceptors() {
        // Once decided, Paxos guarantees the value is retrievable from any
        // majority: at least ⌈N/2⌉ acceptors hold it.
        for seed in 300..340 {
            let (chosen, acceptors) = run_chaos(seed, 0.05, false);
            let Some(v) = chosen.iter().flatten().next() else { continue };
            let holders = acceptors
                .iter()
                .filter(|a| matches!(a.durable_state().1, Some((_, av)) if av == *v))
                .count();
            assert!(holders >= 3, "chosen value on only {holders}/5 acceptors");
        }
    }
}
