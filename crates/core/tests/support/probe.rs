//! A client that hands one request to the node it names, whatever that
//! node's role, and keeps what the node answers: for simulated-cluster
//! tests that must ask one particular replica, where a session would
//! route by role. Shared by path (`#[path = "support/probe.rs"] mod
//! probe;`) between the crate's integration tests.

use std::cell::RefCell;
use std::rc::Rc;

use spinnaker_core::client::ClientEv;
use spinnaker_core::cluster::{Ev, SimCluster};
use spinnaker_core::messages::{ClientReply, ClientRequest, NodeInput};
use spinnaker_sim::{Actor, Ctx, ProcId, Time};

struct Probe {
    node: ProcId,
    req: ClientRequest,
    replies: Rc<RefCell<Vec<ClientReply>>>,
}

impl Actor<Ev> for Probe {
    fn on_event(&mut self, _now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
        match ev {
            Ev::Client(ClientEv::Start) => {
                let input = NodeInput::Client { from: ctx.self_id(), req: self.req.clone() };
                ctx.schedule(0, self.node, Ev::Input(input));
            }
            Ev::Client(ClientEv::Reply(reply)) => self.replies.borrow_mut().push(reply),
            _ => {}
        }
    }
}

/// Send `req` to node `node` at `at`; the node's replies land in the
/// returned list.
pub fn ask(
    cluster: &mut SimCluster,
    at: Time,
    node: ProcId,
    req: ClientRequest,
) -> Rc<RefCell<Vec<ClientReply>>> {
    let replies = Rc::new(RefCell::new(Vec::new()));
    let proc = cluster.sim.add_actor(Box::new(Probe { node, req, replies: replies.clone() }));
    cluster.sim.schedule(at, proc, Ev::Client(ClientEv::Start));
    replies
}
