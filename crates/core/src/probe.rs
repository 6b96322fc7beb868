//! A one-shot scripted client used by
//! [`crate::harness::Cluster::submit_and_wait`] (examples, tests, demos)
//! — not for measurement.

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx};
use paxraft_sim::time::SimDuration;

use crate::kv::{CmdId, Reply};
use crate::msg::{ClientMsg, Msg};

/// Polls an outbox and captures the matching response.
#[derive(Debug, Default)]
pub struct ProbeClient {
    /// The command id the probe is waiting on.
    pub waiting: Option<CmdId>,
    /// The captured reply.
    pub reply: Option<Reply>,
    /// A request to send on the next poll tick.
    pub outbox: Option<(ActorId, Msg)>,
    /// `group_targets[g]` serves group `g` for this probe, so a
    /// [`Reply::WrongGroup`] redirect can be followed (live rebalancing
    /// moves ranges while probes are in flight).
    pub group_targets: Vec<ActorId>,
    /// Highest partition-map version observed on redirects; an older
    /// redirect is a lagging replica, waited out on the poll tick
    /// instead of followed backwards.
    pub seen_version: u64,
    last_request: Option<(ActorId, Msg)>,
    ticks_since_send: u32,
}

impl Actor<Msg> for ProbeClient {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(SimDuration::from_millis(1), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Response { id, reply }) = msg {
            if self.waiting == Some(id) {
                if let Reply::WrongGroup { group, version } = &reply {
                    if *version >= self.seen_version {
                        // Follow the redirect if we know the named
                        // group's replica.
                        self.seen_version = *version;
                        if let Some(&target) = self.group_targets.get(*group as usize) {
                            if let Some((_, msg)) = &self.last_request {
                                let msg = msg.clone();
                                self.last_request = Some((target, msg.clone()));
                                self.ticks_since_send = 0;
                                ctx.send(target, msg);
                                return;
                            }
                        }
                    } else {
                        // Stale replier: schedule a short re-send from
                        // the poll tick rather than ping-ponging.
                        self.ticks_since_send = RETRY_TICKS.saturating_sub(5);
                        return;
                    }
                }
                self.waiting = None;
                self.reply = Some(reply);
                self.last_request = None;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
        if let Some((to, msg)) = self.outbox.take() {
            self.last_request = Some((to, msg.clone()));
            self.ticks_since_send = 0;
            ctx.send(to, msg);
        } else if self.waiting.is_some() {
            // Retry a lost request every ~5 virtual seconds (sooner when
            // a stale redirect shortened the fuse).
            self.ticks_since_send += 1;
            if self.ticks_since_send >= RETRY_TICKS {
                if let Some((to, msg)) = self.last_request.clone() {
                    self.ticks_since_send = 0;
                    ctx.send(to, msg);
                }
            }
        }
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }

    impl_actor_any!();
}

/// Poll ticks (10 ms each) between retries of an unanswered request.
const RETRY_TICKS: u32 = 500;
