//! The protocol engine: the one path every request is sent through, the
//! one path every request is served through, the receivers' reply cache,
//! and the pump that drives the simulated network. No other federation
//! file sends on the network or takes a delivery from it, so a second
//! transport is a change to this file alone.

use mrom_net::Delivery;
use mrom_value::NodeId;

use super::Federation;
use crate::error::HadasError;
use crate::protocol::ProtocolMsg;

/// Deliveries processed while waiting for one request's replies before
/// the request is abandoned as a protocol storm.
const MAX_PUMP: usize = 100_000;

/// Entries kept in a site's reply cache before the oldest are evicted.
/// Request ids are globally monotonic, so evicting the smallest ids drops
/// the replies least likely to be retried.
const REPLY_CACHE_CAP: usize = 1024;

/// The one reply reader. A remote `Error` becomes [`HadasError::Remote`];
/// a reply that `ack` does not accept becomes [`HadasError::BadMessage`]
/// naming its kind, never its contents (a stray `ExportAck` can carry a
/// whole image).
pub(super) fn read_reply<T>(
    reply: ProtocolMsg,
    operation: &str,
    ack: impl FnOnce(ProtocolMsg) -> Option<T>,
) -> Result<T, HadasError> {
    let kind = reply.kind();
    match reply {
        ProtocolMsg::Error { reason, .. } => Err(HadasError::Remote(reason)),
        reply => ack(reply).ok_or_else(|| {
            HadasError::BadMessage(format!("unexpected reply to {operation}: {kind}"))
        }),
    }
}

impl Federation {
    pub(super) fn fresh_req_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Puts one encoded message on the wire, recording its kind and size.
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: Vec<u8>,
    ) -> Result<(), HadasError> {
        mrom_obs::fed_send(from, to, kind, bytes.len());
        self.net.send(from, to, bytes)?;
        Ok(())
    }

    /// Has the reply to `msg` arrived?
    fn answered(&self, msg: &ProtocolMsg) -> bool {
        self.awaited.get(&msg.req_id()).is_some_and(Option::is_some)
    }

    /// The one request path. Posts each `(destination, request)` from
    /// `from`, all before the first pump, then pumps deliveries until
    /// every reply is in. When the network goes quiet first, the requests
    /// still unanswered are posted again after the [`RetryPolicy`]
    /// backoff, up to `max_attempts` posts in all. Every post of a
    /// request reuses its id, so the receiver's reply cache makes a
    /// re-post idempotent. Returns the replies in request order, unread:
    /// [`read_reply`] reads each one.
    ///
    /// # Errors
    ///
    /// A transport error from a post; [`HadasError::Timeout`], naming the
    /// first request's kind, when a reply is still missing after the last
    /// attempt or the pump bound trips.
    ///
    /// [`RetryPolicy`]: crate::RetryPolicy
    pub(super) fn request(
        &mut self,
        from: NodeId,
        requests: &[(NodeId, ProtocolMsg)],
        max_attempts: u32,
    ) -> Result<Vec<ProtocolMsg>, HadasError> {
        for (_, msg) in requests {
            self.awaited.insert(msg.req_id(), None);
        }
        let started = self.net.now();
        let kind = requests.first().map_or("nothing", |(_, msg)| msg.kind());
        let timeout = |fed: &Federation, attempts, note| HadasError::Timeout {
            operation: format!("request {kind}{note}"),
            attempts,
            elapsed: fed.net.now().saturating_sub(started),
        };
        let all_answered = |fed: &Federation| requests.iter().all(|(_, msg)| fed.answered(msg));
        let mut attempt = 1u32;
        let outcome = 'exchange: loop {
            for (to, msg) in requests {
                if !self.answered(msg) {
                    if let Err(e) = self.send(from, *to, msg.kind(), msg.encode()) {
                        break 'exchange Err(e);
                    }
                }
            }
            let mut steps = 0;
            while !all_answered(self) {
                let Some(delivery) = self.net.step() else {
                    break;
                };
                self.handle(delivery);
                steps += 1;
                if steps > MAX_PUMP {
                    break 'exchange Err(timeout(self, attempt, " (pump bound exceeded)"));
                }
            }
            if all_answered(self) {
                break Ok(());
            }
            if attempt >= max_attempts {
                break Err(timeout(self, attempt, ""));
            }
            attempt += 1;
            for (_, msg) in requests.iter().filter(|(_, msg)| !self.answered(msg)) {
                mrom_obs::fed_retry(from, msg.kind(), attempt);
            }
            // Wait out the backoff in virtual time; anything that arrives
            // meanwhile (a slow reply racing the retry) is handled before
            // the re-post.
            let delay = self.retry.backoff_delay(attempt, &mut self.retry_rng);
            for delivery in self.net.run_until(self.net.now() + delay) {
                self.handle(delivery);
            }
            if all_answered(self) {
                break Ok(());
            }
        };
        let replies: Option<Vec<ProtocolMsg>> = requests
            .iter()
            .map(|(_, msg)| self.awaited.remove(&msg.req_id()).flatten())
            .collect();
        outcome.map(|()| replies.expect("every awaited reply is in"))
    }

    /// Drains every in-flight message (fire-and-forget flows, tests).
    pub fn pump_all(&mut self) {
        while let Some(delivery) = self.net.step() {
            self.handle(delivery);
        }
    }

    /// Fault injection: puts raw bytes on the wire between two sites, as a
    /// hostile or broken peer would. Undecodable traffic must be dropped
    /// by the protocol engine without disturbing real operations.
    ///
    /// # Errors
    ///
    /// Network errors for unknown endpoints.
    pub fn inject_raw(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: Vec<u8>,
    ) -> Result<(), HadasError> {
        self.net.send(from, to, bytes)?;
        Ok(())
    }

    /// Handles one delivery: requests are served and answered, replies
    /// complete the request in progress. Undecodable traffic is dropped
    /// (a hostile peer cannot wedge the engine).
    fn handle(&mut self, delivery: Delivery) {
        let Ok(msg) = ProtocolMsg::decode(&delivery.payload) else {
            return;
        };
        let (at, peer, req_id) = (delivery.dst, delivery.src, msg.req_id());
        mrom_obs::fed_recv(peer, at, msg.kind());
        // Keep every site's virtual clock in step with the network.
        if let Some(site) = self.sites.get_mut(&at) {
            site.runtime.set_now(delivery.at.as_millis());
        }
        if !Self::is_request(&msg) {
            // Only a reply someone still awaits is kept; a duplicate of
            // one already consumed is dropped here.
            if let Some(slot) = self.awaited.get_mut(&req_id) {
                *slot = Some(msg);
            }
            return;
        }
        // Receiver-side dedup: a request whose id was already served —
        // a network duplicate or a sender retry racing a slow reply — is
        // answered with the cached reply, never re-executed. This
        // is what makes a retried `dispatch_object` unable to
        // double-adopt and a retried invoke of a non-idempotent method
        // exactly-once.
        let cached = self
            .sites
            .get(&at)
            .and_then(|site| site.replies.get(&req_id))
            .map(|reply| (reply.kind(), reply.encode()));
        if let Some((kind, bytes)) = cached {
            mrom_obs::fed_dedup(at, msg.kind());
            let _ = self.send(at, peer, kind, bytes);
            return;
        }
        // The remote half of an invoke or a move continues the sender's
        // trace, reply included: both halves of the cross-site operation
        // share one causally linked timeline.
        let _scope = match &msg {
            ProtocolMsg::InvokeReq {
                trace, parent_span, ..
            }
            | ProtocolMsg::MoveObject {
                trace, parent_span, ..
            } => Some(mrom_obs::continue_trace(*trace, *parent_span)),
            _ => None,
        };
        let reply = self
            .serve(at, peer, msg)
            .unwrap_or_else(|e| ProtocolMsg::Error {
                req_id,
                reason: e.to_string(),
            });
        self.reply_to(at, peer, reply);
    }

    /// Is this message a request (something that produces a reply)?
    fn is_request(msg: &ProtocolMsg) -> bool {
        matches!(
            msg,
            ProtocolMsg::LinkReq { .. }
                | ProtocolMsg::ImportReq { .. }
                | ProtocolMsg::InvokeReq { .. }
                | ProtocolMsg::UpdateReq { .. }
                | ProtocolMsg::MoveObject { .. }
                | ProtocolMsg::QueryObject { .. }
        )
    }

    /// The one serve path: runs request `msg`, which arrived at `at` from
    /// `peer`, and returns its reply. A failure becomes the `Error` reply
    /// in [`Federation::handle`].
    fn serve(
        &mut self,
        at: NodeId,
        peer: NodeId,
        msg: ProtocolMsg,
    ) -> Result<ProtocolMsg, HadasError> {
        Ok(match msg {
            ProtocolMsg::LinkReq { req_id, from, .. } => self.serve_link(at, from, req_id)?,
            ProtocolMsg::ImportReq {
                req_id,
                from,
                apo_name,
                ..
            } => self.serve_import(at, from, &apo_name, req_id)?,
            ProtocolMsg::InvokeReq {
                req_id,
                caller,
                target,
                method,
                args,
                ..
            } => ProtocolMsg::InvokeResp {
                req_id,
                result: self
                    .site_mut(at)?
                    .runtime
                    .invoke(caller, target, &method, &args)?,
            },
            ProtocolMsg::UpdateReq {
                req_id,
                origin,
                target,
                ops,
            } => ProtocolMsg::UpdateAck {
                req_id,
                applied: self.serve_update(at, origin, target, &ops)?,
            },
            ProtocolMsg::MoveObject { req_id, image, .. } => ProtocolMsg::MoveAck {
                req_id,
                adopted: self.serve_move(at, peer, image)?,
            },
            ProtocolMsg::QueryObject { req_id, object } => ProtocolMsg::QueryAck {
                req_id,
                hosted: self
                    .sites
                    .get(&at)
                    .is_some_and(|site| site.runtime.object(object).is_some()),
            },
            reply => unreachable!("{} is a reply, not a request", reply.kind()),
        })
    }

    /// Sends `reply` and keeps it in the replying site's dedup cache, so
    /// a retransmitted request is answered again without re-execution.
    fn reply_to(&mut self, at: NodeId, to: NodeId, reply: ProtocolMsg) {
        let (kind, bytes) = (reply.kind(), reply.encode());
        if let Some(site) = self.sites.get_mut(&at) {
            site.replies.insert(reply.req_id(), reply);
            if site.replies.len() > REPLY_CACHE_CAP {
                site.replies.pop_first();
            }
        }
        let _ = self.send(at, to, kind, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{counter_object, integrate_db, two_site_federation};
    use crate::protocol::UpdateOp;
    use mrom_net::{LinkConfig, NetworkConfig, SimTime};
    use mrom_value::{ObjectId, Value};

    #[test]
    fn virtual_time_advances_with_traffic() {
        let (mut fed, a, b) = two_site_federation();
        assert_eq!(fed.now(), SimTime::ZERO);
        fed.link(a, b).unwrap();
        assert!(fed.now() > SimTime::ZERO);
    }

    #[test]
    fn retry_recovers_operations_loss_would_fail() {
        // Same seed, same lossy link; the only variable is the policy.
        let run = |policy: crate::RetryPolicy| {
            let cfg = NetworkConfig::new(2).with_default_link(LinkConfig::lan());
            let mut fed = Federation::new(cfg);
            let (a, b) = (NodeId(1), NodeId(2));
            fed.add_site(a).unwrap();
            fed.add_site(b).unwrap();
            fed.link(a, b).unwrap();
            let id = counter_object(&mut fed, b);
            fed.set_retry_policy(policy);
            fed.net_config_mut()
                .set_symmetric_link(a, b, LinkConfig::lan().loss_probability(0.35));
            let caller = fed.ioo_id(a).unwrap();
            let mut ok = 0;
            for _ in 0..6 {
                if fed.remote_invoke(a, b, caller, id, "bump", &[]).is_ok() {
                    ok += 1;
                }
            }
            let n = fed
                .runtime(b)
                .unwrap()
                .object(id)
                .unwrap()
                .read_data(ObjectId::SYSTEM, "n")
                .unwrap()
                .as_int()
                .unwrap();
            (ok, n, fed.net_stats().messages_dropped)
        };
        let (ok_off, n_off, dropped_off) = run(crate::RetryPolicy::Off);
        let (ok_retry, n_retry, dropped_retry) = run(crate::RetryPolicy::standard());
        assert!(
            dropped_off > 0 && dropped_retry > 0,
            "the loss actually bit"
        );
        assert_eq!(ok_off, 2, "without retries most calls fail on this seed");
        assert_eq!(ok_retry, 6, "retries recover every call");
        // Exactly-once under retries: every acknowledged call applied
        // exactly once, no retransmission applied twice.
        assert_eq!(n_retry, 6);
        assert!(n_off >= i64::from(ok_off));
    }

    #[test]
    fn duplicated_delivery_cannot_double_adopt_or_double_apply() {
        let cfg = NetworkConfig::new(5).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b) = (NodeId(1), NodeId(2));
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.net_config_mut()
            .set_symmetric_link(a, b, LinkConfig::lan().duplicate_probability(1.0));
        mrom_obs::reset();
        mrom_obs::set_mode(mrom_obs::ObsMode::Ring);
        // Every MoveObject arrives twice; the second must hit the reply
        // cache, not adopt a second copy.
        fed.dispatch_object(a, b, id).unwrap();
        fed.pump_all();
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        // Every InvokeReq arrives twice; bump must apply exactly once.
        let caller = fed.ioo_id(a).unwrap();
        let first = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        let second = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        assert_eq!(first, Value::Int(1));
        assert_eq!(second, Value::Int(2));
        fed.pump_all();
        mrom_obs::set_mode(mrom_obs::ObsMode::Disabled);
        let events = mrom_obs::ring_snapshot();
        mrom_obs::reset();
        assert!(fed.net_stats().messages_duplicated > 0);
        assert!(fed.net_stats().accounts_for_every_send(fed.in_flight()));
        // Each duplicate is answered from the reply cache with exactly the
        // bytes of the reply first sent for its request.
        let dedups: Vec<_> = events
            .iter()
            .filter_map(|te| match te.kind {
                mrom_obs::EventKind::FedDedup { node, kind } => Some((node, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            dedups,
            vec![(b, "move_object"), (b, "invoke_req"), (b, "invoke_req")]
        );
        let replies: Vec<_> = events
            .iter()
            .filter_map(|te| match te.kind {
                mrom_obs::EventKind::FedSend {
                    src, kind, bytes, ..
                } if src == b => Some((kind, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), 6, "{replies:?}");
        assert!(
            replies.chunks(2).all(|pair| pair[0] == pair[1]),
            "{replies:?}"
        );
    }

    type Operation = Box<dyn FnOnce(&mut Federation) -> Result<(), HadasError>>;

    /// Sets up a fresh federation for one synchronous operation: returns
    /// it with the site awaiting the reply, the site that answers, and
    /// the operation.
    type Setup = fn() -> (Federation, NodeId, NodeId, Operation);

    /// `(operation name in the error, setup)` for every synchronous
    /// operation that reads a reply.
    fn reply_reading_operations() -> Vec<(&'static str, Setup)> {
        vec![
            ("link", || {
                let (fed, a, b) = two_site_federation();
                (fed, a, b, Box::new(move |fed| fed.link(a, b)))
            }),
            ("import", || {
                let (mut fed, a, b) = two_site_federation();
                integrate_db(&mut fed, b, &["count"]);
                fed.link(a, b).unwrap();
                let op = move |fed: &mut Federation| fed.import_apo(a, b, "db").map(drop);
                (fed, a, b, Box::new(op))
            }),
            ("invoke", || {
                let (mut fed, a, b) = two_site_federation();
                let id = counter_object(&mut fed, b);
                let caller = fed.ioo_id(a).unwrap();
                let op = move |fed: &mut Federation| {
                    fed.remote_invoke(a, b, caller, id, "bump", &[]).map(drop)
                };
                (fed, a, b, Box::new(op))
            }),
            ("update", || {
                let (mut fed, a, b) = two_site_federation();
                integrate_db(&mut fed, b, &["count"]);
                fed.link(a, b).unwrap();
                fed.import_apo(a, b, "db").unwrap();
                let op = move |fed: &mut Federation| {
                    let ops = [UpdateOp::SetData("rows".into(), Value::Int(4))];
                    fed.push_update(b, "db", &ops).map(drop)
                };
                (fed, b, a, Box::new(op))
            }),
            ("import negotiation", || {
                let (mut fed, a, b) = two_site_federation();
                integrate_db(&mut fed, b, &["count"]);
                fed.link(a, b).unwrap();
                fed.import_apo(a, b, "db").unwrap();
                let op = move |fed: &mut Federation| {
                    fed.negotiate_method_import(a, b, "db", "salary_of")
                        .map(drop)
                };
                (fed, b, a, Box::new(op))
            }),
            ("query", || {
                // A stray reply to a move parks it in-doubt at a.
                let (mut fed, a, b) = two_site_federation();
                fed.link(a, b).unwrap();
                let id = counter_object(&mut fed, a);
                let stray = ProtocolMsg::InvokeResp {
                    req_id: fed.next_req + 1,
                    result: Value::Null,
                };
                fed.inject_raw(b, a, stray.encode()).unwrap();
                assert!(fed.dispatch_object(a, b, id).is_err());
                fed.pump_all();
                assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, b)]);
                let op = move |fed: &mut Federation| fed.resolve_in_doubt(a).map(drop);
                (fed, a, b, Box::new(op))
            }),
        ]
    }

    #[test]
    fn wrong_kind_reply_names_its_kind_not_its_bytes() {
        for (operation, setup) in reply_reading_operations() {
            // A peer answers the operation's request id first (FIFO on the
            // answering link delivers it before the real reply) with an
            // image-carrying ack of another operation: 64 KiB of bytes.
            let (mut fed, awaiting, answering, op) = setup();
            let req_id = fed.next_req + 1;
            let ambassador_image = vec![0xAB; 64 * 1024];
            let stray = if operation == "import" {
                ProtocolMsg::LinkAck {
                    req_id,
                    ioo: fed.ioo_id(answering).unwrap(),
                    ambassador_image,
                }
            } else {
                ProtocolMsg::ExportAck {
                    req_id,
                    ambassador_image,
                    origin_apo: fed.ioo_id(answering).unwrap(),
                    remote_methods: vec!["bump".into()],
                }
            };
            let kind = stray.kind();
            fed.inject_raw(answering, awaiting, stray.encode()).unwrap();
            let err = op(&mut fed).unwrap_err();
            let HadasError::BadMessage(message) = &err else {
                panic!("{operation}: expected BadMessage, got {err}");
            };
            assert!(
                message.contains(&format!("unexpected reply to {operation}: {kind}")),
                "{message}"
            );
            assert!(message.len() < 200, "{} bytes", message.len());

            // A stray `Error` on the awaited id is the peer's refusal.
            let (mut fed, awaiting, answering, op) = setup();
            let stray = ProtocolMsg::Error {
                req_id: fed.next_req + 1,
                reason: "refused by a stray".into(),
            };
            fed.inject_raw(answering, awaiting, stray.encode()).unwrap();
            let err = op(&mut fed).unwrap_err();
            assert!(
                matches!(&err, HadasError::Remote(reason) if reason == "refused by a stray"),
                "{operation}: expected Remote, got {err}"
            );
        }
    }
}
