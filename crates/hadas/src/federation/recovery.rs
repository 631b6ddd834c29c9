//! Crash and recovery: fail-stop crashes, restarts that bootstrap a site
//! from its depot, checkpoints, and the settling of migrations parked
//! in-doubt.

use mrom_value::{NodeId, ObjectId};

use super::engine::read_reply;
use super::Federation;
use crate::error::HadasError;
use crate::protocol::ProtocolMsg;

impl Federation {
    /// Simulates a fail-stop crash of a site: the network drops all of
    /// its traffic, every hosted identity (a poisoned one included)
    /// vanishes from its runtime, and the volatile reply cache is wiped.
    /// The depot — the site's
    /// self-contained persistent store (paper §9) — survives and is what
    /// [`Federation::restart_site`] bootstraps from.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`] / network errors.
    pub fn crash_site(&mut self, node: NodeId) -> Result<(), HadasError> {
        self.site(node)?;
        self.net.crash_node(node)?;
        let site = self.sites.get_mut(&node).expect("checked above");
        site.runtime.clear_objects();
        site.replies.clear();
        mrom_obs::site_crash(node);
        Ok(())
    }

    /// Restarts a crashed site: reconnects it to the network and
    /// bootstraps every object in its depot back into the runtime — the
    /// paper's "objects write themselves to and bootstrap themselves
    /// back from persistent store" recovery model. Corrupt depot entries
    /// are quarantined rather than aborting the restart, and a lost IOO
    /// image degrades to a fresh (empty) IOO so the site stays operable.
    /// Returns `(restored, quarantined)` counts.
    ///
    /// Objects parked in-doubt by a failed migration are deliberately
    /// *not* re-adopted — their ownership is unknown until
    /// [`Federation::resolve_in_doubt`] settles it.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`] / network errors.
    pub fn restart_site(&mut self, node: NodeId) -> Result<(u64, u64), HadasError> {
        self.site(node)?;
        self.net.restart_node(node)?;
        let now = self.net.now().as_millis();
        let site = self.sites.get_mut(&node).expect("checked above");
        let (objects, failures) = site.depot.restore_all();
        let quarantined = failures.len() as u64;
        let mut restored = 0u64;
        for obj in objects {
            let id = obj.id();
            if site.in_doubt.contains_key(&id) || site.runtime.object(id).is_some() {
                continue;
            }
            if site.runtime.adopt(obj).is_ok() {
                restored += 1;
            }
        }
        if site.runtime.object(site.ioo).is_none() {
            let ioo_obj = crate::ioo::build_ioo_as(site.runtime.ids_mut().next_id(), node);
            let ioo = ioo_obj.id();
            let _ = site.depot.save(&ioo_obj);
            site.runtime.adopt(ioo_obj).map_err(HadasError::Model)?;
            site.ioo = ioo;
        }
        site.runtime.set_now(now);
        mrom_obs::site_restart(node, restored, quarantined);
        Ok((restored, quarantined))
    }

    /// Checkpoints every live *mobile* object at a site into its depot,
    /// refreshing any stale write-ahead images. Objects with native
    /// bodies cannot serialise and are skipped. Returns the number
    /// saved.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`]; [`HadasError::Persist`] on backend
    /// failures.
    pub fn checkpoint_site(&mut self, node: NodeId) -> Result<usize, HadasError> {
        let site = self.site_mut(node)?;
        let ids = site.runtime.object_ids();
        let objects = ids.iter().filter_map(|id| site.runtime.object(*id));
        let (saved, _pinned) = site
            .depot
            .checkpoint(objects)
            .map_err(|e| HadasError::Persist(e.to_string()))?;
        Ok(saved)
    }

    /// Is the site currently crashed?
    pub fn is_down(&self, node: NodeId) -> bool {
        self.net.is_down(node)
    }

    /// Settles every in-doubt migration parked at `node` by asking each
    /// intended destination whether the object landed: if it did, the
    /// local depot image is dropped (the destination owns it); if not,
    /// the object is bootstrapped back from the depot (we own it). A
    /// destination that is still unreachable leaves its entry parked for
    /// a later call. Returns the number of migrations resolved.
    ///
    /// # Errors
    ///
    /// Lookup errors, [`HadasError::Persist`] when a parked image cannot
    /// be restored, [`HadasError::Remote`] when the destination answers
    /// with an error, other protocol errors.
    pub fn resolve_in_doubt(&mut self, node: NodeId) -> Result<usize, HadasError> {
        let parked = self.in_doubt(node)?;
        let mut resolved = 0;
        for (object, dest) in parked {
            let query = ProtocolMsg::QueryObject {
                req_id: self.fresh_req_id(),
                object,
            };
            let reply = match self.request(node, &[(dest, query)], self.retry.max_attempts()) {
                Ok(mut replies) => replies.remove(0),
                Err(HadasError::Timeout { .. }) => continue,
                Err(e) => return Err(e),
            };
            let hosted = read_reply(reply, "query", |reply| match reply {
                ProtocolMsg::QueryAck { hosted, .. } => Some(hosted),
                _ => None,
            })?;
            let site = self.site_mut(node)?;
            if hosted {
                let _ = site.depot.remove(object);
            } else {
                let obj = site
                    .depot
                    .restore(object)
                    .map_err(|e| HadasError::Persist(e.to_string()))?;
                site.runtime.adopt(obj).map_err(HadasError::Model)?;
            }
            site.in_doubt.remove(&object);
            resolved += 1;
        }
        Ok(resolved)
    }

    /// The migrations parked in-doubt at a site, as `(object, intended
    /// destination)` pairs.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn in_doubt(&self, node: NodeId) -> Result<Vec<(ObjectId, NodeId)>, HadasError> {
        Ok(self
            .site(node)?
            .in_doubt
            .iter()
            .map(|(object, dest)| (*object, *dest))
            .collect())
    }

    /// Settles every in-doubt migration at every site, retrying a few
    /// passes in case the first query races residual traffic. Entries
    /// whose destination stays unreachable remain parked.
    ///
    /// # Errors
    ///
    /// As [`Federation::resolve_in_doubt`].
    pub fn settle_in_doubt(&mut self) -> Result<(), HadasError> {
        for _ in 0..3 {
            let mut parked = 0;
            for node in self.site_nodes() {
                parked += self.site(node)?.in_doubt.len();
                self.resolve_in_doubt(node)?;
            }
            if parked == 0 {
                return Ok(());
            }
        }
        Ok(())
    }

    /// In-doubt migrations parked across the whole federation.
    pub fn in_doubt_total(&self) -> usize {
        self.sites.values().map(|site| site.in_doubt.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{
        arrived_object, bump, counter_object, hosts, n_after_restart, parked, two_site_federation,
    };
    use mrom_core::{ClassSpec, Method, MethodBody};
    use mrom_net::{LinkConfig, NetworkConfig};
    use mrom_value::Value;

    #[test]
    fn lost_acks_park_the_move_in_doubt_and_resolution_finds_it_landed() {
        let cfg = NetworkConfig::new(9).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b) = (NodeId(1), NodeId(2));
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.set_retry_policy(crate::RetryPolicy::standard());
        // Forward path intact, every acknowledgement lost.
        fed.net_config_mut()
            .set_link(b, a, LinkConfig::lan().loss_probability(1.0));
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        assert!(matches!(err, HadasError::Timeout { attempts: 5, .. }));
        // The move actually landed; the origin parked it instead of
        // re-adopting a duplicate.
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, b)]);
        // After the heal, resolution discovers the destination owns it.
        fed.net_config_mut().set_link(b, a, LinkConfig::lan());
        assert_eq!(fed.resolve_in_doubt(a).unwrap(), 1);
        assert!(fed.in_doubt(a).unwrap().is_empty());
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn partitioned_dispatch_parks_in_doubt_and_resolution_restores_it() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.set_retry_policy(crate::RetryPolicy::standard());
        fed.net_config_mut().partition(a, b);
        assert!(fed.dispatch_object(a, b, id).is_err());
        // Nobody hosts it, but the depot still does.
        assert!(fed.runtime(a).unwrap().object(id).is_none());
        assert!(fed.runtime(b).unwrap().object(id).is_none());
        assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, b)]);
        fed.net_config_mut().heal(a, b);
        assert_eq!(fed.resolve_in_doubt(a).unwrap(), 1);
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        // The resumed move completes normally.
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn crash_and_restart_bootstrap_objects_from_the_depot() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.dispatch_object(a, b, id).unwrap();
        fed.crash_site(b).unwrap();
        assert!(fed.is_down(b));
        assert!(fed.runtime(b).unwrap().object(id).is_none());
        // Traffic to the crashed site fails cleanly.
        let caller = fed.ioo_id(a).unwrap();
        assert!(matches!(
            fed.remote_invoke(a, b, caller, id, "bump", &[]),
            Err(HadasError::Timeout { .. })
        ));
        let (restored, quarantined) = fed.restart_site(b).unwrap();
        assert!(!fed.is_down(b));
        assert_eq!(quarantined, 0);
        assert!(restored >= 1, "the migrated object came back");
        assert!(fed.runtime(b).unwrap().object(id).is_some());
        // And it serves again.
        let out = fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        assert_eq!(out, Value::Int(1));
    }

    #[test]
    fn checkpoint_preserves_state_across_a_crash() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        fed.dispatch_object(a, b, id).unwrap();
        let caller = fed.ioo_id(a).unwrap();
        fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        fed.remote_invoke(a, b, caller, id, "bump", &[]).unwrap();
        // Without a checkpoint the depot still holds the arrival image;
        // checkpointing refreshes it to n = 2.
        assert!(fed.checkpoint_site(b).unwrap() >= 1);
        fed.crash_site(b).unwrap();
        fed.restart_site(b).unwrap();
        let n = fed
            .runtime(b)
            .unwrap()
            .object(id)
            .unwrap()
            .read_data(ObjectId::SYSTEM, "n")
            .unwrap();
        assert_eq!(n, Value::Int(2), "checkpointed state survived the crash");
    }

    #[test]
    fn a_crash_drops_an_identity_poisoned_by_a_panicking_body() {
        let (mut fed, a, _b) = two_site_federation();
        let counter = counter_object(&mut fed, a);
        let bomb = ClassSpec::new("bomb")
            .fixed_method(
                "boom",
                Method::public(MethodBody::native(|_env, _args| {
                    panic!("deliberate test panic")
                })),
            )
            .instantiate_as(fed.runtime_mut(a).unwrap().ids_mut().next_id(), None);
        let id = bomb.id();
        fed.runtime_mut(a).unwrap().adopt(bomb).unwrap();
        fed.checkpoint_site(a).unwrap();
        assert!(fed
            .runtime_mut(a)
            .unwrap()
            .invoke_as_system(id, "boom", &[])
            .is_err());
        assert!(
            fed.runtime(a).unwrap().object_ids().contains(&id),
            "the poisoned identity is still hosted before the crash"
        );
        fed.crash_site(a).unwrap();
        assert_eq!(fed.runtime(a).unwrap().object_count(), 0);
        let (restored, quarantined) = fed.restart_site(a).unwrap();
        assert_eq!(quarantined, 0);
        let rt = fed.runtime(a).unwrap();
        assert!(
            !rt.object_ids().contains(&id),
            "a crash leaves no poisoned slot behind"
        );
        assert_eq!(
            rt.object_count() as u64,
            restored,
            "only the depot's objects"
        );
        assert!(rt.object(counter).is_some());
    }

    #[test]
    fn a_stray_reply_to_a_move_in_flight_leaves_one_host() {
        let (mut fed, [a, _, c], id) = arrived_object();
        bump(&mut fed, a, id);
        bump(&mut fed, a, id);
        // A reply carrying the move's request id overtakes the real one;
        // the move itself is still in flight and lands at c.
        let stray = ProtocolMsg::InvokeResp {
            req_id: fed.next_req + 1,
            result: Value::Null,
        };
        fed.inject_raw(c, a, stray.encode()).unwrap();
        assert!(fed.retry_policy().is_off());
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(matches!(err, HadasError::BadMessage(_)), "{err}");
        fed.pump_all();
        fed.settle_in_doubt().unwrap();
        assert_eq!(hosts(&fed, id), vec![c]);
        assert_eq!(fed.in_doubt_total(), 0);
        assert_eq!(parked(&fed, a, id), None, "resolution dropped a's image");
    }

    #[test]
    fn a_lost_move_ack_with_retries_off_leaves_one_host() {
        let (mut fed, [a, _, c], id) = arrived_object();
        bump(&mut fed, a, id);
        bump(&mut fed, a, id);
        assert!(fed.retry_policy().is_off());
        // The move lands at c; its acknowledgement is lost.
        fed.net_config_mut()
            .set_link(c, a, LinkConfig::lan().loss_probability(1.0));
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(
            matches!(err, HadasError::Timeout { attempts: 1, .. }),
            "{err}"
        );
        assert_eq!(hosts(&fed, id), vec![c], "not re-adopted at a");
        fed.net_config_mut().set_link(c, a, LinkConfig::lan());
        fed.settle_in_doubt().unwrap();
        assert_eq!(hosts(&fed, id), vec![c]);
        assert_eq!(fed.in_doubt_total(), 0);
    }

    #[test]
    fn an_in_doubt_move_parks_exactly_the_image_that_was_sent() {
        let (mut fed, [a, _, c], id) = arrived_object();
        // Two bumps: the arrival image goes stale, and the hook (1 / 1)
        // still lets the object land at c.
        bump(&mut fed, a, id);
        let sent = bump(&mut fed, a, id);
        fed.set_retry_policy(crate::RetryPolicy::standard());
        // The move lands at c but every acknowledgement is lost.
        fed.net_config_mut()
            .set_link(c, a, LinkConfig::lan().loss_probability(1.0));
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(matches!(err, HadasError::Timeout { .. }), "{err}");
        assert_eq!(fed.in_doubt(a).unwrap(), vec![(id, c)]);
        // c stored the bytes it received; a parked the same bytes.
        let received = parked(&fed, c, id).expect("the move landed at c");
        assert_eq!(received, sent);
        assert_eq!(parked(&fed, a, id), Some(received));
        // A restart of a skips the parked object; resolution drops it.
        assert_eq!(n_after_restart(&mut fed, a, id), None);
        fed.net_config_mut().set_link(c, a, LinkConfig::lan());
        assert_eq!(fed.resolve_in_doubt(a).unwrap(), 1);
        assert_eq!(parked(&fed, a, id), None);
    }
}
