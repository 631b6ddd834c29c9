//! The synchronous protocol operations — Link, Import/Export, remote and
//! ambassador invocation, update push, functionality migration and
//! whole-object moves — each beside the handler that serves it at the
//! receiving site. Every operation sends through the engine's one
//! request path and reads its reply through the one reply reader.

use mrom_core::{AdmissionPolicy, MromError, MromObject};
use mrom_value::{NodeId, ObjectId, Value};

use super::engine::read_reply;
use super::{at_site, ExportPolicy, Federation};
use crate::ambassador::GuestInfo;
use crate::error::HadasError;
use crate::ioo::map_insert;
use crate::protocol::{ProtocolMsg, UpdateOp};

impl Federation {
    /// Establishes a Link agreement: installs an Ambassador of `to`'s IOO
    /// in `from`'s Vicinity. "This operation is a prerequisite for any
    /// further cooperation between the two IOOs."
    ///
    /// # Errors
    ///
    /// Site errors, [`HadasError::Timeout`] under partition/loss, remote
    /// refusals.
    pub fn link(&mut self, from: NodeId, to: NodeId) -> Result<(), HadasError> {
        let from_ioo = self.ioo_id(from)?;
        self.site(to)?; // fail fast on unknown peer
        let request = ProtocolMsg::LinkReq {
            req_id: self.fresh_req_id(),
            from,
            from_ioo,
        };
        let mut replies = self.request(from, &[(to, request)], self.retry.max_attempts())?;
        let ambassador_image = read_reply(replies.remove(0), "link", |reply| match reply {
            ProtocolMsg::LinkAck {
                ambassador_image, ..
            } => Some(ambassador_image),
            _ => None,
        })?;
        let amb = self.admit_image(from, &ambassador_image)?;
        let amb_id = amb.id();
        let site = self.site_mut(from)?;
        site.runtime.adopt(amb).map_err(HadasError::Model)?;
        site.links.insert(to);
        let ioo = site.ioo;
        if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
            map_insert(
                ioo_obj,
                "vicinity",
                &to.to_string(),
                Value::ObjectRef(amb_id),
            );
        }
        Ok(())
    }

    /// Serves a `LinkReq` from `from`: records the partner and replies
    /// with an IOO Ambassador, a small mobile object representing this
    /// IOO abroad.
    pub(super) fn serve_link(
        &mut self,
        at: NodeId,
        from: NodeId,
        req_id: u64,
    ) -> Result<ProtocolMsg, HadasError> {
        let site = self.site_mut(at)?;
        site.links.insert(from);
        let ioo = site.ioo;
        let amb = mrom_core::ObjectBuilder::new(site.runtime.ids_mut().next_id())
            .class("ioo-ambassador")
            .origin(ioo)
            .fixed_data(
                "represents_site",
                mrom_core::DataItem::public(Value::Int(at.0 as i64)),
            )
            .fixed_data(
                "represents_ioo",
                mrom_core::DataItem::public(Value::ObjectRef(ioo)),
            )
            .fixed_method(
                "site_info",
                mrom_core::Method::public(
                    mrom_core::MethodBody::script(
                        "return {\"site\": self.get(\"represents_site\"), \"ioo\": self.get(\"represents_ioo\")};",
                    )
                    .expect("site_info parses"),
                ),
            )
            .build();
        Ok(ProtocolMsg::LinkAck {
            req_id,
            ioo,
            ambassador_image: amb.image_bytes()?,
        })
    }

    /// Imports an APO from `provider`: the Import/Export handshake. The
    /// Ambassador arrives as data, is unpacked, receives an installation
    /// context, installs itself, and is registered as a guest. Returns its
    /// identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::NotLinked`] without a prior [`Federation::link`];
    /// export denials; transport failures.
    pub fn import_apo(
        &mut self,
        requester: NodeId,
        provider: NodeId,
        apo_name: &str,
    ) -> Result<ObjectId, HadasError> {
        self.require_link(requester, provider)?;
        let from_ioo = self.ioo_id(requester)?;
        let request = ProtocolMsg::ImportReq {
            req_id: self.fresh_req_id(),
            from: requester,
            from_ioo,
            apo_name: apo_name.to_owned(),
        };
        let mut replies =
            self.request(requester, &[(provider, request)], self.retry.max_attempts())?;
        let (ambassador_image, origin_apo, remote_methods) =
            read_reply(replies.remove(0), "import", |reply| match reply {
                ProtocolMsg::ExportAck {
                    ambassador_image,
                    origin_apo,
                    remote_methods,
                    ..
                } => Some((ambassador_image, origin_apo, remote_methods)),
                _ => None,
            })?;
        // "When the Ambassador arrives (as data) the importing IOO
        // unpacks it, passes to it an installation context and invokes
        // the Ambassador, which in turn installs itself."
        let amb = self.admit_image(requester, &ambassador_image)?;
        let amb_id = amb.id();
        let now = self.net.now().as_millis();
        let site = self.site_mut(requester)?;
        let host_ioo = site.ioo;
        site.runtime.adopt(amb).map_err(HadasError::Model)?;
        let context = Value::map([
            ("host_site", Value::Int(requester.0 as i64)),
            ("host_ioo", Value::ObjectRef(host_ioo)),
            ("arrived_at", Value::Int(now as i64)),
        ]);
        site.runtime
            .invoke(host_ioo, amb_id, "install", &[context])
            .map_err(HadasError::Model)?;
        site.guests.insert(
            amb_id,
            GuestInfo {
                origin_node: provider,
                origin_apo,
                apo_name: apo_name.to_owned(),
                remote_methods,
            },
        );
        // Persist the installed guest so a crash here does not silently
        // lose it (best-effort, like any depot save). The host encodes
        // the image, as for a migration: the ambassador's meta ACL
        // withholds `migration_image` from the guest itself, so
        // `Depot::save` would be refused.
        if let Some(Ok(image)) = site.runtime.object(amb_id).map(MromObject::image_bytes) {
            let _ = site.depot.save_image(amb_id, image);
        }
        let ioo = site.ioo;
        if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
            map_insert(
                ioo_obj,
                "guests",
                &amb_id.to_string(),
                Value::ObjectRef(origin_apo),
            );
        }
        Ok(amb_id)
    }

    /// Serves an `ImportReq` from `from`: the three phases of Export.
    pub(super) fn serve_import(
        &mut self,
        at: NodeId,
        from: NodeId,
        apo_name: &str,
        req_id: u64,
    ) -> Result<ProtocolMsg, HadasError> {
        let admission = self.admission;
        let site = self.site_mut(at)?;
        // Export phase 1: verify the requested APO is accessible to the
        // requesting IOO.
        let &apo_id = site
            .apos
            .get(apo_name)
            .ok_or_else(|| HadasError::UnknownApo(apo_name.to_owned()))?;
        let allowed = match site.policies.get(apo_name).unwrap_or(&ExportPolicy::Linked) {
            ExportPolicy::Linked => site.links.contains(&from),
            ExportPolicy::Sites(set) => set.contains(&from),
            ExportPolicy::Nobody => false,
        };
        if !allowed {
            return Err(HadasError::ExportDenied {
                apo: apo_name.to_owned(),
                requester: from,
            });
        }
        // Export phase 2: instantiate the proper APO Ambassador.
        let spec = site.specs.get(apo_name).cloned().unwrap_or_default();
        if site.runtime.object(apo_id).is_none() {
            return Err(HadasError::Model(MromError::NoSuchObject(apo_id)));
        }
        let amb_identity = site.runtime.ids_mut().next_id();
        let apo = site.runtime.object(apo_id).expect("checked above");
        let (ambassador, remote_methods) = crate::ambassador::instantiate_ambassador_as(
            apo,
            apo_name,
            at,
            &spec,
            amb_identity,
            admission,
        )?;
        // Export phase 3: ship it as data.
        let ambassador_image = ambassador.image_bytes()?;
        site.deployed
            .entry(apo_id)
            .or_default()
            .push((from, ambassador.id()));
        Ok(ProtocolMsg::ExportAck {
            req_id,
            ambassador_image,
            origin_apo: apo_id,
            remote_methods,
        })
    }

    /// Attempts allowed for one remote invocation under the active
    /// retry policy. [`RetryPolicy::IdempotentOnly`] consults the target
    /// method's interprocedural effect signature and re-posts only when
    /// the signature *proves* idempotence — a missing object, unknown
    /// method, or unprovable body all collapse to a single attempt. (The
    /// simulator owns both sites, so the lookup reads the destination
    /// runtime directly; a distributed deployment would carry the same
    /// signatures as export metadata.) The receiver's reply-dedup cache
    /// stays in place as the dynamic backstop either way.
    ///
    /// [`RetryPolicy::IdempotentOnly`]: crate::RetryPolicy::IdempotentOnly
    fn invoke_attempt_budget(&mut self, to: NodeId, target: ObjectId, method: &str) -> u32 {
        if !self.retry.gates_on_idempotence() {
            return self.retry.max_attempts();
        }
        let proven = self
            .sites
            .get_mut(&to)
            .and_then(|site| site.runtime.object_mut(target))
            .is_some_and(|obj| obj.effects().get(method).is_some_and(|sig| sig.idempotent));
        if proven {
            self.retry.max_attempts()
        } else {
            1
        }
    }

    /// Invokes a method on an object hosted at a remote site, as `caller`.
    ///
    /// # Errors
    ///
    /// Transport failures and remote invocation errors.
    pub fn remote_invoke(
        &mut self,
        from: NodeId,
        to: NodeId,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let span = mrom_obs::fed_op_start(from, "remote_invoke");
        let result = self.remote_invoke_inner(from, to, caller, target, method, args);
        mrom_obs::fed_op_end(span, "remote_invoke", result.is_ok());
        result
    }

    fn remote_invoke_inner(
        &mut self,
        from: NodeId,
        to: NodeId,
        caller: ObjectId,
        target: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        self.site(from)?;
        self.site(to)?;
        mrom_obs::remote_invoke_requested(from, target);
        let attempts = self.invoke_attempt_budget(to, target, method);
        let (trace, parent_span) = mrom_obs::current_trace_context();
        let request = ProtocolMsg::InvokeReq {
            req_id: self.fresh_req_id(),
            caller,
            target,
            method: method.to_owned(),
            args: args.to_vec(),
            trace,
            parent_span,
        };
        let mut replies = self.request(from, &[(to, request)], attempts)?;
        read_reply(replies.remove(0), "invoke", |reply| match reply {
            ProtocolMsg::InvokeResp { result, .. } => Some(result),
            _ => None,
        })
    }

    /// Invokes through a hosted Ambassador: locally when the method has
    /// migrated with (or was later pushed to) the Ambassador, relayed to
    /// the origin APO when it stayed home.
    ///
    /// # Errors
    ///
    /// Unknown-ambassador errors, local invocation errors, relay errors,
    /// and [`HadasError::Remote`]/[`HadasError::Timeout`] on the relay
    /// path.
    pub fn call_through_ambassador(
        &mut self,
        host: NodeId,
        caller: ObjectId,
        ambassador: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let site = self.site(host)?;
        let info = site
            .guests
            .get(&ambassador)
            .ok_or(HadasError::UnknownAmbassador(ambassador))?
            .clone();
        // The Ambassador gets first say: if the method migrated with it, it
        // serves locally, and if a meta-invoke tower is installed (e.g. the
        // maintenance notice), the tower intercepts *every* invocation —
        // even of methods that normally relay.
        let try_local = site
            .runtime
            .object(ambassador)
            .is_some_and(|obj| obj.has_method(caller, method) || !obj.tower().is_empty());
        if try_local {
            let site = self.site_mut(host)?;
            match site.runtime.invoke(caller, ambassador, method, args) {
                Ok(v) => return Ok(v),
                // The tower was installed but descended to a method the
                // Ambassador does not carry: fall through to the relay.
                Err(MromError::NoSuchMethod { .. }) => {}
                Err(e) => return Err(HadasError::Model(e)),
            }
        }
        if info.remote_methods.iter().any(|m| m == method) {
            mrom_obs::ambassador_relay(host, ambassador, method);
            return self.remote_invoke(
                host,
                info.origin_node,
                caller,
                info.origin_apo,
                method,
                args,
            );
        }
        Err(HadasError::Model(MromError::NoSuchMethod {
            object: ambassador,
            name: method.to_owned(),
        }))
    }

    /// Pushes structural updates from an origin APO to **all** of its
    /// deployed Ambassadors (the §5 dynamic-update mechanism). Returns the
    /// number of Ambassadors updated.
    ///
    /// # Errors
    ///
    /// Lookup errors, [`HadasError::Timeout`] when some host is
    /// unreachable, [`HadasError::Remote`] when a host rejected the
    /// update.
    pub fn push_update(
        &mut self,
        origin: NodeId,
        apo_name: &str,
        ops: &[UpdateOp],
    ) -> Result<usize, HadasError> {
        let apo_id = self.apo_id(origin, apo_name)?;
        let requests: Vec<(NodeId, ProtocolMsg)> = self
            .deployed_ambassadors(origin, apo_name)?
            .into_iter()
            .map(|(host, amb)| {
                let update = ProtocolMsg::UpdateReq {
                    req_id: self.fresh_req_id(),
                    origin: apo_id,
                    target: amb,
                    ops: ops.to_vec(),
                };
                (host, update)
            })
            .collect();
        // Fan-out: every update is posted before the first pump, so the
        // propagation overlaps; a lost one is not re-posted.
        for reply in self.request(origin, &requests, 1)? {
            read_reply(reply, "update", |reply| {
                matches!(reply, ProtocolMsg::UpdateAck { .. }).then_some(())
            })?;
        }
        Ok(requests.len())
    }

    /// Serves an `UpdateReq`: applies `ops` to the hosted guest `target`
    /// with the claimed `origin` principal. Returns the ops applied.
    pub(super) fn serve_update(
        &mut self,
        at: NodeId,
        origin: ObjectId,
        target: ObjectId,
        ops: &[UpdateOp],
    ) -> Result<usize, HadasError> {
        let policy = self.admission;
        let site = self.site_mut(at)?;
        if !site.guests.contains_key(&target) {
            return Err(HadasError::UnknownAmbassador(target));
        }
        let obj = site
            .runtime
            .object_mut(target)
            .ok_or(HadasError::Model(MromError::NoSuchObject(target)))?;
        let mut applied = 0;
        for op in ops {
            // Each op runs with the claimed origin principal; the object's
            // own ACLs decide whether that principal is honoured, so a
            // forged origin gains nothing it could not do anyway. Method
            // bodies are foreign code, admitted under the federation's
            // policy like any arriving image.
            let done = match op {
                UpdateOp::AddMethod(name, desc) => mrom_core::Method::from_descriptor(desc)
                    .and_then(|method| obj.add_method_with_policy(origin, name, method, policy)),
                UpdateOp::SetMethod(name, desc) => {
                    obj.set_method_with_policy(origin, name, desc, policy)
                }
                UpdateOp::DeleteMethod(name) => obj.delete_method(origin, name),
                UpdateOp::AddData(name, value) => obj.add_data(origin, name, value.clone()),
                UpdateOp::SetData(name, value) => obj.write_data(origin, name, value.clone()),
                UpdateOp::InstallMetaInvoke(name) => obj.install_meta_invoke(origin, name),
                UpdateOp::UninstallMetaInvoke => obj.uninstall_meta_invoke(origin).map(drop),
            };
            done.map_err(|e| at_site(at, e))?;
            applied += 1;
            // Migrated methods stop being relayed.
            if let UpdateOp::AddMethod(name, _) = op {
                if let Some(info) = site.guests.get_mut(&target) {
                    info.remote_methods.retain(|m| m != name);
                }
            }
        }
        Ok(applied)
    }

    /// The APO `apo_name` at `node` and the full descriptor of its
    /// `method`, as the APO reads its own definition.
    fn apo_method_descriptor(
        &self,
        node: NodeId,
        apo_name: &str,
        method: &str,
    ) -> Result<(ObjectId, Value), HadasError> {
        let apo_id = self.apo_id(node, apo_name)?;
        let apo = self
            .site(node)?
            .runtime
            .object(apo_id)
            .ok_or(HadasError::Model(MromError::NoSuchObject(apo_id)))?;
        Ok((apo_id, apo.method_descriptor(apo_id, method)?))
    }

    /// Migrates a method from an APO to all of its deployed Ambassadors:
    /// "The dynamic migration of functionality (methods) and data from the
    /// APO to its ambassador ... can be done using the meta-methods."
    /// After migration the method is served locally at every hosting site.
    ///
    /// # Errors
    ///
    /// Lookup errors, non-mobile methods, transport failures.
    pub fn migrate_method(
        &mut self,
        origin: NodeId,
        apo_name: &str,
        method: &str,
    ) -> Result<usize, HadasError> {
        let (_, desc) = self.apo_method_descriptor(origin, apo_name, method)?;
        // ... and pushes it to every Ambassador via addMethod.
        self.push_update(
            origin,
            apo_name,
            &[UpdateOp::AddMethod(method.to_owned(), desc)],
        )
    }

    /// Negotiates the import of one method from a provider's APO into
    /// the guest Ambassador hosted at `consumer` — the marketplace
    /// transaction: discovery via the advertised capability card,
    /// admission via the card's world-call listing, then a targeted
    /// functionality migration.
    ///
    /// The consumer first consults the Ambassador's `capability_card`
    /// data (see [`AmbassadorSpec::with_capability_card`]): under
    /// [`AdmissionPolicy::Strict`] a method whose card lists site-local
    /// world calls (`send`, `spawn` — references that would dangle away
    /// from the origin) is refused *before any bytes move*, the static
    /// [`HadasError::MigrationRefused`] contract of
    /// [`Federation::dispatch_object`] applied to functionality instead
    /// of whole objects. Otherwise the provider pushes the method
    /// descriptor to that one Ambassador (a targeted
    /// [`UpdateOp::AddMethod`], posted once); from then on the importing
    /// site serves it locally and drops it from the relay set, and the
    /// method's effect signature is re-solved lazily *on the importing
    /// host* the first time anything asks — imported capability, local
    /// proof.
    ///
    /// Returns the guest Ambassador's identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::NotLinked`] without a Link agreement;
    /// [`HadasError::UnknownApo`] when no guest of that APO is hosted at
    /// `consumer`; [`HadasError::MigrationRefused`] under `Strict` for a
    /// card-flagged method; lookup, transport, and remote errors
    /// otherwise.
    ///
    /// [`AmbassadorSpec::with_capability_card`]: crate::AmbassadorSpec::with_capability_card
    pub fn negotiate_method_import(
        &mut self,
        consumer: NodeId,
        provider: NodeId,
        apo_name: &str,
        method: &str,
    ) -> Result<ObjectId, HadasError> {
        self.require_link(consumer, provider)?;
        let amb_id = self
            .site(consumer)?
            .guests
            .iter()
            .find(|(_, info)| info.origin_node == provider && info.apo_name == apo_name)
            .map(|(id, _)| *id)
            .ok_or_else(|| HadasError::UnknownApo(apo_name.to_owned()))?;

        // Admission by advertisement: the card travelled with the guest,
        // so the refusal is a local decision — no wire round-trip.
        if matches!(self.admission, AdmissionPolicy::Strict) {
            let offending: Vec<String> = self
                .site(consumer)?
                .runtime
                .object(amb_id)
                .and_then(|amb| amb.read_data(ObjectId::SYSTEM, "capability_card").ok())
                .as_ref()
                .and_then(Value::as_map)
                .and_then(|card| card.get(method))
                .and_then(Value::as_map)
                .and_then(|entry| entry.get("world"))
                .and_then(Value::as_list)
                .into_iter()
                .flatten()
                .filter_map(Value::as_str)
                .filter(|c| Self::SITE_LOCAL_WORLD_CALLS.contains(c))
                .map(str::to_owned)
                .collect();
            if !offending.is_empty() {
                return Err(HadasError::MigrationRefused {
                    object: amb_id,
                    method: method.to_owned(),
                    world_calls: offending,
                });
            }
        }

        // The provider reads its APO's full method definition and pushes
        // it to this one Ambassador.
        let (apo_id, desc) = self.apo_method_descriptor(provider, apo_name, method)?;
        let update = ProtocolMsg::UpdateReq {
            req_id: self.fresh_req_id(),
            origin: apo_id,
            target: amb_id,
            ops: vec![UpdateOp::AddMethod(method.to_owned(), desc)],
        };
        let mut replies = self.request(provider, &[(consumer, update)], 1)?;
        read_reply(replies.remove(0), "import negotiation", |reply| {
            matches!(reply, ProtocolMsg::UpdateAck { .. }).then_some(amb_id)
        })
    }

    /// Dispatches a whole object to another site — the itinerant-agent
    /// move of the paper's introduction. The object is evicted locally,
    /// serializes itself, travels as data, is adopted at the destination,
    /// and — if it carries an `on_arrival` method — is invoked with an
    /// arrival context so it can install itself and decide its next move.
    ///
    /// Requires a Link agreement between the sites. A move that provably
    /// did not land (refused by the destination, or with retries off sent
    /// into a partition or at a crashed site) restores the object
    /// locally. A move that may have landed (any other timeout, an
    /// unexpected reply) parks it in-doubt until
    /// [`Federation::resolve_in_doubt`] asks the destination, so the
    /// object never ceases to exist and is never live at two sites.
    ///
    /// # Errors
    ///
    /// Link/lookup errors, [`MromError::NotMobile`] for objects with
    /// native bodies, transport timeouts, and remote refusals.
    pub fn dispatch_object(
        &mut self,
        from: NodeId,
        to: NodeId,
        object: ObjectId,
    ) -> Result<(), HadasError> {
        let span = mrom_obs::fed_op_start(from, "dispatch_object");
        let result = self.dispatch_object_inner(from, to, object);
        mrom_obs::fed_op_end(span, "dispatch_object", result.is_ok());
        result
    }

    /// World calls whose meaning is pinned to the hosting site: `send`
    /// resolves peer `ObjectRef`s against the *local* object table and
    /// `spawn` instantiates from the *local* class registry — neither
    /// reference travels with a migration image. Ambient services
    /// (`log`, `time`, `node`) exist identically at every site and are
    /// migration-portable.
    const SITE_LOCAL_WORLD_CALLS: [&'static str; 2] = ["send", "spawn"];

    /// Under [`AdmissionPolicy::Strict`], refuses to dispatch an object
    /// whose interprocedural effect signatures prove some method
    /// (transitively) depends on site-local world calls — the static
    /// analogue of shipping an agent whose peer references would dangle
    /// on arrival. Signatures are read from the departing object's
    /// generation-stamped cache, so repeat dispatches of an unchanged
    /// object pay no re-analysis.
    fn check_migration_safety(&mut self, from: NodeId, object: ObjectId) -> Result<(), HadasError> {
        let site = self.site_mut(from)?;
        let Some(obj) = site.runtime.object_mut(object) else {
            return Ok(()); // evict reports NoSuchObject with more context
        };
        let effects = obj.effects();
        let site_bound = |sig: &mrom_core::EffectSignature| -> Vec<String> {
            sig.world_calls
                .iter()
                .filter(|c| Self::SITE_LOCAL_WORLD_CALLS.contains(&c.as_str()))
                .cloned()
                .collect()
        };
        // Report a method that *itself* resolves to the calls (not a
        // dynamic join like the `invoke` meta-method, which absorbs
        // every method's effects and would otherwise win by name order).
        let offender = effects
            .iter()
            .filter(|(_, sig)| !sig.dynamic)
            .chain(effects.iter())
            .find_map(|(method, sig)| {
                let bound = site_bound(sig);
                (!bound.is_empty()).then(|| (method.clone(), bound))
            });
        match offender {
            Some((method, world_calls)) => Err(HadasError::MigrationRefused {
                object,
                method,
                world_calls,
            }),
            None => Ok(()),
        }
    }

    fn dispatch_object_inner(
        &mut self,
        from: NodeId,
        to: NodeId,
        object: ObjectId,
    ) -> Result<(), HadasError> {
        self.require_link(from, to)?;
        if matches!(self.admission, AdmissionPolicy::Strict) {
            self.check_migration_safety(from, object)?;
        }
        let site = self.site_mut(from)?;
        let obj = site.runtime.evict(object).map_err(HadasError::Model)?;
        let image = match obj.image_bytes() {
            Ok(bytes) => bytes,
            Err(e) => {
                // Not mobile: put it back, report.
                site.runtime.adopt(obj).expect("just evicted");
                return Err(HadasError::Model(e));
            }
        };
        // The origin depot is written only when the move does not land
        // (below), so a landed move costs one depot write, the
        // destination's. This is as safe as parking the image before the
        // send: the engine is single-threaded and `crash_site`,
        // `restart_site` and `checkpoint_site` take `&mut Federation`, so
        // none of them can run while this request is in flight. No crash
        // can fall between the send and the park, and whatever reads the
        // depot after `dispatch_object` returns finds what parking first
        // would have left there, for every outcome.
        mrom_obs::object_dispatched(object, from, to);
        let (trace, parent_span) = mrom_obs::current_trace_context();
        let move_req = [(
            to,
            ProtocolMsg::MoveObject {
                req_id: self.fresh_req_id(),
                image,
                trace,
                parent_span,
            },
        )];
        let landed = self
            .request(from, &move_req, self.retry.max_attempts())
            .and_then(|mut replies| {
                read_reply(replies.remove(0), "move", |reply| match reply {
                    ProtocolMsg::MoveAck { adopted, .. } if adopted == object => Some(()),
                    _ => None,
                })
            });
        let Err(failure) = landed else {
            // The destination owns it now: drop any older image here (an
            // arrival or checkpoint image) so a later restart here cannot
            // resurrect a second copy.
            let _ = self.site_mut(from)?.depot.remove(object);
            return Ok(());
        };
        // The move did not land, or may have. It did not when the
        // destination refused it (a remote `Error`), when the transport
        // refused the request outright (a `Net` error: an unknown site or
        // a send to itself, which fails the first attempt), or, with
        // retries off, when the single attempt timed out with the
        // destination cut off (link partitioned or site down) for the
        // whole request: the object is re-adopted here. Any other outcome
        // (a timeout on a live link, an unexpected reply, any timeout
        // under a retry policy) may leave the request in flight, and
        // re-adopting could *duplicate* the object: it is parked
        // in-doubt, and [`Federation::resolve_in_doubt`] settles
        // ownership from the parked image once the destination answers.
        // Either way the depot gets the exact image that was sent: the
        // buffer moves out of the request into the depot.
        let never_arrived = match failure {
            HadasError::Remote(_) | HadasError::Net(_) => true,
            HadasError::Timeout { .. } => {
                self.retry.is_off()
                    && (self.net.is_down(to) || self.net.config().is_partitioned(from, to))
            }
            _ => false,
        };
        let [(_, ProtocolMsg::MoveObject { image, .. })] = move_req else {
            unreachable!("built above as a move")
        };
        let site = self.site_mut(from)?;
        let _ = site.depot.save_image(object, image);
        if never_arrived {
            site.runtime
                .adopt(obj)
                .expect("identity unused after failed move");
        } else {
            site.in_doubt.insert(object, to);
        }
        Err(failure)
    }

    /// Serves a `MoveObject` from `from`: unpack, adopt, run its
    /// `on_arrival` hook (if any) with an arrival context. The decoded
    /// image is taken by value: the object is unpacked from a borrow of
    /// it and the buffer itself then moves into the depot.
    pub(super) fn serve_move(
        &mut self,
        at: NodeId,
        from: NodeId,
        image: Vec<u8>,
    ) -> Result<ObjectId, HadasError> {
        let obj = self.admit_image(at, &image)?;
        let id = obj.id();
        let now = self.net.now().as_millis();
        let site = self.site_mut(at)?;
        let host_ioo = site.ioo;
        site.runtime.adopt(obj).map_err(HadasError::Model)?;
        // Write-ahead: the arriving image goes to the depot before the
        // object runs, so a crash immediately after adoption still
        // restores it; and after adoption, so a refused arrival (an
        // identity already hosted here) cannot overwrite that object's
        // image. The raw bytes are exactly the migration image, and the
        // received buffer is moved in, not copied. This is the one depot
        // write of a move that lands: the origin writes its copy only
        // when the move fails.
        let _ = site.depot.save_image(id, image);
        mrom_obs::object_adopted(id, at);
        let has_hook = site
            .runtime
            .object(id)
            .is_some_and(|o| o.find_method("on_arrival").is_some());
        if has_hook {
            let context = Value::map([
                ("host_site", Value::Int(at.0 as i64)),
                ("came_from", Value::Int(from.0 as i64)),
                ("host_ioo", Value::ObjectRef(host_ioo)),
                ("arrived_at", Value::Int(now as i64)),
            ]);
            // A failing arrival hook evicts the object back into limbo
            // rather than leaving a half-installed guest. The origin
            // re-adopts it, so its image leaves this depot too: a restart
            // here must not resurrect a second copy.
            if let Err(e) = site.runtime.invoke(host_ioo, id, "on_arrival", &[context]) {
                let _ = site.runtime.evict(id);
                let _ = site.depot.remove(id);
                return Err(HadasError::Model(e));
            }
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::tests::{
        arrived_object, bump, counter_object, integrate_db, n_after_restart, parked,
        scripted_object, two_site_federation,
    };
    use mrom_net::SimTime;

    #[test]
    fn link_installs_vicinity_ambassador() {
        let (mut fed, a, b) = two_site_federation();
        assert!(!fed.is_linked(a, b));
        fed.link(a, b).unwrap();
        assert!(fed.is_linked(a, b));
        assert!(fed.is_linked(b, a), "provider records the partner too");
        // The vicinity map holds the ambassador; the object answers.
        let ioo = fed.ioo_id(a).unwrap();
        let vicinity = fed
            .runtime(a)
            .unwrap()
            .object(ioo)
            .unwrap()
            .read_data(ObjectId::SYSTEM, "vicinity")
            .unwrap();
        let amb_ref = vicinity.as_map().unwrap()["n2"].as_object_ref().unwrap();
        let info = fed
            .runtime_mut(a)
            .unwrap()
            .invoke_as_system(amb_ref, "site_info", &[])
            .unwrap();
        assert_eq!(info.as_map().unwrap()["site"], Value::Int(2));
    }

    #[test]
    fn import_requires_link() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::NotLinked { .. })
        ));
    }

    #[test]
    fn import_export_ships_a_working_ambassador() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        // Installed itself with the context.
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();
        let installed = fed
            .runtime(a)
            .unwrap()
            .object(amb)
            .unwrap()
            .read_data(caller, "installed")
            .unwrap();
        assert_eq!(installed, Value::Bool(true));
        // Exported method runs locally at A.
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::Int(3));
        // Non-exported method relays to the origin at B.
        let out = fed
            .call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("alice")])
            .unwrap();
        assert_eq!(out, Value::Int(100));
        // Guest bookkeeping.
        let info = fed.guest_info(a, amb).unwrap();
        assert_eq!(info.origin_node, b);
        assert_eq!(info.apo_name, "db");
        assert!(info.remote_methods.contains(&"salary_of".to_owned()));
    }

    #[test]
    fn export_policy_denies_unauthorized_sites() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.set_export_policy(b, "db", ExportPolicy::Nobody)
            .unwrap();
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::Remote(reason)) if reason.contains("denied")
        ));
        fed.set_export_policy(b, "db", ExportPolicy::Sites([a].into()))
            .unwrap();
        assert!(fed.import_apo(a, b, "db").is_ok());
    }

    #[test]
    fn unknown_apo_import_fails_remotely() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        assert!(matches!(
            fed.import_apo(a, b, "ghost"),
            Err(HadasError::Remote(_))
        ));
    }

    #[test]
    fn migrate_method_moves_functionality_to_the_edge() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();

        let before_relay = fed.net_stats().messages_sent;
        fed.call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("bob")])
            .unwrap();
        assert!(
            fed.net_stats().messages_sent > before_relay,
            "relayed over the net"
        );

        // Migrate salary_of into the deployed ambassador.
        assert_eq!(fed.migrate_method(b, "db", "salary_of").unwrap(), 1);

        let before_local = fed.net_stats().messages_sent;
        let out = fed
            .call_through_ambassador(a, caller, amb, "salary_of", &[Value::from("bob")])
            .unwrap();
        assert_eq!(out, Value::Int(90));
        assert_eq!(
            fed.net_stats().messages_sent,
            before_local,
            "served locally after migration"
        );
    }

    #[test]
    fn push_update_rewrites_remote_semantics() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        let caller = fed.runtime_mut(a).unwrap().ids_mut().next_id();

        // The origin pushes a maintenance meta-invoke (the §5 example).
        let updated = fed
            .push_update(
                b,
                "db",
                &[
                    UpdateOp::AddMethod(
                        "maintenance_notice".into(),
                        Value::map([
                            (
                                "body",
                                Value::from("return \"database is down for maintenance\";"),
                            ),
                            ("invoke_acl", Value::from("public")),
                        ]),
                    ),
                    UpdateOp::InstallMetaInvoke("maintenance_notice".into()),
                ],
            )
            .unwrap();
        assert_eq!(updated, 1);
        // Every invocation on the ambassador now echoes the notice.
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::from("database is down for maintenance"));
        // Back to normal after the uninstall push.
        fed.push_update(b, "db", &[UpdateOp::UninstallMetaInvoke])
            .unwrap();
        let out = fed
            .call_through_ambassador(a, caller, amb, "count", &[])
            .unwrap();
        assert_eq!(out, Value::Int(3));
    }

    #[test]
    fn partition_times_out_cleanly() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.net_config_mut().partition(a, b);
        assert!(matches!(
            fed.import_apo(a, b, "db"),
            Err(HadasError::Timeout { .. })
        ));
        fed.net_config_mut().heal(a, b);
        assert!(fed.import_apo(a, b, "db").is_ok());
    }

    #[test]
    fn hostile_host_cannot_update_a_guest_with_forged_origin() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        let amb = fed.import_apo(a, b, "db").unwrap();
        // Site A (the host) forges an update claiming some random origin.
        let forged = fed.runtime_mut(a).unwrap().ids_mut().next_id();
        let site_b_view = fed.apo_id(b, "db").unwrap();
        assert_ne!(forged, site_b_view);
        let err = fed
            .serve_update(
                a,
                forged,
                amb,
                &[UpdateOp::AddData("evil".into(), Value::Null)],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HadasError::Model(MromError::AccessDenied { .. })
        ));
    }

    #[test]
    fn invoke_attempt_budget_consults_signatures() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = scripted_object(
            &mut fed,
            b,
            &[
                ("bump", "self.set(\"n\", self.get(\"n\") + 1); return null;"),
                ("reset", "self.set(\"n\", 0); return null;"),
                ("peek", "return self.get(\"n\");"),
            ],
        );
        fed.set_retry_policy(crate::RetryPolicy::idempotent_only(
            5,
            SimTime::from_millis(10),
            2,
            0,
        ));
        // Provably idempotent (constant write / pure read): full budget.
        assert_eq!(fed.invoke_attempt_budget(b, id, "reset"), 5);
        assert_eq!(fed.invoke_attempt_budget(b, id, "peek"), 5);
        // Read-modify-write is not idempotent: one attempt.
        assert_eq!(fed.invoke_attempt_budget(b, id, "bump"), 1);
        // Unknown method or object: nothing provable, one attempt.
        assert_eq!(fed.invoke_attempt_budget(b, id, "absent"), 1);
        let ghost = ObjectId::from_parts(b, 9_999, 1);
        assert_eq!(fed.invoke_attempt_budget(b, ghost, "reset"), 1);
        // A plain backoff policy never gates.
        fed.set_retry_policy(crate::RetryPolicy::standard());
        assert_eq!(fed.invoke_attempt_budget(b, id, "bump"), 5);
    }

    #[test]
    fn strict_admission_refuses_dispatch_of_site_bound_objects() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = scripted_object(
            &mut fed,
            a,
            &[
                (
                    "relay",
                    "return self.send(self.get(\"peer\"), \"peek\", []);",
                ),
                ("note", "self.log(\"here\"); return null;"),
            ],
        );
        fed.set_admission_policy(AdmissionPolicy::Strict);
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        match err {
            HadasError::MigrationRefused {
                object,
                method,
                world_calls,
            } => {
                assert_eq!(object, id);
                assert_eq!(
                    method, "relay",
                    "the concrete offender, not the invoke join"
                );
                assert_eq!(world_calls, vec!["send".to_owned()]);
            }
            other => panic!("expected MigrationRefused, got {other}"),
        }
        // Refused before eviction: the object never left.
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        // Dropping back to Warn lets the same object travel.
        fed.set_admission_policy(AdmissionPolicy::Warn);
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn strict_admission_ships_portable_objects() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        // Ambient world services (`log`, `time`, `node`) exist at every
        // site: signatures naming only those stay migration-portable.
        let id = scripted_object(
            &mut fed,
            a,
            &[(
                "stamp",
                "self.set(\"peer\", self.time()); self.log(\"moved\"); return null;",
            )],
        );
        fed.set_admission_policy(AdmissionPolicy::Strict);
        fed.dispatch_object(a, b, id).unwrap();
        assert!(fed.runtime(b).unwrap().object(id).is_some());
    }

    #[test]
    fn off_policy_failed_dispatch_restores_the_object_locally() {
        let (mut fed, a, b) = two_site_federation();
        fed.link(a, b).unwrap();
        let id = counter_object(&mut fed, a);
        assert!(fed.retry_policy().is_off(), "Off is the default");
        fed.net_config_mut().partition(a, b);
        let err = fed.dispatch_object(a, b, id).unwrap_err();
        // Single attempt, historical restore-locally behaviour.
        assert!(matches!(err, HadasError::Timeout { attempts: 1, .. }));
        assert!(fed.runtime(a).unwrap().object(id).is_some());
        assert!(fed.in_doubt(a).unwrap().is_empty());
    }

    #[test]
    fn a_refused_move_parks_the_sent_image_over_a_stale_one() {
        let (mut fed, [a, _, c], id) = arrived_object();
        let sent = bump(&mut fed, a, id);
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(matches!(err, HadasError::Remote(_)), "{err}");
        assert_eq!(parked(&fed, a, id), Some(sent));
        assert_eq!(parked(&fed, c, id), None);
        assert_eq!(n_after_restart(&mut fed, a, id), Some(Value::Int(1)));
    }

    #[test]
    fn an_off_policy_timeout_parks_the_sent_image_over_a_stale_one() {
        let (mut fed, [a, _, c], id) = arrived_object();
        let sent = bump(&mut fed, a, id);
        assert!(fed.retry_policy().is_off());
        fed.net_config_mut().partition(a, c);
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(
            matches!(err, HadasError::Timeout { attempts: 1, .. }),
            "{err}"
        );
        assert!(fed.runtime(a).unwrap().object(id).is_some(), "re-adopted");
        assert_eq!(parked(&fed, a, id), Some(sent));
        assert_eq!(n_after_restart(&mut fed, a, id), Some(Value::Int(1)));
    }

    #[test]
    fn an_unexpected_reply_parks_the_sent_image() {
        let (mut fed, [a, _, c], id) = arrived_object();
        let sent = bump(&mut fed, a, id);
        // A peer answers the move's request id with an invoke response,
        // which FIFO on c -> a delivers before the real reply.
        let stray = ProtocolMsg::InvokeResp {
            req_id: fed.next_req + 1,
            result: Value::Null,
        };
        fed.inject_raw(c, a, stray.encode()).unwrap();
        let err = fed.dispatch_object(a, c, id).unwrap_err();
        assert!(matches!(err, HadasError::BadMessage(_)), "{err}");
        assert_eq!(
            fed.in_doubt(a).unwrap(),
            vec![(id, c)],
            "parked, not re-adopted"
        );
        assert_eq!(parked(&fed, a, id), Some(sent));
    }

    #[test]
    fn a_landed_move_records_one_depot_save_of_the_image() {
        let (mut fed, [a, _, c], id) = arrived_object();
        let image = fed
            .runtime(a)
            .unwrap()
            .object(id)
            .unwrap()
            .image_bytes()
            .unwrap();
        mrom_obs::reset();
        mrom_obs::set_mode(mrom_obs::ObsMode::Ring);
        fed.dispatch_object(a, c, id).unwrap();
        mrom_obs::set_mode(mrom_obs::ObsMode::Disabled);
        let saves: Vec<_> = mrom_obs::ring_snapshot()
            .into_iter()
            .filter_map(|te| match te.kind {
                mrom_obs::EventKind::DepotSave { object, bytes } => Some((object, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(saves, vec![(id, image.len() as u64)]);
        assert_eq!(mrom_obs::metrics_snapshot().persist.saves, 1);
        mrom_obs::reset();
    }

    #[test]
    fn a_landed_move_leaves_nothing_at_the_origin_to_resurrect() {
        let (mut fed, [a, _, c], id) = arrived_object();
        fed.dispatch_object(a, c, id).unwrap();
        assert_eq!(parked(&fed, a, id), None, "the arrival image is gone");
        assert_eq!(n_after_restart(&mut fed, a, id), None);
        assert!(fed.runtime(c).unwrap().object(id).is_some());
    }
}
