//! The federation driver: sites and their bookkeeping over the simulated
//! network. The protocol engine (the one request path, the one serve
//! path, the reply cache and the pump) is in `engine.rs`; the synchronous
//! operations (Link, Import/Export, remote invocation, functionality
//! migration, update push, object moves) and the handlers that serve
//! them are in `ops.rs`; crash, restart, checkpoint and in-doubt
//! resolution are in `recovery.rs`.

mod engine;
mod ops;
mod recovery;

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mrom_core::{AdmissionPolicy, MromError, MromObject, Runtime};
use mrom_net::{NetStats, NetworkConfig, SimNet, SimTime};
use mrom_persist::{Depot, MemStore};
use mrom_value::{NodeId, ObjectId, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ambassador::{AmbassadorSpec, GuestInfo};
use crate::error::HadasError;
use crate::ioo::map_insert;
use crate::protocol::ProtocolMsg;
use crate::retry::RetryPolicy;

/// Who may import an APO — the access check the paper's Export performs
/// ("Export verifies that the requested APO is accessible to the
/// requesting IOO").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExportPolicy {
    /// Any *linked* site may import (the default: Link is already a
    /// prerequisite for all cooperation).
    #[default]
    Linked,
    /// Only the listed sites may import.
    Sites(BTreeSet<NodeId>),
    /// Nobody may import.
    Nobody,
}

/// One logical site: a node runtime, its IOO, and the bookkeeping the
/// protocol handlers maintain.
///
/// Cache-line aligned: sites sit inline in the federation's map, and
/// otherwise a site's exact size decides which of its hot fields
/// straddle a line. Shrinking `Runtime` by 8 bytes moved the benchmark's
/// `advisor_affinity` per-op wall time by about 10% (EXPERIMENTS E30).
#[repr(align(64))]
struct Site {
    runtime: Runtime,
    ioo: ObjectId,
    /// Home: APO name → identity.
    apos: BTreeMap<String, ObjectId>,
    /// Default functionality split per APO name.
    specs: BTreeMap<String, AmbassadorSpec>,
    /// Export access policy per APO name.
    policies: BTreeMap<String, ExportPolicy>,
    /// Sites this site has a Link agreement with (either direction).
    links: BTreeSet<NodeId>,
    /// Hosted guest Ambassadors.
    guests: BTreeMap<ObjectId, GuestInfo>,
    /// Ambassadors deployed *from* this site's APOs: APO id → (host node,
    /// ambassador id) pairs.
    deployed: BTreeMap<ObjectId, Vec<(NodeId, ObjectId)>>,
    /// The site's self-contained persistence depot (paper §9): objects
    /// write themselves here and bootstrap themselves back after a crash.
    depot: Depot<MemStore>,
    /// Receiver-side request dedup: req id → the reply already produced.
    /// A retried or duplicated request is answered from here instead of
    /// being re-executed, which is what makes delivery exactly-once.
    /// Volatile — wiped by a crash (the depot, not this cache, is the
    /// durable layer).
    replies: BTreeMap<u64, ProtocolMsg>,
    /// Migrations that may have landed without an acknowledgement (a
    /// timeout, an unexpected reply): object → intended destination. The
    /// object's image stays in the depot until
    /// [`Federation::resolve_in_doubt`] learns which side owns it.
    in_doubt: BTreeMap<ObjectId, NodeId>,
}

/// A point-in-time summary of one site, used by reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// The site's node.
    pub node: NodeId,
    /// Number of integrated APOs.
    pub apos: usize,
    /// Number of link agreements.
    pub links: usize,
    /// Number of hosted guest Ambassadors.
    pub guests: usize,
    /// Number of Ambassadors deployed from here.
    pub deployed: usize,
}

/// A federation of HADAS sites over a simulated network.
///
/// # Example
///
/// ```
/// use hadas::Federation;
/// use mrom_net::NetworkConfig;
/// use mrom_value::NodeId;
///
/// # fn main() -> Result<(), hadas::HadasError> {
/// let mut fed = Federation::new(NetworkConfig::new(7));
/// fed.add_site(NodeId(1))?;
/// fed.add_site(NodeId(2))?;
/// fed.link(NodeId(1), NodeId(2))?;
/// assert!(fed.is_linked(NodeId(1), NodeId(2)));
/// # Ok(())
/// # }
/// ```
pub struct Federation {
    net: SimNet,
    sites: BTreeMap<NodeId, Site>,
    next_req: u64,
    /// Replies awaited by the request in progress: req id → the reply,
    /// once it arrives (the last one wins). A reply whose id is not here
    /// is stale — a duplicate of one already consumed — and is dropped.
    awaited: HashMap<u64, Option<ProtocolMsg>>,
    /// Static admission policy every receive path applies to arriving
    /// mobile code (migrating objects, imported/linked ambassadors) and
    /// that the export path applies to ambassadors it instantiates.
    admission: AdmissionPolicy,
    /// Retry policy for synchronous operations ([`RetryPolicy::Off`] by
    /// default — the historical fail-on-first-loss behaviour).
    retry: RetryPolicy,
    /// Dedicated generator for backoff jitter, seeded from the network
    /// seed so retry schedules reproduce per seed without perturbing the
    /// simulator's own stream.
    retry_rng: StdRng,
}

/// A model error raised at site `at`; admission rejections name the site.
fn at_site(at: NodeId, e: MromError) -> HadasError {
    match e {
        rejection @ MromError::AdmissionRejected { .. } => {
            HadasError::AdmissionRefused { at, rejection }
        }
        e => HadasError::Model(e),
    }
}

/// Writes `policy` into a site runtime's limits, keeping its other bounds.
fn set_runtime_admission(runtime: &mut Runtime, policy: AdmissionPolicy) {
    let mut limits = runtime.limits();
    limits.admission = policy;
    runtime.set_limits(limits);
}

impl Federation {
    /// Creates an empty federation over a simulator with `config`.
    /// Admission starts [`AdmissionPolicy::Off`]; it is this federation's
    /// own setting, written into each site runtime it creates.
    pub fn new(config: NetworkConfig) -> Federation {
        // Decorrelate from the simulator's stream while staying a pure
        // function of the configured seed.
        let retry_rng = StdRng::seed_from_u64(config.seed() ^ 0x9E37_79B9_7F4A_7C15);
        Federation {
            net: SimNet::new(config),
            sites: BTreeMap::new(),
            next_req: 0,
            awaited: HashMap::new(),
            admission: AdmissionPolicy::Off,
            retry: RetryPolicy::Off,
            retry_rng,
        }
    }

    /// Sets the federation-wide [`AdmissionPolicy`], returning the
    /// previous one. Every site runtime's limits follow it, so scripts'
    /// `addMethod`/`setMethod` are admitted under it too.
    pub fn set_admission_policy(&mut self, policy: AdmissionPolicy) -> AdmissionPolicy {
        for site in self.sites.values_mut() {
            set_runtime_admission(&mut site.runtime, policy);
        }
        std::mem::replace(&mut self.admission, policy)
    }

    /// The federation-wide [`AdmissionPolicy`].
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.admission
    }

    /// Sets the federation-wide [`RetryPolicy`], returning the previous
    /// one. With [`RetryPolicy::Off`] (the default) every synchronous
    /// operation behaves exactly as it did before retries existed.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) -> RetryPolicy {
        std::mem::replace(&mut self.retry, policy)
    }

    /// The federation-wide [`RetryPolicy`].
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Decodes an arriving image through the receiving site's runtime,
    /// under its admission policy (the federation's), converting strict
    /// rejections into [`HadasError::AdmissionRefused`] naming the site.
    fn admit_image(&mut self, at: NodeId, image: &[u8]) -> Result<MromObject, HadasError> {
        self.site_mut(at)?
            .runtime
            .unpack_image(image)
            .map_err(|e| at_site(at, e))
    }

    /// Adds a site at `node`, creating its runtime and IOO. Returns the
    /// IOO's identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::DuplicateSite`] / network errors.
    pub fn add_site(&mut self, node: NodeId) -> Result<ObjectId, HadasError> {
        if self.sites.contains_key(&node) {
            return Err(HadasError::DuplicateSite(node));
        }
        self.net.add_node(node)?;
        let mut runtime = Runtime::new(node);
        set_runtime_admission(&mut runtime, self.admission);
        let ioo_obj = crate::ioo::build_ioo_as(runtime.ids_mut().next_id(), node);
        let ioo = ioo_obj.id();
        let mut depot = Depot::new(MemStore::new());
        // Write-ahead bootstrap image: a crashed site restores its IOO
        // (and everything else in the depot) from here. Best-effort — an
        // IOO with native bodies simply is not persistable.
        let _ = depot.save(&ioo_obj);
        runtime.adopt(ioo_obj).map_err(HadasError::Model)?;
        self.sites.insert(
            node,
            Site {
                runtime,
                ioo,
                apos: BTreeMap::new(),
                specs: BTreeMap::new(),
                policies: BTreeMap::new(),
                links: BTreeSet::new(),
                guests: BTreeMap::new(),
                deployed: BTreeMap::new(),
                depot,
                replies: BTreeMap::new(),
                in_doubt: BTreeMap::new(),
            },
        );
        Ok(ioo)
    }

    fn site(&self, node: NodeId) -> Result<&Site, HadasError> {
        self.sites.get(&node).ok_or(HadasError::UnknownSite(node))
    }

    fn site_mut(&mut self, node: NodeId) -> Result<&mut Site, HadasError> {
        self.sites
            .get_mut(&node)
            .ok_or(HadasError::UnknownSite(node))
    }

    /// [`HadasError::NotLinked`] unless `from` holds a Link agreement
    /// with `to`.
    fn require_link(&self, from: NodeId, to: NodeId) -> Result<(), HadasError> {
        if self.is_linked(from, to) {
            Ok(())
        } else {
            Err(HadasError::NotLinked { from, to })
        }
    }

    /// The runtime hosting a site's objects.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn runtime(&self, node: NodeId) -> Result<&Runtime, HadasError> {
        Ok(&self.site(node)?.runtime)
    }

    /// Mutable runtime access (local administration, tests).
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn runtime_mut(&mut self, node: NodeId) -> Result<&mut Runtime, HadasError> {
        Ok(&mut self.site_mut(node)?.runtime)
    }

    /// A site's IOO identity.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn ioo_id(&self, node: NodeId) -> Result<ObjectId, HadasError> {
        Ok(self.site(node)?.ioo)
    }

    /// Simulator traffic statistics.
    pub fn net_stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// The recording thread's windowed telemetry across the whole
    /// federation: every object profile, the full site-to-site call
    /// matrix, and every link window. Empty (but schema-complete)
    /// unless [`mrom_obs::set_window`] configured a window and a
    /// recording mode is on.
    #[must_use]
    pub fn telemetry(&self) -> mrom_obs::TelemetrySnapshot {
        mrom_obs::telemetry_snapshot()
    }

    /// One site's slice of [`Federation::telemetry`]: objects hosted at
    /// `node` right now, plus the call-matrix rows and links touching
    /// it. This is the federation analogue of `Runtime::telemetry`.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn site_telemetry(&self, node: NodeId) -> Result<mrom_obs::TelemetrySnapshot, HadasError> {
        let site = self.site(node)?;
        let hosted: std::collections::BTreeSet<ObjectId> =
            site.runtime.object_ids().into_iter().collect();
        Ok(self.telemetry().for_site(node, |id| hosted.contains(&id)))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Mutable simulator configuration (partitions mid-run).
    pub fn net_config_mut(&mut self) -> &mut NetworkConfig {
        self.net.config_mut()
    }

    /// The nodes that have a site in this federation.
    pub fn site_nodes(&self) -> Vec<NodeId> {
        self.sites.keys().copied().collect()
    }

    /// Per-site summary.
    ///
    /// # Errors
    ///
    /// [`HadasError::UnknownSite`].
    pub fn site_stats(&self, node: NodeId) -> Result<SiteStats, HadasError> {
        let site = self.site(node)?;
        Ok(SiteStats {
            node,
            apos: site.apos.len(),
            links: site.links.len(),
            guests: site.guests.len(),
            deployed: site.deployed.values().map(Vec::len).sum(),
        })
    }

    /// Integrates a pre-built APO object at `node` under `name`, with the
    /// default functionality split `spec` for its Ambassadors. Returns the
    /// APO's identity.
    ///
    /// # Errors
    ///
    /// Site/duplicate errors and model errors.
    pub fn integrate_apo(
        &mut self,
        node: NodeId,
        name: &str,
        apo: MromObject,
        spec: AmbassadorSpec,
    ) -> Result<ObjectId, HadasError> {
        let site = self.site_mut(node)?;
        if site.apos.contains_key(name) {
            return Err(HadasError::DuplicateApo(name.to_owned()));
        }
        let id = apo.id();
        // Best-effort write-ahead: a mobile APO survives a site crash;
        // one with native bodies simply is not persistable.
        let _ = site.depot.save(&apo);
        site.runtime.adopt(apo).map_err(HadasError::Model)?;
        site.apos.insert(name.to_owned(), id);
        site.specs.insert(name.to_owned(), spec);
        site.policies
            .insert(name.to_owned(), ExportPolicy::default());
        let ioo = site.ioo;
        if let Some(ioo_obj) = site.runtime.object_mut(ioo) {
            map_insert(ioo_obj, "home", name, Value::ObjectRef(id));
        }
        Ok(id)
    }

    /// Sets the export policy for an APO.
    ///
    /// # Errors
    ///
    /// Site/APO lookup errors.
    pub fn set_export_policy(
        &mut self,
        node: NodeId,
        apo_name: &str,
        policy: ExportPolicy,
    ) -> Result<(), HadasError> {
        let site = self.site_mut(node)?;
        if !site.apos.contains_key(apo_name) {
            return Err(HadasError::UnknownApo(apo_name.to_owned()));
        }
        site.policies.insert(apo_name.to_owned(), policy);
        Ok(())
    }

    /// The identity of an APO registered at a site.
    ///
    /// # Errors
    ///
    /// Site/APO lookup errors.
    pub fn apo_id(&self, node: NodeId, name: &str) -> Result<ObjectId, HadasError> {
        self.site(node)?
            .apos
            .get(name)
            .copied()
            .ok_or_else(|| HadasError::UnknownApo(name.to_owned()))
    }

    /// Are two sites linked (in either direction)?
    pub fn is_linked(&self, a: NodeId, b: NodeId) -> bool {
        self.sites.get(&a).is_some_and(|s| s.links.contains(&b))
    }

    /// Guest info for a hosted Ambassador.
    ///
    /// # Errors
    ///
    /// Lookup errors.
    pub fn guest_info(&self, host: NodeId, amb: ObjectId) -> Result<&GuestInfo, HadasError> {
        self.site(host)?
            .guests
            .get(&amb)
            .ok_or(HadasError::UnknownAmbassador(amb))
    }

    /// Ambassadors deployed from an APO: `(host node, ambassador id)`.
    ///
    /// # Errors
    ///
    /// Lookup errors.
    pub fn deployed_ambassadors(
        &self,
        origin: NodeId,
        apo_name: &str,
    ) -> Result<Vec<(NodeId, ObjectId)>, HadasError> {
        let site = self.site(origin)?;
        let apo = site
            .apos
            .get(apo_name)
            .ok_or_else(|| HadasError::UnknownApo(apo_name.to_owned()))?;
        Ok(site.deployed.get(apo).cloned().unwrap_or_default())
    }

    /// Messages currently on the wire (the fleet engine's drained-wire
    /// invariant).
    pub fn in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Installs an *interoperability program* — a coordination-level
    /// script — into a site's IOO (Figure 2's **Interop** component).
    ///
    /// The program runs on the IOO object and may reach every object
    /// hosted at the site (local APOs and guest Ambassadors alike) through
    /// `self.send(ref, method, args)`; it is how "(dynamic) control- and
    /// data-flow between (integrated, interconnected and configured)
    /// components" is specified.
    ///
    /// # Errors
    ///
    /// Site errors, script parse errors, and duplicate program names.
    pub fn install_interop_program(
        &mut self,
        node: NodeId,
        name: &str,
        source: &str,
    ) -> Result<(), HadasError> {
        let site = self.site_mut(node)?;
        let ioo = site.ioo;
        let program = mrom_core::Method::public(
            mrom_core::MethodBody::script(source).map_err(HadasError::Model)?,
        );
        site.runtime
            .object_mut(ioo)
            .ok_or(HadasError::Model(MromError::NoSuchObject(ioo)))?
            .add_method(mrom_value::ObjectId::SYSTEM, name, program)
            .map_err(HadasError::Model)
    }

    /// Runs an installed interoperability program with the system
    /// principal, returning its result.
    ///
    /// # Errors
    ///
    /// Site errors and whatever the program raises.
    pub fn run_interop(
        &mut self,
        node: NodeId,
        name: &str,
        args: &[Value],
    ) -> Result<Value, HadasError> {
        let site = self.site_mut(node)?;
        let ioo = site.ioo;
        site.runtime
            .invoke_as_system(ioo, name, args)
            .map_err(HadasError::Model)
    }

    /// The guest Ambassadors hosted at a site, as `(ambassador id, origin
    /// APO name)` pairs — what an interop program enumerates to find its
    /// components.
    ///
    /// # Errors
    ///
    /// Site errors.
    pub fn guests(&self, node: NodeId) -> Result<Vec<(ObjectId, String)>, HadasError> {
        Ok(self
            .site(node)?
            .guests
            .iter()
            .map(|(id, info)| (*id, info.apo_name.clone()))
            .collect())
    }
}

/// Fixtures shared by the tests of every federation module.
#[cfg(test)]
mod tests {
    use super::*;
    use mrom_core::{ClassSpec, DataItem, Method, MethodBody};
    use mrom_net::LinkConfig;
    use mrom_persist::BlobStore;

    fn db_apo_class() -> ClassSpec {
        ClassSpec::new("employee-db")
            .fixed_data("rows", DataItem::public(Value::Int(3)))
            .fixed_method(
                "count",
                Method::public(MethodBody::script("return self.get(\"rows\");").unwrap()),
            )
            .fixed_method(
                "salary_of",
                Method::public(
                    MethodBody::script(
                        "param name; return {\"alice\": 100, \"bob\": 90, \"eve\": 80}[name];",
                    )
                    .unwrap(),
                ),
            )
    }

    pub(super) fn two_site_federation() -> (Federation, NodeId, NodeId) {
        let cfg = NetworkConfig::new(3).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let a = NodeId(1);
        let b = NodeId(2);
        fed.add_site(a).unwrap();
        fed.add_site(b).unwrap();
        (fed, a, b)
    }

    pub(super) fn integrate_db(fed: &mut Federation, at: NodeId, export: &[&str]) -> ObjectId {
        let apo =
            db_apo_class().instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let spec = AmbassadorSpec::relay_only()
            .with_methods(export.iter().copied())
            .with_data(["rows"]);
        fed.integrate_apo(at, "db", apo, spec).unwrap()
    }

    /// A mobile object with a non-idempotent method: double-application
    /// is directly visible in its counter.
    pub(super) fn counter_object(fed: &mut Federation, at: NodeId) -> ObjectId {
        let obj = ClassSpec::new("counter")
            .fixed_data("n", DataItem::public(Value::Int(0)))
            .fixed_method(
                "bump",
                Method::public(
                    MethodBody::script(
                        "self.set(\"n\", self.get(\"n\") + 1); return self.get(\"n\");",
                    )
                    .unwrap(),
                ),
            )
            .instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(at).unwrap().adopt(obj).unwrap();
        id
    }

    /// Adopts a scripted object at `at` and returns its identity.
    pub(super) fn scripted_object(
        fed: &mut Federation,
        at: NodeId,
        methods: &[(&str, &str)],
    ) -> ObjectId {
        let mut spec = ClassSpec::new("fx").fixed_data("peer", DataItem::public(Value::Null));
        for (name, src) in methods {
            spec = spec.fixed_method(name, Method::public(MethodBody::script(src).unwrap()));
        }
        let obj = spec.instantiate_as(fed.runtime_mut(at).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(at).unwrap().adopt(obj).unwrap();
        id
    }

    // -- the origin depot after each dispatch outcome ------------------------
    //
    // A move that lands leaves no image of the object at its origin; every
    // other outcome leaves exactly the image that was sent. The tests built
    // on these fixtures fail if the origin skips the park (or the remove).

    /// Three linked sites; an object whose arrival hook fails once it has
    /// been bumped (`1 / (n - 1)`), arrived at `a` from `b`, so `a`'s depot
    /// holds its (stale once bumped) arrival image.
    pub(super) fn arrived_object() -> (Federation, [NodeId; 3], ObjectId) {
        let cfg = NetworkConfig::new(5).with_default_link(LinkConfig::lan());
        let mut fed = Federation::new(cfg);
        let (a, b, c) = (NodeId(1), NodeId(2), NodeId(3));
        for node in [a, b, c] {
            fed.add_site(node).unwrap();
        }
        fed.link(b, a).unwrap();
        fed.link(a, c).unwrap();
        let obj = ClassSpec::new("picky")
            .fixed_data("n", DataItem::public(Value::Int(0)))
            .fixed_method(
                "bump",
                Method::public(
                    MethodBody::script("self.set(\"n\", self.get(\"n\") + 1); return null;")
                        .unwrap(),
                ),
            )
            .fixed_method(
                "on_arrival",
                Method::public(
                    MethodBody::script("param ctx; return 1 / (self.get(\"n\") - 1);").unwrap(),
                ),
            )
            .instantiate_as(fed.runtime_mut(b).unwrap().ids_mut().next_id(), None);
        let id = obj.id();
        fed.runtime_mut(b).unwrap().adopt(obj).unwrap();
        fed.dispatch_object(b, a, id).unwrap();
        assert!(parked(&fed, a, id).is_some(), "a holds the arrival image");
        (fed, [a, b, c], id)
    }

    /// The record `node`'s depot holds for `id`.
    pub(super) fn parked(fed: &Federation, node: NodeId, id: ObjectId) -> Option<Vec<u8>> {
        let depot = &fed.site(node).unwrap().depot;
        depot.store().get(&id.to_string()).unwrap()
    }

    pub(super) fn bump(fed: &mut Federation, at: NodeId, id: ObjectId) -> Vec<u8> {
        let caller = fed.ioo_id(at).unwrap();
        let rt = fed.runtime_mut(at).unwrap();
        rt.invoke(caller, id, "bump", &[]).unwrap();
        rt.object(id).unwrap().image_bytes().unwrap()
    }

    pub(super) fn n_after_restart(fed: &mut Federation, at: NodeId, id: ObjectId) -> Option<Value> {
        fed.crash_site(at).unwrap();
        fed.restart_site(at).unwrap();
        let obj = fed.runtime(at).unwrap().object(id)?;
        Some(obj.read_data(ObjectId::SYSTEM, "n").unwrap())
    }

    /// The sites that host `id` live.
    pub(super) fn hosts(fed: &Federation, id: ObjectId) -> Vec<NodeId> {
        fed.site_nodes()
            .into_iter()
            .filter(|&n| fed.runtime(n).unwrap().object(id).is_some())
            .collect()
    }

    #[test]
    fn site_stats_reflect_topology() {
        let (mut fed, a, b) = two_site_federation();
        integrate_db(&mut fed, b, &["count"]);
        fed.link(a, b).unwrap();
        fed.import_apo(a, b, "db").unwrap();
        let sa = fed.site_stats(a).unwrap();
        let sb = fed.site_stats(b).unwrap();
        assert_eq!(sa.guests, 1);
        assert_eq!(sa.apos, 0);
        assert_eq!(sb.apos, 1);
        assert_eq!(sb.deployed, 1);
        assert_eq!(sa.links, 1);
        assert_eq!(sb.links, 1);
    }

    #[test]
    fn retry_policy_off_by_default_and_swappable() {
        let (mut fed, _a, _b) = two_site_federation();
        assert!(fed.retry_policy().is_off());
        let prev = fed.set_retry_policy(crate::RetryPolicy::standard());
        assert!(prev.is_off());
        assert!(!fed.retry_policy().is_off());
    }
}
