//! Ambassador instantiation — the mobile face of an APO.
//!
//! "An Ambassador is an object that has been instantiated in the origin
//! APO and has been deployed in a 'foreign (IOO) territory', but is owned
//! and maintained by its origin APO." (§5)
//!
//! [`AmbassadorSpec`] decides the *functionality split*: which of the
//! APO's methods travel with the Ambassador (served locally at the foreign
//! site) and which stay home (relayed back to the origin). Because split
//! decisions are data, they can be revisited at runtime — see
//! [`crate::Federation::migrate_method`].

use mrom_core::{Acl, AdmissionPolicy, DataItem, Method, MromError, MromObject, ObjectBuilder};
use mrom_value::{IdGenerator, NodeId, ObjectId, Value};

use crate::error::HadasError;

/// Default `install` body: record the installation context handed over by
/// the importing IOO and flip the installed flag — the paper's "passes to
/// it an installation context and invokes the Ambassador, which in turn
/// installs itself in the new environment".
const DEFAULT_INSTALL: &str = r#"
param context;
self.set("install_context", context);
self.set("installed", true);
return true;
"#;

/// How to derive an Ambassador from an APO.
#[derive(Debug, Clone, Default)]
pub struct AmbassadorSpec {
    /// Methods copied into the Ambassador (served locally after import).
    pub exported_methods: Vec<String>,
    /// Data items whose current values are copied (public-read snapshots).
    pub copied_data: Vec<String>,
    /// Custom `install` body (script source); `None` uses the default.
    pub install_script: Option<String>,
    /// Attach a capability card: the admission analyzer's
    /// [`HostManifest`](mrom_core::HostManifest) for every public method,
    /// advertised as read-only public data (`capability_card`) so foreign
    /// sites can inspect what a method touches *before* negotiating its
    /// import — the agent-marketplace discovery handshake.
    pub advertise_card: bool,
}

impl AmbassadorSpec {
    /// An empty spec: a pure relay Ambassador (every call goes home).
    pub fn relay_only() -> AmbassadorSpec {
        AmbassadorSpec::default()
    }

    /// Exports the given methods.
    pub fn with_methods<I, S>(mut self, names: I) -> AmbassadorSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.exported_methods
            .extend(names.into_iter().map(Into::into));
        self
    }

    /// Copies the given data items.
    pub fn with_data<I, S>(mut self, names: I) -> AmbassadorSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.copied_data.extend(names.into_iter().map(Into::into));
        self
    }

    /// Uses a custom install script.
    pub fn with_install(mut self, source: &str) -> AmbassadorSpec {
        self.install_script = Some(source.to_owned());
        self
    }

    /// Advertises the APO's per-method [`HostManifest`](mrom_core::HostManifest)
    /// on the Ambassador as the `capability_card` data item.
    pub fn with_capability_card(mut self) -> AmbassadorSpec {
        self.advertise_card = true;
        self
    }
}

/// The capability card advertised by a card-carrying Ambassador: a map
/// from each of the APO's publicly invocable methods to its analyzer
/// manifest — what it reads, writes, invokes, and which world calls it
/// leans on. Native bodies the analyzer cannot see are marked `opaque`.
///
/// The card is *data*: it travels with the Ambassador, any site can read
/// it, and [`crate::Federation::negotiate_method_import`] consults it
/// before agreeing to pull a method across the wire.
#[must_use]
pub fn capability_card(apo: &MromObject) -> Value {
    let apo_id = apo.id();
    // The public view: what an arbitrary stranger could invoke.
    let stranger = ObjectId::from_parts(apo_id.node(), apo_id.seq(), !apo_id.entropy());
    let mut card: Vec<(String, Value)> = Vec::new();
    for (name, _) in apo.list_methods(stranger) {
        if mrom_core::MetaOp::from_method_name(&name).is_some() {
            continue;
        }
        let Ok(desc) = apo.method_descriptor(apo_id, &name) else {
            continue;
        };
        let Ok(method) = Method::from_descriptor(&desc) else {
            continue;
        };
        let entry = match method.body() {
            mrom_core::MethodBody::Script(program) => {
                manifest_value(&mrom_core::analyze_program(program).manifest)
            }
            mrom_core::MethodBody::Native(_) => Value::map([("opaque", Value::Bool(true))]),
            mrom_core::MethodBody::Meta(_) => continue,
        };
        card.push((name, entry));
    }
    Value::map(card)
}

/// Serializes a [`HostManifest`](mrom_core::HostManifest) as a stable
/// value tree (sorted lists, integer/boolean scalars).
fn manifest_value(m: &mrom_core::HostManifest) -> Value {
    let strs = |set: &std::collections::BTreeSet<String>| {
        Value::List(set.iter().map(|s| Value::from(s.as_str())).collect())
    };
    Value::map([
        ("reads", strs(&m.data_read)),
        ("writes", strs(&m.data_written)),
        ("creates", strs(&m.data_created)),
        ("deletes", strs(&m.data_deleted)),
        ("invokes", strs(&m.methods_invoked)),
        ("world", strs(&m.world_calls)),
        ("call_sites", Value::Int(m.host_call_sites as i64)),
        ("dynamic", Value::Bool(m.dynamic_data || m.dynamic_methods)),
        ("pure", Value::Bool(m.is_pure())),
    ])
}

/// What a hosting site records about a guest Ambassador.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestInfo {
    /// Site of the origin APO.
    pub origin_node: NodeId,
    /// Identity of the origin APO.
    pub origin_apo: ObjectId,
    /// The APO's registered name at its home site.
    pub apo_name: String,
    /// Public methods that did not migrate and are relayed to the origin.
    pub remote_methods: Vec<String>,
}

/// Instantiates an Ambassador for `apo` according to `spec`, without
/// admission analysis (policy [`AdmissionPolicy::Off`]).
///
/// Returns the Ambassador object plus the list of the APO's public methods
/// that did **not** migrate (the relay set). The Ambassador's `origin`
/// principal is the APO — the host IOO can neither read its meta-methods
/// nor mutate it, while the remote APO can (the encapsulation/security
/// duality of §5).
///
/// # Errors
///
/// [`HadasError::Model`] when a named method/data item does not exist or
/// is not mobile.
pub fn instantiate_ambassador(
    apo: &MromObject,
    apo_name: &str,
    origin_node: NodeId,
    spec: &AmbassadorSpec,
    ids: &mut IdGenerator,
) -> Result<(MromObject, Vec<String>), HadasError> {
    let policy = AdmissionPolicy::Off;
    instantiate_ambassador_with_policy(apo, apo_name, origin_node, spec, ids, policy)
}

/// [`instantiate_ambassador`] under an explicit [`AdmissionPolicy`]: the
/// exporting site verifies the ambassador it is about to ship — methods
/// sliced out of the APO may reference data or peers that did not travel
/// with them, and `Strict` refuses to ship such an ambassador.
///
/// # Errors
///
/// As [`instantiate_ambassador`]; [`HadasError::AdmissionRefused`] naming
/// `origin_node` when `policy` is strict and a copied body fails static
/// analysis against the ambassador.
pub fn instantiate_ambassador_with_policy(
    apo: &MromObject,
    apo_name: &str,
    origin_node: NodeId,
    spec: &AmbassadorSpec,
    ids: &mut IdGenerator,
    policy: AdmissionPolicy,
) -> Result<(MromObject, Vec<String>), HadasError> {
    instantiate_ambassador_as(apo, apo_name, origin_node, spec, ids.next_id(), policy)
}

/// [`instantiate_ambassador_with_policy`] with a pre-minted identity (one
/// minted through the receiving site runtime's own generator).
///
/// # Errors
///
/// As [`instantiate_ambassador`].
pub fn instantiate_ambassador_as(
    apo: &MromObject,
    apo_name: &str,
    origin_node: NodeId,
    spec: &AmbassadorSpec,
    id: ObjectId,
    policy: AdmissionPolicy,
) -> Result<(MromObject, Vec<String>), HadasError> {
    let apo_id = apo.id();
    let mut builder = ObjectBuilder::new(id)
        .class(&format!("ambassador:{}", apo.class_name()))
        .origin(apo_id)
        // Structural mutation is reserved for the origin APO.
        .meta_acl(Acl::Origin)
        .fixed_data(
            "origin_ref",
            DataItem::public(Value::ObjectRef(apo_id)).with_write_acl(Acl::Nobody),
        )
        .fixed_data(
            "origin_site",
            DataItem::public(Value::Int(origin_node.0 as i64)).with_write_acl(Acl::Nobody),
        )
        .fixed_data(
            "apo_name",
            DataItem::public(Value::from(apo_name)).with_write_acl(Acl::Nobody),
        );

    // The marketplace handshake: a card-carrying Ambassador advertises
    // what every public method of its APO touches.
    if spec.advertise_card {
        builder = builder.fixed_data(
            "capability_card",
            DataItem::public(capability_card(apo)).with_write_acl(Acl::Nobody),
        );
    }

    // The mutable installation state lives in the extensible section: the
    // ambassador itself (and its origin) manage it.
    builder = builder
        .ext_data("installed", DataItem::public(Value::Bool(false)))
        .ext_data("install_context", DataItem::public(Value::Null));

    // Copy exported methods with their full definitions (pre/post, ACLs).
    for name in &spec.exported_methods {
        let desc = apo
            .method_descriptor(apo_id, name)
            .map_err(HadasError::Model)?;
        let method = Method::from_descriptor(&desc).map_err(HadasError::Model)?;
        if !method.is_mobile() {
            return Err(HadasError::Model(MromError::NotMobile {
                object: apo_id,
                item: name.clone(),
            }));
        }
        builder = builder.ext_method(name, method);
    }

    // Snapshot copied data.
    for name in &spec.copied_data {
        let value = apo.read_data(apo_id, name).map_err(HadasError::Model)?;
        builder = builder.ext_data(name, DataItem::public(value));
    }

    // The install method.
    let install_src = spec.install_script.as_deref().unwrap_or(DEFAULT_INSTALL);
    let install =
        Method::public(mrom_core::MethodBody::script(install_src).map_err(HadasError::Model)?);
    builder = builder.ext_method("install", install);

    let ambassador = builder.build();
    ambassador
        .admit(policy, "instantiate_ambassador")
        .map_err(|rejection| HadasError::AdmissionRefused {
            at: origin_node,
            rejection,
        })?;

    // The relay set: the APO's publicly invocable methods that did not
    // migrate (meta-methods excluded — they must never be relayed to the
    // origin on a stranger's behalf).
    let exported: Vec<&str> = spec.exported_methods.iter().map(String::as_str).collect();
    // An arbitrary stranger principal for the public view: derived from the
    // ambassador's identity with flipped entropy, so it can collide with no
    // real object (every hosted object has a distinct (node, seq) pair).
    let stranger = ObjectId::from_parts(id.node(), id.seq(), !id.entropy());
    let remote_methods: Vec<String> = apo
        .list_methods(stranger)
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| {
            !exported.contains(&n.as_str()) && mrom_core::MetaOp::from_method_name(n).is_none()
        })
        .collect();

    Ok((ambassador, remote_methods))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrom_core::{invoke, ClassSpec, MethodBody, NoWorld};
    use mrom_value::NodeId;

    fn gen() -> IdGenerator {
        IdGenerator::new(NodeId(40))
    }

    fn sample_apo(ids: &mut IdGenerator) -> MromObject {
        ClassSpec::new("db")
            .fixed_data("rows", DataItem::public(Value::Int(100)))
            .fixed_method(
                "query",
                Method::public(MethodBody::script("return self.get(\"rows\");").unwrap()),
            )
            .fixed_method(
                "stats",
                Method::public(MethodBody::script("return \"ok\";").unwrap()),
            )
            .instantiate(ids)
    }

    #[test]
    fn exported_methods_run_locally_in_the_ambassador() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        let spec = AmbassadorSpec::relay_only()
            .with_methods(["query"])
            .with_data(["rows"]);
        let (mut amb, remote) =
            instantiate_ambassador(&apo, "db", NodeId(40), &spec, &mut ids).unwrap();
        assert_eq!(amb.origin(), apo.id());
        assert_eq!(remote, vec!["stats".to_owned()]);
        let mut world = NoWorld;
        let caller = ids.next_id();
        assert_eq!(
            invoke(&mut amb, &mut world, caller, "query", &[]).unwrap(),
            Value::Int(100)
        );
    }

    #[test]
    fn install_records_context() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        let (mut amb, _) = instantiate_ambassador(
            &apo,
            "db",
            NodeId(40),
            &AmbassadorSpec::relay_only(),
            &mut ids,
        )
        .unwrap();
        let mut world = NoWorld;
        let host = ids.next_id();
        let ctx = Value::map([("host_site", Value::Int(9))]);
        assert_eq!(
            invoke(
                &mut amb,
                &mut world,
                host,
                "install",
                std::slice::from_ref(&ctx)
            )
            .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(amb.read_data(host, "installed").unwrap(), Value::Bool(true));
        assert_eq!(amb.read_data(host, "install_context").unwrap(), ctx);
    }

    #[test]
    fn host_cannot_mutate_but_origin_can() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        let (mut amb, _) = instantiate_ambassador(
            &apo,
            "db",
            NodeId(40),
            &AmbassadorSpec::relay_only().with_methods(["query"]),
            &mut ids,
        )
        .unwrap();
        let host = ids.next_id();
        // Host IOO: no structural access.
        assert!(amb.add_data(host, "spy", Value::Null).is_err());
        assert!(amb
            .set_method(
                host,
                "query",
                &Value::map([("body", Value::from("return 0;"))])
            )
            .is_err());
        // The origin APO: full control, remotely.
        let origin = apo.id();
        amb.set_method(
            origin,
            "query",
            &Value::map([("body", Value::from("return \"updated\";"))]),
        )
        .unwrap();
        let mut world = NoWorld;
        assert_eq!(
            invoke(&mut amb, &mut world, host, "query", &[]).unwrap(),
            Value::from("updated")
        );
    }

    #[test]
    fn ambassadors_are_mobile_by_construction() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        let (amb, _) = instantiate_ambassador(
            &apo,
            "db",
            NodeId(40),
            &AmbassadorSpec::relay_only().with_methods(["query", "stats"]),
            &mut ids,
        )
        .unwrap();
        // The origin can export it (the meta principal).
        let image = amb.migration_image(apo.id()).unwrap();
        let back = mrom_core::Runtime::new(NodeId(40))
            .unpack_image(&image)
            .unwrap();
        assert_eq!(back, amb);
    }

    #[test]
    fn unknown_exports_fail() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        assert!(instantiate_ambassador(
            &apo,
            "db",
            NodeId(40),
            &AmbassadorSpec::relay_only().with_methods(["ghost"]),
            &mut ids,
        )
        .is_err());
        assert!(instantiate_ambassador(
            &apo,
            "db",
            NodeId(40),
            &AmbassadorSpec::relay_only().with_data(["ghost"]),
            &mut ids,
        )
        .is_err());
    }

    #[test]
    fn capability_card_lists_every_public_method_surface() {
        let mut ids = gen();
        let apo = ClassSpec::new("svc")
            .fixed_data("rows", DataItem::public(Value::Int(1)))
            .fixed_method(
                "query",
                Method::public(MethodBody::script("return self.get(\"rows\");").unwrap()),
            )
            .fixed_method(
                "beacon",
                Method::public(
                    MethodBody::script("return self.send(self.get(\"rows\"), \"ping\");").unwrap(),
                ),
            )
            .instantiate(&mut ids);
        let card = capability_card(&apo);
        let card = card.as_map().unwrap();
        let query = card["query"].as_map().unwrap();
        assert_eq!(
            query["reads"].as_list().unwrap(),
            &[Value::from("rows")],
            "query reads rows"
        );
        assert_eq!(query["world"].as_list().unwrap(), &[] as &[Value]);
        assert_eq!(query["pure"], Value::Bool(false), "a host read is not pure");
        let beacon = card["beacon"].as_map().unwrap();
        assert_eq!(beacon["world"].as_list().unwrap(), &[Value::from("send")]);

        // A card-carrying spec attaches it as read-only public data.
        let spec = AmbassadorSpec::relay_only().with_capability_card();
        let (amb, _) = instantiate_ambassador(&apo, "svc", NodeId(40), &spec, &mut ids).unwrap();
        let advertised = amb
            .read_data(ids.next_id(), "capability_card")
            .expect("any principal can read the card");
        assert_eq!(advertised.as_map().unwrap().len(), card.len());
        // ... and a plain spec does not.
        let (plain, _) = instantiate_ambassador(
            &apo,
            "svc",
            NodeId(40),
            &AmbassadorSpec::relay_only(),
            &mut ids,
        )
        .unwrap();
        assert!(plain.read_data(ids.next_id(), "capability_card").is_err());
    }

    #[test]
    fn custom_install_scripts() {
        let mut ids = gen();
        let apo = sample_apo(&mut ids);
        let spec = AmbassadorSpec::relay_only()
            .with_install("param ctx; self.set(\"installed\", true); return \"custom\";");
        let (mut amb, _) = instantiate_ambassador(&apo, "db", NodeId(40), &spec, &mut ids).unwrap();
        let mut world = NoWorld;
        let host = ids.next_id();
        assert_eq!(
            invoke(&mut amb, &mut world, host, "install", &[Value::Null]).unwrap(),
            Value::from("custom")
        );
    }
}
