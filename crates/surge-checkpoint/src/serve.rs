//! The serving-registry state model and its snapshot codec.
//!
//! A [`ServeState`] is the durable form of a `surge-serve` server: every
//! ingest **lane** (a shared window engine plus its slide phase), every
//! deduped **detector group** riding that lane (query + spec + captured
//! [`surge_core::DetectorState`]), and every **subscription**'s answer
//! channel (`released` cursor + retained flushes). Restoring it rebuilds a
//! server whose subsequent answers are bit-identical to one that never
//! stopped — the multi-query extension of the single-query
//! [`CheckpointState`](crate::CheckpointState) contract, proptested in
//! `surge-serve`.
//!
//! The snapshot container reuses the `surge-io` section format with two
//! serve-specific sections ([`tags::SERVE_META`] and
//! [`tags::SERVE_REGISTRY`](crate::state::tags::SERVE_REGISTRY)), and the
//! registry section composes the exact same `put_*`/`get_*` codecs the
//! single-query sections use — engine residency, detector state and answer
//! windows serialize byte-compatibly in both worlds.

use surge_core::{DetectorState, EngineState, RegionAnswer, SurgeQuery};
use surge_io::{IoError, PayloadReader, PayloadWriter, Snapshot};

use crate::state::{
    get_answers, get_detector, get_engine, get_mesh, get_spec, inv, put_answers, put_detector,
    put_engine, put_mesh, put_spec, tags, DetectorSpec, MeshState,
};

/// Cadence and id counters of a serving registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeMeta {
    /// Objects the server has broadcast to its lanes.
    pub objects_ingested: u64,
    /// Arrivals per slide (shared by every lane).
    pub slide_objects: u64,
    /// Sweep worker threads per flush.
    pub threads: u64,
    /// The next subscription id the server will hand out.
    pub next_sub_id: u64,
    /// Monotonic snapshot sequence number.
    pub snapshot_seq: u64,
}

/// One subscription's answer channel: its ack cursor and the retained
/// (unacked) flushes.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSubState {
    /// The subscription id.
    pub id: u64,
    /// Flushes released by acks (the seq of the first retained entry).
    pub released: u64,
    /// Retained flushes, seqs `released..released + retained.len()`.
    pub retained: Vec<Vec<RegionAnswer>>,
}

/// One deduped detector group: a query + spec, the shared detector's
/// captured state, and the subscriptions fanned out from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeGroupState {
    /// The continuous query.
    pub query: SurgeQuery,
    /// The detector flavor.
    pub spec: DetectorSpec,
    /// The shared detector's logical state.
    pub detector: DetectorState,
    /// Elastic-mesh runtime state — `Some` exactly for
    /// [`DetectorSpec::Elastic`] groups, whose live shard count and
    /// balancer streak are not derivable from the detector state alone.
    pub mesh: Option<MeshState>,
    /// Window-transition events the group has consumed.
    pub events: u64,
    /// The group's subscriptions (at least one; an empty group is removed).
    pub subs: Vec<ServeSubState>,
}

/// One ingest lane: a shared window engine at a slide cadence, plus the
/// detector groups it feeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLaneState {
    /// Server-level object count when the lane was created (the lane only
    /// saw the stream suffix from here).
    pub start_objects: u64,
    /// Arrivals in the lane's open slide (0 once its end of stream began);
    /// `SurgeServer::restore` checks it against the lane's counters.
    pub in_slide: u64,
    /// Flushes the lane has executed.
    pub slides: u64,
    /// Window-engine residency.
    pub engine: EngineState,
    /// Detector groups fed by this lane, in registration order.
    pub groups: Vec<ServeGroupState>,
}

/// The complete logical state of a serving registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeState {
    /// Cadence + id counters.
    pub meta: ServeMeta,
    /// Ingest lanes in creation order.
    pub lanes: Vec<ServeLaneState>,
}

fn encode_serve_meta(m: &ServeMeta) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(m.objects_ingested);
    w.u64(m.slide_objects);
    w.u64(m.threads);
    w.u64(m.next_sub_id);
    w.u64(m.snapshot_seq);
    w.finish()
}

fn decode_serve_meta(buf: &[u8]) -> Result<ServeMeta, IoError> {
    let mut r = PayloadReader::new(buf);
    let m = ServeMeta {
        objects_ingested: r.u64("serve.objects_ingested")?,
        slide_objects: r.u64("serve.slide_objects")?,
        threads: r.u64("serve.threads")?,
        next_sub_id: r.u64("serve.next_sub_id")?,
        snapshot_seq: r.u64("serve.snapshot_seq")?,
    };
    if m.slide_objects == 0 {
        return Err(inv("serve meta: slide_objects must be positive"));
    }
    r.expect_exhausted("serve meta")?;
    Ok(m)
}

fn encode_registry(lanes: &[ServeLaneState]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(lanes.len() as u64);
    for lane in lanes {
        w.u64(lane.start_objects);
        w.u64(lane.in_slide);
        w.u64(lane.slides);
        put_engine(&mut w, &lane.engine);
        w.u64(lane.groups.len() as u64);
        for g in &lane.groups {
            put_spec(&mut w, &g.query, &g.spec);
            put_detector(&mut w, &g.detector);
            put_mesh(&mut w, g.mesh.as_ref());
            w.u64(g.events);
            w.u64(g.subs.len() as u64);
            for sub in &g.subs {
                w.u64(sub.id);
                put_answers(&mut w, sub.released, &sub.retained);
            }
        }
    }
    w.finish()
}

fn decode_registry(buf: &[u8]) -> Result<Vec<ServeLaneState>, IoError> {
    let mut r = PayloadReader::new(buf);
    let n_lanes = r.u64("serve.lanes")?;
    let mut lanes = Vec::with_capacity(n_lanes.min(1 << 16) as usize);
    for _ in 0..n_lanes {
        let start_objects = r.u64("lane.start_objects")?;
        let in_slide = r.u64("lane.in_slide")?;
        let slides = r.u64("lane.slides")?;
        let engine = get_engine(&mut r)?;
        let n_groups = r.u64("lane.groups")?;
        let mut groups = Vec::with_capacity(n_groups.min(1 << 16) as usize);
        for _ in 0..n_groups {
            let (query, spec) = get_spec(&mut r)?;
            if spec == DetectorSpec::Serve {
                return Err(inv("serve group: nested Serve spec"));
            }
            let detector = get_detector(&mut r)?;
            let mesh = get_mesh(&mut r)?;
            if mesh.is_some() != matches!(spec, DetectorSpec::Elastic { .. }) {
                return Err(inv(
                    "serve group: MESH state present iff the spec is Elastic — mismatch",
                ));
            }
            let events = r.u64("group.events")?;
            let n_subs = r.u64("group.subs")?;
            if n_subs == 0 {
                return Err(inv("serve group: a group must have subscribers"));
            }
            let mut subs = Vec::with_capacity(n_subs.min(1 << 16) as usize);
            for _ in 0..n_subs {
                let id = r.u64("sub.id")?;
                let (released, retained) = get_answers(&mut r, &query)?;
                subs.push(ServeSubState {
                    id,
                    released,
                    retained,
                });
            }
            groups.push(ServeGroupState {
                query,
                spec,
                detector,
                mesh,
                events,
                subs,
            });
        }
        lanes.push(ServeLaneState {
            start_objects,
            in_slide,
            slides,
            engine,
            groups,
        });
    }
    r.expect_exhausted("serve registry")?;
    Ok(lanes)
}

impl ServeState {
    /// Serializes into the snapshot section container. The SPEC section of
    /// a serve snapshot is the [`DetectorSpec::Serve`] marker, so a reader
    /// can tell a registry snapshot from a single-query one before
    /// touching the serve sections.
    pub fn to_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        s.push_section(tags::SERVE_META, encode_serve_meta(&self.meta));
        s.push_section(tags::SERVE_REGISTRY, encode_registry(&self.lanes));
        s
    }

    /// Decodes from a snapshot container, validating every section.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, IoError> {
        let section = |tag: u32, name: &str| {
            snap.section(tag)
                .ok_or_else(|| inv(format!("snapshot is missing the {name} section")))
        };
        let meta = decode_serve_meta(section(tags::SERVE_META, "SERVE_META")?)?;
        let lanes = decode_registry(section(tags::SERVE_REGISTRY, "SERVE_REGISTRY")?)?;
        Ok(ServeState { meta, lanes })
    }
}
