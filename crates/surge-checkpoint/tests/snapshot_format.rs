//! Snapshot-file format properties: write → read → re-write is
//! byte-identical for every detector family and for a serving registry,
//! real snapshot files are pinned to golden CRC-32s, corrupt
//! CRCs/versions are rejected with precise `IoError`s, and every
//! truncation point fails loudly.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use surge_checkpoint::{
    run_checkpointed, CheckpointConfig, CheckpointPolicy, CheckpointState, DetectorSpec,
    ServeState, SyncPolicy, Tail,
};
use surge_core::{CellTable, RectState, RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_io::{IoError, Snapshot};
use surge_serve::{ServeConfig, SurgeServer};
use surge_testkit::arb_lattice_stream;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("surge-snapfmt-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cell_spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 4,
    }
}

/// Every detector spec `run_checkpointed` accepts, with a label for
/// failure messages.
fn every_spec() -> Vec<(&'static str, DetectorSpec)> {
    let cell = |bound, sweep| DetectorSpec::Cell {
        bound,
        sweep,
        shards: 4,
    };
    vec![
        ("cell", cell(BoundMode::Combined, SweepMode::Persistent)),
        (
            "cell-rebuild",
            cell(BoundMode::Combined, SweepMode::Rebuild),
        ),
        ("bccs", cell(BoundMode::StaticOnly, SweepMode::Persistent)),
        (
            "bccs-rebuild",
            cell(BoundMode::StaticOnly, SweepMode::Rebuild),
        ),
        ("base", DetectorSpec::Base { pruned: false }),
        ("base-pruned", DetectorSpec::Base { pruned: true }),
        ("topk3", DetectorSpec::TopK { k: 3 }),
        ("gaps", DetectorSpec::Gaps { shards: 2 }),
        ("mgaps", DetectorSpec::Mgaps { shards: 2 }),
    ]
}

/// Produces a real snapshot file by running the checkpointed driver over
/// `spec`, and returns its raw bytes.
fn real_snapshot_bytes(stream: &[SpatialObject], tag: &str, spec: DetectorSpec) -> Vec<u8> {
    let windows = WindowConfig::equal(160);
    let config = CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.3),
        windows,
        spec,
        slide_objects: 8,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: 1,
            wal_segment_objects: 64,
            keep_snapshots: 1,
            sync: SyncPolicy::OsFlush,
        },
    };
    let dir = fresh_dir(tag);
    run_checkpointed(&config, &dir, stream.iter().copied(), Tail::Crash).expect("run");
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    snaps.sort();
    let bytes = std::fs::read(snaps.last().expect("at least one snapshot")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// The encoded snapshot of a serving registry after `stream`: two lanes,
/// a deduped exact pair, and one group of every other family.
fn serve_snapshot_bytes(stream: &[SpatialObject]) -> Vec<u8> {
    let w1 = WindowConfig::new(160, 80);
    let w2 = WindowConfig::new(120, 60);
    let q1 = SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), w1, 0.3);
    let q2 = SurgeQuery::whole_space(RegionSize::new(1.5, 0.8), w2, 0.6);
    let mut server = SurgeServer::new(ServeConfig::sequential(7));
    for (query, spec) in [
        (q1, cell_spec()),
        (q1, cell_spec()),
        (q2, DetectorSpec::Base { pruned: true }),
        (q1, DetectorSpec::TopK { k: 3 }),
        (q2, DetectorSpec::Gaps { shards: 2 }),
        (q1, DetectorSpec::Mgaps { shards: 2 }),
    ] {
        server.subscribe(query, spec).expect("subscribe");
    }
    for obj in stream {
        server.ingest(*obj);
    }
    server.capture().to_snapshot().encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decode → re-encode reproduces the file byte for byte, for every
    /// detector family: the capture order is canonical and every float
    /// travels as raw bits.
    #[test]
    fn snapshot_rewrite_is_byte_identical(stream in arb_lattice_stream(40)) {
        for (label, spec) in every_spec() {
            let bytes = real_snapshot_bytes(&stream, "rewrite", spec);
            let snap = Snapshot::decode(&bytes).unwrap();
            let state = CheckpointState::from_snapshot(&snap).unwrap();
            let rewritten = state.to_snapshot().encode();
            prop_assert!(rewritten == bytes, "{}: rewrite changed the file", label);
        }
    }

    /// The same for a serving registry, whose registry section composes
    /// the single-query codecs.
    #[test]
    fn serve_snapshot_rewrite_is_byte_identical(stream in arb_lattice_stream(40)) {
        let bytes = serve_snapshot_bytes(&stream);
        let state = ServeState::from_snapshot(&Snapshot::decode(&bytes).unwrap()).unwrap();
        prop_assert_eq!(state.to_snapshot().encode(), bytes);
    }

    /// The streaming encoder the snapshot writer uses produces exactly the
    /// section container's bytes — into a fresh buffer or into a dirty one
    /// reused from a larger snapshot — for every detector family.
    #[test]
    fn streaming_encoder_matches_the_section_container(stream in arb_lattice_stream(40)) {
        for (label, spec) in every_spec() {
            let bytes = real_snapshot_bytes(&stream, "stream-enc", spec);
            let state =
                CheckpointState::from_snapshot(&Snapshot::decode(&bytes).unwrap()).unwrap();
            let container = state.to_snapshot().encode();
            prop_assert!(state.encode_into(Vec::new()) == container, "{}: fresh buffer", label);
            let dirty = vec![0xA5u8; container.len() * 2 + 17];
            prop_assert!(state.encode_into(dirty) == container, "{}: reused buffer", label);
        }
    }

    /// Every truncation of a real snapshot file is rejected with a precise
    /// `IoError` — never a panic, never a partial state.
    #[test]
    fn every_truncation_is_rejected(stream in arb_lattice_stream(24)) {
        let bytes = real_snapshot_bytes(&stream, "trunc", cell_spec());
        // Every byte-level cut of the container fails its framing/CRC…
        for cut in (0..bytes.len()).step_by(7) {
            prop_assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        }
        // …and section-payload truncation (container intact, payload cut)
        // fails the state decoder with a parse error, not a panic.
        let snap = Snapshot::decode(&bytes).unwrap();
        for (tag, payload) in snap.sections() {
            for cut in (0..payload.len()).step_by(5) {
                let mut cutsnap = Snapshot::new();
                for (t, p) in snap.sections() {
                    if t == tag {
                        cutsnap.push_section(*t, payload[..cut].to_vec());
                    } else {
                        cutsnap.push_section(*t, p.clone());
                    }
                }
                let got = CheckpointState::from_snapshot(&cutsnap);
                prop_assert!(
                    matches!(got, Err(IoError::Parse { .. }) | Err(IoError::Invariant(_))),
                    "section {} cut {}: {:?}", tag, cut, got.map(|_| ())
                );
            }
        }
    }
}

#[test]
fn corrupt_crc_and_version_are_precise_errors() {
    let stream = surge_testkit::clustered_stream(48, 3, 7, 3);
    let bytes = real_snapshot_bytes(&stream, "corrupt", cell_spec());

    // Any payload bit flip trips the CRC.
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x01;
    assert!(matches!(
        Snapshot::decode(&flipped),
        Err(IoError::Invariant(_))
    ));

    // A future version — and versions 1 to 3: version 1's ENGINE and
    // SERVE_REGISTRY sections carried lane fields this layout no longer has,
    // version 2's META, SERVE_META and serve groups carried thread and mesh
    // fields, version 3's DETECTOR section carried a controller flag byte —
    // is a BadHeader, not a misparse.
    for version in [0xFEu8, 1, 2, 3] {
        let mut versioned = bytes.clone();
        versioned[8] = version;
        let n = versioned.len();
        let crc = surge_io::crc32(&versioned[..n - 4]);
        versioned[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&versioned),
            Err(IoError::BadHeader { .. })
        ));
    }

    // Wrong magic.
    let mut magic = bytes.clone();
    magic[0] = b'X';
    assert!(matches!(
        Snapshot::decode(&magic),
        Err(IoError::BadHeader { .. })
    ));
}

#[test]
fn semantic_corruption_is_rejected_by_the_state_decoder() {
    let stream = surge_testkit::clustered_stream(48, 3, 7, 9);
    let bytes = real_snapshot_bytes(&stream, "semantic", cell_spec());
    let snap = Snapshot::decode(&bytes).unwrap();
    let state = CheckpointState::from_snapshot(&snap).unwrap();

    // A missing section.
    let mut missing = Snapshot::new();
    for (t, p) in snap.sections().iter().skip(1) {
        missing.push_section(*t, p.clone());
    }
    assert!(matches!(
        CheckpointState::from_snapshot(&missing),
        Err(IoError::Invariant(_))
    ));

    // A spec no detector can be built with.
    for spec in [
        DetectorSpec::TopK { k: 0 },
        DetectorSpec::Gaps { shards: 3 },
        DetectorSpec::Mgaps { shards: 0 },
    ] {
        let mut bad = state.clone();
        bad.spec = spec;
        assert!(
            matches!(
                CheckpointState::from_snapshot(&bad.to_snapshot()),
                Err(IoError::Invariant(_))
            ),
            "{spec:?}"
        );
    }

    // The snapshot round-trips through the typed state too.
    let again = CheckpointState::from_snapshot(&state.to_snapshot()).unwrap();
    assert_eq!(again, state);
}

/// Golden CRC-32s of real snapshot files, one per detector spec plus a
/// serving registry, over a fixed stream. The capture representation may
/// change; the bytes it encodes to may not — a mismatch here is a format
/// change, which needs a `SNAPSHOT_VERSION` bump.
#[test]
fn snapshot_bytes_are_pinned() {
    // Recorded at snapshot version 4. The version-3 pins, recorded before
    // the cell table changed the in-memory capture layout (never the file),
    // held through that change.
    const PINNED: [(&str, u32); 10] = [
        ("cell", 0x7b1eb7ce),
        ("cell-rebuild", 0x3dc042ea),
        ("bccs", 0x9c18d7ae),
        ("bccs-rebuild", 0xa0277645),
        ("base", 0xb1d6ab75),
        ("base-pruned", 0x02bc542d),
        ("topk3", 0xa2ae71fa),
        ("gaps", 0x9ab832e8),
        ("mgaps", 0xec36225b),
        ("serve", 0x1d5c1759),
    ];
    // The container's own footer: CRC-32 over every byte before it (the
    // CRC of a whole file, footer included, is the constant CRC residue).
    let crc = |bytes: &[u8]| surge_io::crc32(&bytes[..bytes.len() - 4]);
    let stream = surge_testkit::clustered_stream(96, 3, 7, 42);
    let mut got: Vec<(&str, u32)> = every_spec()
        .into_iter()
        .map(|(label, spec)| {
            let bytes = real_snapshot_bytes(&stream, "pinned", spec);
            (label, crc(&bytes))
        })
        .collect();
    got.push(("serve", crc(&serve_snapshot_bytes(&stream))));
    let mismatches: Vec<String> = PINNED
        .iter()
        .zip(&got)
        .filter(|(want, have)| want != have)
        .map(|(_, (label, crc))| format!("(\"{label}\", 0x{crc:08x})"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "snapshot bytes changed: {}",
        mismatches.join(", ")
    );
}

/// Rebuilds `table` with its rows in `order` (row indices, repeats
/// allowed), letting `edit` rewrite each row's rectangles.
fn rebuild_table(
    table: &CellTable,
    order: &[usize],
    mut edit: impl FnMut(&mut Vec<RectState>),
) -> CellTable {
    let rows: Vec<_> = table.iter().collect();
    let mut out = CellTable::new();
    for &i in order {
        let row = rows[i];
        let mut rects = row.rects.to_vec();
        edit(&mut rects);
        out.push_cell(
            row.id,
            rects,
            row.us.iter().copied(),
            row.ud.iter().copied(),
            row.cand.iter().copied(),
        );
    }
    out
}

/// Encodes `state` into a file (the encoder recomputes the CRC, so only
/// the state decoder can object) and decodes it again.
fn reencode(state: &CheckpointState) -> Result<CheckpointState, IoError> {
    let bytes = state.to_snapshot().encode();
    CheckpointState::from_snapshot(&Snapshot::decode(&bytes).expect("CRC-valid container"))
}

/// A CRC-valid file whose detector section breaks the canonical order is
/// refused: restore would otherwise rebuild a different state without
/// complaint (a cell's sweep overwrites a repeated rectangle id in place).
#[test]
fn out_of_canonical_order_detector_state_is_rejected() {
    let stream = surge_testkit::clustered_stream(48, 3, 7, 9);
    let decode = |spec| {
        let bytes = real_snapshot_bytes(&stream, "order", spec);
        CheckpointState::from_snapshot(&Snapshot::decode(&bytes).unwrap()).unwrap()
    };
    let rejected = |state: &CheckpointState, case: &str| {
        let got = reencode(state);
        assert!(
            matches!(got, Err(IoError::Invariant(_))),
            "{case}: {:?}",
            got.map(|_| ())
        );
    };

    let cell = decode(cell_spec());
    let table = &cell.detector.cells;
    let n = table.len();
    assert!(n >= 2, "the stream must populate several cells");
    let wide = table
        .iter()
        .position(|row| row.rects.len() >= 2)
        .expect("a cell with two rectangles");
    // The untouched state survives the same path.
    assert_eq!(reencode(&cell).unwrap(), cell);

    let mut bad = cell.clone();
    bad.detector.cells = rebuild_table(table, &[1, 0], |_| {});
    rejected(&bad, "cells out of id order");
    let mut bad = cell.clone();
    bad.detector.cells = rebuild_table(table, &[0, 0], |_| {});
    rejected(&bad, "duplicated cell");
    let mut bad = cell.clone();
    bad.detector.cells = rebuild_table(table, &[wide], |rects| rects.reverse());
    rejected(&bad, "cell rectangles out of id order");
    let mut bad = cell.clone();
    bad.detector.cells = rebuild_table(table, &[wide], |rects| rects.insert(1, rects[0]));
    rejected(&bad, "duplicated cell rectangle");

    let mut topk = decode(DetectorSpec::TopK { k: 3 });
    assert!(topk.detector.rects.len() >= 2);
    topk.detector.rects.swap(0, 1);
    rejected(&topk, "top-k rectangles out of id order");

    for spec in [
        DetectorSpec::Gaps { shards: 2 },
        DetectorSpec::Mgaps { shards: 2 },
    ] {
        let grid = decode(spec);
        assert!(grid.detector.grid_cells.len() >= 2);
        let mut bad = grid.clone();
        bad.detector.grid_cells.swap(0, 1);
        rejected(&bad, "grid cells out of (grid, id) order");
        let mut bad = grid.clone();
        let first = bad.detector.grid_cells[0];
        bad.detector.grid_cells.insert(0, first);
        rejected(&bad, "duplicated grid cell");
    }
}
