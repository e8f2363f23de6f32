//! Snapshot-file format properties: write → read → re-write is
//! byte-identical, corrupt CRCs/versions are rejected with precise
//! `IoError`s, and every truncation point fails loudly.

use proptest::prelude::*;
use surge_checkpoint::{
    run_checkpointed, CheckpointConfig, CheckpointPolicy, CheckpointState, DetectorSpec,
    SyncPolicy, Tail,
};
use surge_core::{RegionSize, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, SweepMode};
use surge_io::{IoError, Snapshot};
use surge_testkit::arb_lattice_stream;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "surge-snapfmt-{tag}-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Produces a real snapshot file by running the checkpointed driver, and
/// returns its raw bytes.
fn real_snapshot_bytes(stream: &[surge_core::SpatialObject], tag: &str) -> Vec<u8> {
    let windows = WindowConfig::equal(160);
    let config = CheckpointConfig {
        query: SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, 0.3),
        windows,
        spec: DetectorSpec::Cell {
            bound: BoundMode::Combined,
            sweep: SweepMode::Persistent,
            shards: 4,
        },
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decode → re-encode reproduces the file byte for byte: the capture
    /// order is canonical and every float travels as raw bits.
    #[test]
    fn snapshot_rewrite_is_byte_identical(stream in arb_lattice_stream(40)) {
        let bytes = real_snapshot_bytes(&stream, "rewrite");
        let snap = Snapshot::decode(&bytes).unwrap();
        let state = CheckpointState::from_snapshot(&snap).unwrap();
        let rewritten = state.to_snapshot().encode();
        prop_assert_eq!(rewritten, bytes);
    }

    /// The streaming encoder the snapshot writer uses produces exactly the
    /// section container's bytes — into a fresh buffer or into a dirty one
    /// reused from a larger snapshot.
    #[test]
    fn streaming_encoder_matches_the_section_container(stream in arb_lattice_stream(40)) {
        let bytes = real_snapshot_bytes(&stream, "stream-enc");
        let state = CheckpointState::from_snapshot(&Snapshot::decode(&bytes).unwrap()).unwrap();
        let container = state.to_snapshot().encode();
        prop_assert_eq!(&state.encode_into(Vec::new()), &container);
        let dirty = vec![0xA5u8; container.len() * 2 + 17];
        prop_assert_eq!(&state.encode_into(dirty), &container);
    }

    /// Every truncation of a real snapshot file is rejected with a precise
    /// `IoError` — never a panic, never a partial state.
    #[test]
    fn every_truncation_is_rejected(stream in arb_lattice_stream(24)) {
        let bytes = real_snapshot_bytes(&stream, "trunc");
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
    let bytes = real_snapshot_bytes(&stream, "corrupt");

    // Any payload bit flip trips the CRC.
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x01;
    assert!(matches!(
        Snapshot::decode(&flipped),
        Err(IoError::Invariant(_))
    ));

    // A future version — and versions 1 and 2: version 1's ENGINE and
    // SERVE_REGISTRY sections carried lane fields this layout no longer has,
    // version 2's META, SERVE_META and serve groups carried thread and mesh
    // fields — is a BadHeader, not a misparse.
    for version in [0xFEu8, 1, 2] {
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
    let bytes = real_snapshot_bytes(&stream, "semantic");
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

    // The snapshot round-trips through the typed state too.
    let again = CheckpointState::from_snapshot(&state.to_snapshot()).unwrap();
    assert_eq!(again, state);
}
