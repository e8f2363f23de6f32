//! Round-trip properties of the CSV codec and the binary object record.
//!
//! Streams come from `surge-testkit` — the workspace's one canonical
//! generator set (collision-heavy lattices, duplicate timestamps, arbitrary
//! time axes) — so codec tests chew on exactly the stream shapes every
//! other differential suite uses. Codec-specific extremes (subnormals,
//! `u64::MAX`, negative zero) that the testkit's detector-oriented
//! generators deliberately avoid are covered by targeted cases below.

use proptest::prelude::*;
use surge_core::{Point, SpatialObject};
use surge_io::{decode_record, encode_record, read_objects, write_objects};
use surge_testkit::{arb_timed_stream, ordered_stream};

fn assert_objects_bitwise(a: &[SpatialObject], b: &[SpatialObject]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.weight.to_bits(), y.weight.to_bits());
        assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
        assert_eq!(x.pos.y.to_bits(), y.pos.y.to_bits());
        assert_eq!(x.created, y.created);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip_bit_exact(objs in arb_timed_stream(80)) {
        let mut buf = Vec::new();
        write_objects(&mut buf, &objs).unwrap();
        assert_objects_bitwise(&read_objects(&buf[..]).unwrap(), &objs);
    }

    #[test]
    fn binary_roundtrip_bit_exact(raw in prop::collection::vec((0u64..1 << 40, 0u16..500), 0..80)) {
        let objs = ordered_stream(raw);
        let back: Vec<SpatialObject> = objs
            .iter()
            .enumerate()
            .map(|(i, o)| decode_record(&encode_record(o), i as u64).unwrap())
            .collect();
        assert_objects_bitwise(&back, &objs);
    }
}

/// Extreme values the detector-oriented testkit generators never produce:
/// the CSV codec must still round-trip them bit-exactly (the binary
/// record's extremes are its unit tests').
#[test]
fn extreme_values_roundtrip_bit_exact() {
    let objs = vec![
        SpatialObject::new(0, 0.0, Point::new(-0.0, 0.0), 0),
        SpatialObject::new(
            u64::MAX,
            f64::MIN_POSITIVE,
            Point::new(-1e300, 1e-300),
            u64::MAX / 2,
        ),
        SpatialObject::new(7, 1e9, Point::new(1e6, -1e6), u64::MAX),
    ];
    let mut csv = Vec::new();
    write_objects(&mut csv, &objs).unwrap();
    assert_objects_bitwise(&read_objects(&csv[..]).unwrap(), &objs);
}
