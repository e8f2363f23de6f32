//! The fixed 40-byte binary record of one spatial object.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! id         : u64
//! weight     : f64 (IEEE-754 bits)
//! x          : f64
//! y          : f64
//! created_ms : u64
//! ```
//!
//! The checkpoint WAL frames exactly this record with a per-record CRC, so
//! [`decode_record`] is the WAL's own decoder: every record a recovery
//! reads passes its weight and coordinate checks.

use surge_core::{Point, SpatialObject};

use crate::error::{IoError, Result};

/// Size of one encoded record in bytes.
pub const RECORD_SIZE: usize = 40;

/// Encodes one object as the fixed 40-byte record (id, weight bits, x bits,
/// y bits, created).
pub fn encode_record(o: &SpatialObject) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    rec[0..8].copy_from_slice(&o.id.to_le_bytes());
    rec[8..16].copy_from_slice(&o.weight.to_bits().to_le_bytes());
    rec[16..24].copy_from_slice(&o.pos.x.to_bits().to_le_bytes());
    rec[24..32].copy_from_slice(&o.pos.y.to_bits().to_le_bytes());
    rec[32..40].copy_from_slice(&o.created.to_le_bytes());
    rec
}

/// Decodes one 40-byte record, validating weight/coordinate sanity. `at` is
/// the record index reported in errors.
pub fn decode_record(rec: &[u8; RECORD_SIZE], at: u64) -> Result<SpatialObject> {
    let id = u64_from(&rec[0..8]);
    let weight = f64::from_bits(u64_from(&rec[8..16]));
    let x = f64::from_bits(u64_from(&rec[16..24]));
    let y = f64::from_bits(u64_from(&rec[24..32]));
    let created = u64_from(&rec[32..40]);
    if !(weight >= 0.0 && weight.is_finite()) {
        return Err(IoError::Invariant(format!(
            "record {at}: weight must be finite and non-negative, got {weight}"
        )));
    }
    if !x.is_finite() || !y.is_finite() {
        return Err(IoError::Invariant(format!(
            "record {at}: coordinates must be finite"
        )));
    }
    Ok(SpatialObject::new(id, weight, Point::new(x, y), created))
}

fn u64_from(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf.try_into().expect("8-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes a struct literal: `SpatialObject::new` debug-asserts the
    /// weight, and these objects carry the values the decoder must refuse.
    fn raw(weight: f64, x: f64, y: f64) -> [u8; RECORD_SIZE] {
        encode_record(&SpatialObject {
            id: 3,
            weight,
            pos: Point::new(x, y),
            created: 9,
        })
    }

    fn refused(rec: &[u8; RECORD_SIZE]) -> bool {
        matches!(decode_record(rec, 5), Err(IoError::Invariant(m)) if m.starts_with("record 5:"))
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for o in [
            SpatialObject::new(0, 42.5, Point::new(12.4823, 41.8901), 0),
            SpatialObject::new(7, 1.0, Point::new(-180.0, 90.0), 118),
            SpatialObject::new(u64::MAX, 0.0, Point::new(-0.0, 0.0), u64::MAX),
            SpatialObject::new(1, f64::MIN_POSITIVE, Point::new(-1e300, 1e-300), 2),
        ] {
            let back = decode_record(&encode_record(&o), 0).unwrap();
            assert_eq!(back.id, o.id);
            assert_eq!(back.weight.to_bits(), o.weight.to_bits());
            assert_eq!(back.pos.x.to_bits(), o.pos.x.to_bits());
            assert_eq!(back.pos.y.to_bits(), o.pos.y.to_bits());
            assert_eq!(back.created, o.created);
        }
    }

    #[test]
    fn rejects_nan_weight() {
        assert!(refused(&raw(f64::NAN, 0.0, 0.0)));
    }

    #[test]
    fn rejects_negative_and_infinite_weights() {
        for w in [-1.0, -f64::MIN_POSITIVE, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(refused(&raw(w, 0.0, 0.0)), "weight {w}");
        }
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(refused(&raw(1.0, bad, 0.0)), "x {bad}");
            assert!(refused(&raw(1.0, 0.0, bad)), "y {bad}");
        }
    }
}
