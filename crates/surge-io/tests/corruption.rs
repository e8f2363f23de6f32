//! Decoder hardening: every truncation point of a CSV stream yields a
//! precise `IoError` — never a panic, never a silently short read.
//!
//! "The bytes stop early" must always be *distinguishable* from "the
//! stream is complete"; CSV gets it from the mandatory end-of-stream
//! footer. Arbitrary corruption (bit flips) must never panic either — it
//! may decode to an error of any kind, or (the CSV codec and the bare
//! binary record carry no CRC) to a *different valid object*, but the
//! process must stay up.

use proptest::prelude::*;
use surge_io::{decode_record, encode_record, read_objects, write_objects, IoError, RECORD_SIZE};
use surge_testkit::arb_timed_stream;

/// Asserts that decoding every proper prefix of `bytes` either errors
/// precisely or still decodes the **complete** original stream (possible
/// only for cuts that drop pure framing whitespace, e.g. CSV's final
/// newline) — never a silently shorter stream.
fn assert_every_truncation_errors<T: std::fmt::Debug + PartialEq>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<Vec<T>, IoError>,
    full: &[T],
    format: &str,
) {
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(
                IoError::Parse { .. }
                | IoError::BadHeader { .. }
                | IoError::Invariant(_)
                | IoError::Io(_),
            ) => {}
            Ok(got) => assert_eq!(
                got,
                full,
                "{format}: truncation at {cut}/{} silently decoded a short stream",
                bytes.len()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csv_rejects_every_truncation_point(objs in arb_timed_stream(30)) {
        let mut buf = Vec::new();
        write_objects(&mut buf, &objs).unwrap();
        assert_every_truncation_errors(&buf, |b| read_objects(b), &objs, "csv");
    }

    /// Bit flips anywhere must never panic the decoders. (The CRC-less
    /// codecs may legitimately decode a flipped input as a different valid
    /// stream or object; the checkpoint formats layer CRCs on top —
    /// covered in `surge-io`'s snapshot tests and the WAL tests.)
    #[test]
    fn bit_flips_never_panic(
        objs in arb_timed_stream(16),
        flip_seed in 0usize..10_000,
    ) {
        let mut csv = Vec::new();
        write_objects(&mut csv, &objs).unwrap();
        let pos = flip_seed % csv.len();
        csv[pos] ^= 1 << (flip_seed % 8);
        let _ = read_objects(&csv[..]);
        for (i, o) in objs.iter().enumerate() {
            let mut rec = encode_record(o);
            rec[flip_seed % RECORD_SIZE] ^= 1 << (flip_seed % 8);
            let _ = decode_record(&rec, i as u64);
        }
    }
}
