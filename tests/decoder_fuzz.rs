//! No-panic fuzzing of the decoders that read bytes from disk: whatever the
//! input, a decoder returns `Ok` or `Err` and never panics. Driven by the
//! in-tree property harness (`FGNN_PROP_CASES` seeded cases; `scripts/ci.sh`
//! runs 256).
//!
//! Targets:
//! - `Checkpoint::from_bytes`, on random bytes, every prefix of a real
//!   checkpoint, single bit flips, and length fields rewritten to huge
//!   values with the FNV-1a checksums recomputed, so that the inner decoders
//!   see them rather than the checksum guard.
//! - `obs::parse_json` (the reader behind `exp_report`'s baselines and the
//!   serve round-trip), on random bytes, every prefix of a real exported
//!   document and that document with single bytes flipped. Bytes that are
//!   not UTF-8 reach it as `from_utf8_lossy` has them, since it takes `&str`.

mod common;

use common::for_cases;
use freshgnn_repro::core::checkpoint::{Checkpoint, MAGIC, VERSION};
use freshgnn_repro::core::obs::parse_json;
use freshgnn_repro::core::{FreshGnnConfig, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;
use freshgnn_repro::tensor::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// magic (8) + version (4): where the first segment's length starts.
const HEADER: usize = 12;

/// The bytes of a small but complete checkpoint: a warm historical cache,
/// a static feature cache and Adam moments, so every decoder has input.
fn real_checkpoint() -> Vec<u8> {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(4), 3);
    let cfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![2, 2],
        batch_size: 64,
        cache_capacity: 8,
        feature_cache_rows: 8,
        ..Default::default()
    };
    let mut t = Trainer::new(&ds, Arch::Sage, 4, Machine::single_a100(), cfg, 3);
    let mut opt = Adam::new(0.01);
    t.train_epoch(&ds, &mut opt);
    let bytes = t.checkpoint(&opt).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("a fresh checkpoint decodes");
    assert!(ckpt.cache.is_some() && ckpt.static_resident.iter().any(|&r| r));
    assert_eq!(
        (&bytes[..8], &bytes[8..HEADER]),
        (&MAGIC[..], &VERSION.to_le_bytes()[..])
    );
    assert_eq!(segments(&bytes).len(), 2, "a core and a cache segment");
    bytes
}

/// Decode `bytes`; a panic fails the test, naming the input.
fn decode(bytes: &[u8], what: impl Fn() -> String) {
    let outcome = catch_unwind(AssertUnwindSafe(|| Checkpoint::from_bytes(bytes).is_ok()));
    assert!(
        outcome.is_ok(),
        "Checkpoint::from_bytes panicked on {}",
        what()
    );
}

/// FNV-1a 64, the segment checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `(offset, len)` of each `len + payload + checksum` segment's payload
/// that lies wholly inside `bytes`, in file order.
fn segments(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = HEADER;
    while out.len() < 2 && pos + 8 <= bytes.len() {
        let len = u64_at(bytes, pos) as usize;
        let Some(end) = (pos + 8).checked_add(len).filter(|&e| e + 8 <= bytes.len()) else {
            break;
        };
        out.push((pos + 8, len));
        pos = end + 8;
    }
    out
}

/// Recompute every whole segment's checksum, so corruption inside a payload
/// reaches its decoder.
fn reseal(bytes: &mut [u8]) {
    for (at, len) in segments(bytes) {
        let sum = fnv1a(&bytes[at..at + len]);
        bytes[at + len..at + len + 8].copy_from_slice(&sum.to_le_bytes());
    }
}

#[test]
fn random_bytes_never_panic() {
    let real = real_checkpoint();
    for_cases("random_bytes_never_panic", |rng| {
        let mut bytes: Vec<u8> = (0..rng.below(2048)).map(|_| rng.below(256) as u8).collect();
        // Half the inputs carry a valid header, and half of those a
        // checksummed core segment of random bytes, so the segment reader
        // and the core decoder see random input too.
        if bytes.len() >= HEADER + 16 && rng.below(2) == 0 {
            bytes[..HEADER].copy_from_slice(&real[..HEADER]);
            if rng.below(2) == 0 {
                let len = rng.below(bytes.len() - HEADER - 16 + 1);
                bytes[HEADER..HEADER + 8].copy_from_slice(&(len as u64).to_le_bytes());
                reseal(&mut bytes);
            }
        }
        decode(&bytes, || format!("{} random bytes", bytes.len()));
    });
}

#[test]
fn every_prefix_of_a_checkpoint_never_panics() {
    let real = real_checkpoint();
    for n in 0..=real.len() {
        decode(&real[..n], || format!("the {n}-byte prefix"));
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let real = real_checkpoint();
    for_cases("single_bit_flips_never_panic", |rng| {
        let mut bytes = real.clone();
        let bit = rng.below(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        decode(&bytes, || format!("bit {bit} flipped"));
        reseal(&mut bytes);
        decode(&bytes, || format!("bit {bit} flipped, resealed"));
    });
}

#[test]
fn huge_length_fields_never_panic() {
    let real = real_checkpoint();
    // The segment lengths, plus every 8-byte window of a payload holding a
    // value a length could hold (1..=payload length): that covers each
    // element count, dimension and matrix shape the decoders read.
    let segs = segments(&real);
    let mut fields = vec![HEADER, segs[0].0 + segs[0].1 + 8];
    for &(at, len) in &segs {
        fields.extend((at..at + len - 7).filter(|&i| (1..=len as u64).contains(&u64_at(&real, i))));
    }
    assert!(fields.len() > 20, "too few length fields found: {fields:?}");
    for_cases("huge_length_fields_never_panic", |rng: &mut Rng| {
        let mut bytes = real.clone();
        let at = fields[rng.below(fields.len())];
        let huge = match rng.below(5) {
            0 => u64::MAX - rng.below(8) as u64,
            1 => 1 << 63,
            2 => u64::MAX / 4 + 1,
            3 => 1 << (32 + rng.below(31)),
            _ => rng.next_u64() | 1 << 40,
        };
        bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        reseal(&mut bytes);
        decode(&bytes, || format!("{huge:#x} written at byte {at}"));
    });
}

/// A real exported document: the committed two-epoch Chrome trace.
const JSON_DOC: &str = include_str!("golden/sync_trainer_2epoch.trace.json");

/// Parse `bytes`; a panic fails the test, naming the input. Returns whether
/// the parse succeeded.
fn parse(bytes: &[u8], what: impl Fn() -> String) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_json(&text).is_ok()));
    outcome.unwrap_or_else(|_| panic!("parse_json panicked on {}", what()))
}

#[test]
fn json_random_bytes_never_panic() {
    // Half the inputs draw from JSON's own alphabet, so they get past the
    // first byte and into strings, escapes, numbers and nesting.
    const ALPHABET: &[u8] = b"{}[]\",:\\/ \n-+.0123456789eEutrfalsn";
    for_cases("json_random_bytes_never_panic", |rng| {
        let json_like = rng.below(2) == 0;
        let bytes: Vec<u8> = (0..rng.below(512))
            .map(|_| {
                if json_like {
                    ALPHABET[rng.below(ALPHABET.len())]
                } else {
                    rng.below(256) as u8
                }
            })
            .collect();
        parse(&bytes, || format!("random bytes {bytes:?}"));
    });
}

#[test]
fn every_prefix_of_an_exported_json_document_is_an_error_not_a_panic() {
    let complete = JSON_DOC.trim_end().len();
    for n in 0..=JSON_DOC.len() {
        let ok = parse(&JSON_DOC.as_bytes()[..n], || format!("the {n}-byte prefix"));
        // A truncated document is an error, never a shorter value.
        assert_eq!(ok, n >= complete, "the {n}-byte prefix");
    }
}

#[test]
fn json_single_byte_flips_never_panic() {
    for_cases("json_single_byte_flips_never_panic", |rng| {
        let mut bytes = JSON_DOC.as_bytes().to_vec();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 + rng.below(255) as u8;
        parse(&bytes, || {
            format!("byte {at} flipped to {:#04x}", bytes[at])
        });
    });
}
