//! Pins `WireWriter`'s name-compression table to a straightforward
//! reference: a `HashMap` from each lowercased label suffix to the offset
//! where it was first written. Both writers see the same sequence of names
//! and raw padding; the bytes, the pointer log and the set of registered
//! suffixes must agree exactly.

use dns_wire::WireWriter;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The reference compressor: one owned key and one hash-map probe per
/// label suffix.
#[derive(Default)]
struct Reference {
    buf: Vec<u8>,
    compress: HashMap<Vec<u8>, usize>,
    pointers: Vec<(usize, usize)>,
}

impl Reference {
    fn put_name(&mut self, labels: &[Vec<u8>]) {
        for i in 0..labels.len() {
            let key = suffix_key(&labels[i..]);
            if let Some(&off) = self.compress.get(&key) {
                self.pointers.push((self.buf.len(), off));
                self.buf
                    .extend_from_slice(&(0xc000 | off as u16).to_be_bytes());
                return;
            }
            let here = self.buf.len();
            if here <= 0x3fff {
                self.compress.insert(key, here);
            }
            self.buf.push(labels[i].len() as u8);
            self.buf.extend_from_slice(&labels[i]);
        }
        self.buf.push(0);
    }
}

fn suffix_key(labels: &[Vec<u8>]) -> Vec<u8> {
    let mut key = Vec::new();
    for l in labels {
        key.push(l.len() as u8);
        key.extend(l.iter().map(|b| b.to_ascii_lowercase()));
    }
    key
}

/// One write: a name, or raw bytes that move later names' offsets.
#[derive(Debug, Clone)]
enum Op {
    Name(Vec<Vec<u8>>),
    Pad(usize),
}

/// Labels that recur across names in mixed case, so suffixes are shared.
const COMMON: [&[u8]; 10] = [
    b"net",
    b"NET",
    b"Net",
    b"root-servers",
    b"ROOT-servers",
    b"com",
    b"CoM",
    b"a",
    b"A",
    b"b",
];

/// Label bytes: letters of both cases, digits, and the bytes that differ
/// from a letter only in bit 0x20 without being letters (`@`/`` ` ``,
/// `[`/`{`), which share a case-folded hash with each other but must not
/// compress together.
const ALPHABET: &[u8] = b"abcXYZ019-@`[{";

fn label() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0usize..COMMON.len()).prop_map(|i| COMMON[i].to_vec()),
        (0usize..COMMON.len()).prop_map(|i| COMMON[i].to_vec()),
        proptest::collection::vec(0usize..ALPHABET.len(), 1..4)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
        proptest::collection::vec(0usize..ALPHABET.len(), 9..64)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
    ]
}

fn name() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop_oneof![
        proptest::collection::vec(label(), 0..6),
        proptest::collection::vec(label(), 0..6),
        // Deep names: up to 127 one-byte labels (255 wire bytes).
        proptest::collection::vec((0usize..4).prop_map(|i| vec![b"aAbB"[i]]), 30..128),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        name().prop_map(Op::Name),
        name().prop_map(Op::Name),
        name().prop_map(Op::Name),
        (0usize..1200).prop_map(Op::Pad),
    ]
}

/// Run `ops` through both writers and compare everything observable.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut reference = Reference::default();
    let mut w = WireWriter::new();
    for op in ops {
        match op {
            Op::Name(labels) => {
                reference.put_name(labels);
                w.put_name_compressed(labels);
            }
            Op::Pad(n) => {
                let pad = vec![0xc0; *n];
                reference.buf.extend_from_slice(&pad);
                w.put_bytes(&pad);
            }
        }
    }
    prop_assert_eq!(w.as_bytes(), reference.buf.as_slice());
    prop_assert_eq!(w.pointers(), reference.pointers.as_slice());
    let ours: HashSet<Vec<u8>> = w.compressed_suffixes().collect();
    let theirs: HashSet<Vec<u8>> = reference.compress.into_keys().collect();
    prop_assert_eq!(ours, theirs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Message-sized sequences: a few to a few hundred names, enough to
    /// move the table from its inline slots to the heap.
    #[test]
    fn table_matches_the_hashmap_reference(ops in proptest::collection::vec(op(), 1..300)) {
        check(&ops)?;
    }

    /// Messages that cross the 14-bit pointer reach: suffixes written past
    /// offset 0x3FFF are never registered, but earlier ones still
    /// compress names written after the limit.
    #[test]
    fn pointer_limit_matches_the_hashmap_reference(
        head in proptest::collection::vec(name(), 0..20),
        pad in 15_000usize..16_500,
        tail in proptest::collection::vec(op(), 1..120),
    ) {
        let mut ops: Vec<Op> = head.into_iter().map(Op::Name).collect();
        ops.push(Op::Pad(pad));
        ops.extend(tail);
        check(&ops)?;
    }
}

#[test]
fn case_folded_hash_twins_do_not_compress_together() {
    // '@' (0x40) and '`' (0x60) fold to the same hash input; only a real
    // case-insensitive match may become a pointer.
    let ops = [
        Op::Name(vec![b"@".to_vec()]),
        Op::Name(vec![b"`".to_vec()]),
        Op::Name(vec![b"X".to_vec(), b"@".to_vec()]),
        Op::Name(vec![b"x".to_vec(), b"@".to_vec()]),
    ];
    check(&ops).unwrap();
    let mut w = WireWriter::new();
    for op in &ops {
        if let Op::Name(labels) = op {
            w.put_name_compressed(labels);
        }
    }
    // "`" (at 3) is written in full; "X.@" (at 6) points its "@" at 0;
    // "x.@" (at 10) is one pointer to "X.@".
    assert_eq!(w.pointers(), &[(8, 0), (10, 6)]);
}
