//! Low-level wire reader/writer.
//!
//! The writer maintains a name-compression table (suffix → offset) so
//! messages use RFC 1035 §4.1.4 compression pointers; the reader follows
//! pointers with loop and bounds protection.

/// Maximum offset addressable by a 14-bit compression pointer.
const MAX_POINTER_TARGET: usize = 0x3fff;

/// Hard cap on compression-pointer jumps followed while decoding one name.
///
/// A 255-byte name has at most 127 labels, so any legitimate chain — even
/// one pointer per label — stays far below this. The monotonic-target rule
/// in [`WireReader::read_name_labels`] already makes loops structurally
/// impossible; the cap is defence in depth against degenerate (but acyclic)
/// chains in hostile messages.
pub const MAX_POINTER_JUMPS: u32 = 64;

/// Errors while decoding wire data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer points at or past its own position.
    ForwardPointer,
    /// A pointer chain loops: a jump landed at or after an earlier jump
    /// target, or more than [`MAX_POINTER_JUMPS`] jumps were followed.
    PointerLoop,
    /// A label length byte uses the reserved 0b10/0b01 prefixes.
    BadLabelType,
    /// Decoded name exceeds 255 bytes.
    NameTooLong,
    /// RDATA length did not match its contents.
    BadRdataLength,
    /// A count field promised more entries than the message holds.
    BadCount,
    /// Malformed record content (type-specific).
    BadRdata,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::ForwardPointer => write!(f, "compression pointer points forward"),
            WireError::PointerLoop => write!(f, "compression pointer chain loops"),
            WireError::BadLabelType => write!(f, "reserved label type"),
            WireError::NameTooLong => write!(f, "decoded name too long"),
            WireError::BadRdataLength => write!(f, "rdata length mismatch"),
            WireError::BadCount => write!(f, "section count exceeds message"),
            WireError::BadRdata => write!(f, "malformed rdata"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked reader over a message buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the buffer is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a big-endian u16.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.read_u8()? as u16;
        let lo = self.read_u8()? as u16;
        Ok((hi << 8) | lo)
    }

    /// Read a big-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.read_u16()? as u32;
        let lo = self.read_u16()? as u32;
        Ok((hi << 16) | lo)
    }

    /// Read `len` raw bytes.
    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read a possibly-compressed name as raw labels.
    ///
    /// Pointer chasing is bounded two ways. Every jump must land strictly
    /// before its own position ([`WireError::ForwardPointer`] otherwise)
    /// *and* strictly before every earlier jump target, so targets decrease
    /// monotonically and loops are structurally impossible
    /// ([`WireError::PointerLoop`]). Compliant encoders always point at the
    /// first occurrence of a suffix, which was written before the name now
    /// referencing it, so real messages satisfy the monotonic rule; only
    /// crafted chains trip it. A hard cap of [`MAX_POINTER_JUMPS`] jumps
    /// backstops degenerate acyclic chains.
    pub fn read_name_labels(&mut self) -> Result<Vec<Vec<u8>>, WireError> {
        let mut labels = Vec::new();
        let mut wire_len = 1usize; // trailing root byte
        let mut pos = self.pos;
        let mut followed: u32 = 0;
        let mut lowest_target: Option<usize> = None;
        let mut end_after_first_pointer: Option<usize> = None;
        loop {
            let len = *self.buf.get(pos).ok_or(WireError::Truncated)? as usize;
            match len & 0xc0 {
                0x00 => {
                    pos += 1;
                    if len == 0 {
                        break;
                    }
                    if pos + len > self.buf.len() {
                        return Err(WireError::Truncated);
                    }
                    wire_len += len + 1;
                    if wire_len > super::name::MAX_NAME_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    labels.push(self.buf[pos..pos + len].to_vec());
                    pos += len;
                }
                0xc0 => {
                    let lo = *self.buf.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                    let target = ((len & 0x3f) << 8) | lo;
                    if end_after_first_pointer.is_none() {
                        end_after_first_pointer = Some(pos + 2);
                    }
                    if target >= pos {
                        return Err(WireError::ForwardPointer);
                    }
                    if lowest_target.is_some_and(|lowest| target >= lowest) {
                        return Err(WireError::PointerLoop);
                    }
                    lowest_target = Some(target);
                    followed += 1;
                    if followed > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    pos = target;
                }
                _ => return Err(WireError::BadLabelType),
            }
        }
        self.pos = end_after_first_pointer.unwrap_or(pos);
        Ok(labels)
    }
}

/// Growable writer with a name-compression table.
pub struct WireWriter {
    buf: Vec<u8>,
    /// Where each name suffix was first written (see [`SuffixTable`]).
    compress: SuffixTable,
    /// Whether `put_name_compressed` emits pointers (ablation toggle).
    compression_enabled: bool,
    /// Every compression pointer emitted, as `(position, target)` — the
    /// offset of the 2-byte pointer itself and the offset it refers to.
    /// Response-template builders use this to relocate pointers when the
    /// question region they were encoded against changes length.
    pointers: Vec<(usize, usize)>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    /// New empty writer with compression enabled.
    pub fn new() -> Self {
        Self::with_buffer(Vec::with_capacity(512))
    }

    /// New writer with compression disabled (for the codec ablation bench).
    pub fn without_compression() -> Self {
        WireWriter {
            compression_enabled: false,
            ..Self::new()
        }
    }

    /// A writer that reuses `buf`'s allocation (cleared first). Pair with
    /// [`Self::into_bytes`] to encode repeatedly without reallocating.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter {
            buf,
            compress: SuffixTable::new(),
            compression_enabled: true,
            pointers: Vec::new(),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrite a previously written big-endian u16 (for patching RDLENGTH
    /// and section counts).
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        self.buf[offset] = (v >> 8) as u8;
        self.buf[offset + 1] = v as u8;
    }

    /// Write a name using compression pointers where a suffix was already
    /// emitted. `labels` are raw label bytes (each at most 63 bytes),
    /// leftmost first. A suffix points at the first offset it was written
    /// at, and only suffixes starting at or below offset 0x3FFF (the reach
    /// of a 14-bit pointer) are registered.
    pub fn put_name_compressed(&mut self, labels: &[Vec<u8>]) {
        if !self.compression_enabled {
            for label in labels {
                self.put_u8(label.len() as u8);
                self.put_bytes(label);
            }
            self.put_u8(0);
            return;
        }
        let mut inline = [0u64; 32];
        let mut spilled = Vec::new();
        let hashes: &mut [u64] = if labels.len() <= inline.len() {
            &mut inline[..labels.len()]
        } else {
            spilled.resize(labels.len(), 0);
            &mut spilled
        };
        suffix_hashes(labels, hashes);
        for (i, &hash) in hashes.iter().enumerate() {
            let buf = &self.buf;
            if let Some(off) = self
                .compress
                .find(hash, |off| suffix_at(buf, off, &labels[i..]))
            {
                self.pointers.push((self.buf.len(), off));
                self.put_u16(0xc000 | off as u16);
                return;
            }
            let here = self.buf.len();
            if here <= MAX_POINTER_TARGET {
                self.compress.insert(hash, here);
            }
            self.put_u8(labels[i].len() as u8);
            self.put_bytes(&labels[i]);
        }
        self.put_u8(0);
    }

    /// Finish, returning the buffer (no copy: the writer's own allocation).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The compression pointers emitted so far, as `(position, target)`
    /// pairs in write order.
    pub fn pointers(&self) -> &[(usize, usize)] {
        &self.pointers
    }

    /// The name suffixes registered for compression so far, as canonical
    /// lowercase wire bytes (label length + lowercased label, repeated; no
    /// trailing root byte), rebuilt from the bytes written. Response-template
    /// builders use this to detect question names whose labels would
    /// compress against record names — those encodings depend on the
    /// question and cannot be templated.
    pub fn compressed_suffixes(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        self.compress
            .offsets()
            .map(|off| suffix_key_at(&self.buf, off))
    }
}

/// Slots kept inline in every writer. A message registering more than
/// three quarters of this many suffixes (large TCP and AXFR messages)
/// moves the table to the heap, doubling it as it fills.
const INLINE_SLOTS: usize = 64;

/// The compression table: an open-addressing hash set of the offsets
/// where name suffixes were first written, keyed by a case-folded hash of
/// the suffix. A slot holds the hash's high 48 bits and `offset + 1` in
/// the low 16 (0 is an empty slot), so a lookup compares hash tags first
/// and confirms a candidate by matching the suffix against the bytes
/// already written. Nothing is allocated until the inline slots fill.
/// The hash is unkeyed, so a crafted name can make probes collide; the
/// cost stays bounded by the names one message holds, and a collision
/// never changes the output because every match is confirmed.
struct SuffixTable {
    inline: [u64; INLINE_SLOTS],
    /// Replaces `inline` once it fills; empty (unallocated) until then.
    heap: Vec<u64>,
    len: usize,
}

impl SuffixTable {
    fn new() -> Self {
        SuffixTable {
            inline: [0; INLINE_SLOTS],
            heap: Vec::new(),
            len: 0,
        }
    }

    fn slots(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }

    /// The first offset under `hash` that `matches` accepts.
    fn find(&self, hash: u64, mut matches: impl FnMut(usize) -> bool) -> Option<usize> {
        let slots = self.slots();
        let mask = slots.len() - 1;
        let tag = hash & !0xffff;
        let mut i = (hash >> 16) as usize & mask;
        loop {
            let slot = slots[i];
            if slot == 0 {
                return None;
            }
            if slot & !0xffff == tag {
                let off = (slot & 0xffff) as usize - 1;
                if matches(off) {
                    return Some(off);
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u64, offset: usize) {
        debug_assert!(offset <= MAX_POINTER_TARGET);
        if (self.len + 1) * 4 > self.slots().len() * 3 {
            let mut grown = vec![0; self.slots().len() * 2];
            for &slot in self.slots().iter().filter(|&&s| s != 0) {
                place(&mut grown, slot);
            }
            self.heap = grown;
        }
        let slot = (hash & !0xffff) | (offset as u64 + 1);
        if self.heap.is_empty() {
            place(&mut self.inline, slot);
        } else {
            place(&mut self.heap, slot);
        }
        self.len += 1;
    }

    /// Every registered offset (unordered).
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots()
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| (s & 0xffff) as usize - 1)
    }
}

/// Put `slot` in the first free slot of its probe sequence.
fn place(slots: &mut [u64], slot: u64) {
    let mask = slots.len() - 1;
    let mut i = (slot >> 16) as usize & mask;
    while slots[i] != 0 {
        i = (i + 1) & mask;
    }
    slots[i] = slot;
}

/// Fill `hashes[i]` with the hash of the suffix `labels[i..]`, right to
/// left so each label is hashed once. Bytes are folded with `| 0x20`,
/// which maps ASCII upper case onto lower case (and some other bytes onto
/// each other — a lookup confirms every tag match on the bytes).
fn suffix_hashes(labels: &[Vec<u8>], hashes: &mut [u64]) {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for (label, slot) in labels.iter().zip(hashes.iter_mut()).rev() {
        h = fold(h ^ label.len() as u64);
        for chunk in label.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = fold(h ^ (u64::from_le_bytes(word) | 0x2020_2020_2020_2020));
        }
        *slot = h;
    }
}

/// One 64×64→128 multiply, folded.
fn fold(x: u64) -> u64 {
    let m = x as u128 * 0x9e37_79b9_7f4a_7c15;
    (m as u64) ^ (m >> 64) as u64
}

/// Whether the name written at `pos` (following pointers) is exactly
/// `labels`, ASCII case-insensitively. Bounds-checked: a name still being
/// written simply fails to match.
fn suffix_at(buf: &[u8], mut pos: usize, labels: &[Vec<u8>]) -> bool {
    for label in labels {
        let Some(at) = skip_pointers(buf, pos) else {
            return false;
        };
        let len = buf[at] as usize;
        match buf.get(at + 1..at + 1 + len) {
            Some(written) if len == label.len() && written.eq_ignore_ascii_case(label) => {}
            _ => return false,
        }
        pos = at + 1 + len;
    }
    skip_pointers(buf, pos).is_some_and(|at| buf[at] == 0)
}

/// Follow compression pointers from `pos` to the next label-length byte.
/// Every pointer this writer emits targets an earlier offset, so the walk
/// ends.
fn skip_pointers(buf: &[u8], mut pos: usize) -> Option<usize> {
    loop {
        let b = *buf.get(pos)?;
        if b & 0xc0 != 0xc0 {
            return Some(pos);
        }
        pos = ((b as usize & 0x3f) << 8) | *buf.get(pos + 1)? as usize;
    }
}

/// The canonical lowercase key of the suffix written at `pos`.
fn suffix_key_at(buf: &[u8], mut pos: usize) -> Vec<u8> {
    let mut key = Vec::new();
    while let Some(at) = skip_pointers(buf, pos) {
        let len = buf[at] as usize;
        let Some(label) = buf.get(at + 1..at + 1 + len).filter(|_| len > 0) else {
            break;
        };
        key.push(len as u8);
        key.extend(label.iter().map(u8::to_ascii_lowercase));
        pos = at + 1 + len;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(0xab);
        w.put_u16(0x1234);
        w.put_u32(0xdeadbeef);
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xab);
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.read_bytes(3).unwrap(), b"xyz");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.read_u16(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[]);
        assert_eq!(r.read_u8(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.read_bytes(3), Err(WireError::Truncated));
    }

    #[test]
    fn compression_reuses_suffix() {
        let labels_b = vec![b"b".to_vec(), b"root-servers".to_vec(), b"net".to_vec()];
        let labels_c = vec![b"c".to_vec(), b"root-servers".to_vec(), b"net".to_vec()];
        let mut w = WireWriter::new();
        w.put_name_compressed(&labels_b);
        let first_len = w.len();
        w.put_name_compressed(&labels_c);
        let bytes = w.into_bytes();
        // Second name: 1+1 ("c") + 2 (pointer) = 4 bytes.
        assert_eq!(bytes.len(), first_len + 4);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels().unwrap(), labels_b);
        assert_eq!(r.read_name_labels().unwrap(), labels_c);
        assert!(r.is_empty());
    }

    #[test]
    fn compression_case_insensitive() {
        let upper = vec![b"NET".to_vec()];
        let lower = vec![b"net".to_vec()];
        let mut w = WireWriter::new();
        w.put_name_compressed(&upper);
        w.put_name_compressed(&lower);
        let bytes = w.into_bytes();
        // Second occurrence must be a 2-byte pointer.
        assert_eq!(bytes.len(), 5 + 2);
    }

    #[test]
    fn without_compression_writes_full_names() {
        let labels = vec![b"a".to_vec(), b"net".to_vec()];
        let mut w = WireWriter::without_compression();
        w.put_name_compressed(&labels);
        w.put_name_compressed(&labels);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 * (2 + 4 + 1));
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer at offset 0 pointing to itself.
        let bytes = [0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::ForwardPointer));
        // Pointer at offset 0 pointing past itself.
        let bytes = [0xc0, 0x05, 1, b'a', 0];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn pointer_loop_rejected() {
        // Two pointers pointing at each other: after jumping to offset 0,
        // that pointer targets offset 2 — at/past its own position.
        let bytes = [0xc0, 0x02, 0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        r.pos = 2;
        assert_eq!(r.read_name_labels(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn label_pointer_cycle_rejected() {
        // A cycle through a label: pointer at 3 → 0, labels at 0..3, then
        // the pointer at 3 again. The second visit jumps to 0 which is not
        // strictly below the previous target 0.
        let bytes = [1, b'a', 0xc0, 0x00];
        let mut r = WireReader::new(&bytes);
        r.pos = 2;
        assert_eq!(r.read_name_labels(), Err(WireError::PointerLoop));
    }

    #[test]
    fn monotonic_chain_within_jump_budget_accepted() {
        // A strictly-backwards chain of pointers ending in a real label:
        // "x." at 0, then MAX_POINTER_JUMPS pointers each targeting the
        // previous one. Reading from the last pointer follows every jump.
        let mut bytes = vec![1, b'x', 0];
        for _ in 0..MAX_POINTER_JUMPS {
            let target = if bytes.len() == 3 { 0 } else { bytes.len() - 2 };
            bytes.extend_from_slice(&[0xc0 | (target >> 8) as u8, target as u8]);
        }
        let start = bytes.len() - 2;
        let mut r = WireReader::new(&bytes);
        r.pos = start;
        assert_eq!(r.read_name_labels().unwrap(), vec![b"x".to_vec()]);
        // One more pointer exceeds the jump budget.
        let target = bytes.len() - 2;
        bytes.extend_from_slice(&[0xc0 | (target >> 8) as u8, target as u8]);
        let mut r = WireReader::new(&bytes);
        r.pos = bytes.len() - 2;
        assert_eq!(r.read_name_labels(), Err(WireError::PointerLoop));
    }

    #[test]
    fn reserved_label_type_rejected() {
        let bytes = [0x80, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::BadLabelType));
    }

    #[test]
    fn truncated_name_rejected() {
        let bytes = [0x03, b'a', b'b']; // promises 3 bytes, has 2
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::Truncated));
        let bytes = [0x01, b'a']; // missing terminator
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::Truncated));
    }

    #[test]
    fn reader_position_after_pointer() {
        // name "x." at 0, then at 3: "y" + pointer to 0.
        let bytes = [1, b'x', 0, 1, b'y', 0xc0, 0x00, 0xff];
        let mut r = WireReader::new(&bytes);
        r.pos = 3;
        let labels = r.read_name_labels().unwrap();
        assert_eq!(labels, vec![b"y".to_vec(), b"x".to_vec()]);
        // Reader continues right after the pointer.
        assert_eq!(r.position(), 7);
        assert_eq!(r.read_u8().unwrap(), 0xff);
    }

    #[test]
    fn patch_u16_overwrites() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(9);
        w.patch_u16(0, 0xbeef);
        assert_eq!(w.into_bytes(), vec![0xbe, 0xef, 9]);
    }

    #[test]
    fn overlong_decoded_name_rejected() {
        // Build 5 labels of 63 bytes: 5*64+1 = 321 > 255.
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.push(63);
            bytes.extend(std::iter::repeat_n(b'a', 63));
        }
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name_labels(), Err(WireError::NameTooLong));
    }
}
