//! The shared wire format: a small, dependency-free binary codec.
//!
//! Every byte that moves in this workspace — network messages, WAL
//! frames, checkpoints — is encoded through this module, so a message's
//! cost on the simulated wire and its cost on the simulated disk are the
//! same deterministic function of its value. The workspace has no serde
//! (the build environment is offline), so the encoding is a hand-rolled
//! length-prefixed little-endian format.
//!
//! Two properties matter:
//!
//! * **Determinism** — equal values produce equal bytes. The recovery
//!   audit compares replica states byte-for-byte, and merkle-style sync
//!   digests only work if every replica digests identical bytes for
//!   identical state.
//! * **Coherence** — the [`Wire`] trait lives here; each crate implements
//!   it for the types it owns (`mdcc-paxos` for ballots and cstructs,
//!   `mdcc-storage` for store state, `mdcc-core` for protocol messages).
//!
//! The framing helpers ([`frame`], [`FRAME_OVERHEAD`]) are shared by the
//! WAL (`mdcc-recovery`) and by network-size accounting: a framed payload
//! is `[len: u32][fnv1a checksum: u32][payload]`.

use crate::error::AbortReason;
use crate::ids::{DcId, Key, NodeId, TableId, TxnId};
use crate::time::{SimDuration, SimTime};
use crate::update::{CommutativeUpdate, PhysicalUpdate, RecordUpdate, UpdateOp, Version};
use crate::value::{Row, Value};

/// A decode failure: the bytes do not parse as the expected structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was being decoded when the failure occurred.
    pub context: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode failed at {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// Decode result alias.
pub type WireResult<T> = Result<T, WireError>;

/// Shorthand for building a decode error.
pub fn err<T>(context: &'static str) -> WireResult<T> {
    Err(WireError { context })
}

/// Byte-buffer encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed raw byte string.
    pub fn raw(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends already-encoded bytes as they are (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Discards the contents but keeps the allocation — the reuse hook
    /// behind the thread-local scratch encoders.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, without consuming the encoder.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Byte-buffer decoder.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return err(context);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().unwrap()))
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => err("bool"),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n, "str bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError {
            context: "str utf8",
        })
    }

    /// Reads a length-prefixed raw byte string.
    pub fn raw(&mut self) -> WireResult<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n, "raw bytes")?.to_vec())
    }
}

/// Types with a deterministic binary wire encoding.
pub trait Wire: Sized {
    /// Appends this value to `out`.
    fn encode(&self, out: &mut Enc);
    /// Parses one value from `inp`.
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self>;
}

/// Encodes one value to a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    value.encode(&mut enc);
    enc.finish()
}

/// Decodes one value from `bytes`, requiring full consumption.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> WireResult<T> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return err("trailing bytes");
    }
    Ok(v)
}

/// The encoded size of one value in bytes (without framing).
///
/// Encodes into a thread-local scratch buffer, so steady-state calls
/// allocate nothing — this sits on the simulator's hottest path (every
/// `Ctx::send` sizes its message through here).
pub fn wire_len<T: Wire>(value: &T) -> usize {
    with_scratch_encoding(value, |bytes| bytes.len())
}

/// Encodes `value` into a thread-local scratch buffer and hands the
/// bytes to `f`. The buffer's allocation is reused across calls, so
/// hot-path size and digest computations stop churning fresh `Vec`s.
///
/// Re-entrancy (encoding *inside* `f`) falls back to a fresh encoder
/// rather than aliasing the scratch buffer.
pub fn with_scratch_encoding<T: Wire, R>(value: &T, f: impl FnOnce(&[u8]) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Enc> = std::cell::RefCell::new(Enc::new());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut enc) => {
            enc.clear();
            value.encode(&mut enc);
            f(enc.as_slice())
        }
        Err(_) => {
            let mut enc = Enc::new();
            value.encode(&mut enc);
            f(enc.as_slice())
        }
    })
}

// ---------------------------------------------------------------------
// Framing and digests (shared by the WAL and network accounting).
// ---------------------------------------------------------------------

/// Bytes a frame header adds on top of its payload: `[len: u32]` plus
/// `[checksum: u32]`.
pub const FRAME_OVERHEAD: usize = 8;

/// FNV-1a over `bytes`, 32-bit (frame checksums).
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in bytes {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The FNV-1a/64 offset basis: the digest of the empty byte string and
/// the seed of every [`fnv1a64_extend`] chain.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, 64-bit (state digests, merkle sync ranges).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continues an FNV-1a/64 digest `h` over `bytes`. FNV-1a is a streaming
/// hash, so `fnv1a64_extend(fnv1a64(a), b)` is the digest of `a ++ b` —
/// what lets an append-only structure keep its digest current in
/// O(appended bytes).
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Frames a payload as `[len][checksum][payload]`.
pub fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes and frames one value.
pub fn frame<T: Wire>(value: &T) -> Vec<u8> {
    frame_payload(&to_bytes(value))
}

// ---------------------------------------------------------------------
// Destination-coalesced envelopes.
// ---------------------------------------------------------------------

/// Fixed wire overhead of one envelope: the outer frame header
/// ([`FRAME_OVERHEAD`]) plus a one-byte traffic-class tag and a `u32`
/// message count.
pub const ENVELOPE_BASE_OVERHEAD: usize = FRAME_OVERHEAD + 1 + 4;

/// Per-message overhead inside an envelope: each payload rides behind a
/// `u32` length prefix instead of its own full frame header — coalescing
/// trades one [`FRAME_OVERHEAD`] per message for one length prefix.
pub const ENVELOPE_PER_MSG_OVERHEAD: usize = 4;

/// Several same-class message payloads coalesced into one wire frame.
///
/// The transport's outbox batches messages bound for the same
/// destination and traffic class and ships them as one envelope: one
/// frame header and one per-message service-time floor for the whole
/// batch. Same-class-only coalescing keeps per-class byte attribution
/// exact — every byte of an envelope (including its overhead) belongs
/// to the one class all its payloads share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Traffic-class tag shared by every payload (the dense
    /// `TrafficClass::index`, kept as a raw byte so this crate stays
    /// free of simulator types).
    pub class: u8,
    /// The coalesced message payloads, in send order (per-(src, dst)
    /// FIFO: receivers unpack and dispatch front to back).
    pub payloads: Vec<Vec<u8>>,
}

impl Wire for Envelope {
    fn encode(&self, out: &mut Enc) {
        out.u8(self.class);
        out.u32(self.payloads.len() as u32);
        for p in &self.payloads {
            out.raw(p);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let class = inp.u8()?;
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("envelope count");
        }
        let mut payloads = Vec::with_capacity(n);
        for _ in 0..n {
            payloads.push(inp.raw()?);
        }
        Ok(Envelope { class, payloads })
    }
}

/// Framed wire size of an envelope over payloads of the given *framed*
/// single-message sizes (what [`ENVELOPE_BASE_OVERHEAD`]'s frame-header
/// amortization buys): each message sheds its own frame header and
/// gains a length prefix, and the envelope adds one fixed header.
///
/// Sizes below [`FRAME_OVERHEAD`] (possible only for unframed test
/// payloads, whose whole size saturates away) still pay the
/// [`ENVELOPE_PER_MSG_OVERHEAD`] length prefix each — so coalescing
/// sub-frame-sized toy payloads can bill *more* bytes than bare
/// frames; real protocol messages always report framed sizes.
pub fn envelope_wire_bytes(framed_sizes: impl IntoIterator<Item = usize>) -> usize {
    framed_sizes
        .into_iter()
        .fold(ENVELOPE_BASE_OVERHEAD, |acc, framed| {
            acc + framed.saturating_sub(FRAME_OVERHEAD) + ENVELOPE_PER_MSG_OVERHEAD
        })
}

/// Parses every framed value in `buf`, oldest first, verifying checksums.
pub fn read_frames<T: Wire>(buf: &[u8]) -> WireResult<Vec<T>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        if buf.len() - pos < FRAME_OVERHEAD {
            return err("frame header");
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let checksum = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        pos += FRAME_OVERHEAD;
        if buf.len() - pos < len {
            return err("frame body");
        }
        let payload = &buf[pos..pos + len];
        if fnv1a32(payload) != checksum {
            return err("frame checksum");
        }
        out.push(from_bytes::<T>(payload)?);
        pos += len;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Primitive and container impls.
// ---------------------------------------------------------------------

impl Wire for u64 {
    fn encode(&self, out: &mut Enc) {
        out.u64(*self);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        inp.u64()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Enc) {
        out.u32(*self);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        inp.u32()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Enc) {
        out.bool(*self);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        inp.bool()
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Enc) {
        out.str(self);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        inp.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Enc) {
        match self {
            None => out.u8(0),
            Some(v) => {
                out.u8(1);
                v.encode(out);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(inp)?)),
            _ => err("option tag"),
        }
    }
}

/// Encodes a sequence exactly as a `Vec<T>` of the same items: a `u32`
/// count, then each item. Borrowed forms (a slice, a ring buffer's two
/// halves, a sorted copy) write through here without building the
/// `Vec`.
pub fn encode_seq<'a, T: Wire + 'a>(
    len: usize,
    items: impl IntoIterator<Item = &'a T>,
    out: &mut Enc,
) {
    out.u32(len as u32);
    for v in items {
        v.encode(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Enc) {
        encode_seq(self.len(), self, out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let n = inp.u32()? as usize;
        // Guard against absurd lengths from corrupt frames.
        if n > inp.remaining() {
            return err("vec length");
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(inp)?);
        }
        Ok(v)
    }
}

/// A shared value travels as the value itself: sharing is a property of
/// the process holding it, not of the wire format.
impl<T: Wire> Wire for std::sync::Arc<T> {
    fn encode(&self, out: &mut Enc) {
        (**self).encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(std::sync::Arc::new(T::decode(inp)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Enc) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok((A::decode(inp)?, B::decode(inp)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Enc) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok((A::decode(inp)?, B::decode(inp)?, C::decode(inp)?))
    }
}

// ---------------------------------------------------------------------
// mdcc-common types.
// ---------------------------------------------------------------------

impl Wire for NodeId {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(NodeId(inp.u32()?))
    }
}

impl Wire for DcId {
    fn encode(&self, out: &mut Enc) {
        out.u8(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(DcId(inp.u8()?))
    }
}

impl Wire for TableId {
    fn encode(&self, out: &mut Enc) {
        out.u16(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(TableId(inp.u16()?))
    }
}

impl Wire for Key {
    fn encode(&self, out: &mut Enc) {
        self.table.encode(out);
        out.str(&self.pk);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let table = TableId::decode(inp)?;
        let pk = inp.str()?.into();
        Ok(Key { table, pk })
    }
}

impl Wire for TxnId {
    fn encode(&self, out: &mut Enc) {
        self.coordinator.encode(out);
        out.u64(self.seq);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(TxnId {
            coordinator: NodeId::decode(inp)?,
            seq: inp.u64()?,
        })
    }
}

impl Wire for Version {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Version(inp.u64()?))
    }
}

impl Wire for SimTime {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(SimTime(inp.u64()?))
    }
}

impl Wire for SimDuration {
    fn encode(&self, out: &mut Enc) {
        out.u64(self.0);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(SimDuration(inp.u64()?))
    }
}

impl Wire for Value {
    fn encode(&self, out: &mut Enc) {
        match self {
            Value::Null => out.u8(0),
            Value::Int(i) => {
                out.u8(1);
                out.i64(*i);
            }
            Value::Str(s) => {
                out.u8(2);
                out.str(s);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(inp.i64()?)),
            2 => Ok(Value::Str(inp.str()?)),
            _ => err("value tag"),
        }
    }
}

impl Wire for Row {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.len() as u32);
        // Row iterates in attribute-name order: deterministic.
        for (attr, value) in self.iter() {
            out.str(attr);
            value.encode(out);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("row length");
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push((inp.str()?, Value::decode(inp)?));
        }
        Ok(pairs.into_iter().collect())
    }
}

impl Wire for PhysicalUpdate {
    fn encode(&self, out: &mut Enc) {
        self.vread.encode(out);
        self.value.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(PhysicalUpdate {
            vread: Option::decode(inp)?,
            value: Option::decode(inp)?,
        })
    }
}

impl Wire for CommutativeUpdate {
    fn encode(&self, out: &mut Enc) {
        out.u32(self.deltas.len() as u32);
        for (attr, delta) in self.deltas.iter() {
            out.str(attr);
            out.i64(*delta);
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        let n = inp.u32()? as usize;
        if n > inp.remaining() {
            return err("deltas length");
        }
        let mut deltas = Vec::with_capacity(n);
        for _ in 0..n {
            deltas.push((inp.str()?.into(), inp.i64()?));
        }
        Ok(CommutativeUpdate {
            deltas: deltas.into(),
        })
    }
}

impl Wire for UpdateOp {
    fn encode(&self, out: &mut Enc) {
        match self {
            UpdateOp::Physical(p) => {
                out.u8(0);
                p.encode(out);
            }
            UpdateOp::Commutative(c) => {
                out.u8(1);
                c.encode(out);
            }
            UpdateOp::ReadGuard(v) => {
                out.u8(2);
                v.encode(out);
            }
        }
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(UpdateOp::Physical(PhysicalUpdate::decode(inp)?)),
            1 => Ok(UpdateOp::Commutative(CommutativeUpdate::decode(inp)?)),
            2 => Ok(UpdateOp::ReadGuard(Version::decode(inp)?)),
            _ => err("update-op tag"),
        }
    }
}

impl Wire for RecordUpdate {
    fn encode(&self, out: &mut Enc) {
        self.key.encode(out);
        self.op.encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(RecordUpdate {
            key: Key::decode(inp)?,
            op: UpdateOp::decode(inp)?,
        })
    }
}

impl Wire for AbortReason {
    fn encode(&self, out: &mut Enc) {
        let tag = match self {
            AbortReason::StaleRead => 0,
            AbortReason::PendingOption => 1,
            AbortReason::AlreadyExists => 2,
            AbortReason::DemarcationLimit => 3,
            AbortReason::ConstraintViolation => 4,
            AbortReason::Resolved => 5,
        };
        out.u8(tag);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        match inp.u8()? {
            0 => Ok(AbortReason::StaleRead),
            1 => Ok(AbortReason::PendingOption),
            2 => Ok(AbortReason::AlreadyExists),
            3 => Ok(AbortReason::DemarcationLimit),
            4 => Ok(AbortReason::ConstraintViolation),
            5 => Ok(AbortReason::Resolved),
            _ => err("abort-reason tag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + std::fmt::Debug>(v: &T) -> T {
        let bytes = to_bytes(v);
        from_bytes(&bytes).expect("round trip")
    }

    #[test]
    fn primitives_and_rows_round_trip() {
        let row = Row::new().with("stock", 42).with("title", "widget");
        assert_eq!(round_trip(&row), row);
        let key = Key::new(TableId(3), "i99");
        assert_eq!(round_trip(&key), key);
        let txn = TxnId::new(NodeId(7), 123);
        assert_eq!(round_trip(&txn), txn);
        assert_eq!(round_trip(&Value::Null), Value::Null);
        assert_eq!(round_trip(&Some(Version(9))), Some(Version(9)));
        assert_eq!(round_trip(&Option::<Version>::None), None);
        assert_eq!(round_trip(&DcId(4)), DcId(4));
        assert_eq!(round_trip(&7u32), 7u32);
        assert_eq!(
            round_trip(&SimDuration::from_millis(3)),
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn wire_len_matches_encoding() {
        let row = Row::new().with("stock", 42);
        assert_eq!(wire_len(&row), to_bytes(&row).len());
        assert_eq!(wire_len(&Version(1)), 8);
    }

    #[test]
    fn scratch_helpers_match_fresh_encodings() {
        let row = Row::new().with("stock", 42).with("title", "widget");
        assert_eq!(wire_len(&row), to_bytes(&row).len());
        let digest = |v: &Row| with_scratch_encoding(v, fnv1a64);
        assert_eq!(digest(&row), fnv1a64(&to_bytes(&row)));
        // Back-to-back calls reuse the buffer without cross-talk.
        let key = Key::new(TableId(3), "i99");
        assert_eq!(wire_len(&key), to_bytes(&key).len());
        assert_eq!(digest(&row), fnv1a64(&to_bytes(&row)));
        // A chain carried over two pieces is the digest of the whole.
        let bytes = to_bytes(&row);
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        assert_eq!(fnv1a64_extend(fnv1a64(head), tail), fnv1a64(&bytes));
        assert_eq!(fnv1a64(&[]), FNV1A64_OFFSET);
        // Re-entrant encoding inside the closure must not alias the
        // scratch buffer.
        let nested = with_scratch_encoding(&row, |outer| {
            let inner = wire_len(&key);
            (outer.len(), inner)
        });
        assert_eq!(nested, (to_bytes(&row).len(), to_bytes(&key).len()));
    }

    #[test]
    fn corrupt_bytes_fail_cleanly() {
        let bytes = to_bytes(&Key::new(TableId(1), "abc"));
        assert!(from_bytes::<Key>(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes::<AbortReason>(&[9]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(
            from_bytes::<Key>(&extended).is_err(),
            "trailing bytes rejected"
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let row_a = Row::new().with("b", 2).with("a", 1);
        let row_b = Row::new().with("a", 1).with("b", 2);
        assert_eq!(
            to_bytes(&row_a),
            to_bytes(&row_b),
            "insertion order irrelevant"
        );
    }

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let values = vec![Version(1), Version(2), Version(3)];
        let mut buf = Vec::new();
        for v in &values {
            buf.extend_from_slice(&frame(v));
        }
        assert_eq!(read_frames::<Version>(&buf).unwrap(), values);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(read_frames::<Version>(&buf).is_err(), "checksum catches");
        buf.truncate(buf.len() - 2);
        assert!(read_frames::<Version>(&buf).is_err(), "torn tail detected");
    }

    #[test]
    fn digests_are_stable() {
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn envelopes_round_trip() {
        let env = Envelope {
            class: 2,
            payloads: vec![vec![1, 2, 3], vec![], vec![0xFF; 300]],
        };
        assert_eq!(round_trip(&env), env);
        let empty = Envelope {
            class: 0,
            payloads: vec![],
        };
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn envelope_wire_bytes_matches_framed_encoding() {
        // Three payloads whose framed single-message sizes would be
        // payload + FRAME_OVERHEAD each; the helper must agree with the
        // actual framed envelope encoding byte for byte.
        let payloads = vec![vec![7u8; 40], vec![9u8; 1], vec![3u8; 250]];
        let framed_sizes: Vec<usize> = payloads.iter().map(|p| p.len() + FRAME_OVERHEAD).collect();
        let env = Envelope { class: 0, payloads };
        let on_wire = frame_payload(&to_bytes(&env)).len();
        assert_eq!(envelope_wire_bytes(framed_sizes), on_wire);
        // Amortization: each coalesced message trades its frame header
        // for a length prefix (saving FRAME_OVERHEAD −
        // ENVELOPE_PER_MSG_OVERHEAD bytes), so the fixed envelope
        // header pays for itself from four messages up.
        let four = envelope_wire_bytes([100; 4]);
        assert!(four < 400, "coalescing four 100-byte frames saves bytes");
    }

    #[test]
    fn corrupt_envelope_fails_cleanly() {
        let env = Envelope {
            class: 1,
            payloads: vec![vec![5u8; 10]],
        };
        let bytes = to_bytes(&env);
        assert!(from_bytes::<Envelope>(&bytes[..bytes.len() - 1]).is_err());
    }
}
