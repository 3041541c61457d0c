//! The shared wire format: a small, dependency-free binary codec.
//!
//! Every byte that moves in this workspace — network messages, WAL
//! frames, checkpoints — is encoded through this module, so a message's
//! cost on the simulated wire and its cost on the simulated disk are the
//! same deterministic function of its value. The workspace has no serde
//! (the build environment is offline), so the encoding is a hand-rolled
//! length-prefixed varint format.
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
//! # The integer rule
//!
//! Every unsigned integer ([`Enc::u16`], [`Enc::u32`], [`Enc::u64`]) —
//! so every length, count, id, sequence number, version, ballot round
//! and timestamp — is an LEB128 varint: seven bits per byte, least
//! significant group first, the high bit set on every byte but the last
//! ([`varint_len`] gives the size). Signed integers ([`Enc::i64`]:
//! attribute values, commutative deltas) are zigzag-mapped first (0, −1,
//! 1, −2, … ↦ 0, 1, 2, 3, …), so small magnitudes of either sign stay
//! short. Tags and bools are one byte.
//!
//! The decoder is strict. It refuses a truncated varint, an overlong one
//! (a last group of zero after the first byte, as in `0x80 0x00`), one
//! longer than ten bytes and a value beyond the type being read. Every
//! value therefore has exactly one encoding, and digests taken over
//! encodings stay well defined.
//!
//! Two things stay fixed-width, each for a reason:
//!
//! * the frame header `[len: u32][fnv1a checksum: u32]` ([`frame`],
//!   [`FRAME_OVERHEAD`]), shared by the WAL (`mdcc-recovery`) and by
//!   network-size accounting: WAL torn-tail detection reads it before it
//!   decodes anything;
//! * uniformly distributed 64-bit hashes, written with [`Enc::fixed64`]:
//!   a cstruct's digest chain (`Mark::chain`), a Phase2a's base digest
//!   (`Base::Digest`), a sync range's digest (`SyncRange::digest`) and
//!   a range pull's record digests (`RangePull::held`). Their top bits
//!   are set as often as not, so a varint would take nine or ten bytes.
//!
//! # Layouts are listings
//!
//! A type whose layout is a plain sequence of [`Wire`] values states it
//! once, as a [`wire!`](crate::wire!) listing that generates both
//! `encode` and `decode`: a struct's fields, or an enum's variants each
//! behind a one-byte tag with its fields. The order of a listing is the
//! order on the wire. A tag that goes out of use is retired — kept in
//! the listing as a comment — and never reused, so that an old frame,
//! log or checkpoint holding it decodes to an error and not to another
//! value.

use std::sync::Arc;

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

/// The longest varint: ten seven-bit groups cover 64 bits.
const MAX_VARINT_LEN: usize = 10;

/// Bytes the varint encoding of `v` takes: one per started group of
/// seven significant bits, and one for zero.
pub fn varint_len(v: u64) -> usize {
    let bits = u64::BITS - (v | 1).leading_zeros();
    bits.div_ceil(7) as usize
}

/// Zigzag: 0, −1, 1, −2, … ↦ 0, 1, 2, 3, …
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
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

    /// Writes `v` as an LEB128 varint.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes a `u16` as a varint.
    pub fn u16(&mut self, v: u16) {
        self.varint(u64::from(v));
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.varint(u64::from(v));
    }

    /// Writes a `u64` as a varint.
    pub fn u64(&mut self, v: u64) {
        self.varint(v);
    }

    /// Writes an `i64` as a zigzag varint.
    pub fn i64(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    /// Writes a `u64` as eight little-endian bytes: for uniformly
    /// distributed hashes only (see the module doc).
    pub fn fixed64(&mut self, v: u64) {
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

    /// Reads an LEB128 varint no larger than `max`, refusing every
    /// encoding but the one [`Enc`] writes: truncated, overlong (a last
    /// group of zero after the first byte), over ten bytes, or over
    /// `max`.
    fn varint(&mut self, max: u64, context: &'static str) -> WireResult<u64> {
        let rest: &'a [u8] = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            // The tenth group holds bit 63 alone, and ends the varint.
            if i == MAX_VARINT_LEN - 1 && b > 1 {
                return err(context);
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                if (b == 0 && i > 0) || v > max {
                    return err(context);
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        err(context)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a varint `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(self.varint(u16::MAX.into(), "u16")? as u16)
    }

    /// Reads a varint `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(self.varint(u32::MAX.into(), "u32")? as u32)
    }

    /// Reads a varint `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        self.varint(u64::MAX, "u64")
    }

    /// Reads a zigzag varint `i64`.
    pub fn i64(&mut self) -> WireResult<i64> {
        Ok(unzigzag(self.varint(u64::MAX, "i64")?))
    }

    /// Reads a `u64` written by [`Enc::fixed64`].
    pub fn fixed64(&mut self) -> WireResult<u64> {
        let mut le = [0u8; 8];
        le.copy_from_slice(self.take(8, "fixed64")?);
        Ok(u64::from_le_bytes(le))
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
/// `[checksum: u32]`, both fixed-width.
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
/// single-message sizes: exactly `frame(&envelope).len()`. The envelope
/// pays one frame header, its class byte and a varint count; each
/// message sheds its own frame header and rides behind a varint length
/// prefix instead.
///
/// Sizes below [`FRAME_OVERHEAD`] (possible only for unframed test
/// payloads) count as empty payloads, which still pay their one-byte
/// prefix.
pub fn envelope_wire_bytes(framed_sizes: impl IntoIterator<Item = usize>) -> usize {
    let (count, body) = framed_sizes
        .into_iter()
        .fold((0u64, 0usize), |(count, body), framed| {
            let payload = framed.saturating_sub(FRAME_OVERHEAD);
            (count + 1, body + varint_len(payload as u64) + payload)
        });
    FRAME_OVERHEAD + 1 + varint_len(count) + body
}

/// Parses every framed value in `buf`, oldest first, verifying checksums.
pub fn read_frames<T: Wire>(buf: &[u8]) -> WireResult<Vec<T>> {
    let mut out = Vec::new();
    let mut rest = buf;
    while !rest.is_empty() {
        let Some((header, body)) = rest.split_first_chunk::<FRAME_OVERHEAD>() else {
            return err("frame header");
        };
        let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if body.len() < len {
            return err("frame body");
        }
        let (payload, tail) = body.split_at(len);
        if fnv1a32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            return err("frame checksum");
        }
        out.push(from_bytes::<T>(payload)?);
        rest = tail;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Listings, primitives and containers.
// ---------------------------------------------------------------------

/// Implements [`Wire`] for a type from one ordered listing of what it
/// carries, generating `encode` and `decode` both (see the module doc):
/// `wire!(struct Name { field, .. })`, `{ 0 }` for a tuple struct, or
/// `wire!(enum Name, "decode-error context" { 0 => Unit, 1 =>
/// Tuple(x), 2 => Named { a, b }, .. })`. Reusing a tag does not compile.
#[macro_export]
macro_rules! wire {
    ($(#[$doc:meta])* struct $ty:ident { $($field:tt),* $(,)? }) => {
        $(#[$doc])*
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut $crate::wire::Enc) {
                $($crate::wire::Wire::encode(&self.$field, out);)*
            }
            fn decode(inp: &mut $crate::wire::Dec<'_>) -> $crate::wire::WireResult<Self> {
                Ok(Self { $($field: $crate::wire::Wire::decode(inp)?),* })
            }
        }
    };
    ($(#[$doc:meta])* enum $ty:ident, $context:literal {
        $($tag:literal => $variant:ident
            $(($($pos:ident),*))?
            $({ $($named:ident),* })?),* $(,)?
    }) => {
        $(#[$doc])*
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut $crate::wire::Enc) {
                match self {
                    $(Self::$variant $(($($pos),*))? $({ $($named),* })? => {
                        out.u8($tag);
                        $($($crate::wire::Wire::encode($pos, out);)*)?
                        $($($crate::wire::Wire::encode($named, out);)*)?
                    })*
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(inp: &mut $crate::wire::Dec<'_>) -> $crate::wire::WireResult<Self> {
                Ok(match inp.u8()? {
                    $($tag => {
                        $($(let $pos = $crate::wire::Wire::decode(inp)?;)*)?
                        $($(let $named = $crate::wire::Wire::decode(inp)?;)*)?
                        Self::$variant $(($($pos),*))? $({ $($named),* })?
                    })*
                    _ => return $crate::wire::err($context),
                })
            }
        }
        $crate::variant_names!($ty { $($variant),* });
    };
}

/// Integers and bools travel as the [`Enc`] / [`Dec`] method of the
/// same name writes and reads them.
macro_rules! primitive {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Enc) {
                out.$ty(*self);
            }
            fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
                inp.$ty()
            }
        }
    )*};
}

primitive!(u8, u16, u32, u64, i64, bool);

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

/// Encodes a sequence exactly as a `Vec<T>` of the same items: a varint
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

/// A shared slice travels as the `Vec` of its items.
impl<T: Wire> Wire for Arc<[T]> {
    fn encode(&self, out: &mut Enc) {
        encode_seq(self.len(), self.iter(), out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Vec::decode(inp)?.into())
    }
}

/// A shared value travels as the value itself: sharing is a property of
/// the process holding it, not of the wire format.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, out: &mut Enc) {
        (**self).encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Arc::new(T::decode(inp)?))
    }
}

/// So does a boxed one.
impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Enc) {
        (**self).encode(out);
    }
    fn decode(inp: &mut Dec<'_>) -> WireResult<Self> {
        Ok(Box::new(T::decode(inp)?))
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

wire!(struct NodeId { 0 });
wire!(struct DcId { 0 });
wire!(struct TableId { 0 });
wire!(struct TxnId { coordinator, seq });
wire!(struct Version { 0 });
wire!(struct SimTime { 0 });
wire!(struct SimDuration { 0 });
wire!(struct PhysicalUpdate { vread, value });
wire!(struct RecordUpdate { key, op });

wire!(enum Value, "value tag" {
    0 => Null,
    1 => Int(v),
    2 => Str(s),
});

wire!(enum UpdateOp, "update-op tag" {
    0 => Physical(p),
    1 => Commutative(c),
    2 => ReadGuard(v),
});

wire!(enum AbortReason, "abort-reason tag" {
    0 => StaleRead,
    1 => PendingOption,
    2 => AlreadyExists,
    3 => DemarcationLimit,
    4 => ConstraintViolation,
    5 => Resolved,
});

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
        assert_eq!(round_trip(&TableId(u16::MAX)), TableId(u16::MAX));
        assert_eq!(
            round_trip(&SimDuration::from_millis(3)),
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn wire_len_matches_encoding() {
        let row = Row::new().with("stock", 42);
        assert_eq!(wire_len(&row), to_bytes(&row).len());
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            assert_eq!(wire_len(&Version(v)), varint_len(v), "{v}");
            assert_eq!(wire_len(&Version(v)), to_bytes(&Version(v)).len());
        }
    }

    #[test]
    fn varint_lengths_step_at_every_seventh_bit() {
        assert_eq!(to_bytes(&0u64), [0]);
        assert_eq!(to_bytes(&300u64), [0xAC, 0x02]);
        // A `Value::Int` is its tag byte, then the zigzag varint.
        assert_eq!(to_bytes(&Value::Int(-1)), [1, 1], "zigzag: -1 is 1");
        assert_eq!(to_bytes(&Value::Int(1)), [1, 2]);
        assert_eq!(to_bytes(&Value::Int(i64::MIN)).len(), 1 + MAX_VARINT_LEN);
        for groups in 1..MAX_VARINT_LEN as u32 {
            let top = (1u64 << (7 * groups)) - 1;
            assert_eq!(varint_len(top), groups as usize, "{top}");
            assert_eq!(varint_len(top + 1), groups as usize + 1, "{}", top + 1);
        }
        assert_eq!(varint_len(u64::MAX), MAX_VARINT_LEN);
    }

    #[test]
    fn hostile_varints_are_errors_not_panics() {
        let as_u64 = |b: &[u8]| from_bytes::<u64>(b);
        assert!(as_u64(&[]).is_err(), "empty");
        assert!(as_u64(&[0x80]).is_err(), "truncated");
        assert!(as_u64(&[0xFF, 0xFF]).is_err(), "truncated after two bytes");
        assert!(as_u64(&[0x80, 0x00]).is_err(), "overlong zero");
        assert!(as_u64(&[0xFF, 0x00]).is_err(), "overlong 127");
        let mut max = vec![0xFF; MAX_VARINT_LEN - 1];
        max.push(0x01);
        assert_eq!(as_u64(&max), Ok(u64::MAX), "ten bytes, bit 63 set");
        let mut overflow = max.clone();
        overflow[MAX_VARINT_LEN - 1] = 0x02;
        assert!(as_u64(&overflow).is_err(), "overflow in the tenth byte");
        let mut eleven = vec![0x80; MAX_VARINT_LEN];
        eleven.push(0x01);
        assert!(as_u64(&eleven).is_err(), "eleven bytes");
        assert!(as_u64(&[0x80; 11]).is_err(), "eleven continuation bytes");
        let past_u32 = to_bytes(&(u64::from(u32::MAX) + 1));
        assert!(from_bytes::<u32>(&past_u32).is_err(), "u32 overflow");
        let u32_max = to_bytes(&u64::from(u32::MAX));
        assert_eq!(from_bytes::<u32>(&u32_max), Ok(u32::MAX));
        let past_u16 = to_bytes(&(u32::from(u16::MAX) + 1));
        assert!(from_bytes::<TableId>(&past_u16).is_err(), "u16 overflow");
        // A length prefix pointing past the input.
        let mut long_str = to_bytes(&1_000u32);
        long_str.extend_from_slice(b"abc");
        assert!(from_bytes::<String>(&long_str).is_err(), "str length");
    }

    /// splitmix64: a deterministic stream of well-mixed words.
    fn words(mut seed: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_with(move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn random_integers_round_trip_at_their_formula_length() {
        // Shifted right by a random amount, so every length from one to
        // ten bytes is drawn often.
        for w in words(7).take(20_000) {
            let v = w >> (w % 64);
            let bytes = to_bytes(&v);
            assert_eq!(bytes.len(), varint_len(v), "{v}");
            assert_eq!(from_bytes::<u64>(&bytes), Ok(v));
            for i in [v as i64, (v as i64).wrapping_neg()] {
                let bytes = to_bytes(&Value::Int(i));
                assert_eq!(bytes.len(), 1 + varint_len(zigzag(i)), "{i}");
                assert_eq!(from_bytes::<Value>(&bytes), Ok(Value::Int(i)));
            }
        }
        for i in [0, 1, -1, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(round_trip(&Value::Int(i)), Value::Int(i));
        }
    }

    #[test]
    fn fixed64_is_eight_bytes_whatever_the_value() {
        for v in [0, 1, u64::MAX] {
            let mut out = Enc::new();
            out.fixed64(v);
            assert_eq!(out.len(), 8);
            let bytes = out.finish();
            assert_eq!(Dec::new(&bytes).fixed64(), Ok(v));
            assert!(Dec::new(&bytes[..7]).fixed64().is_err());
        }
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
        // Payloads on both sides of every length-prefix step (one byte
        // below 128, two below 16 384, three above) and counts on both
        // sides of 128: the helper must agree with the framed envelope
        // encoding byte for byte.
        let sizes = [40, 1, 127, 128, 250, 16_383, 16_384, 20_000];
        for n in [0, 1, 3, sizes.len(), 127, 128, 130] {
            let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![7; sizes[i % sizes.len()]]).collect();
            let framed: Vec<usize> = payloads.iter().map(|p| p.len() + FRAME_OVERHEAD).collect();
            let env = Envelope { class: 0, payloads };
            assert_eq!(envelope_wire_bytes(framed), frame(&env).len(), "{n}");
        }
        // Amortization: each coalesced message trades its frame header
        // for a one- to three-byte length prefix, so the envelope's own
        // header pays for itself from two messages up.
        assert!(envelope_wire_bytes([100; 2]) < 200);
    }

    #[derive(Debug, PartialEq)]
    struct Seen(u64);
    wire!(struct Seen { 0 });

    #[derive(Debug, PartialEq)]
    enum Note {
        Ping,
        Seen(Seen),
        Moved { from: u32, to: Box<Seen> },
    }
    wire!(enum Note, "note tag" {
        0 => Ping,
        // Tag 1 is retired, not reused.
        2 => Seen(seen),
        3 => Moved { from, to },
    });

    #[test]
    fn a_listing_writes_and_reads_its_fields_in_order() {
        let moved = Note::Moved {
            from: 1,
            to: Box::new(Seen(300)),
        };
        assert_eq!(to_bytes(&moved), [3, 1, 0xAC, 0x02]);
        assert_eq!(to_bytes(&Note::Seen(Seen(0))), [2, 0]);
        assert_eq!(to_bytes(&Note::Ping), [0]);
        for note in [moved, Note::Seen(Seen(u64::MAX)), Note::Ping] {
            assert_eq!(round_trip(&note), note);
        }
        assert_eq!(from_bytes::<Note>(&[1, 0]), err("note tag"), "retired");
        assert_eq!(from_bytes::<Note>(&[4]), err("note tag"), "never listed");
        assert!(from_bytes::<Note>(&[3, 1]).is_err(), "a field short");
    }

    #[test]
    fn shared_slices_and_boxes_travel_as_their_contents() {
        let keys = vec![Key::new(TableId(1), "a"), Key::new(TableId(1), "b")];
        let shared: Arc<[Key]> = keys.clone().into();
        assert_eq!(to_bytes(&shared), to_bytes(&keys));
        assert_eq!(*round_trip(&shared), *keys);
        assert_eq!(to_bytes(&Box::new(Version(9))), to_bytes(&Version(9)));
        // The same count guard as a `Vec`: a count past the input.
        let mut long = to_bytes(&1_000u32);
        long.extend(to_bytes(&keys[0]));
        assert!(from_bytes::<Arc<[Key]>>(&long).is_err());
        assert_eq!(to_bytes(&300u16), to_bytes(&300u64));
        assert_eq!(to_bytes(&7u8), [7]);
    }

    /// The bytes of one value of each field-list type, every tag of
    /// each such enum included, as one FNV-1a/64 digest: a layout that
    /// moves by a byte changes it.
    #[test]
    fn field_list_layouts_are_pinned() {
        let key = Key::new(TableId(2), "i7");
        let ops = [
            UpdateOp::Physical(PhysicalUpdate::write(Version(3), Row::new().with("n", 1))),
            UpdateOp::Physical(PhysicalUpdate::delete(Version(300))),
            UpdateOp::Commutative(CommutativeUpdate::delta("stock", -2)),
            UpdateOp::ReadGuard(Version(9)),
        ];
        let reasons = [
            AbortReason::StaleRead,
            AbortReason::PendingOption,
            AbortReason::AlreadyExists,
            AbortReason::DemarcationLimit,
            AbortReason::ConstraintViolation,
            AbortReason::Resolved,
        ];
        let values = [Value::Null, Value::Int(-70), Value::Str("widget".into())];
        let mut bytes = [
            to_bytes(&NodeId(300)),
            to_bytes(&DcId(4)),
            to_bytes(&TableId(513)),
            to_bytes(&TxnId::new(NodeId(7), 1 << 40)),
            to_bytes(&Version(129)),
            to_bytes(&SimTime::from_millis(5)),
            to_bytes(&SimDuration::from_millis(3)),
            to_bytes(&PhysicalUpdate::insert(Row::new().with("t", "x"))),
        ]
        .concat();
        bytes.extend(values.iter().flat_map(to_bytes));
        bytes.extend(ops.iter().flat_map(to_bytes));
        bytes.extend(
            ops.map(|op| to_bytes(&RecordUpdate::new(key.clone(), op)))
                .concat(),
        );
        bytes.extend(reasons.iter().flat_map(to_bytes));
        assert_eq!(fnv1a64(&bytes), 0x91b6_68e5_b1a6_a28d);
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
