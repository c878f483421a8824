//! Length-prefixed wire framing for the process backend.
//!
//! Every frame on a socket is `[u32 len][u8 kind][u32 src][u64
//! link_seq][body]`, all little-endian; `len` covers everything after
//! the length field itself. `link_seq` numbers DATA frames per
//! connection direction (the replay/ack watermark unit); it is zero for
//! control frames. The DATA body is the byte serialization of
//! [`Msg`] — tag, transport seq, payload checksum, payload —
//! exactly the header the thread backend passes by value, so the
//! receive state machine in [`crate::RankCtx`] is backend-agnostic.
//! The full grammar is documented in DESIGN.md §8.
//!
//! A DATA frame never exists as one buffer. Going out it is a
//! [`WireFrame`]: a small encoded *head* (frame header, `Msg` header,
//! element counts, row ids) plus the payload itself, whose `f64` words
//! follow as their own bytes in the same vectored write — the replay
//! queue retains exactly those two parts, and the payload returns to the
//! world's [`PayloadPool`] when the frame is released. Coming in, a
//! [`FrameReader`] checks a DATA frame's element counts against the frame
//! length *before* it takes anything from the pool — a hostile count can
//! neither panic it nor make it reserve more than the frame holds — then
//! reads the words straight into the pooled vectors. Every other kind
//! carries a short body, capped at [`MAX_CONTROL_BODY`]. The codec never
//! looks at the `Msg` checksum: integrity belongs to [`crate::RankCtx`].

use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

use crate::msg::{Msg, Payload};
use crate::pool::PayloadPool;

/// Frame kinds (the `kind` byte).
pub(crate) mod kind {
    /// Connection wire-up / reconnect: body is the sender's delivered
    /// watermark for this link (how many DATA frames from the peer it
    /// has already handed to the upper layer).
    pub const HELLO: u8 = 1;
    /// One [`crate::msg::Msg`]; `link_seq` numbers these per direction.
    pub const DATA: u8 = 2;
    /// Cumulative receive acknowledgement: body is the receiver's
    /// delivered watermark; the sender prunes its replay queue.
    pub const ACK: u8 = 3;
    /// Liveness beacon (empty body).
    pub const HEARTBEAT: u8 = 4;
    /// Graceful shutdown: no more frames follow from the sender.
    pub const BYE: u8 = 5;
    /// Barrier entry announcement to rank 0: body is the round number.
    pub const BARRIER_ENTER: u8 = 6;
    /// Barrier release from rank 0: body is the round number.
    pub const BARRIER_RELEASE: u8 = 7;
    /// Rendezvous registration: body is the sender's mesh socket path.
    pub const REGISTER: u8 = 8;
    /// Rendezvous reply: body is every rank's mesh socket path.
    pub const ADDRBOOK: u8 = 9;
    /// Clock-offset probe from rank 0 during rendezvous (empty body).
    pub const CLOCK_PING: u8 = 10;
    /// Clock-offset reply: body is the replying rank's monotonic clock
    /// reading (seconds since its transport anchor) as `f64::to_bits`.
    pub const CLOCK_PONG: u8 = 11;
}

/// Hard cap on a single frame (1 GiB) so a corrupted length prefix
/// cannot trigger an absurd allocation.
const MAX_FRAME: u32 = 1 << 30;

/// Cap on the body of every kind but DATA. The largest legitimate one is
/// the ADDRBOOK (a ~100-byte socket path per rank); a control frame with
/// a forged length prefix is rejected before anything is allocated.
pub(crate) const MAX_CONTROL_BODY: usize = 64 << 10;

/// Encoded bytes a frame occupies beyond its body: the u32 length
/// prefix plus the kind/src/link_seq header (metrics accounting).
pub(crate) const FRAME_OVERHEAD: u64 = 4 + 1 + 4 + 8;

/// One decoded control frame.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Frame {
    pub kind: u8,
    pub src: u32,
    pub link_seq: u64,
    pub body: Vec<u8>,
}

impl Frame {
    pub(crate) fn control(kind: u8, src: usize) -> Self {
        Frame {
            kind,
            src: src as u32,
            link_seq: 0,
            body: Vec::new(),
        }
    }

    pub(crate) fn with_u64(kind: u8, src: usize, value: u64) -> Self {
        Frame {
            kind,
            src: src as u32,
            link_seq: 0,
            body: value.to_le_bytes().to_vec(),
        }
    }

    /// Decodes a `u64` body (ACK/HELLO watermarks, barrier rounds).
    pub(crate) fn body_u64(&self) -> io::Result<u64> {
        let bytes: [u8; 8] = self
            .body
            .as_slice()
            .try_into()
            .map_err(|_| bad_data("u64 frame body has wrong length"))?;
        Ok(u64::from_le_bytes(bytes))
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Bytes of `kind`, `src` and `link_seq` after the length prefix.
const HEADER: usize = 1 + 4 + 8;

/// Serializes one frame onto `w` (single buffered write + flush).
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Starts an encoded frame with room for `body_len` body bytes: a
/// placeholder length prefix (filled by [`end_frame`]) and the header.
fn begin_frame(kind: u8, src: u32, link_seq: u64, body_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + HEADER + body_len);
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&link_seq.to_le_bytes());
    buf
}

/// Fills in the length prefix once the encoded part of the body is in
/// place; `streamed` more body bytes follow `buf` on the wire.
fn end_frame(mut buf: Vec<u8>, streamed: usize) -> Vec<u8> {
    let len = (buf.len() - 4 + streamed) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encodes a control frame (small body) into its wire bytes.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = begin_frame(frame.kind, frame.src, frame.link_seq, frame.body.len());
    buf.extend_from_slice(&frame.body);
    end_frame(buf, 0)
}

/// What precedes a frame's body on the wire.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameHeader {
    pub kind: u8,
    pub src: u32,
    pub link_seq: u64,
    /// Body bytes that follow (the length prefix minus the header).
    pub body_len: usize,
}

/// Decodes a frame's length prefix and header.
fn parse_header(b: &[u8; 4 + HEADER]) -> io::Result<FrameHeader> {
    let len = u32::from_le_bytes(b[..4].try_into().expect("4 length bytes"));
    if !(HEADER as u32..=MAX_FRAME).contains(&len) {
        return Err(bad_data("frame length out of range"));
    }
    Ok(FrameHeader {
        kind: b[4],
        src: u32::from_le_bytes(b[5..9].try_into().expect("4 header bytes")),
        link_seq: u64::from_le_bytes(b[9..].try_into().expect("8 header bytes")),
        body_len: len as usize - HEADER,
    })
}

/// Reads one whole frame off a blocking stream (handshakes), every kind
/// — DATA too — as a control frame with a capped body.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    match FrameReader::default().read(r, None)? {
        Some(Inbound::Control(frame)) => Ok(Some(frame)),
        // Without a pool every kind reads as a control frame: only EOF.
        _ => Ok(None),
    }
}

// ---- Msg body codec -----------------------------------------------------

/// Payload variant bytes (match [`Payload::checksum`]'s tag bytes).
const PV_EMPTY: u8 = 0;
const PV_F64: u8 = 1;
const PV_U32: u8 = 2;
const PV_ROWS: u8 = 3;

/// Bytes of `tag`, `seq`, `checksum` and the payload variant.
const MSG_HEADER: usize = 1 + 8 + 8 + 1;

#[cfg(not(target_endian = "little"))]
compile_error!(
    "the wire format is little-endian, and the codec moves u32/f64 words as their in-memory bytes"
);

/// A payload element the codec moves as its in-memory bytes: no padding,
/// and every bit pattern is a value. Implemented for `u32` and `f64` only.
trait Word: Copy {}
impl Word for u32 {}
impl Word for f64 {}

/// `v`'s bytes: on the little-endian targets we build for, its wire
/// encoding.
fn le_bytes<T: Word>(v: &[T]) -> &[u8] {
    // SAFETY: a `Word` (`u32` or `f64`) has no padding, so all
    // `size_of_val(v)` bytes behind `v.as_ptr()` are initialised; `u8`
    // needs no alignment; the view borrows `v`, so it cannot outlive it.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), std::mem::size_of_val(v)) }
}

/// `v`'s bytes, writable: wire bytes read into them decode in place.
fn le_bytes_mut<T: Word>(v: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `le_bytes`; besides, whatever bytes are written
    // through the view form valid `u32`s and `f64`s (every bit pattern is
    // one), and the view borrows `v` exclusively, so nothing aliases it.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), std::mem::size_of_val(v)) }
}

/// A payload as the wire carries it: its variant byte, the `u32` ids the
/// head carries, and the `f64` words that follow the head.
fn parts(payload: &Payload) -> (u8, &[u32], &[f64]) {
    match payload {
        Payload::Empty => (PV_EMPTY, &[], &[]),
        Payload::F64(data) => (PV_F64, &[], data),
        Payload::U32(idx) => (PV_U32, idx, &[]),
        Payload::Rows { idx, data } => (PV_ROWS, idx, data),
    }
}

/// Encodes the head of `msg` as a DATA frame from rank `src`: length
/// prefix (covering the words still to come), frame header (`link_seq`
/// zero until [`WireFrame::set_link_seq`]), `Msg` header, element counts
/// and the `u32` ids — everything but the words.
fn encode_data_head(src: usize, msg: &Msg) -> Vec<u8> {
    let (variant, ids, words) = parts(&msg.payload);
    let mut b = begin_frame(kind::DATA, src as u32, 0, MSG_HEADER + 16 + 4 * ids.len());
    b.push(msg.tag);
    b.extend_from_slice(&msg.seq.to_le_bytes());
    b.extend_from_slice(&msg.checksum.to_le_bytes());
    b.push(variant);
    let counts: &[usize] = match variant {
        PV_EMPTY => &[],
        PV_F64 => &[words.len()],
        PV_U32 => &[ids.len()],
        _ => &[ids.len(), words.len()],
    };
    for &n in counts {
        b.extend_from_slice(&(n as u64).to_le_bytes());
    }
    b.extend_from_slice(le_bytes(ids));
    end_frame(b, 8 * words.len())
}

/// Writes `head` and then `words` as little-endian bytes, from byte
/// `*done` of the frame on, in one vectored write where the socket has
/// room. Every byte out advances `*done`, so after a non-blocking
/// writer's `WouldBlock` the next call resumes where this one stopped.
pub(crate) fn write_parts(
    w: &mut impl Write,
    head: &[u8],
    words: &[f64],
    done: &mut usize,
) -> io::Result<()> {
    let words = le_bytes(words);
    while *done < head.len() + words.len() {
        let wrote = match head.get(*done..).filter(|rest| !rest.is_empty()) {
            Some(rest) => w.write_vectored(&[IoSlice::new(rest), IoSlice::new(words)]),
            None => w.write(&words[*done - head.len()..]),
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One reliable frame in the form it is written, retained for replay and
/// released on ACK: the encoded head and the payload whose words follow
/// it on the wire ([`Payload::Empty`] for a barrier frame, which is all
/// head). Dropping it — the covering ACK pruned it and no writer still
/// borrows it, or its peer is gone — hands the payload's storage back to
/// the pool.
pub(crate) struct WireFrame {
    head: Vec<u8>,
    payload: Payload,
    /// Where the payload goes back to: the pool, and the lane in it the
    /// payload was packed out of (the sending rank's).
    home: Option<(Arc<PayloadPool>, usize)>,
}

impl WireFrame {
    /// `msg` as a DATA frame from rank `src`.
    pub(crate) fn data(src: usize, msg: Msg, pool: Arc<PayloadPool>) -> Self {
        WireFrame {
            head: encode_data_head(src, &msg),
            payload: msg.payload,
            home: Some((pool, src)),
        }
    }

    /// A reliable control frame (barrier traffic): all head.
    pub(crate) fn control(frame: &Frame) -> Self {
        WireFrame {
            head: encode_frame(frame),
            payload: Payload::Empty,
            home: None,
        }
    }

    /// Stamps the `link_seq`. Reliable frames are encoded before their
    /// sequence number is claimed, so the claim and the replay-queue push
    /// share one short critical section.
    pub(crate) fn set_link_seq(&mut self, link_seq: u64) {
        // After the length prefix, `kind` and `src`; the header ends with it.
        self.head[4 + 1 + 4..4 + HEADER].copy_from_slice(&link_seq.to_le_bytes());
    }

    /// The encoded head.
    pub(crate) fn head(&self) -> &[u8] {
        &self.head
    }

    /// The words written after the head.
    pub(crate) fn words(&self) -> &[f64] {
        parts(&self.payload).2
    }

    /// Bytes the frame occupies on the wire.
    pub(crate) fn wire_len(&self) -> u64 {
        self.head.len() as u64 + 8 * self.words().len() as u64
    }
}

impl Drop for WireFrame {
    fn drop(&mut self) {
        if let Some((pool, lane)) = &self.home {
            pool.recycle(*lane, std::mem::replace(&mut self.payload, Payload::Empty));
        }
    }
}

/// What a [`FrameReader`] hands over: a DATA frame's header and
/// message, or a whole control frame.
pub(crate) enum Inbound {
    Data(FrameHeader, Msg),
    Control(Frame),
}

/// Where the body starts: after the length prefix and the header.
const BODY_AT: usize = 4 + HEADER;

/// Reads frames off a stream that may stop at any byte — a non-blocking
/// socket run dry — and resumes there on the next call, so its owner
/// never waits inside a frame.
#[derive(Default)]
pub(crate) struct FrameReader {
    /// The current frame up to its ids and words: length prefix and
    /// header, then a control body or a DATA frame's `Msg` header and
    /// counts.
    head: Vec<u8>,
    /// A DATA frame's message once its counts check out: its vectors are
    /// where the ids and words land.
    msg: Option<Msg>,
    /// Bytes read of the current frame.
    at: usize,
    /// Bytes read off the stream altogether: a peer whose bytes keep
    /// arriving is alive, even in the middle of a long frame.
    pub(crate) bytes_read: u64,
}

impl FrameReader {
    /// Reads bytes `from..from + buf.len()` of the current frame into
    /// `buf`, past those already there. EOF is an error at any byte.
    fn fill(
        at: &mut usize,
        read: &mut u64,
        r: &mut impl Read,
        from: usize,
        buf: &mut [u8],
    ) -> io::Result<()> {
        while *at < from + buf.len() {
            match r.read(&mut buf[*at - from..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => (*at, *read) = (*at + n, *read + n as u64),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the current frame up to its first `n` bytes into `head`.
    fn fill_head(&mut self, r: &mut impl Read, n: usize) -> io::Result<()> {
        if self.head.len() < n {
            self.head.resize(n, 0);
        }
        Self::fill(
            &mut self.at,
            &mut self.bytes_read,
            r,
            0,
            &mut self.head[..n],
        )
    }

    /// Reads off `r` until a frame is complete; `Ok(None)` is a clean EOF
    /// between frames. After `WouldBlock` the next call resumes; any other
    /// error leaves the stream out of step. DATA vectors come from lane
    /// `lane` of `pool`; without a pool, DATA reads like any other kind.
    pub(crate) fn read(
        &mut self,
        r: &mut impl Read,
        pool: Option<(&PayloadPool, usize)>,
    ) -> io::Result<Option<Inbound>> {
        match self.fill_head(r, BODY_AT) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && self.at == 0 => return Ok(None),
            filled => filled?,
        }
        let h = parse_header(self.head[..BODY_AT].try_into().expect("header bytes"))?;
        let inbound = if let (kind::DATA, Some((pool, lane))) = (h.kind, pool) {
            // The `Msg` header, then the one or two counts its variant
            // calls for; the body must hold both.
            let truncated = || bad_data("truncated DATA body");
            let mut end = BODY_AT + MSG_HEADER;
            if BODY_AT + h.body_len < end {
                return Err(truncated());
            }
            self.fill_head(r, end)?;
            end += match self.head[end - 1] {
                PV_EMPTY => 0,
                PV_F64 | PV_U32 => 8,
                PV_ROWS => 16,
                other => return Err(bad_data(&format!("unknown payload variant {other}"))),
            };
            if BODY_AT + h.body_len < end {
                return Err(truncated());
            }
            self.fill_head(r, end)?;
            if self.msg.is_none() {
                let fields = &self.head[BODY_AT..end];
                self.msg = Some(data_msg(fields, h.body_len, pool, lane)?);
            }
            let msg = self.msg.as_mut().expect("set above");
            let (idx, data): (&mut [u32], &mut [f64]) = match &mut msg.payload {
                Payload::Empty => (&mut [], &mut []),
                Payload::F64(data) => (&mut [], data),
                Payload::U32(idx) => (idx, &mut []),
                Payload::Rows { idx, data } => (idx, data),
            };
            let (at, read) = (&mut self.at, &mut self.bytes_read);
            Self::fill(at, read, r, end, le_bytes_mut(idx))?;
            Self::fill(at, read, r, end + 4 * idx.len(), le_bytes_mut(data))?;
            Inbound::Data(h, self.msg.take().expect("set above"))
        } else {
            if h.body_len > MAX_CONTROL_BODY {
                return Err(bad_data("control frame body too large"));
            }
            self.fill_head(r, BODY_AT + h.body_len)?;
            Inbound::Control(Frame {
                kind: h.kind,
                src: h.src,
                link_seq: h.link_seq,
                body: self.head[BODY_AT..].to_vec(),
            })
        };
        self.head.clear();
        self.at = 0;
        Ok(Some(inbound))
    }
}

/// The message a DATA body's fixed fields (`Msg` header and counts)
/// announce, its vectors taken from lane `lane` of `pool` and sized to
/// receive the ids and words. Each count must account for the rest of
/// the `body_len`-byte body exactly, so a lying count is rejected before
/// anything is taken for it.
fn data_msg(fields: &[u8], body_len: usize, pool: &PayloadPool, lane: usize) -> io::Result<Msg> {
    let mismatch = || bad_data("element counts do not match the DATA body length");
    let mut c = Cursor {
        buf: fields,
        pos: 0,
    };
    let (tag, seq, checksum, variant) = (c.u8()?, c.u64()?, c.u64()?, c.u8()?);
    // Byte lengths of the id and data arrays the counts claim.
    let mut bytes_of = |width: u64| c.u64()?.checked_mul(width).ok_or_else(mismatch);
    let (idx_len, data_len) = match variant {
        PV_EMPTY => (0, 0),
        PV_F64 => (0, bytes_of(8)?),
        PV_U32 => (bytes_of(4)?, 0),
        _ => (bytes_of(4)?, bytes_of(8)?),
    };
    if idx_len.checked_add(data_len) != Some((body_len - fields.len()) as u64) {
        return Err(mismatch());
    }
    // Both fit in the body, so in a usize; only now is the pool asked.
    let (ni, nd) = (idx_len as usize / 4, data_len as usize / 8);
    let mut idx = pool.take_u32(lane, ni);
    idx.resize(ni, 0);
    let mut data = pool.take_f64(lane, nd);
    data.resize(nd, 0.0);
    let payload = match variant {
        PV_EMPTY => Payload::Empty,
        PV_U32 => Payload::U32(idx),
        PV_F64 => Payload::F64(data),
        _ => Payload::Rows { idx, data },
    };
    Ok(Msg {
        tag,
        seq,
        checksum,
        payload,
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("truncated frame body"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encodes a socket path for REGISTER bodies.
pub(crate) fn encode_path(path: &str) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + path.len());
    b.extend_from_slice(&(path.len() as u16).to_le_bytes());
    b.extend_from_slice(path.as_bytes());
    b
}

/// Encodes the full address book for ADDRBOOK bodies.
pub(crate) fn encode_addrbook(paths: &[String]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&(paths.len() as u32).to_le_bytes());
    for p in paths {
        b.extend_from_slice(&encode_path(p));
    }
    b
}

fn decode_path(c: &mut Cursor<'_>) -> io::Result<String> {
    let n = u16::from_le_bytes(c.take(2)?.try_into().unwrap()) as usize;
    String::from_utf8(c.take(n)?.to_vec()).map_err(|_| bad_data("socket path is not UTF-8"))
}

/// Decodes a REGISTER body.
pub(crate) fn decode_register(body: &[u8]) -> io::Result<String> {
    let mut c = Cursor { buf: body, pos: 0 };
    decode_path(&mut c)
}

/// Decodes an ADDRBOOK body. The entry count is checked against the
/// body before anything is reserved for it: every entry takes at least
/// its 2-byte length.
pub(crate) fn decode_addrbook(body: &[u8]) -> io::Result<Vec<String>> {
    let mut c = Cursor { buf: body, pos: 0 };
    let n = c.u32()? as usize;
    if n > (body.len() - c.pos) / 2 {
        return Err(bad_data(
            "address book claims more entries than its body holds",
        ));
    }
    let mut book = Vec::with_capacity(n);
    for _ in 0..n {
        book.push(decode_path(&mut c)?);
    }
    Ok(book)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip_frame(f: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, f).unwrap();
        let mut r = buf.as_slice();
        let out = read_frame(&mut r).unwrap().expect("one frame");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
        out
    }

    #[test]
    fn frame_roundtrips_all_kinds() {
        for f in [
            Frame::control(kind::HEARTBEAT, 3),
            Frame::control(kind::BYE, 0),
            Frame::with_u64(kind::ACK, 1, 42),
            Frame::with_u64(kind::BARRIER_ENTER, 2, 7),
            Frame {
                kind: kind::DATA,
                src: 5,
                link_seq: 99,
                body: vec![1, 2, 3],
            },
        ] {
            assert_eq!(roundtrip_frame(&f), f);
        }
        assert_eq!(Frame::with_u64(kind::ACK, 1, 42).body_u64().unwrap(), 42);
    }

    /// The DATA frame grammar of DESIGN.md §8 spelled out one field and
    /// one element at a time — the oracle the bulk encoder must match
    /// byte for byte.
    fn reference_data_frame(src: u32, link_seq: u64, msg: &Msg) -> Vec<u8> {
        let mut body = vec![msg.tag];
        body.extend_from_slice(&msg.seq.to_le_bytes());
        body.extend_from_slice(&msg.checksum.to_le_bytes());
        let put_u32s = |body: &mut Vec<u8>, v: &[u32]| {
            for x in v {
                body.extend_from_slice(&x.to_le_bytes());
            }
        };
        let put_f64s = |body: &mut Vec<u8>, v: &[f64]| {
            for x in v {
                body.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        };
        match &msg.payload {
            Payload::Empty => body.push(0),
            Payload::F64(v) => {
                body.push(1);
                body.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_f64s(&mut body, v);
            }
            Payload::U32(v) => {
                body.push(2);
                body.extend_from_slice(&(v.len() as u64).to_le_bytes());
                put_u32s(&mut body, v);
            }
            Payload::Rows { idx, data } => {
                body.push(3);
                body.extend_from_slice(&(idx.len() as u64).to_le_bytes());
                body.extend_from_slice(&(data.len() as u64).to_le_bytes());
                put_u32s(&mut body, idx);
                put_f64s(&mut body, data);
            }
        }
        let mut frame = ((13 + body.len()) as u32).to_le_bytes().to_vec();
        frame.push(kind::DATA);
        frame.extend_from_slice(&src.to_le_bytes());
        frame.extend_from_slice(&link_seq.to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// `f64`s drawn as raw bit patterns (so NaNs with payloads, both
    /// infinities, subnormals) with the awkward constants mixed in.
    fn random_f64s(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => -0.0,
                1 => f64::NAN,
                2 => f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
                _ => f64::from_bits(rng.gen::<u64>()),
            })
            .collect()
    }

    fn random_msg(rng: &mut StdRng) -> Msg {
        // Lengths cluster at 0 so empty vectors are common.
        let len = |rng: &mut StdRng| rng.gen_range(0..4usize) * rng.gen_range(0..40usize);
        let payload = match rng.gen_range(0..4u32) {
            0 => Payload::Empty,
            1 => {
                let n = len(rng);
                Payload::F64(random_f64s(rng, n))
            }
            2 => Payload::U32((0..len(rng)).map(|_| rng.gen()).collect()),
            _ => {
                let (ni, nd) = (len(rng), len(rng));
                Payload::Rows {
                    idx: (0..ni).map(|_| rng.gen()).collect(),
                    data: random_f64s(rng, nd),
                }
            }
        };
        Msg {
            tag: rng.gen(),
            seq: rng.gen(),
            checksum: payload.checksum(),
            payload,
        }
    }

    /// Reads one frame's length prefix and header off `r`.
    fn read_header(r: &mut impl Read) -> io::Result<Option<FrameHeader>> {
        let mut bytes = [0u8; BODY_AT];
        r.read_exact(&mut bytes)?;
        parse_header(&bytes).map(Some)
    }

    /// Reads the `body_len`-byte body of a DATA frame off `r`, as a
    /// [`FrameReader`] does once it has the frame's header.
    fn read_data(
        r: &mut impl Read,
        body_len: usize,
        pool: &PayloadPool,
        lane: usize,
    ) -> io::Result<Msg> {
        // The header it would have read: a DATA frame of `body_len` bytes.
        let mut frames = FrameReader {
            head: end_frame(begin_frame(kind::DATA, 0, 0, 0), body_len),
            at: BODY_AT,
            ..FrameReader::default()
        };
        match frames.read(r, Some((pool, lane)))? {
            Some(Inbound::Data(_, msg)) => Ok(msg),
            _ => unreachable!("the header says DATA"),
        }
    }

    /// Bitwise payload equality (`PartialEq` would call NaN ≠ NaN).
    fn payload_bits(p: &Payload) -> (u8, Vec<u32>, Vec<u64>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        match p {
            Payload::Empty => (0, vec![], vec![]),
            Payload::F64(v) => (1, vec![], bits(v)),
            Payload::U32(v) => (2, v.clone(), vec![]),
            Payload::Rows { idx, data } => (3, idx.clone(), bits(data)),
        }
    }

    /// `msg` as rank `src` puts it on the wire: head, then streamed words.
    fn wire_bytes(src: usize, link_seq: u64, msg: &Msg) -> Vec<u8> {
        let mut frame = WireFrame::data(src, msg.clone(), Arc::new(PayloadPool::new(src + 1)));
        frame.set_link_seq(link_seq);
        let mut bytes = Vec::new();
        write_parts(&mut bytes, frame.head(), frame.words(), &mut 0).unwrap();
        assert_eq!(bytes.len() as u64, frame.wire_len());
        bytes
    }

    /// A decoded message is well formed when it holds no more elements
    /// — and has reserved no more room — than the body that produced it
    /// could carry.
    fn assert_well_formed(msg: &Msg, body_len: usize) {
        let reserved = match &msg.payload {
            Payload::Empty => 0,
            Payload::F64(v) => 8 * v.capacity(),
            Payload::U32(v) => 4 * v.capacity(),
            Payload::Rows { idx, data } => 4 * idx.capacity() + 8 * data.capacity(),
        };
        assert!(
            reserved <= body_len,
            "decoder reserved {reserved} bytes for a {body_len}-byte body"
        );
    }

    /// Feeds arbitrary bytes through a [`FrameReader`]: the DATA path,
    /// taking from `pool`, or the capped control-body path, as the kind
    /// byte says. Must return, never panic; anything it accepts must be
    /// well formed.
    fn decode_hostile_from(bytes: &[u8], pool: &PayloadPool) -> Option<Msg> {
        match FrameReader::default()
            .read(&mut &bytes[..], Some((pool, 0)))
            .ok()??
        {
            Inbound::Control(frame) => {
                assert!(frame.body.len() <= MAX_CONTROL_BODY);
                None
            }
            Inbound::Data(header, msg) => {
                assert_well_formed(&msg, header.body_len);
                Some(msg)
            }
        }
    }

    fn decode_hostile(bytes: &[u8]) -> Option<Msg> {
        decode_hostile_from(bytes, &PayloadPool::new(1))
    }

    #[test]
    fn data_frames_match_the_grammar_and_roundtrip_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        let mut msgs: Vec<Msg> = (0..500).map(|_| random_msg(&mut rng)).collect();
        // Payloads of many 64 KiB pieces, a whole number of them and
        // not, and a head longer than one.
        let words = 8 << 10;
        for (ni, nd) in [
            (0, 3 * words + 5),
            (7, 2 * words),
            (2 * words + 3, words + 1),
        ] {
            let mut msg = random_msg(&mut rng);
            msg.payload = Payload::Rows {
                idx: (0..ni).map(|_| rng.gen()).collect(),
                data: random_f64s(&mut rng, nd),
            };
            msg.checksum = msg.payload.checksum();
            msgs.push(msg);
        }
        for msg in msgs {
            let (src, link_seq) = (rng.gen_range(0..64usize), rng.gen::<u64>());
            let bytes = wire_bytes(src, link_seq, &msg);
            assert_eq!(bytes, reference_data_frame(src as u32, link_seq, &msg));
            assert_eq!(
                bytes.len() as u64,
                FRAME_OVERHEAD + MSG_HEADER as u64 + counts_len(&msg.payload) + msg.payload.bytes()
            );

            let mut r = bytes.as_slice();
            let header = read_header(&mut r).unwrap().expect("one frame");
            assert_eq!(
                (header.kind, header.src, header.link_seq),
                (kind::DATA, src as u32, link_seq)
            );
            let back = read_data(&mut r, header.body_len, &PayloadPool::new(1), 0).unwrap();
            assert!(r.is_empty(), "the frame consumes exactly its bytes");
            assert_eq!(
                (back.tag, back.seq, back.checksum),
                (msg.tag, msg.seq, msg.checksum)
            );
            assert_eq!(payload_bits(&back.payload), payload_bits(&msg.payload));
            assert_well_formed(&back, header.body_len);
            // Bit-exactness end to end: the checksum still verifies.
            assert_eq!(back.payload.checksum(), back.checksum);
        }
    }

    /// Hands out a few bytes per call and says `WouldBlock` on every
    /// other one: a non-blocking socket at its most awkward.
    struct Trickle<'a> {
        bytes: &'a [u8],
        rng: StdRng,
        dry: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.dry = !self.dry;
            if self.dry {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf
                .len()
                .min(self.bytes.len())
                .min(self.rng.gen_range(1..64));
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The next frame off `r`, calling again on every `WouldBlock`.
    fn next_frame(
        frames: &mut FrameReader,
        r: &mut Trickle,
        pool: &PayloadPool,
    ) -> Option<Inbound> {
        loop {
            match frames.read(r, Some((pool, 1))) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => return other.unwrap(),
            }
        }
    }

    #[test]
    fn a_stream_read_in_pieces_yields_the_frames_it_was_written_as() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0015);
        let msgs: Vec<Msg> = (0..300).map(|_| random_msg(&mut rng)).collect();
        let control = [
            Frame::with_u64(kind::ACK, 1, 42),
            Frame::control(kind::HEARTBEAT, 1),
        ];
        let mut stream = Vec::new();
        for (i, msg) in msgs.iter().enumerate() {
            stream.extend(wire_bytes(1, i as u64, msg));
            stream.extend(encode_frame(&control[i % 2]));
        }
        let pool = PayloadPool::new(2);
        let mut frames = FrameReader::default();
        let mut r = Trickle {
            bytes: &stream,
            rng,
            dry: false,
        };
        for (i, msg) in msgs.iter().enumerate() {
            let Some(Inbound::Data(h, back)) = next_frame(&mut frames, &mut r, &pool) else {
                panic!("frame {i}: expected DATA");
            };
            assert_eq!((h.src, h.link_seq), (1, i as u64));
            assert_eq!(
                (back.tag, back.seq, back.checksum),
                (msg.tag, msg.seq, msg.checksum)
            );
            assert_eq!(payload_bits(&back.payload), payload_bits(&msg.payload));
            let Some(Inbound::Control(frame)) = next_frame(&mut frames, &mut r, &pool) else {
                panic!("frame {i}: expected a control frame");
            };
            assert_eq!(frame, control[i % 2]);
        }
        assert!(
            next_frame(&mut frames, &mut r, &pool).is_none(),
            "clean EOF"
        );
        assert_eq!(frames.bytes_read, stream.len() as u64);
    }

    /// Bytes the count fields of `p` occupy in a DATA body.
    fn counts_len(p: &Payload) -> u64 {
        match p {
            Payload::Empty => 0,
            Payload::F64(_) | Payload::U32(_) => 8,
            Payload::Rows { .. } => 16,
        }
    }

    fn sample_msgs() -> Vec<Msg> {
        [
            Payload::Empty,
            Payload::F64(vec![1.5, -2.25, f64::MIN_POSITIVE, -0.0]),
            Payload::U32(vec![0, 7, u32::MAX]),
            Payload::Rows {
                idx: vec![3, 9],
                data: vec![0.125, 4.0e300, -1.0],
            },
        ]
        .into_iter()
        .map(|payload| Msg {
            tag: 3,
            seq: 17,
            checksum: payload.checksum(),
            payload,
        })
        .collect()
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        for msg in sample_msgs() {
            let full = wire_bytes(1, 0, &msg);
            for cut in 0..full.len() {
                assert!(decode_hostile(&full[..cut]).is_none(), "frame cut at {cut}");
            }
            // The body alone, cut anywhere: under a frame length that was
            // shortened with it, and under the true one (the stream ends
            // inside the frame).
            let body = &full[FRAME_OVERHEAD as usize..];
            let pool = PayloadPool::new(1);
            for cut in 0..body.len() {
                for body_len in [cut, body.len()] {
                    let got = read_data(&mut &body[..cut], body_len, &pool, 0);
                    assert!(got.is_err(), "body cut at {cut} of {body_len}");
                }
            }
            assert!(read_data(&mut &body[..], body.len(), &pool, 0).is_ok());
        }
    }

    #[test]
    fn every_single_byte_mutation_is_an_error_or_a_well_formed_msg() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0013);
        for msg in sample_msgs() {
            let full = wire_bytes(1, 0, &msg);
            for at in 0..full.len() {
                for value in [0x00, 0xff, full[at] ^ 0x01, full[at] ^ 0x80, rng.gen()] {
                    let mut bad = full.clone();
                    bad[at] = value;
                    // The assertions live in `decode_hostile`: no panic,
                    // and no over-reservation in whatever it accepts.
                    let _ = decode_hostile(&bad);
                }
            }
        }
    }

    #[test]
    fn hostile_length_fields_never_panic_or_over_reserve() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0014);
        // Where the length-like fields of a DATA frame sit: the frame
        // length prefix, then the one or two element counts.
        let counts_at = FRAME_OVERHEAD as usize + MSG_HEADER;
        for msg in sample_msgs() {
            let full = wire_bytes(1, 0, &msg);
            let n_counts = counts_len(&msg.payload) as usize / 8;
            for _case in 0..200 {
                let mut bad = full.clone();
                match rng.gen_range(0..3u32) {
                    0 => {
                        let len: u32 = rng.gen_range(0..MAX_FRAME + 1);
                        bad[..4].copy_from_slice(&len.to_le_bytes());
                    }
                    _ if n_counts == 0 => continue,
                    which => {
                        let at = counts_at + 8 * (which as usize - 1).min(n_counts - 1);
                        let count: u64 = match rng.gen_range(0..4u32) {
                            0 => rng.gen_range(0..u64::from(MAX_FRAME) + 1),
                            1 => u64::MAX - rng.gen_range(0..16u64),
                            2 => (1u64 << 61) + rng.gen_range(0..4u64), // ×8 overflows
                            _ => rng.gen(),
                        };
                        bad[at..at + 8].copy_from_slice(&count.to_le_bytes());
                    }
                }
                if let Some(got) = decode_hostile(&bad) {
                    // Only a mutation that happened to keep every field
                    // consistent may decode.
                    assert_eq!(payload_bits(&got.payload), payload_bits(&msg.payload));
                }
            }
            // The one-off lies around the true count are all rejected.
            for delta in [-1i64, 1] {
                for c in 0..n_counts {
                    let mut bad = full.clone();
                    let at = counts_at + 8 * c;
                    let n = u64::from_le_bytes(bad[at..at + 8].try_into().unwrap());
                    let Some(lie) = n.checked_add_signed(delta) else {
                        continue;
                    };
                    bad[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                    // Rejected on the counts alone, before the pool is
                    // asked for anything.
                    let pool = PayloadPool::new(1);
                    let got = decode_hostile_from(&bad, &pool);
                    assert!(got.is_none(), "count {n} -> {lie}");
                    assert_eq!(pool.fresh_allocs(), 0, "count {n} -> {lie} reserved");
                }
            }
        }
    }

    #[test]
    fn addrbook_roundtrips() {
        let paths = vec!["/tmp/x/rank0.sock".to_string(), "/tmp/x/rank1.sock".into()];
        let book = decode_addrbook(&encode_addrbook(&paths)).unwrap();
        assert_eq!(book, paths);
        let reg = decode_register(&encode_path("/tmp/x/rank7.sock")).unwrap();
        assert_eq!(reg, "/tmp/x/rank7.sock");
    }

    /// Runs both rendezvous body decoders over `body`: each returns, and
    /// whatever it accepts holds — and has reserved — no more than the
    /// body can carry.
    fn decode_rendezvous_hostile(body: &[u8]) {
        if let Ok(path) = decode_register(body) {
            assert!(path.capacity() <= body.len());
        }
        if let Ok(book) = decode_addrbook(body) {
            assert!(
                book.capacity() <= body.len() / 2,
                "{} entries",
                book.capacity()
            );
            let text: usize = book.iter().map(String::capacity).sum();
            assert!(text <= body.len());
        }
    }

    /// Every prefix, every single-bit flip and a few byte stores at every
    /// offset of a REGISTER and an ADDRBOOK body: `Ok` or `Err`, never a
    /// panic or an over-reservation. A strict prefix never decodes.
    #[test]
    fn mutated_rendezvous_bodies_never_panic_or_over_reserve() {
        let paths: Vec<String> = ["/tmp/gnn-x/rank0.sock", "127.0.0.1:7700", ""]
            .map(String::from)
            .to_vec();
        let (register, book) = (encode_path(&paths[0]), encode_addrbook(&paths));
        for cut in 0..register.len() {
            assert!(decode_register(&register[..cut]).is_err(), "cut at {cut}");
        }
        for cut in 0..book.len() {
            assert!(decode_addrbook(&book[..cut]).is_err(), "cut at {cut}");
        }
        for body in [register, book] {
            for cut in 0..body.len() {
                decode_rendezvous_hostile(&body[..cut]);
            }
            for at in 0..body.len() {
                for bit in 0..8 {
                    let mut m = body.clone();
                    m[at] ^= 1 << bit;
                    decode_rendezvous_hostile(&m);
                }
                for put in [0x00, 0x7f, 0x80, 0xff] {
                    let mut m = body.clone();
                    m[at] = put;
                    decode_rendezvous_hostile(&m);
                }
            }
        }
    }

    #[test]
    fn an_addrbook_claiming_u32_max_entries_is_rejected_before_reserving() {
        let mut body = encode_addrbook(&["/tmp/a.sock".to_string()]);
        body[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_addrbook(&body).expect_err("u32::MAX entries");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // One more entry than the bytes could frame is the same lie.
        let mut body = encode_addrbook(&[String::new(), String::new()]);
        body[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(decode_addrbook(&body).is_err());
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn control_bodies_are_capped_before_they_are_allocated() {
        // A forged prefix on a control frame: rejected as invalid on the
        // header alone — not by allocating the claimed body and running
        // out of stream.
        for kind in [kind::HELLO, kind::ACK, kind::HEARTBEAT, kind::ADDRBOOK] {
            for claimed in [MAX_CONTROL_BODY + 1, MAX_FRAME as usize - HEADER] {
                let mut bytes = encode_frame(&Frame::control(kind, 2));
                bytes[..4].copy_from_slice(&((HEADER + claimed) as u32).to_le_bytes());
                let err = read_frame(&mut bytes.as_slice()).expect_err("over the cap");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{claimed}");
            }
        }
        // The cap itself is a legal body.
        let full = Frame {
            kind: kind::ADDRBOOK,
            src: 0,
            link_seq: 0,
            body: vec![7; MAX_CONTROL_BODY],
        };
        assert_eq!(roundtrip_frame(&full), full);
    }
}
