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
//! are written after the head through a fixed staging chunk — the replay
//! queue retains exactly those two parts and the payload's storage
//! returns to the world's [`PayloadPool`] when the frame is released.
//! Coming in, [`read_header`] reads the 17 header bytes and
//! [`read_data`] checks the element counts against the frame length
//! *before* it takes anything from the pool, then reads the words
//! straight into pooled vectors — a hostile count field can neither
//! panic the decoder nor make it reserve more than the frame it arrived
//! in. Every other kind carries a short body, capped at
//! [`MAX_CONTROL_BODY`]. The codec carries the `Msg` checksum and never
//! looks at it: integrity belongs to [`crate::RankCtx`] alone.

use std::io::{self, Read, Write};
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

/// Bytes of the staging chunk `f64` words pass through between a payload
/// vector and the socket, in either direction. Cache-resident, so the
/// conversion costs no memory traffic beyond the payload itself.
const STAGE: usize = 64 << 10;

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

/// Reads one frame's length prefix and header off `r`. `Ok(None)` is a
/// clean EOF at a frame boundary; errors inside a frame are real I/O
/// failures. The body is the caller's to read: [`read_data`] for DATA,
/// [`read_body`] for every other kind.
pub(crate) fn read_header(r: &mut impl Read) -> io::Result<Option<FrameHeader>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if !(HEADER as u32..=MAX_FRAME).contains(&len) {
        return Err(bad_data("frame length out of range"));
    }
    let mut header = [0u8; HEADER];
    r.read_exact(&mut header)?;
    Ok(Some(FrameHeader {
        kind: header[0],
        src: u32::from_le_bytes(header[1..5].try_into().expect("4 header bytes")),
        link_seq: u64::from_le_bytes(header[5..13].try_into().expect("8 header bytes")),
        body_len: len as usize - HEADER,
    }))
}

/// Reads the short body of a non-DATA frame into the vector the frame
/// keeps; a body over [`MAX_CONTROL_BODY`] is an error before it is an
/// allocation.
pub(crate) fn read_body(r: &mut impl Read, h: FrameHeader) -> io::Result<Frame> {
    if h.body_len > MAX_CONTROL_BODY {
        return Err(bad_data("control frame body too large"));
    }
    let mut body = vec![0u8; h.body_len];
    r.read_exact(&mut body)?;
    Ok(Frame {
        kind: h.kind,
        src: h.src,
        link_seq: h.link_seq,
        body,
    })
}

/// Reads one whole short-bodied frame (handshakes, control traffic).
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    match read_header(r)? {
        Some(h) => read_body(r, h).map(Some),
        None => Ok(None),
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

/// Appends `v` as little-endian words: one resize, then a fixed-width
/// copy per element, which compiles to a block move.
fn put_words<T: Copy, const N: usize>(buf: &mut [u8], v: &[T], le: impl Fn(T) -> [u8; N]) {
    for (dst, &x) in buf.chunks_exact_mut(N).zip(v) {
        dst.copy_from_slice(&le(x));
    }
}

/// Runs `f` with a zeroed staging buffer of at least `need.min(STAGE)`
/// bytes: a short frame gets a short one, so staging a 24-byte payload
/// does not clear 64 KiB of stack first.
fn with_stage<R>(need: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    const SHORT: usize = 1 << 10;
    if need <= SHORT {
        f(&mut [0u8; SHORT])
    } else {
        f(&mut [0u8; STAGE])
    }
}

/// Reads `n` little-endian words off `r` onto the end of `out`, one
/// staging chunk at a time.
fn read_words<T, const N: usize>(
    r: &mut impl Read,
    n: usize,
    mut out: Vec<T>,
    le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    with_stage(N * n, |stage| {
        let mut left = n;
        while left > 0 {
            let words = left.min(stage.len() / N);
            let bytes = &mut stage[..N * words];
            r.read_exact(bytes)?;
            let chunks = bytes.chunks_exact(N);
            out.extend(chunks.map(|c| le(c.try_into().expect("chunks_exact yields N bytes"))));
            left -= words;
        }
        Ok(out)
    })
}

/// The `f64` words of `payload` that follow its head on the wire.
fn streamed_words(payload: &Payload) -> &[f64] {
    match payload {
        Payload::F64(data) | Payload::Rows { data, .. } => data,
        Payload::Empty | Payload::U32(_) => &[],
    }
}

/// Encodes the head of `msg` as a DATA frame from rank `src`: length
/// prefix (covering the words still to come), frame header (`link_seq`
/// zero until [`WireFrame::set_link_seq`]), `Msg` header, element counts
/// and the `u32` ids — everything but [`streamed_words`].
fn encode_data_head(src: usize, msg: &Msg) -> Vec<u8> {
    let ids: &[u32] = match &msg.payload {
        Payload::U32(idx) | Payload::Rows { idx, .. } => idx,
        Payload::Empty | Payload::F64(_) => &[],
    };
    let mut b = begin_frame(kind::DATA, src as u32, 0, MSG_HEADER + 16 + 4 * ids.len());
    b.push(msg.tag);
    b.extend_from_slice(&msg.seq.to_le_bytes());
    b.extend_from_slice(&msg.checksum.to_le_bytes());
    match &msg.payload {
        Payload::Empty => b.push(PV_EMPTY),
        Payload::F64(v) => {
            b.push(PV_F64);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
        }
        Payload::U32(v) => {
            b.push(PV_U32);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
        }
        Payload::Rows { idx, data } => {
            b.push(PV_ROWS);
            b.extend_from_slice(&(idx.len() as u64).to_le_bytes());
            b.extend_from_slice(&(data.len() as u64).to_le_bytes());
        }
    }
    let at = b.len();
    b.resize(at + 4 * ids.len(), 0);
    put_words(&mut b[at..], ids, u32::to_le_bytes);
    end_frame(b, 8 * streamed_words(&msg.payload).len())
}

/// Writes `head` and then `words` as little-endian bytes, staged through
/// one chunk so a short frame is still a single write and a long one
/// never exists as a second full-size buffer.
pub(crate) fn write_parts(w: &mut impl Write, head: &[u8], words: &[f64]) -> io::Result<()> {
    if words.is_empty() {
        return w.write_all(head);
    }
    with_stage(head.len() + 8 * words.len(), |stage| {
        let mut at = 0;
        if head.len() <= stage.len() / 2 {
            stage[..head.len()].copy_from_slice(head);
            at = head.len();
        } else {
            w.write_all(head)?;
        }
        let mut rest = words;
        while !rest.is_empty() {
            let (now, later) = rest.split_at(rest.len().min((stage.len() - at) / 8));
            put_words(&mut stage[at..], now, f64::to_le_bytes);
            w.write_all(&stage[..at + 8 * now.len()])?;
            (at, rest) = (0, later);
        }
        Ok(())
    })
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
        streamed_words(&self.payload)
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

/// Reads the `body_len`-byte body of a DATA frame off `r` into a [`Msg`]
/// whose vectors come from lane `lane` of `pool` (the sending peer's).
/// Each element count must account for the rest of the body exactly, so a
/// lying count is rejected before anything is taken for it. An `InvalidData` error leaves the unread
/// body in `r`: the stream is out of step and the link must be dropped.
pub(crate) fn read_data(
    r: &mut impl Read,
    body_len: usize,
    pool: &PayloadPool,
    lane: usize,
) -> io::Result<Msg> {
    let truncated = || bad_data("truncated DATA body");
    let mismatch = || bad_data("element counts do not match the DATA body length");
    // The `Msg` header, then the one or two counts its variant calls for.
    let mut fixed = [0u8; MSG_HEADER + 16];
    let after_header = body_len.checked_sub(MSG_HEADER).ok_or_else(truncated)?;
    r.read_exact(&mut fixed[..MSG_HEADER])?;
    let variant = fixed[MSG_HEADER - 1];
    let counts = match variant {
        PV_EMPTY => 0,
        PV_F64 | PV_U32 => 8,
        PV_ROWS => 16,
        other => return Err(bad_data(&format!("unknown payload variant {other}"))),
    };
    let words_len = after_header.checked_sub(counts).ok_or_else(truncated)?;
    r.read_exact(&mut fixed[MSG_HEADER..MSG_HEADER + counts])?;
    let mut c = Cursor {
        buf: &fixed,
        pos: 0,
    };
    let (tag, seq, checksum, _variant) = (c.u8()?, c.u64()?, c.u64()?, c.u8()?);
    // Byte lengths of the id and data arrays the counts claim.
    let mut bytes_of = |width: u64| c.u64()?.checked_mul(width).ok_or_else(mismatch);
    let (idx_len, data_len) = match variant {
        PV_EMPTY => (0, 0),
        PV_F64 => (0, bytes_of(8)?),
        PV_U32 => (bytes_of(4)?, 0),
        _ => (bytes_of(4)?, bytes_of(8)?),
    };
    if idx_len.checked_add(data_len) != Some(words_len as u64) {
        return Err(mismatch());
    }
    // Both fit in the body, so in a usize; only now is the pool asked.
    let (ni, nd) = (idx_len as usize / 4, data_len as usize / 8);
    let idx = read_words(r, ni, pool.take_u32(lane, ni), u32::from_le_bytes)?;
    let data = read_words(r, nd, pool.take_f64(lane, nd), f64::from_le_bytes)?;
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
        write_parts(&mut bytes, frame.head(), frame.words()).unwrap();
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

    /// Feeds arbitrary bytes through the header reader and the streaming
    /// DATA reader (or the capped control-body reader, when the kind byte
    /// says so), taking from `pool`. Must return, never panic; anything
    /// it accepts must be well formed.
    fn decode_hostile_from(bytes: &[u8], pool: &PayloadPool) -> Option<Msg> {
        let mut r = bytes;
        let header = read_header(&mut r).ok()??;
        if header.kind != kind::DATA {
            let frame = read_body(&mut r, header).ok()?;
            assert!(frame.body.len() <= MAX_CONTROL_BODY);
            return None;
        }
        let msg = read_data(&mut r, header.body_len, pool, 0).ok()?;
        assert_well_formed(&msg, header.body_len);
        Some(msg)
    }

    fn decode_hostile(bytes: &[u8]) -> Option<Msg> {
        decode_hostile_from(bytes, &PayloadPool::new(1))
    }

    #[test]
    fn data_frames_match_the_grammar_and_roundtrip_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        let mut msgs: Vec<Msg> = (0..500).map(|_| random_msg(&mut rng)).collect();
        // Payloads of several staging chunks, a whole number of them and
        // not, and a head too long to share the first chunk.
        let words = STAGE / 8;
        for (ni, nd) in [
            (0, 3 * words + 5),
            (7, 2 * words),
            (STAGE / 4 + 3, words + 1),
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
