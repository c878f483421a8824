//! Length-prefixed wire framing for the process backend.
//!
//! Every frame on a socket is `[u32 len][u8 kind][u32 src][u64
//! link_seq][body]`, all little-endian; `len` covers everything after
//! the length field itself. `link_seq` numbers DATA frames per
//! connection direction (the replay/ack watermark unit); it is zero for
//! control frames. The DATA body is the byte serialization of
//! [`Msg`] — tag, transport seq, generation, payload checksum, payload —
//! exactly the header the thread backend passes by value, so the
//! receive state machine in [`crate::RankCtx`] is backend-agnostic.
//! The full grammar is documented in DESIGN.md §8.
//!
//! A DATA frame is built once and copied once each way:
//! [`encode_data_frame`] writes frame header, `Msg` header and payload
//! into the one buffer the replay queue then owns and the socket write
//! borrows; [`read_frame`] reads the 17 header bytes and the body
//! separately, and [`decode_msg`] converts the body's element bytes in
//! bulk into vectors sized from the body's own length — a hostile count
//! field can neither panic the decoder nor make it reserve more than
//! the bytes that arrived. The codec carries the `Msg` checksum and
//! never looks at it: integrity belongs to [`crate::RankCtx`] alone.

use std::io::{self, Read, Write};

use crate::msg::{Msg, Payload};

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

/// Encoded bytes a frame occupies beyond its body: the u32 length
/// prefix plus the kind/src/link_seq header (metrics accounting).
pub(crate) const FRAME_OVERHEAD: u64 = 4 + 1 + 4 + 8;

/// One decoded frame.
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

/// Fills in the length prefix once the body is in place.
fn end_frame(mut buf: Vec<u8>) -> Vec<u8> {
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encodes a control frame (small body) into its wire bytes.
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = begin_frame(frame.kind, frame.src, frame.link_seq, frame.body.len());
    buf.extend_from_slice(&frame.body);
    end_frame(buf)
}

/// Stamps the `link_seq` of an already encoded frame. Reliable frames
/// are encoded before their sequence number is claimed, so the claim
/// and the replay-queue push share one short critical section.
pub(crate) fn set_link_seq(frame: &mut [u8], link_seq: u64) {
    // After the length prefix, `kind` and `src`; the header ends with it.
    frame[4 + 1 + 4..4 + HEADER].copy_from_slice(&link_seq.to_le_bytes());
}

/// Reads one frame off `r`. `Ok(None)` is a clean EOF at a frame
/// boundary; errors inside a frame are real I/O failures. The body is
/// read straight into the vector the frame keeps.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
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
    let mut body = vec![0u8; len as usize - HEADER];
    r.read_exact(&mut body)?;
    Ok(Some(Frame {
        kind: header[0],
        src: u32::from_le_bytes(header[1..5].try_into().expect("4 header bytes")),
        link_seq: u64::from_le_bytes(header[5..13].try_into().expect("8 header bytes")),
        body,
    }))
}

// ---- Msg body codec -----------------------------------------------------

/// Payload variant bytes (match [`Payload::checksum`]'s tag bytes).
const PV_EMPTY: u8 = 0;
const PV_F64: u8 = 1;
const PV_U32: u8 = 2;
const PV_ROWS: u8 = 3;

/// Bytes of `tag`, `seq`, `gen`, `checksum` and the payload variant.
const MSG_HEADER: usize = 1 + 8 + 4 + 8 + 1;

/// Appends `v` as little-endian words: one resize, then a fixed-width
/// copy per element, which compiles to a block move.
fn put_words<T: Copy, const N: usize>(buf: &mut Vec<u8>, v: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = buf.len();
    buf.resize(at + N * v.len(), 0);
    for (dst, &x) in buf[at..].chunks_exact_mut(N).zip(v) {
        dst.copy_from_slice(&le(x));
    }
}

/// The inverse of [`put_words`]: one vector sized from `bytes` itself.
fn get_words<T, const N: usize>(bytes: &[u8], le: impl Fn([u8; N]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(N)
        .map(|c| le(c.try_into().expect("chunks_exact yields N bytes")))
        .collect()
}

/// Encodes `msg` as a complete DATA frame from rank `src` — length
/// prefix, frame header (`link_seq` zero until [`set_link_seq`]), `Msg`
/// header and payload — in the single buffer that is written, retained
/// for replay and dropped on ACK.
pub(crate) fn encode_data_frame(src: usize, msg: &Msg) -> Vec<u8> {
    let body_len = MSG_HEADER + 16 + msg.payload.bytes() as usize;
    let mut b = begin_frame(kind::DATA, src as u32, 0, body_len);
    b.push(msg.tag);
    b.extend_from_slice(&msg.seq.to_le_bytes());
    b.extend_from_slice(&msg.gen.to_le_bytes());
    b.extend_from_slice(&msg.checksum.to_le_bytes());
    match &msg.payload {
        Payload::Empty => b.push(PV_EMPTY),
        Payload::F64(v) => {
            b.push(PV_F64);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
            put_words(&mut b, v, f64::to_le_bytes);
        }
        Payload::U32(v) => {
            b.push(PV_U32);
            b.extend_from_slice(&(v.len() as u64).to_le_bytes());
            put_words(&mut b, v, u32::to_le_bytes);
        }
        Payload::Rows { idx, data } => {
            b.push(PV_ROWS);
            b.extend_from_slice(&(idx.len() as u64).to_le_bytes());
            b.extend_from_slice(&(data.len() as u64).to_le_bytes());
            put_words(&mut b, idx, u32::to_le_bytes);
            put_words(&mut b, data, f64::to_le_bytes);
        }
    }
    end_frame(b)
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
            .ok_or_else(|| bad_data("truncated DATA body"))?;
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

    /// Everything not yet consumed.
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Deserializes a DATA frame body back into a [`Msg`].
pub(crate) fn decode_msg(body: &[u8]) -> io::Result<Msg> {
    let mut c = Cursor { buf: body, pos: 0 };
    let tag = c.u8()?;
    let seq = c.u64()?;
    let gen = c.u32()?;
    let checksum = c.u64()?;
    // Each count must account for the rest of the body exactly, so a
    // lying count is rejected before anything is allocated for it.
    let mismatch = || bad_data("element counts do not match the DATA body length");
    let payload = match c.u8()? {
        PV_EMPTY => {
            if !c.rest().is_empty() {
                return Err(mismatch());
            }
            Payload::Empty
        }
        PV_F64 => {
            let n = c.u64()?;
            let words = c.rest();
            if n.checked_mul(8) != Some(words.len() as u64) {
                return Err(mismatch());
            }
            Payload::F64(get_words(words, f64::from_le_bytes))
        }
        PV_U32 => {
            let n = c.u64()?;
            let words = c.rest();
            if n.checked_mul(4) != Some(words.len() as u64) {
                return Err(mismatch());
            }
            Payload::U32(get_words(words, u32::from_le_bytes))
        }
        PV_ROWS => {
            let idx_len = c.u64()?.checked_mul(4).ok_or_else(mismatch)?;
            let data_len = c.u64()?.checked_mul(8).ok_or_else(mismatch)?;
            let words = c.rest();
            if idx_len.checked_add(data_len) != Some(words.len() as u64) {
                return Err(mismatch());
            }
            let (idx, data) = words.split_at(idx_len as usize);
            Payload::Rows {
                idx: get_words(idx, u32::from_le_bytes),
                data: get_words(data, f64::from_le_bytes),
            }
        }
        other => return Err(bad_data(&format!("unknown payload variant {other}"))),
    };
    Ok(Msg {
        tag,
        seq,
        gen,
        checksum,
        payload,
    })
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

/// Decodes an ADDRBOOK body.
pub(crate) fn decode_addrbook(body: &[u8]) -> io::Result<Vec<String>> {
    let mut c = Cursor { buf: body, pos: 0 };
    let n = c.u32()? as usize;
    (0..n).map(|_| decode_path(&mut c)).collect()
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
        body.extend_from_slice(&msg.gen.to_le_bytes());
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
            gen: rng.gen(),
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

    /// Feeds arbitrary bytes through both decode stages. Must return,
    /// never panic; anything it accepts must be well formed.
    fn decode_hostile(bytes: &[u8]) -> Option<Msg> {
        let frame = read_frame(&mut &bytes[..]).ok()??;
        let msg = decode_msg(&frame.body).ok()?;
        assert_well_formed(&msg, frame.body.len());
        Some(msg)
    }

    #[test]
    fn data_frames_match_the_grammar_and_roundtrip_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0012);
        for _case in 0..500 {
            let msg = random_msg(&mut rng);
            let (src, link_seq) = (rng.gen_range(0..64usize), rng.gen::<u64>());
            let mut bytes = encode_data_frame(src, &msg);
            set_link_seq(&mut bytes, link_seq);
            assert_eq!(bytes, reference_data_frame(src as u32, link_seq, &msg));
            assert_eq!(
                bytes.len() as u64,
                FRAME_OVERHEAD + MSG_HEADER as u64 + counts_len(&msg.payload) + msg.payload.bytes()
            );

            let mut r = bytes.as_slice();
            let frame = read_frame(&mut r).unwrap().expect("one frame");
            assert!(r.is_empty(), "the frame consumes exactly its bytes");
            assert_eq!(
                (frame.kind, frame.src, frame.link_seq),
                (kind::DATA, src as u32, link_seq)
            );
            let back = decode_msg(&frame.body).unwrap();
            assert_eq!(
                (back.tag, back.seq, back.gen, back.checksum),
                (msg.tag, msg.seq, msg.gen, msg.checksum)
            );
            assert_eq!(payload_bits(&back.payload), payload_bits(&msg.payload));
            assert_well_formed(&back, frame.body.len());
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
            gen: 2,
            checksum: payload.checksum(),
            payload,
        })
        .collect()
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        for msg in sample_msgs() {
            let full = encode_data_frame(1, &msg);
            for cut in 0..full.len() {
                assert!(decode_hostile(&full[..cut]).is_none(), "frame cut at {cut}");
            }
            // The body alone, cut anywhere (a frame whose length prefix
            // was itself shortened consistently).
            let body = &full[FRAME_OVERHEAD as usize..];
            for cut in 0..body.len() {
                assert!(decode_msg(&body[..cut]).is_err(), "body cut at {cut}");
            }
            assert!(decode_msg(body).is_ok());
        }
    }

    #[test]
    fn every_single_byte_mutation_is_an_error_or_a_well_formed_msg() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0013);
        for msg in sample_msgs() {
            let full = encode_data_frame(1, &msg);
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
            let full = encode_data_frame(1, &msg);
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
                    assert!(decode_hostile(&bad).is_none(), "count {n} -> {lie}");
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

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }
}
