//! Checksummed training-state checkpoints with corruption fallback.
//!
//! The elastic-restart supervisor snapshots the replicated training
//! state (weights, optimizer state, epoch records) so a torn-down world
//! can resume instead of recomputing from scratch. A snapshot that was
//! silently corrupted between write and restore would poison the resumed
//! run while *looking* healthy — so every [`Checkpoint`] is stored as
//! the bytes of one codec (the slot format of [`DiskCheckpointStore`],
//! which the in-memory [`CheckpointStore`] keeps too), stamped with an
//! FNV-1a checksum over every other byte, and restore re-verifies
//! before decoding. Both stores keep the last **two** snapshots: if the
//! newest fails verification, restore falls back to the previous one,
//! and only when both are bad (or none exist) does training restart
//! from scratch.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use spmat::Dense;

use crate::model::Weights;
use crate::optim::Optimizer;
use crate::reference::EpochRecord;

/// A consistent snapshot of the replicated training state. Weights and
/// optimizer state are identical on every rank (deterministic init +
/// all-reduced gradients), so one rank's copy is globally valid.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// First epoch that still has to run.
    pub next_epoch: usize,
    /// Replicated model weights.
    pub weights: Weights,
    /// Replicated optimizer state.
    pub optimizer: Optimizer,
    /// Epoch records accumulated so far.
    pub records: Vec<EpochRecord>,
}

/// Where the trainer's restart supervisor keeps its snapshots.
///
/// The thread backend shares one in-memory ring
/// ([`Mutex<CheckpointStore>`]) across rank threads and restarts; the
/// process backend needs state that survives the death of every rank
/// *process* and so persists through a [`DiskCheckpointStore`]. Both
/// honor the same contract: `save` must keep the previous snapshot as a
/// checksum-verified fallback, and `restore` must return the newest
/// snapshot that verifies (or `None` → train from scratch).
pub trait CheckpointBackend: Sync {
    /// Stamps and stores a snapshot, retaining the previous one.
    fn save(&self, ck: Checkpoint);
    /// The newest snapshot that passes verification, if any.
    fn restore(&self) -> Option<Checkpoint>;
    /// Epoch cursor of the snapshot `restore` would return.
    fn resume_epoch(&self) -> Option<usize> {
        self.restore().map(|ck| ck.next_epoch)
    }
}

impl CheckpointBackend for Mutex<CheckpointStore> {
    fn save(&self, ck: Checkpoint) {
        self.lock().unwrap().save(ck);
    }

    fn restore(&self) -> Option<Checkpoint> {
        self.lock().unwrap().restore()
    }
}

/// Ring of the last two snapshots, each held as the checksummed bytes of
/// the on-disk checkpoint format (the same encoding a disk slot holds).
#[derive(Clone, Debug, Default)]
pub struct CheckpointStore {
    slots: [Option<Vec<u8>>; 2],
    /// Sequence number of the most recent save; slots alternate by it.
    seq: u64,
}

impl CheckpointStore {
    /// An empty store (restore yields `None` → train from scratch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `ck` over the *older* slot, so the previous snapshot
    /// survives as the fallback.
    pub fn save(&mut self, ck: Checkpoint) {
        self.seq += 1;
        self.slots[self.seq as usize % 2] = Some(encode_checkpoint(&ck, self.seq));
    }

    /// The newest snapshot that passes checksum verification: the most
    /// recent save, the previous one if the newest is corrupted, or
    /// `None` when neither verifies (train from scratch).
    pub fn restore(&self) -> Option<Checkpoint> {
        let slots = self.slots.each_ref();
        newest(slots.map(|s| decode_checkpoint(s.as_deref()?)))
    }

    /// How many snapshots are currently held (verified or not).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether no snapshot has ever been saved.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Epoch cursor of the snapshot `restore` would return, if any.
    pub fn resume_epoch(&self) -> Option<usize> {
        self.restore().map(|ck| ck.next_epoch)
    }

    /// Flips one byte of the newest slot.
    #[cfg(test)]
    pub(crate) fn corrupt_newest(&mut self) {
        let bytes = self.slots[self.seq as usize % 2]
            .as_mut()
            .expect("nothing to corrupt");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    }
}

/// The decoded slot with the highest save sequence, if any decoded.
fn newest(slots: [Option<(Checkpoint, u64)>; 2]) -> Option<Checkpoint> {
    let newest = slots.into_iter().flatten().max_by_key(|&(_, seq)| seq);
    newest.map(|(ck, _)| ck)
}

// ---- Slot codec and disk persistence ---------------------------------------

const DISK_MAGIC: u64 = 0x474e_4e43_4b50_5432; // "GNNCKPT2"

/// Byte range of the checksum word in an encoded snapshot.
const SUM_AT: std::ops::Range<usize> = 16..24;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over every byte of an encoded snapshot but its checksum word.
/// Each step is a bijection of the hash state, so any one changed byte
/// changes the sum.
fn checksum(bytes: &[u8]) -> u64 {
    let covered = bytes[..SUM_AT.start].iter().chain(&bytes[SUM_AT.end..]);
    covered.fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Writes the checksum word of an encoded snapshot.
fn stamp(bytes: &mut [u8]) {
    let sum = checksum(bytes);
    bytes[SUM_AT].copy_from_slice(&sum.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_dense(buf: &mut Vec<u8>, d: &Dense) {
    put_u64(buf, d.rows() as u64);
    put_u64(buf, d.cols() as u64);
    for &x in d.data() {
        put_f64(buf, x);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A count of items at least `unit` bytes long each, if the bytes
    /// left can hold that many: a corrupted count must not size a
    /// reservation or a split.
    fn count(&mut self, unit: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n.checked_mul(unit)? <= self.buf.len() - self.pos).then_some(n)
    }

    fn dense(&mut self) -> Option<Dense> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let len = rows.checked_mul(cols)?;
        // A corrupted header must not ask for an absurd allocation.
        if len > self.buf.len().saturating_sub(self.pos) / 8 {
            return None;
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.f64()?);
        }
        Some(Dense::from_vec(rows, cols, data))
    }
}

/// `[magic][save_seq][checksum][next_epoch][weights][optimizer][records]`,
/// all u64 little-endian (f64 via `to_bits`); the checksum covers every
/// other word.
fn encode_checkpoint(ck: &Checkpoint, save_seq: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, DISK_MAGIC);
    put_u64(&mut buf, save_seq);
    put_u64(&mut buf, 0); // stamped below
    put_u64(&mut buf, ck.next_epoch as u64);
    put_u64(&mut buf, ck.weights.mats.len() as u64);
    for m in &ck.weights.mats {
        put_dense(&mut buf, m);
    }
    match &ck.optimizer {
        Optimizer::Sgd { lr } => {
            put_u64(&mut buf, 0);
            put_f64(&mut buf, *lr);
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } => {
            put_u64(&mut buf, 1);
            put_f64(&mut buf, *lr);
            put_f64(&mut buf, *beta1);
            put_f64(&mut buf, *beta2);
            put_f64(&mut buf, *eps);
            put_u64(&mut buf, *t);
            put_u64(&mut buf, m.len() as u64);
            for d in m.iter().chain(v) {
                put_dense(&mut buf, d);
            }
        }
    }
    put_u64(&mut buf, ck.records.len() as u64);
    for r in &ck.records {
        put_f64(&mut buf, r.loss);
        put_f64(&mut buf, r.train_accuracy);
    }
    stamp(&mut buf);
    buf
}

/// `None` on a checksum mismatch *or* any structural damage (bad magic,
/// truncation, absurd sizes) — either way the slot is invalid.
fn decode_checkpoint(bytes: &[u8]) -> Option<(Checkpoint, u64)> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.u64()? != DISK_MAGIC {
        return None;
    }
    let save_seq = r.u64()?;
    if r.u64()? != checksum(bytes) {
        return None;
    }
    let next_epoch = r.u64()? as usize;
    // A matrix is at least its two dimension words.
    let nmats = r.count(16)?;
    let mut mats = Vec::with_capacity(nmats);
    for _ in 0..nmats {
        mats.push(r.dense()?);
    }
    let optimizer = match r.u64()? {
        0 => Optimizer::Sgd { lr: r.f64()? },
        1 => {
            let lr = r.f64()?;
            let beta1 = r.f64()?;
            let beta2 = r.f64()?;
            let eps = r.f64()?;
            let t = r.u64()?;
            // `nm` first and `nm` second moments, 16 bytes or more each.
            let nm = r.count(32)?;
            let mut moments = Vec::with_capacity(2 * nm);
            for _ in 0..2 * nm {
                moments.push(r.dense()?);
            }
            let v = moments.split_off(nm);
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m: moments,
                v,
            }
        }
        _ => return None,
    };
    let nrec = r.count(16)?;
    let mut records = Vec::with_capacity(nrec);
    for _ in 0..nrec {
        records.push(EpochRecord {
            loss: r.f64()?,
            train_accuracy: r.f64()?,
        });
    }
    let ck = Checkpoint {
        next_epoch,
        weights: Weights { mats },
        optimizer,
        records,
    };
    Some((ck, save_seq))
}

/// The two-slot checkpoint ring persisted as files, for supervisors
/// whose ranks are OS processes: every rank process can die (SIGKILL
/// included) and a freshly spawned generation still finds the newest
/// verified snapshot on disk.
///
/// Same fallback contract as [`CheckpointStore`]: `save` overwrites the
/// *older* slot (atomically: temp file + rename), `restore` returns the
/// highest-sequence slot that decodes and passes its FNV checksum.
#[derive(Debug)]
pub struct DiskCheckpointStore {
    dir: PathBuf,
}

impl DiskCheckpointStore {
    /// Opens (creating `dir` if needed) the store at `dir`; existing
    /// slot files are picked up, so a restarted supervisor resumes.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn slot_path(&self, slot: usize) -> PathBuf {
        self.dir.join(format!("slot{slot}.ck"))
    }

    /// Decoded content of one slot, if it exists and verifies.
    fn read_slot(&self, slot: usize) -> Option<(Checkpoint, u64)> {
        let mut bytes = Vec::new();
        std::fs::File::open(self.slot_path(slot))
            .ok()?
            .read_to_end(&mut bytes)
            .ok()?;
        decode_checkpoint(&bytes)
    }

    /// Highest save sequence present in either slot (0 when empty),
    /// counting even corrupted slots' readable headers so sequence
    /// numbers never regress.
    fn max_seq(&self) -> u64 {
        [0, 1]
            .iter()
            .filter_map(|&s| {
                let mut bytes = [0u8; 16];
                let mut f = std::fs::File::open(self.slot_path(s)).ok()?;
                f.read_exact(&mut bytes).ok()?;
                let magic = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                (magic == DISK_MAGIC).then(|| u64::from_le_bytes(bytes[8..].try_into().unwrap()))
            })
            .max()
            .unwrap_or(0)
    }

    /// The slot `save` should overwrite: the one *not* holding the
    /// newest verified snapshot.
    fn older_slot(&self) -> usize {
        match (self.read_slot(0), self.read_slot(1)) {
            (Some((_, s0)), Some((_, s1))) if s0 >= s1 => 1,
            (Some(_), Some(_)) => 0,
            (Some(_), None) => 1,
            _ => 0,
        }
    }
}

impl CheckpointBackend for DiskCheckpointStore {
    fn save(&self, ck: Checkpoint) {
        let seq = self.max_seq() + 1;
        let bytes = encode_checkpoint(&ck, seq);
        let slot = self.older_slot();
        let tmp = self.dir.join(format!("slot{slot}.tmp"));
        // Atomic publish: a crash mid-write leaves the old slot intact.
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&tmp, self.slot_path(slot)));
        if let Err(e) = write {
            // A failed save degrades durability, not correctness: the
            // previous snapshot (if any) still restores.
            eprintln!(
                "checkpoint save to {} failed: {e}",
                self.slot_path(slot).display()
            );
        }
    }

    fn restore(&self) -> Option<Checkpoint> {
        newest([0, 1].map(|s| self.read_slot(s)))
    }
}

/// Removes any persisted snapshots under `dir` (fresh-run hygiene for
/// launchers reusing a scratch directory).
pub fn clear_disk_checkpoints(dir: &Path) {
    for slot in [0, 1] {
        let _ = std::fs::remove_file(dir.join(format!("slot{slot}.ck")));
        let _ = std::fs::remove_file(dir.join(format!("slot{slot}.tmp")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GcnConfig;
    use crate::optim::OptKind;

    fn snapshot(next_epoch: usize, seed: u64, opt: OptKind) -> Checkpoint {
        let cfg = GcnConfig {
            dims: vec![4, 3],
            lr: 0.05,
            seed,
            opt,
            arch: Default::default(),
        };
        Checkpoint {
            next_epoch,
            weights: Weights::init(&cfg),
            optimizer: Optimizer::from_config(&cfg),
            records: vec![EpochRecord {
                loss: 1.25,
                train_accuracy: 0.5,
            }],
        }
    }

    #[test]
    fn roundtrip_restores_the_newest_snapshot() {
        let mut store = CheckpointStore::new();
        assert!(store.is_empty());
        assert!(store.restore().is_none());
        store.save(snapshot(2, 1, OptKind::Sgd));
        store.save(snapshot(4, 2, OptKind::Sgd));
        store.save(snapshot(6, 3, OptKind::Sgd));
        assert_eq!(store.len(), 2, "ring keeps exactly two snapshots");
        assert_eq!(store.resume_epoch(), Some(6));
    }

    #[test]
    fn corrupted_newest_falls_back_to_previous() {
        let mut store = CheckpointStore::new();
        store.save(snapshot(2, 1, OptKind::Adam));
        store.save(snapshot(4, 2, OptKind::Adam));
        store.corrupt_newest();
        let restored = store.restore().expect("fallback snapshot verifies");
        assert_eq!(restored.next_epoch, 2, "must fall back to the older one");
    }

    #[test]
    fn both_corrupted_means_scratch_restart() {
        let mut store = CheckpointStore::new();
        store.save(snapshot(2, 1, OptKind::Sgd));
        store.corrupt_newest();
        assert!(store.restore().is_none());
        store.save(snapshot(4, 2, OptKind::Sgd));
        store.corrupt_newest();
        assert!(store.restore().is_none(), "no valid snapshot survives");
    }

    fn disk_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gnn-ck-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Flips one byte in the middle of a slot file (past the header, so
    /// the sequence number stays readable but the payload is damaged).
    fn corrupt_slot_file(dir: &Path, slot: usize) {
        let path = dir.join(format!("slot{slot}.ck"));
        let mut bytes = std::fs::read(&path).expect("slot file exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).expect("rewrite slot file");
    }

    #[test]
    fn disk_store_roundtrips_and_survives_reopen() {
        let dir = disk_dir("roundtrip");
        let store = DiskCheckpointStore::new(&dir).unwrap();
        assert!(store.restore().is_none());
        store.save(snapshot(2, 1, OptKind::Adam));
        store.save(snapshot(4, 2, OptKind::Adam));
        store.save(snapshot(6, 3, OptKind::Adam));
        assert_eq!(store.resume_epoch(), Some(6));

        // A fresh handle over the same directory sees the same state —
        // that is the property the process supervisor depends on.
        let reopened = DiskCheckpointStore::new(&dir).unwrap();
        let ck = reopened.restore().expect("snapshot persisted");
        assert_eq!(ck.next_epoch, 6);
        let orig = snapshot(6, 3, OptKind::Adam);
        assert_eq!(ck.weights.max_abs_diff(&orig.weights), 0.0, "bit-exact");
        assert_eq!(ck.records, orig.records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_falls_back_when_newest_file_is_corrupted() {
        let dir = disk_dir("fallback");
        let store = DiskCheckpointStore::new(&dir).unwrap();
        store.save(snapshot(2, 1, OptKind::Sgd)); // slot 0, seq 1
        store.save(snapshot(4, 2, OptKind::Sgd)); // slot 1, seq 2
        corrupt_slot_file(&dir, 1);
        assert_eq!(
            store.resume_epoch(),
            Some(2),
            "must fall back to the older verified slot"
        );
        // Double corruption → scratch restart.
        corrupt_slot_file(&dir, 0);
        assert!(store.restore().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_garbage_file_is_rejected_not_a_panic() {
        let dir = disk_dir("garbage");
        let store = DiskCheckpointStore::new(&dir).unwrap();
        std::fs::write(dir.join("slot0.ck"), b"not a checkpoint at all").unwrap();
        std::fs::write(dir.join("slot1.ck"), [0xffu8; 64]).unwrap();
        assert!(store.restore().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Byte offsets of every count field in `encode_checkpoint(ck, _)`:
    /// the matrix count, each matrix's rows and cols, Adam's moment
    /// count, the record count.
    fn count_offsets(ck: &Checkpoint) -> Vec<usize> {
        let mut at = vec![32];
        let mut pos = 40;
        let mut dense = |pos: &mut usize, d: &Dense| {
            at.extend([*pos, *pos + 8]);
            *pos += 16 + 8 * d.data().len();
        };
        for m in &ck.weights.mats {
            dense(&mut pos, m);
        }
        pos += 8; // optimizer tag
        match &ck.optimizer {
            Optimizer::Sgd { .. } => pos += 8,
            Optimizer::Adam { m, v, .. } => {
                pos += 40;
                let nm_at = pos;
                pos += 8;
                for d in m.iter().chain(v) {
                    dense(&mut pos, d);
                }
                at.push(nm_at);
            }
        }
        at.push(pos);
        assert_eq!(
            pos + 8 + 16 * ck.records.len(),
            encode_checkpoint(ck, 1).len()
        );
        at
    }

    /// Decodes `bytes`: `None`, or a snapshot which holds no more items
    /// than `bytes` can carry.
    fn decode_hostile(bytes: &[u8]) {
        let Some((ck, _)) = decode_checkpoint(bytes) else {
            return;
        };
        // `m` keeps the reservation made for both moment lists.
        let moments = match &ck.optimizer {
            Optimizer::Sgd { .. } => 0,
            Optimizer::Adam { m, .. } => m.capacity(),
        };
        let items = ck.weights.mats.capacity() + moments + ck.records.capacity();
        assert!(
            16 * items <= bytes.len(),
            "{items} items from {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn mutated_slots_never_panic_or_over_reserve() {
        for opt in [OptKind::Adam, OptKind::Sgd] {
            let ck = snapshot(4, 7, opt);
            let good = encode_checkpoint(&ck, 3);
            for cut in 0..good.len() {
                assert!(decode_checkpoint(&good[..cut]).is_none(), "cut at {cut}");
            }
            // The checksum rejects every one-byte change; re-stamped, the
            // change reaches the parser, which must stay in bounds.
            for at in 0..good.len() {
                for flip in [0x01, 0x80, 0xff] {
                    let mut bad = good.clone();
                    bad[at] ^= flip;
                    assert!(decode_checkpoint(&bad).is_none(), "byte {at} ^ {flip:#x}");
                    stamp(&mut bad);
                    decode_hostile(&bad);
                }
            }
            for at in count_offsets(&ck) {
                for lie in [u64::MAX, 1 << 63, 1 << 32] {
                    let mut bad = good.clone();
                    bad[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                    stamp(&mut bad);
                    assert!(decode_checkpoint(&bad).is_none(), "count at {at} = {lie}");
                }
            }
            assert!(decode_checkpoint(&good).is_some());
        }
    }

    #[test]
    fn restore_falls_back_past_a_slot_with_a_hostile_moment_count() {
        let dir = disk_dir("hostile");
        let store = DiskCheckpointStore::new(&dir).unwrap();
        store.save(snapshot(2, 1, OptKind::Adam)); // slot 0, seq 1
        store.save(snapshot(4, 2, OptKind::Adam)); // slot 1, seq 2
        let offsets = count_offsets(&snapshot(4, 2, OptKind::Adam));
        let nm_at = offsets[offsets.len() - 2];
        let path = dir.join("slot1.ck");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[nm_at..nm_at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        stamp(&mut bytes);
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(store.resume_epoch(), Some(2), "the older slot restores");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_disk_checkpoints_removes_slots() {
        let dir = disk_dir("clear");
        let store = DiskCheckpointStore::new(&dir).unwrap();
        store.save(snapshot(2, 1, OptKind::Sgd));
        assert!(store.restore().is_some());
        clear_disk_checkpoints(&dir);
        assert!(store.restore().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
