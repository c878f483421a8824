//! The reliability core of the process backend, extracted so its
//! invariants are testable without sockets: a sender-side
//! [`ReplayQueue`] (per-direction sequence assignment + cumulative-ACK
//! pruning + unacknowledged-suffix retransmit) and a receiver-side
//! [`DedupWatermark`] (deliver-exactly-once filtering of replayed
//! frames).
//!
//! The contract the property tests below pin down — and the socket
//! harness re-proves over real Unix *and* TCP connections:
//!
//! > For any prefix of frames delivered before a forced disconnect,
//! > replaying the unacknowledged suffix yields a delivered sequence
//! > byte-identical to a never-disconnected run, and both watermarks
//! > end exactly at the number of frames sent.

use std::collections::VecDeque;

/// Sender half: assigns `link_seq`s, retains frames until the peer's
/// cumulative ACK covers them, and replays the suffix beyond the peer's
/// delivered watermark on reconnect. A frame `F` is a shared handle on
/// the parts that are written (the transport queues
/// `Arc<`[`super::wire::WireFrame`]`>`): a writer borrows it for the
/// length of one socket write, outside the queue's lock, and no second
/// encoding or copy exists. Pruning drops the queue's handle, which is
/// what returns a frame's payload to the pool.
pub(crate) struct ReplayQueue<F> {
    next_seq: u64,
    acked: u64,
    queue: VecDeque<(u64, F)>,
}

impl<F> ReplayQueue<F> {
    pub(crate) fn new() -> Self {
        ReplayQueue {
            next_seq: 1,
            acked: 0,
            queue: VecDeque::new(),
        }
    }

    /// Claims the next reliable sequence number (1-based).
    pub(crate) fn assign_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Retains frame `seq` for replay.
    pub(crate) fn push(&mut self, seq: u64, bytes: F) {
        debug_assert!(
            self.queue.back().is_none_or(|(s, _)| *s < seq),
            "replay queue must stay seq-ordered"
        );
        self.queue.push_back((seq, bytes));
    }

    /// Applies a cumulative ACK watermark: prunes every retained frame
    /// it covers. Watermarks are monotone (stale ACKs are no-ops).
    pub(crate) fn ack(&mut self, watermark: u64) {
        self.acked = self.acked.max(watermark);
        while self.queue.front().is_some_and(|(s, _)| *s <= self.acked) {
            self.queue.pop_front();
        }
    }

    /// The peer's highest acknowledged sequence.
    #[cfg(test)]
    pub(crate) fn acked(&self) -> u64 {
        self.acked
    }

    /// Frames retained beyond the ACK watermark, in sequence order —
    /// exactly what a reconnect retransmits.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &F> {
        self.queue.iter().map(|(_, b)| b)
    }

    /// Number of retained frames.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Receiver half: the cumulative delivered watermark. Frames at or
/// below it are replay duplicates and must be dropped; anything above
/// advances it and is delivered.
pub(crate) struct DedupWatermark {
    delivered: u64,
}

impl DedupWatermark {
    pub(crate) fn new() -> Self {
        DedupWatermark { delivered: 0 }
    }

    /// Admits frame `seq`: `true` = deliver (watermark advances),
    /// `false` = duplicate of an already-delivered frame.
    pub(crate) fn admit(&mut self, seq: u64) -> bool {
        if seq <= self.delivered {
            return false;
        }
        self.delivered = seq;
        true
    }

    /// The highest delivered sequence (what HELLO/ACK frames carry).
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// Simulates one link direction end to end: `n` frames sent, a
    /// forced disconnect after the receiver has seen only a prefix
    /// (`delivered_prefix`), ACKs observed only up to `acked_prefix ≤
    /// delivered_prefix` (ACKs can be lost with the connection), then a
    /// reconnect replaying the unacknowledged suffix. Returns the bytes
    /// the receiver delivered, in order.
    fn run_disconnect_scenario(
        n: u64,
        delivered_prefix: u64,
        acked_prefix: u64,
        frames: &[Vec<u8>],
    ) -> (Vec<Vec<u8>>, u64, u64) {
        assert!(acked_prefix <= delivered_prefix && delivered_prefix <= n);
        let mut sender = ReplayQueue::new();
        let mut receiver = DedupWatermark::new();
        let mut delivered: Vec<Vec<u8>> = Vec::new();

        for bytes in frames {
            let seq = sender.assign_seq();
            sender.push(seq, Arc::new(bytes.clone()));
            // The wire delivers only the prefix before the cut.
            if seq <= delivered_prefix && receiver.admit(seq) {
                delivered.push(bytes.clone());
            }
        }
        // Only a prefix of the receiver's ACKs made it back.
        sender.ack(acked_prefix);

        // Reconnect: HELLO carries the receiver's delivered watermark;
        // the sender syncs its queue against it and replays the rest.
        // The replayed suffix starts right after that watermark, so the
        // i-th replayed frame decodes to seq `watermark + 1 + i`.
        let watermark = receiver.delivered();
        sender.ack(watermark);
        let replayed: Vec<Vec<u8>> = sender.unacked().map(|b| b.to_vec()).collect();
        for (i, bytes) in replayed.iter().enumerate() {
            if receiver.admit(watermark + 1 + i as u64) {
                delivered.push(bytes.clone());
            }
        }
        // Post-replay the receiver ACKs everything it has.
        sender.ack(receiver.delivered());
        (delivered, sender.acked(), receiver.delivered())
    }

    #[test]
    fn any_prefix_cut_plus_replay_is_byte_identical() {
        let mut rng = StdRng::seed_from_u64(0x9e3779b9);
        for _case in 0..200 {
            let n = rng.gen_range(1..25u64);
            let frames: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    let len = rng.gen_range(0..48usize);
                    let mut b = vec![i as u8];
                    b.extend((0..len).map(|_| rng.gen::<u8>()));
                    b
                })
                .collect();
            let delivered_prefix = rng.gen_range(0..n + 1);
            let acked_prefix = rng.gen_range(0..delivered_prefix + 1);

            let (got, sender_acked, recv_watermark) =
                run_disconnect_scenario(n, delivered_prefix, acked_prefix, &frames);

            assert_eq!(
                got, frames,
                "cut at {delivered_prefix}/{n} (acked {acked_prefix}): replay must \
                 reconstruct the exact byte sequence"
            );
            assert_eq!(recv_watermark, n, "receiver watermark ends at n");
            assert_eq!(sender_acked, n, "sender prune watermark ends at n");
        }
    }

    #[test]
    fn duplicates_from_overlapping_replays_are_dropped() {
        // A double bounce: the same suffix replayed twice (the second
        // connection died before any new ACK) must deliver once.
        let mut sender = ReplayQueue::new();
        let mut receiver = DedupWatermark::new();
        let mut delivered = Vec::new();
        for i in 0..6u64 {
            let seq = sender.assign_seq();
            sender.push(seq, Arc::new(vec![i as u8]));
        }
        // Two bounces back to back: the second connection died before
        // any ACK progress was recorded, so the full suffix replays
        // twice — the dedup watermark must absorb the repeat.
        for _bounce in 0..2 {
            let replay: Vec<(u64, Vec<u8>)> = sender
                .unacked()
                .enumerate()
                .map(|(i, b)| (1 + i as u64, b.to_vec()))
                .collect();
            for (seq, bytes) in replay {
                if receiver.admit(seq) {
                    delivered.push(bytes);
                }
            }
        }
        assert_eq!(delivered, (0..6u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert_eq!(receiver.delivered(), 6);
    }

    #[test]
    fn stale_acks_never_regress_the_queue() {
        let mut sender = ReplayQueue::new();
        for i in 0..4u64 {
            let seq = sender.assign_seq();
            sender.push(seq, Arc::new(vec![i as u8]));
        }
        sender.ack(3);
        assert_eq!(sender.len(), 1);
        sender.ack(1); // stale, reordered ACK
        assert_eq!(sender.acked(), 3, "watermark is monotone");
        assert_eq!(sender.len(), 1, "no resurrection of pruned frames");
    }
}
