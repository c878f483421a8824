//! The payload checksum's detection guarantees, and the one place it is
//! enforced (`RankCtx`), exercised from the tier-1 command.
//!
//! `Payload::checksum` promises more than "a good hash": changing any
//! one word of a payload — so any single bit — *must* change it, and so
//! must changing only the variant or only a length. Those hold by
//! construction (every step of the hash is a bijection of the running
//! state), which makes them testable exhaustively on small payloads:
//! every length across all lane remainders, every bit.

use gnn_comm::msg::Payload;
use gnn_comm::{CostModel, FaultPlan, ThreadWorld};

/// Lengths 0..=33 cover every remainder of any lane count up to 32,
/// plus one full extra block.
const MAX_WORDS: usize = 33;

fn f64s(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 + 0.25) * -1.5).collect()
}

fn u32s(n: usize) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) ^ 0x5a5a)
        .collect()
}

/// Flips every bit `flip_bit` can reach and demands a different
/// checksum each time. Returns how many flips it checked.
fn assert_every_flip_detected(base: &Payload, bits: u64) -> u64 {
    let good = base.checksum();
    for which in 0..bits {
        let mut bad = base.clone();
        assert!(bad.flip_bit(which), "{base:?} has no bit {which}");
        assert_ne!(bad, *base);
        assert_ne!(
            bad.checksum(),
            good,
            "flip {which} of {base:?} went undetected"
        );
    }
    bits
}

#[test]
fn every_single_bit_flip_changes_the_checksum_at_every_length() {
    let mut checked = 0;
    for n in 0..=MAX_WORDS {
        checked += assert_every_flip_detected(&Payload::F64(f64s(n)), 64 * n as u64);
        checked += assert_every_flip_detected(&Payload::U32(u32s(n)), 32 * n as u64);
        // `flip_bit` damages a Rows payload's data when it has any, else
        // its indices.
        let rows = |ni, nd| Payload::Rows {
            idx: u32s(ni),
            data: f64s(nd),
        };
        checked += assert_every_flip_detected(&rows(n, 0), 32 * n as u64);
        for ni in [0, 1, n] {
            checked += assert_every_flip_detected(&rows(ni, n), 64 * n as u64);
        }
        // Index bits next to live data, which `flip_bit` never picks.
        let base = rows(n, n);
        for slot in 0..n {
            for bit in 0..32 {
                let (mut idx, data) = base.clone().into_rows();
                idx[slot] ^= 1 << bit;
                assert_ne!(
                    Payload::Rows { idx, data }.checksum(),
                    base.checksum(),
                    "idx[{slot}] bit {bit} of a {n}+{n} Rows went undetected"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100_000, "the sweep shrank: {checked} flips");
}

#[test]
fn lengths_and_the_idx_data_boundary_are_part_of_the_checksum() {
    for n in 0..=MAX_WORDS {
        // Appending a zero element (+0.0 is the all-zero word).
        let mut longer = f64s(n);
        longer.push(0.0);
        assert_ne!(
            Payload::F64(longer).checksum(),
            Payload::F64(f64s(n)).checksum()
        );
        let mut longer = u32s(n);
        longer.push(0);
        assert_ne!(
            Payload::U32(longer).checksum(),
            Payload::U32(u32s(n)).checksum()
        );
        let rows = Payload::Rows {
            idx: u32s(n),
            data: f64s(n),
        };
        let (mut idx, mut data) = rows.clone().into_rows();
        idx.push(0);
        assert_ne!(
            Payload::Rows {
                idx,
                data: data.clone()
            }
            .checksum(),
            rows.checksum()
        );
        data.push(0.0);
        assert_ne!(
            Payload::Rows { idx: u32s(n), data }.checksum(),
            rows.checksum()
        );

        // The last index moves across the boundary to become the first
        // data word: the same words in the same order, split elsewhere.
        if n > 0 {
            let (mut idx, mut data) = rows.clone().into_rows();
            let moved = idx.pop().unwrap();
            data.insert(0, f64::from_bits(u64::from(moved)));
            assert_ne!(Payload::Rows { idx, data }.checksum(), rows.checksum());
        }
    }
}

#[test]
fn word_order_is_part_of_the_checksum_within_and_across_lanes() {
    // Every pair of positions: whatever the lane count, this covers two
    // words of the same lane and two words of different lanes.
    let base = f64s(MAX_WORDS);
    let good = Payload::F64(base.clone()).checksum();
    for i in 0..MAX_WORDS {
        for j in i + 1..MAX_WORDS {
            let mut swapped = base.clone();
            swapped.swap(i, j);
            assert_ne!(
                Payload::F64(swapped).checksum(),
                good,
                "swapping words {i} and {j} went undetected"
            );
        }
    }
}

#[test]
fn the_variant_alone_changes_the_checksum() {
    for n in 0..=MAX_WORDS {
        // The same words under each variant that can carry them.
        let words = u32s(n);
        let as_f64: Vec<f64> = words
            .iter()
            .map(|&w| f64::from_bits(u64::from(w)))
            .collect();
        let mut sums = vec![
            Payload::U32(words.clone()).checksum(),
            Payload::F64(as_f64.clone()).checksum(),
            Payload::Rows {
                idx: words,
                data: vec![],
            }
            .checksum(),
            Payload::Rows {
                idx: vec![],
                data: as_f64,
            }
            .checksum(),
        ];
        if n == 0 {
            sums.push(Payload::Empty.checksum());
            // The two empty Rows spellings are one payload.
            assert_eq!(sums[2], sums[3]);
            sums.remove(3);
        }
        let mut distinct = sums.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), sums.len(), "variants collide at n={n}");
    }
}

/// Every rank trades `Rows` blocks with every other rank, then all
/// reduce a vector: the exchange shapes the trainer uses.
fn exchange(ctx: &mut gnn_comm::RankCtx) -> Vec<u64> {
    let (p, me) = (ctx.p(), ctx.rank());
    let mut seen = Vec::new();
    for round in 0..6usize {
        let sends = (0..p)
            .map(|dst| {
                if dst == me {
                    return Payload::Empty;
                }
                let n = 3 + (me + 2 * dst + round) % 7;
                Payload::Rows {
                    idx: (0..n as u32).map(|i| i * 3 + me as u32).collect(),
                    data: (0..n * 5)
                        .map(|i| (i + me * 100 + round) as f64 * 0.375)
                        .collect(),
                }
            })
            .collect();
        for payload in ctx.alltoallv(sends) {
            if let Payload::Rows { idx, data } = payload {
                seen.extend(idx.iter().map(|&i| u64::from(i)));
                seen.extend(data.iter().map(|x| x.to_bits()));
            }
        }
        let mut buf: Vec<f64> = (0..17).map(|i| (i * (me + 1) + round) as f64).collect();
        ctx.allreduce_sum(&mut buf, &(0..p).collect::<Vec<_>>());
        seen.extend(buf.iter().map(|x| x.to_bits()));
    }
    seen
}

#[test]
fn every_injected_corruption_is_detected_and_results_stay_bit_identical() {
    const P: usize = 4;
    let (clean, clean_stats) = ThreadWorld::new(P, CostModel::bandwidth_only()).run(exchange);

    let mut plan = FaultPlan::new(29);
    for rank in 0..P {
        plan = plan.corrupt_messages(rank, None, 0.3);
    }
    let (faulty, stats) = ThreadWorld::new(P, CostModel::bandwidth_only())
        .with_faults(plan)
        .try_run(exchange)
        .expect("corruption is absorbed by retransmission");

    assert_eq!(faulty, clean, "results must be bit-identical");
    let injected: u64 = stats.per_rank.iter().map(|r| r.faults.corruptions).sum();
    let detected: u64 = stats
        .per_rank
        .iter()
        .map(|r| r.faults.corruptions_detected)
        .sum();
    assert!(
        injected > 20,
        "the plan must actually fire: {injected} corruptions"
    );
    assert_eq!(
        detected, injected,
        "a damaged frame slipped past the checksum"
    );
    for (f, c) in stats.per_rank.iter().zip(&clean_stats.per_rank) {
        assert_eq!(f.bytes_sent_total(), c.bytes_sent_total());
    }
}
