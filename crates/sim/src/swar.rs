//! SWAR (SIMD-within-a-register) primitives for the dense lane kernel.
//!
//! The dense stepper keeps one bit per CE lane in a [`LaneWord`] and needs
//! per-lane counters (bus-busy cycles, crossbar denials) that move by +1
//! per masked lane per cycle. Instead of a `trailing_zeros` loop over the
//! mask, the counters live as eight packed byte lanes inside a `u64`
//! accumulator word: a masked add is one multiply-spread plus one
//! wordwide add, and the packed word is flushed into the real per-CE `u64`
//! counters at window exit (or before any byte lane could saturate).
//! Clusters wider than [`PACKED_LANES`] chunk their lanes into 8-lane
//! groups ([`lane_groups`]), one accumulator word per group — an 8-CE
//! machine still pays for exactly one word.
//!
//! Everything here is plain stable-Rust integer arithmetic — no
//! `std::simd`, no target-feature gates — so it costs the same on every
//! platform the simulator builds for.

use crate::LaneWord;

/// Lanes a single packed accumulator word carries (one byte each).
pub const PACKED_LANES: usize = 8;

/// Highest per-lane count a packed byte lane can hold; adds beyond this
/// must be flushed first or byte lanes would carry into their neighbours.
pub const PACKED_MAX: u64 = u8::MAX as u64;

/// Accumulator words needed to carry one byte lane per CE of an
/// `n_ces`-wide cluster: clusters up to [`PACKED_LANES`] CEs (the measured
/// FX/8 among them) fit one word; wider clusters chunk their lanes into
/// 8-lane groups, each with its own packed word.
#[inline]
pub const fn lane_groups(n_ces: usize) -> usize {
    n_ces.div_ceil(PACKED_LANES)
}

/// Bitmask selecting the lanes of an `n_ces`-wide cluster: the width mask
/// every lane-word computation must confine itself to. Saturates at the
/// full [`LaneWord`].
#[inline]
pub const fn lane_mask(n_ces: usize) -> LaneWord {
    if n_ces >= LaneWord::BITS as usize {
        LaneWord::MAX
    } else {
        (1 << n_ces) - 1
    }
}

/// The 8-lane slice of `mask` belonging to packed-word group `g`, shifted
/// down to bits 0..8 — always within [`spread8`]'s lane bound.
#[inline]
pub const fn group_mask(mask: LaneWord, g: usize) -> LaneWord {
    (mask >> (PACKED_LANES * g)) & 0xff
}

/// The indices of the bits set in `mask`, ascending: the lanes of a lane
/// mask, or the banks of a bank mask.
#[inline]
pub fn bits(mut mask: LaneWord) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Spread the low [`PACKED_LANES`] bits of `mask` into packed byte lanes:
/// byte `i` of the result is 1 exactly when bit `i` of `mask` is set.
///
/// The multiply broadcasts the mask byte into every byte lane, the AND
/// picks bit `i` out of byte lane `i` (the diagonal), and the final
/// shift-OR tree normalizes each surviving bit to the value 1 in its own
/// byte. No step can carry across a byte boundary: after the AND each
/// byte holds at most one set bit.
///
/// The lane bound is checked in **all** builds: an out-of-range mask would
/// not trap, it would silently corrupt every byte lane of the packed
/// counters downstream (the multiply smears high bits across the word).
/// Callers slice wide masks through [`group_mask`], which can never
/// violate the bound, so the branch predicts perfectly in the hot kernel.
#[inline]
pub fn spread8(mask: LaneWord) -> u64 {
    assert!(mask < 1 << PACKED_LANES, "mask has lanes beyond the word");
    let diag = mask.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
    let mut x = diag | (diag >> 4);
    x |= x >> 2;
    x |= x >> 1;
    x & 0x0101_0101_0101_0101
}

/// Masked add: add `k` to every byte lane of `acc` selected by `mask`, in
/// one wordwide operation. Caller must keep every byte lane at or below
/// [`PACKED_MAX`] (flush first otherwise); the debug assertion catches a
/// violated budget before it silently corrupts a neighbouring lane.
#[inline]
pub fn packed_add(acc: u64, mask: LaneWord, k: u64) -> u64 {
    debug_assert!(k <= PACKED_MAX);
    acc.wrapping_add(spread8(mask).wrapping_mul(k))
}

/// Read byte lane `lane` of a packed accumulator.
#[inline]
pub fn packed_lane(acc: u64, lane: usize) -> u64 {
    debug_assert!(lane < PACKED_LANES);
    (acc >> (8 * lane)) & 0xff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_lists_set_bits_ascending() {
        assert_eq!(bits(0).count(), 0);
        assert_eq!(bits(0b1010_0101).collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(
            bits(LaneWord::MAX).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spread8_places_each_bit_in_its_own_byte() {
        for mask in 0u64..256 {
            let s = spread8(mask);
            for lane in 0..PACKED_LANES {
                assert_eq!(
                    packed_lane(s, lane),
                    (mask >> lane) & 1,
                    "mask {mask:#x} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn packed_add_accumulates_per_lane() {
        let mut acc = 0u64;
        acc = packed_add(acc, 0b1010_0001, 3);
        acc = packed_add(acc, 0b0000_0011, 7);
        assert_eq!(packed_lane(acc, 0), 10);
        assert_eq!(packed_lane(acc, 1), 7);
        assert_eq!(packed_lane(acc, 5), 3);
        assert_eq!(packed_lane(acc, 7), 3);
        assert_eq!(packed_lane(acc, 4), 0);
    }

    #[test]
    fn lane_mask_and_groups_cover_every_width() {
        assert_eq!(lane_mask(1), 0b1);
        assert_eq!(lane_mask(8), 0xff);
        assert_eq!(lane_mask(9), 0x1ff);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_groups(1), 1);
        assert_eq!(lane_groups(8), 1);
        assert_eq!(lane_groups(9), 2);
        assert_eq!(lane_groups(64), 8);
    }

    #[test]
    fn group_mask_slices_wide_masks_within_spread8_bound() {
        let mask: u64 = (1 << 3) | (1 << 8) | (1 << 17) | (1 << 63);
        assert_eq!(group_mask(mask, 0), 0b1000);
        assert_eq!(group_mask(mask, 1), 0b01); // bit 8 -> lane 0
        assert_eq!(group_mask(mask, 2), 0b10); // bit 17 -> lane 1
        assert_eq!(group_mask(mask, 7), 0x80); // bit 63 -> lane 7
        for g in 0..8 {
            assert!(group_mask(mask, g) < 1 << PACKED_LANES);
            // Every slice is a legal spread8 input by construction.
            let _ = spread8(group_mask(mask, g));
        }
    }

    #[test]
    #[should_panic(expected = "lanes beyond the word")]
    fn spread8_rejects_wide_masks_in_all_builds() {
        // Release builds used to silently corrupt packed counters here.
        let _ = spread8(1 << PACKED_LANES);
    }

    #[test]
    fn packed_add_saturating_budget_stays_in_lane() {
        // 255 single adds on alternating lanes: the neighbouring (empty)
        // lanes must stay exactly zero.
        let mut acc = 0u64;
        for _ in 0..PACKED_MAX {
            acc = packed_add(acc, 0b0101_0101, 1);
        }
        for lane in 0..PACKED_LANES {
            let want = if lane % 2 == 0 { PACKED_MAX } else { 0 };
            assert_eq!(packed_lane(acc, lane), want, "lane {lane}");
        }
    }

    mod packed_vs_scalar {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any sequence of masked adds whose per-lane running totals
            /// stay within the byte budget must match a scalar per-lane
            /// accumulation exactly — in particular, no add may leak into
            /// a lane its mask did not select (carry across a byte
            /// boundary).
            #[test]
            fn masked_adds_never_cross_lane_boundaries(
                adds in prop::collection::vec((0u64..256, 1u64..=8), 0..120),
            ) {
                let mut acc = 0u64;
                let mut scalar = [0u64; PACKED_LANES];
                for &(mask, k) in &adds {
                    // Respect the budget the kernel enforces: flush (here,
                    // reset) before any selected lane could exceed a byte.
                    if (0..PACKED_LANES)
                        .any(|l| mask >> l & 1 == 1 && scalar[l] + k > PACKED_MAX)
                    {
                        acc = 0;
                        scalar = [0; PACKED_LANES];
                    }
                    acc = packed_add(acc, mask, k);
                    for (l, s) in scalar.iter_mut().enumerate() {
                        if mask >> l & 1 == 1 {
                            *s += k;
                        }
                    }
                    for (l, &s) in scalar.iter().enumerate() {
                        prop_assert_eq!(
                            packed_lane(acc, l),
                            s,
                            "lane {} after add (mask {:#x}, k {})",
                            l,
                            mask,
                            k
                        );
                    }
                }
            }
        }
    }
}
