//! Rectangular block LP→KP→PE mapping for grid topologies.
//!
//! Paper Section 3.2.3: *"the hot-potato simulation uses an LP/KP/PE mapping
//! which divides up the network into rectangular areas of LPs and
//! rectangular areas of KPs ... This configuration minimizes the size of
//! the circumference of the KP–KP boundaries and PE–PE boundaries, which
//! consequently minimizes [inter-PE and inter-KP communication]."*
//!
//! KPs tile the N×N grid as a `kr × kc` grid of rectangles with `kr·kc =
//! n_kps` and `kr ≤ kc` as square as possible; PEs take contiguous strips of
//! KP tiles. Compare with [`LinearMapping`](pdes::mapping::LinearMapping),
//! which slices the grid into full-width row bands — the ablation benchmark
//! measures the rollback difference.

use pdes::event::{KpId, LpId, PeId};
use pdes::mapping::Mapping;

/// Block (tile) mapping over an `n × n` grid of LPs.
#[derive(Clone, Debug)]
pub struct BlockMapping {
    n: u32,
    n_kps: u32,
    n_pes: usize,
    /// KP tile grid dimensions: `kp_rows * kp_cols == n_kps`.
    kp_rows: u32,
    kp_cols: u32,
}

impl BlockMapping {
    /// Create a block mapping for an `n × n` grid over `n_kps` KPs and
    /// `n_pes` PEs. `n_kps` is factored `kp_rows × kp_cols` as square as
    /// possible (64 KPs → 8×8 tiles, matching the paper's default). The
    /// counts are checked by [`Mapping::validate`] when a run flattens the
    /// mapping — after the engine config, so a config with no PEs or KPs is
    /// a `ConfigInvalid` error rather than a panic here.
    pub fn new(n: u32, n_kps: u32, n_pes: usize) -> Self {
        let n_kps = n_kps.min(n * n);
        // Largest divisor of n_kps that is <= sqrt(n_kps).
        let mut kp_rows = 1;
        let mut d = 1;
        while d * d <= n_kps {
            if n_kps.is_multiple_of(d) {
                kp_rows = d;
            }
            d += 1;
        }
        BlockMapping {
            n,
            n_kps,
            n_pes,
            kp_rows,
            kp_cols: n_kps / kp_rows,
        }
    }

    /// The KP tile grid shape `(rows, cols)`.
    pub fn tile_grid(&self) -> (u32, u32) {
        (self.kp_rows, self.kp_cols)
    }

    /// Which tile row/col a grid coordinate falls in, spreading remainders
    /// evenly (tile `i` covers `[i·n/k, (i+1)·n/k)`).
    #[inline]
    fn tile_index(&self, coord: u32, tiles: u32) -> u32 {
        ((coord as u64 * tiles as u64) / self.n as u64) as u32
    }
}

impl Mapping for BlockMapping {
    fn n_lps(&self) -> u32 {
        self.n * self.n
    }

    fn n_kps(&self) -> u32 {
        self.n_kps
    }

    fn n_pes(&self) -> usize {
        self.n_pes
    }

    fn kp_of(&self, lp: LpId) -> KpId {
        let (row, col) = (lp / self.n, lp % self.n);
        let tr = self.tile_index(row, self.kp_rows);
        let tc = self.tile_index(col, self.kp_cols);
        tr * self.kp_cols + tc
    }

    fn pe_of(&self, kp: KpId) -> PeId {
        // Contiguous strips of KP tiles per PE (tile-row major), keeping
        // each PE's region rectangular-ish.
        (kp as u64 * self.n_pes as u64 / self.n_kps as u64) as PeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes::mapping::FlatMapping;

    #[test]
    fn sixty_four_kps_tile_as_8x8() {
        let m = BlockMapping::new(32, 64, 4);
        assert_eq!(m.tile_grid(), (8, 8));
    }

    #[test]
    fn nonsquare_kp_counts_factor_reasonably() {
        assert_eq!(BlockMapping::new(16, 32, 2).tile_grid(), (4, 8));
        assert_eq!(BlockMapping::new(16, 2, 2).tile_grid(), (1, 2));
        assert_eq!(BlockMapping::new(16, 7, 1).tile_grid(), (1, 7));
    }

    #[test]
    fn every_lp_is_covered_and_balanced() {
        let m = BlockMapping::new(16, 16, 4);
        let mut counts = vec![0u32; 16];
        for lp in 0..256 {
            counts[m.kp_of(lp) as usize] += 1;
        }
        // 16 KPs over a 16x16 grid: 4x4 tiles of 16 LPs each.
        assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
    }

    #[test]
    fn tiles_are_contiguous_rectangles() {
        let m = BlockMapping::new(8, 4, 2);
        // 4 KPs → 2x2 tiles of 4x4 each.
        assert_eq!(m.kp_of(0), 0); // (0,0)
        assert_eq!(m.kp_of(3), 0); // (0,3)
        assert_eq!(m.kp_of(4), 1); // (0,4)
        assert_eq!(m.kp_of(8 * 4), 2); // (4,0)
        assert_eq!(m.kp_of(8 * 4 + 4), 3); // (4,4)
    }

    #[test]
    fn kp_boundary_cut_is_smaller_than_linear() {
        // The whole point of the block mapping: fewer grid edges cross KP
        // boundaries than with contiguous LP-number slices.
        let n = 16u32;
        let kps = 16u32;
        let block = BlockMapping::new(n, kps, 1);
        let linear = pdes::mapping::LinearMapping::new(n * n, kps, 1);
        let cut = |kp_of: &dyn Fn(LpId) -> KpId| {
            let mut edges = 0;
            for r in 0..n {
                for c in 0..n {
                    let lp = r * n + c;
                    let east = r * n + (c + 1) % n;
                    let south = ((r + 1) % n) * n + c;
                    if kp_of(lp) != kp_of(east) {
                        edges += 1;
                    }
                    if kp_of(lp) != kp_of(south) {
                        edges += 1;
                    }
                }
            }
            edges
        };
        let block_cut = cut(&|lp| block.kp_of(lp));
        let linear_cut = cut(&|lp| linear.kp_of(lp));
        assert!(
            block_cut < linear_cut,
            "block cut {block_cut} should beat linear cut {linear_cut}"
        );
    }

    #[test]
    fn flattens_cleanly() {
        let m = BlockMapping::new(8, 8, 2);
        let flat = FlatMapping::from_mapping(&m);
        assert_eq!(flat.kp_of_lp.len(), 64);
        let total: usize = (0..2).map(|pe| flat.lps_of_pe(pe).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn kp_count_clamped_to_grid() {
        let m = BlockMapping::new(2, 64, 1);
        assert_eq!(m.n_kps(), 4);
    }
}
