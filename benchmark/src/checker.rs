//! The adverse LP→KP→PE mapping: a checkerboard.
//!
//! `(row + col) mod 2` picks the PE, so on an even-sided torus every link
//! crosses the PE boundary and every hop travels through the comm rings —
//! the opposite of `topo::BlockMapping`, which keeps ~97 % of hops local.

use pdes::{KpId, LpId, Mapping, PeId};

/// Checkerboard mapping of an `n × n` grid (LP = row·n + col) onto two PEs.
#[derive(Clone, Debug)]
pub struct CheckerMapping {
    n: u32,
    n_kps: u32,
}

impl CheckerMapping {
    /// Map an `n × n` grid over `n_kps` KPs (even, ≥ 2) and two PEs. KPs of
    /// even index hold the even-coloured routers of one band of rows, KPs
    /// of odd index the odd-coloured ones.
    pub fn new(n: u32, n_kps: u32) -> Self {
        assert!(n >= 2, "checkerboard needs at least a 2x2 grid");
        assert!(
            n_kps >= 2 && n_kps.is_multiple_of(2),
            "checkerboard needs an even KP count, got {n_kps}"
        );
        let m = CheckerMapping { n, n_kps };
        m.validate();
        m
    }
}

impl Mapping for CheckerMapping {
    fn n_lps(&self) -> u32 {
        self.n * self.n
    }

    fn n_kps(&self) -> u32 {
        self.n_kps
    }

    fn n_pes(&self) -> usize {
        2
    }

    fn kp_of(&self, lp: LpId) -> KpId {
        let (row, col) = (lp / self.n, lp % self.n);
        let band = (row as u64 * (self.n_kps / 2) as u64 / self.n as u64) as u32;
        2 * band + (row + col) % 2
    }

    fn pe_of(&self, kp: KpId) -> PeId {
        (kp % 2) as PeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Topology, Torus, ALL_DIRECTIONS};

    #[test]
    fn validates_and_balances() {
        let m = CheckerMapping::new(32, 64);
        m.validate();
        let on_pe0 = (0..m.n_lps())
            .filter(|&lp| m.pe_of(m.kp_of(lp)) == 0)
            .count();
        assert_eq!(on_pe0, 512);
        let mut per_kp = vec![0u32; 64];
        for lp in 0..m.n_lps() {
            per_kp[m.kp_of(lp) as usize] += 1;
        }
        assert!(per_kp.iter().all(|&c| c == 16), "{per_kp:?}");
    }

    #[test]
    fn every_torus_neighbour_is_on_the_other_pe_for_even_n() {
        for n in [4, 6, 32] {
            let torus = Torus::new(n);
            let m = CheckerMapping::new(n, 8);
            for lp in 0..m.n_lps() {
                let here = m.pe_of(m.kp_of(lp));
                for dir in ALL_DIRECTIONS {
                    let there = torus.neighbor(lp, dir).expect("torus links all exist");
                    assert_ne!(here, m.pe_of(m.kp_of(there)), "n={n} lp={lp} {dir}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even KP count")]
    fn odd_kp_count_rejected() {
        CheckerMapping::new(8, 7);
    }
}
