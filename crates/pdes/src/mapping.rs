//! LP → KP → PE mapping.
//!
//! ROSS groups LPs into *kernel processes* (KPs) — the rollback granule — and
//! KPs onto *processing elements* (PEs, worker threads). The mapping strongly
//! affects rollback behaviour (paper Section 3.2.3 and Figures 7–8): more KPs
//! mean fewer falsely-rolled-back LPs; an adjacency-preserving mapping means
//! fewer inter-PE messages and therefore fewer stragglers.
//!
//! The engine consumes any [`Mapping`] implementation once at startup and
//! flattens it into lookup tables, so implementations can favour clarity over
//! speed. [`LinearMapping`] (contiguous runs) lives here; the
//! topology-aware rectangular block mapping lives in the `topo` crate.

use crate::event::{KpId, LpId, PeId};

/// Assignment of LPs to KPs and KPs to PEs.
pub trait Mapping: Send + Sync {
    /// Total number of LPs.
    fn n_lps(&self) -> u32;
    /// Total number of KPs (≥ number of PEs).
    fn n_kps(&self) -> u32;
    /// Total number of PEs.
    fn n_pes(&self) -> usize;
    /// KP owning LP `lp`.
    fn kp_of(&self, lp: LpId) -> KpId;
    /// PE owning KP `kp`.
    fn pe_of(&self, kp: KpId) -> PeId;

    /// Validate invariants; called by the engine at startup.
    fn validate(&self) {
        assert!(self.n_lps() > 0, "mapping: no LPs");
        assert!(self.n_kps() > 0, "mapping: no KPs");
        assert!(self.n_pes() > 0, "mapping: no PEs");
        assert!(
            self.n_kps() >= self.n_pes() as u32,
            "mapping: need at least one KP per PE ({} KPs < {} PEs)",
            self.n_kps(),
            self.n_pes()
        );
        for lp in 0..self.n_lps() {
            let kp = self.kp_of(lp);
            assert!(
                kp < self.n_kps(),
                "mapping: lp {lp} -> kp {kp} out of range"
            );
        }
        for kp in 0..self.n_kps() {
            let pe = self.pe_of(kp);
            assert!(
                pe < self.n_pes(),
                "mapping: kp {kp} -> pe {pe} out of range"
            );
        }
    }
}

/// A borrowed mapping maps the same way, so a caller can hand
/// [`Run::mapping`](crate::Run::mapping) one it keeps using.
impl<T: Mapping + ?Sized> Mapping for &T {
    fn n_lps(&self) -> u32 {
        (**self).n_lps()
    }
    fn n_kps(&self) -> u32 {
        (**self).n_kps()
    }
    fn n_pes(&self) -> usize {
        (**self).n_pes()
    }
    fn kp_of(&self, lp: LpId) -> KpId {
        (**self).kp_of(lp)
    }
    fn pe_of(&self, kp: KpId) -> PeId {
        (**self).pe_of(kp)
    }
}

/// Contiguous block mapping: LPs `[i·L/K, (i+1)·L/K)` belong to KP `i`, and
/// KPs are dealt to PEs in contiguous runs. This is ROSS's default and a
/// reasonable fit for the torus model, where consecutive LP numbers are
/// row-adjacent routers.
#[derive(Clone, Debug)]
pub struct LinearMapping {
    n_lps: u32,
    n_kps: u32,
    n_pes: usize,
}

impl LinearMapping {
    /// Create a mapping of `n_lps` LPs over `n_kps` KPs over `n_pes` PEs.
    pub fn new(n_lps: u32, n_kps: u32, n_pes: usize) -> Self {
        let m = LinearMapping {
            n_lps,
            n_kps: n_kps.min(n_lps),
            n_pes,
        };
        m.validate();
        m
    }
}

impl Mapping for LinearMapping {
    fn n_lps(&self) -> u32 {
        self.n_lps
    }

    fn n_kps(&self) -> u32 {
        self.n_kps
    }

    fn n_pes(&self) -> usize {
        self.n_pes
    }

    fn kp_of(&self, lp: LpId) -> KpId {
        // Even split with the remainder spread over the first KPs.
        (lp as u64 * self.n_kps as u64 / self.n_lps as u64) as KpId
    }

    fn pe_of(&self, kp: KpId) -> PeId {
        (kp as u64 * self.n_pes as u64 / self.n_kps as u64) as PeId
    }
}

/// Flattened lookup tables the kernels actually use.
#[derive(Clone, Debug)]
pub struct FlatMapping {
    /// `lp -> kp`
    pub kp_of_lp: Vec<KpId>,
    /// `lp -> pe`
    pub pe_of_lp: Vec<PeId>,
    /// `kp -> pe`
    pub pe_of_kp: Vec<PeId>,
    /// Number of PEs.
    pub n_pes: usize,
    /// Number of KPs.
    pub n_kps: u32,
}

impl FlatMapping {
    /// Flatten any [`Mapping`] into lookup tables (validating it first).
    pub fn from_mapping(m: &dyn Mapping) -> Self {
        m.validate();
        let n_lps = m.n_lps();
        let n_kps = m.n_kps();
        let pe_of_kp: Vec<PeId> = (0..n_kps).map(|kp| m.pe_of(kp)).collect();
        let kp_of_lp: Vec<KpId> = (0..n_lps).map(|lp| m.kp_of(lp)).collect();
        let pe_of_lp: Vec<PeId> = kp_of_lp.iter().map(|&kp| pe_of_kp[kp as usize]).collect();
        FlatMapping {
            kp_of_lp,
            pe_of_lp,
            pe_of_kp,
            n_pes: m.n_pes(),
            n_kps,
        }
    }

    /// LPs owned by PE `pe`, in LP order.
    pub fn lps_of_pe(&self, pe: PeId) -> Vec<LpId> {
        (0..self.kp_of_lp.len() as u32)
            .filter(|&lp| self.pe_of_lp[lp as usize] == pe)
            .collect()
    }

    /// KPs owned by PE `pe`, in KP order.
    pub fn kps_of_pe(&self, pe: PeId) -> Vec<KpId> {
        (0..self.n_kps)
            .filter(|&kp| self.pe_of_kp[kp as usize] == pe)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping_is_contiguous_and_balanced() {
        let m = LinearMapping::new(100, 10, 4);
        // KP ids are non-decreasing over LP ids.
        let mut prev = 0;
        for lp in 0..100 {
            let kp = m.kp_of(lp);
            assert!(kp >= prev);
            prev = kp;
        }
        // Every KP gets ~10 LPs.
        let mut counts = [0u32; 10];
        for lp in 0..100 {
            counts[m.kp_of(lp) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn uneven_split_covers_everything() {
        let m = LinearMapping::new(13, 4, 3);
        let mut counts = [0u32; 4];
        for lp in 0..13 {
            counts[m.kp_of(lp) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u32>(), 13);
        assert!(counts.iter().all(|&c| c >= 3));
    }

    #[test]
    fn more_kps_than_lps_is_clamped() {
        let m = LinearMapping::new(2, 64, 1);
        assert_eq!(m.n_kps(), 2);
    }

    #[test]
    fn flatten_round_trips() {
        let m = LinearMapping::new(64, 8, 2);
        let flat = FlatMapping::from_mapping(&m);
        for lp in 0..64u32 {
            assert_eq!(flat.kp_of_lp[lp as usize], m.kp_of(lp));
            assert_eq!(flat.pe_of_lp[lp as usize], m.pe_of(m.kp_of(lp)));
        }
        let all: usize = (0..2).map(|pe| flat.lps_of_pe(pe).len()).sum();
        assert_eq!(all, 64);
        // Each PE owns whole KPs.
        for pe in 0..2 {
            for kp in flat.kps_of_pe(pe) {
                assert_eq!(flat.pe_of_kp[kp as usize], pe);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one KP per PE")]
    fn too_few_kps_panics() {
        LinearMapping::new(4, 2, 3);
    }
}
