//! Input generators. The program only ever sees what these make: NPD
//! documents, planning options and the order of HTTP requests. The same
//! seed gives the same inputs.

use klotski::core::EnsembleSpec;
use klotski::npd::{region_to_npd, PlanRequestOptions};
use klotski::topology::presets::{self, PresetId};

/// Deterministic splitmix64 stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// An endless zipf(s) stream of ranks in `0..n`, by CDF inversion.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    state: u64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf, state: seed }
    }

    pub fn next_rank(&mut self) -> usize {
        let u = unit(&mut self.state);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Seed of client `client`'s request stream in a run seeded `seed`.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    let mut state = seed ^ 0x5eed_c11e_0000_0000 ^ client as u64;
    splitmix64(&mut state)
}

/// Tenant documents for the daemon: the preset-A NPD under a distinct name
/// per tenant, so every tenant has its own content digest and the same
/// planning difficulty. Index = popularity rank. The set is the same for
/// every seed, so which tenants share a cache shard does not change with
/// it; the seed drives the request order.
pub fn tenant_docs(count: usize) -> Vec<String> {
    let base = region_to_npd(&presets::config(PresetId::A));
    (0..count)
        .map(|i| {
            let mut npd = base.clone();
            npd.name = format!("tenant-{i:03}");
            npd.to_json_pretty().expect("a preset NPD serializes")
        })
        .collect()
}

/// One member of the K=8 ensemble suite plan-full-e's traced run plans on
/// preset C, and the plan it must yield.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleCase {
    pub ensemble_seed: u64,
    pub expect: crate::check::PlanExpect,
}

/// Size of the traffic ensembles of the suite.
pub const ENSEMBLE_K: usize = 8;

/// The pinned ensemble seeds of the suite and their expected plans: one
/// seed for each of the three plans K=8 ensembles on preset C yield.
pub const ENSEMBLE_SUITE: [EnsembleCase; 3] = {
    use crate::check::PlanExpect;
    const fn case(ensemble_seed: u64, fnv: u64, cost: f64, phases: usize) -> EnsembleCase {
        EnsembleCase {
            ensemble_seed,
            expect: PlanExpect { fnv, cost, phases },
        }
    }
    [
        case(1, 0x204c_1706_9dd8_6fd6, 5.0, 5),
        case(2, 0x92b1_d5dd_939a_d061, 4.0, 4),
        case(6, 0x7be3_0ec0_dc19_3412, 4.0, 4),
    ]
};

/// Planning options of one suite member: defaults plus its ensemble.
pub fn ensemble_options(case: &EnsembleCase) -> PlanRequestOptions {
    PlanRequestOptions {
        ensemble: Some(EnsembleSpec::with_k(ENSEMBLE_K, case.ensemble_seed)),
        ..PlanRequestOptions::default()
    }
}

/// A preset's NPD document as request bytes.
pub fn preset_npd_json(id: PresetId) -> String {
    region_to_npd(&presets::config(id))
        .to_json_pretty()
        .expect("a preset NPD serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use klotski::npd::{npd_digest, Npd};

    #[test]
    fn zipf_streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut z = Zipf::new(48, 1.1, seed);
            (0..500).map(|_| z.next_rank()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(3);
        assert!(ranks.iter().all(|&r| r < 48));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 47).count();
        assert!(top > 5 * tail.max(1), "rank 0 dominates: {top} vs {tail}");
        assert_ne!(client_seed(1, 0), client_seed(1, 1));
        assert_eq!(client_seed(1, 1), client_seed(1, 1));
    }

    #[test]
    fn tenant_docs_are_deterministic_with_distinct_digests() {
        let a = tenant_docs(6);
        assert_eq!(a, tenant_docs(6));
        let mut digests: Vec<u64> = a
            .iter()
            .map(|doc| npd_digest(&Npd::from_json(doc).unwrap()))
            .collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 6);
    }

    #[test]
    fn ensemble_options_carry_the_suite_seed() {
        for case in &ENSEMBLE_SUITE {
            let spec = ensemble_options(case).ensemble.unwrap();
            assert_eq!(spec.k, ENSEMBLE_K);
            assert_eq!(spec.seed, case.ensemble_seed);
        }
    }
}
