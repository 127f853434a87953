//! Output checks. Every op's output is compared with a value fixed ahead of
//! time or computed independently of the op; an op whose output differs
//! counts as failed.

use klotski::npd::api::fnv1a;

/// What a plan-attached NPD document must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanExpect {
    /// FNV-1a of the document's bytes.
    pub fnv: u64,
    pub cost: f64,
    pub phases: usize,
}

impl PlanExpect {
    /// True when the bytes, cost and phase count all match.
    pub fn matches(&self, plan_json: &[u8], cost: f64, phases: usize) -> bool {
        fnv1a(plan_json) == self.fnv && cost == self.cost && phases == self.phases
    }
}

/// The default A* plan of the full-scale region-E NPD.
pub const FULL_E: PlanExpect = PlanExpect {
    fnv: 0x33fe_8ea1_67c3_1195,
    cost: 4.0,
    phases: 4,
};

/// Cost and phase count of every tenant's plan (each is preset A).
pub const TENANT_COST: f64 = 4.0;
pub const TENANT_PHASES: usize = 4;

/// Fingerprint of the storm scenario's controller report at one lane.
pub const STORM_FINGERPRINT: u64 = 0x8b23_47d9_904b_b13e;

/// Whether a storm run's controller report is the expected one.
pub fn storm_fingerprint_ok(fingerprint: u64) -> bool {
    fingerprint == STORM_FINGERPRINT
}

/// Ops attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one op; returns `ok` back.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// A served plan is correct when it was answered 200 and its body hashes
/// to the bytes `plan_document` produced for the same tenant.
pub fn served_body_ok(status: u16, body_fnv: u64, reference_fnv: Option<u64>) -> bool {
    status == 200 && reference_fnv == Some(body_fnv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_plan_bytes_count_as_failed() {
        let bytes = b"{\"phases\": []}".to_vec();
        let expect = PlanExpect {
            fnv: fnv1a(&bytes),
            cost: 4.0,
            phases: 4,
        };
        let mut tally = Tally::default();
        assert!(tally.record(expect.matches(&bytes, 4.0, 4)));
        let mut corrupted = bytes.clone();
        corrupted[3] ^= 1;
        assert!(!tally.record(expect.matches(&corrupted, 4.0, 4)));
        assert!(!tally.record(expect.matches(&bytes, 5.0, 4)));
        assert!(!tally.record(expect.matches(&bytes, 4.0, 3)));
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }

    #[test]
    fn corrupted_or_refused_bodies_count_as_failed() {
        let body = b"plan".to_vec();
        let reference = Some(fnv1a(&body));
        let mut tally = Tally::default();
        tally.record(served_body_ok(200, fnv1a(&body), reference));
        tally.record(served_body_ok(200, fnv1a(b"plaN"), reference));
        tally.record(served_body_ok(503, fnv1a(&body), reference));
        tally.record(served_body_ok(200, fnv1a(&body), None));
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 3);
    }

    #[test]
    fn a_wrong_fingerprint_counts_as_failed() {
        let mut tally = Tally::default();
        tally.record(storm_fingerprint_ok(0x8b23_47d9_904b_b13e));
        tally.record(storm_fingerprint_ok(0x8b23_47d9_904b_b13e ^ 1 << 17));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }
}
