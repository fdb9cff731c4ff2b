//! Pins what the run cache keys and serves against [`SIM_EPOCH`].
//!
//! A cached result stays valid only while the code that produced it would
//! produce the same bytes, and the cache key folds in `SIM_EPOCH` for
//! exactly that reason. These tests pin the *pair*: the bytes must not
//! move unless the epoch moves with them. A semantics change that forgets
//! to bump `SIM_EPOCH` fails here instead of letting old cache entries be
//! served as if they came from the new code. After a deliberate change,
//! bump `SIM_EPOCH` and re-pin from the printed values.

use hmp_bench::figure_params;
use hmp_platform::Strategy;
use hmp_server::{result_json, spec_digest};
use hmp_sim::{Fnv64, SIM_EPOCH};
use hmp_workloads::{run, spec_from_json, spec_to_json, MicrobenchParams, RunSpec, Scenario};

/// FNV-1a over `result_json` of the nine golden figure rows, and the
/// epoch it was taken at.
const GOLDEN_ROWS: (u64, u32) = (0xfe51_d44a_bbde_d0ac, 1);

/// Spec digests of existing specs, and the epoch they were taken at. A
/// digest hashes the canonical spec JSON, so this pins those bytes too.
const SPEC_DIGESTS: ([u64; 3], u32) = (
    [
        0xbdbb_a57e_3c19_3702,
        0x5aa3_e70e_1000_8725,
        0x6bd0_3b7d_d601_3e02,
    ],
    1,
);

#[test]
fn golden_row_results_are_pinned_to_the_epoch() {
    let mut h = Fnv64::new();
    for scenario in [Scenario::Worst, Scenario::Typical, Scenario::Best] {
        for strategy in [
            Strategy::CacheDisabled,
            Strategy::SoftwareDrain,
            Strategy::Proposed,
        ] {
            let r = run(&RunSpec::new(scenario, strategy, figure_params(32, 1)));
            assert!(r.is_clean_completion(), "{scenario}/{strategy}: {r}");
            h.write(result_json(&r).as_bytes());
            h.write(&[0]);
        }
    }
    let now = (h.finish(), SIM_EPOCH);
    println!("GOLDEN_ROWS = ({:#018x}, {})", now.0, now.1);
    assert_eq!(
        now, GOLDEN_ROWS,
        "golden-row result bytes moved: bump SIM_EPOCH with the change that moved them"
    );
}

#[test]
fn existing_spec_digests_do_not_move() {
    let base = RunSpec::new(
        Scenario::Worst,
        Strategy::Proposed,
        MicrobenchParams::default(),
    );
    let mut largest_seed = base;
    largest_seed.params.seed = (1 << 53) - 1;
    let typical = RunSpec::new(
        Scenario::Typical,
        Strategy::SoftwareDrain,
        figure_params(16, 4),
    )
    .with_burst_penalty(96);
    let digests = [base, largest_seed, typical].map(|spec| {
        let canon = spec_to_json(&spec);
        let parsed = spec_from_json(&canon).expect("canonical JSON parses back");
        assert_eq!(spec_to_json(&parsed), canon, "canonical bytes moved");
        spec_digest(&parsed)
    });
    println!("SPEC_DIGESTS = ({digests:#018x?}, {SIM_EPOCH})");
    assert_eq!(
        (digests, SIM_EPOCH),
        SPEC_DIGESTS,
        "existing specs must keep their cache keys"
    );
}
