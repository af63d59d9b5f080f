//! `FaultPlan::parse` properties: any subset of the canonical class
//! labels, in any order, with any duplication and spacing, must parse
//! back to exactly those classes (plus the implied `clean`), and the
//! spec language must round-trip through each class's label for every
//! class in the table. The CLI's `--faults` flag and verify.sh's chaos
//! legs lean on this.

use clue_netsim::FaultPlan;
use proptest::prelude::*;

/// Every fault label, in table order (`clean` first): the `all` spec.
fn all_labels() -> Vec<&'static str> {
    let plan = FaultPlan::parse("all", 0).expect("`all` parses");
    plan.classes().iter().map(|c| c.label()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parsing a spec built from arbitrary class picks yields exactly
    /// the picked classes plus `clean`, deduplicated, and the result
    /// re-parses to the same plan (full round trip).
    #[test]
    fn parse_round_trips_over_all_class_labels(
        picks in proptest::collection::vec(0usize..16, 1..16),
        seed in 0u64..1_000,
        spaced in any::<bool>(),
    ) {
        let all = all_labels();
        let labels: Vec<&str> = picks.iter().map(|&i| all[i % all.len()]).collect();
        let sep = if spaced { " , " } else { "," };
        let spec = labels.join(sep);

        let plan = FaultPlan::parse(&spec, seed).expect("every canonical label parses");
        let got: Vec<&str> = plan.classes().iter().map(|c| c.label()).collect();
        // Exactly the picked set plus the implied `clean`, no dupes.
        prop_assert_eq!(got[0], "clean");
        for label in &labels {
            prop_assert!(got.contains(label), "missing {}", label);
        }
        for (i, label) in got.iter().enumerate() {
            prop_assert!(
                *label == "clean" || labels.contains(label),
                "unexpected class {}",
                label,
            );
            prop_assert!(!got[..i].contains(label), "duplicate class {}", label);
        }

        // Round trip: re-rendering the parsed plan's classes as a spec
        // parses back to the identical plan.
        let respec: String = plan
            .classes()
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
            .join(",");
        let replan = FaultPlan::parse(&respec, seed).expect("rendered spec parses");
        prop_assert_eq!(replan.classes(), plan.classes());
    }

    /// Label bijection: every class round-trips through its label, and
    /// labels are pairwise distinct (the canonical-table invariant the
    /// spec language is built on).
    #[test]
    fn labels_are_a_bijection(_nothing in any::<bool>()) {
        let all = all_labels();
        for (i, &label) in all.iter().enumerate() {
            let plan = FaultPlan::parse(label, 0).expect("every label parses");
            let back: Vec<&str> = plan.classes().iter().map(|c| c.label()).collect();
            prop_assert_eq!(back.last(), Some(&label));
            prop_assert!(!all[..i].contains(&label), "label {} is not unique", label);
        }
        prop_assert!(FaultPlan::parse("not-a-class", 0).is_err());
    }
}
