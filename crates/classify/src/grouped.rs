//! A middle-tier clue-less classifier baseline: rules bucketed by their
//! destination prefix in a trie.
//!
//! The linear scan in [`crate::RuleSet`] examines every rule; real
//! classifiers first narrow by one dimension. [`GroupedClassifier`]
//! walks the destination-prefix trie along the flow's destination
//! (counted per vertex) and then scans only the rules in the buckets it
//! passed (counted per rule). This is the fair clue-less comparison
//! point for the Section 7 clue classifier: the clue must beat *this*,
//! not just the naive scan.

use clue_trie::{Address, BinaryTrie, Cost};

use crate::classifier::RuleSet;
use crate::filter::{Filter, FlowKey};

/// Rules grouped by destination prefix in a trie.
#[derive(Debug)]
pub struct GroupedClassifier<A: Address> {
    rules: RuleSet<A>,
    /// Marked at each distinct rule destination prefix; payload = the
    /// indices (into `rules`) of the rules with exactly that dst.
    buckets: BinaryTrie<A, Vec<usize>>,
}

impl<A: Address> GroupedClassifier<A> {
    /// Builds the grouped index from a rule set.
    pub fn new(rules: RuleSet<A>) -> Self {
        let mut buckets: BinaryTrie<A, Vec<usize>> = BinaryTrie::new();
        for (i, rule) in rules.rules().iter().enumerate() {
            match buckets.get(&rule.dst) {
                Some(rid) => buckets.value_mut(rid).push(i),
                None => {
                    buckets.insert(rule.dst, vec![i]);
                }
            }
        }
        GroupedClassifier { rules, buckets }
    }

    /// Classifies: walk the dst trie (one access per vertex), then scan
    /// the rules of every bucket on the path (one access per rule),
    /// picking the highest-priority match.
    pub fn classify(&self, key: &FlowKey<A>, cost: &mut Cost) -> Option<&Filter<A>> {
        let mut best: Option<usize> = None;
        for rid in self.buckets.matching_routes(key.dst, cost) {
            for &i in self.buckets.value(rid) {
                cost.indexed_read();
                let rule = &self.rules.rules()[i];
                if rule.matches(key) {
                    let better = match best {
                        None => true,
                        // RuleSet is priority-sorted, so a smaller index
                        // is a higher (or equal, earlier) priority.
                        Some(b) => i < b,
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
        }
        best.map(|i| &self.rules.rules()[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Action;
    use clue_trie::{Ip4, Prefix};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn filter(dst: &str, dports: core::ops::RangeInclusive<u16>, prio: u32) -> Filter<Ip4> {
        Filter {
            src: "0.0.0.0/0".parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_ports: 0..=u16::MAX,
            dst_ports: dports,
            proto: None,
            priority: prio,
            action: Action::Permit,
        }
    }

    fn key(dst: &str, dport: u16) -> FlowKey<Ip4> {
        FlowKey {
            src: "1.2.3.4".parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 50000,
            dst_port: dport,
            proto: 6,
        }
    }

    #[test]
    fn grouped_agrees_with_linear_scan() {
        let rules = vec![
            filter("10.1.0.0/16", 80..=80, 30),
            filter("10.1.0.0/16", 0..=u16::MAX, 20),
            filter("10.0.0.0/8", 0..=u16::MAX, 10),
            filter("20.0.0.0/8", 22..=22, 25),
            Filter::default_rule(Action::Deny),
        ];
        let linear = RuleSet::new(rules.clone());
        let grouped = GroupedClassifier::new(RuleSet::new(rules));
        for k in [
            key("10.1.2.3", 80),
            key("10.1.2.3", 443),
            key("10.9.9.9", 80),
            key("20.1.1.1", 22),
            key("20.1.1.1", 23),
            key("99.9.9.9", 1),
        ] {
            let a = linear.classify_uncounted(&k);
            let b = grouped.classify(&k, &mut Cost::new());
            assert_eq!(a, b, "key {k:?}");
        }
        assert_eq!(grouped.buckets.len(), 4);
    }

    #[test]
    fn grouped_is_cheaper_than_linear_on_wide_rulesets() {
        // Many disjoint destination buckets: the trie walk touches few.
        let mut rules: Vec<Filter<Ip4>> = (0..200u32)
            .map(|i| filter(&format!("{}.{}.0.0/16", 1 + i / 250, i % 250), 0..=u16::MAX, i + 1))
            .collect();
        rules.push(Filter::default_rule(Action::Deny));
        let linear = RuleSet::new(rules.clone());
        let grouped = GroupedClassifier::new(RuleSet::new(rules));
        let k = key("1.100.5.5", 80);
        let (mut cl, mut cg) = (Cost::new(), Cost::new());
        assert_eq!(linear.classify(&k, &mut cl), grouped.classify(&k, &mut cg));
        assert!(
            cg.total() < cl.total(),
            "grouped {} !< linear {}",
            cg.total(),
            cl.total()
        );
    }

    #[test]
    fn randomized_equivalence() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut rules: Vec<Filter<Ip4>> = (0..80)
            .map(|i| {
                let len = *[8u8, 16, 24].get(rng.random_range(0..3usize)).unwrap();
                let dst = Prefix::new(Ip4(rng.random_range(1u32..8) << 24 | rng.random::<u32>() & 0xFFFF00), len);
                let lo = rng.random_range(0u16..500);
                Filter {
                    dst,
                    dst_ports: lo..=lo + rng.random_range(0..500u16),
                    priority: i + 1,
                    ..Filter::default_rule(Action::Permit)
                }
            })
            .collect();
        rules.push(Filter::default_rule(Action::Deny));
        let linear = RuleSet::new(rules.clone());
        let grouped = GroupedClassifier::new(RuleSet::new(rules));
        for _ in 0..400 {
            let k = key(
                &format!(
                    "{}.{}.{}.1",
                    rng.random_range(1..8),
                    rng.random_range(0..255),
                    rng.random_range(0..255)
                ),
                rng.random_range(0..1000),
            );
            assert_eq!(
                linear.classify_uncounted(&k),
                grouped.classify(&k, &mut Cost::new()),
                "key {k:?}"
            );
        }
    }
}
