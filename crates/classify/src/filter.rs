//! Packet filters: the 5-tuple rules of firewalls and QoS classifiers.

use core::fmt;
use core::ops::RangeInclusive;

use clue_trie::{Address, Prefix};

/// A 5-tuple flow key — what a classifier matches against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey<A: Address> {
    /// Source address.
    pub src: A,
    /// Destination address.
    pub dst: A,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, …).
    pub proto: u8,
}

/// What a matching filter does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Let it through.
    Permit,
    /// Drop it.
    Deny,
    /// Mark it with a QoS class.
    Mark(u8),
}

/// One classification rule: prefix pair, port ranges, protocol,
/// priority (higher wins) and action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Filter<A: Address> {
    /// Source-prefix constraint.
    pub src: Prefix<A>,
    /// Destination-prefix constraint.
    pub dst: Prefix<A>,
    /// Source-port range.
    pub src_ports: RangeInclusive<u16>,
    /// Destination-port range.
    pub dst_ports: RangeInclusive<u16>,
    /// Protocol constraint (`None` = any).
    pub proto: Option<u8>,
    /// Priority: the matching filter with the highest value classifies
    /// the packet (ties broken by rule order).
    pub priority: u32,
    /// The filter's action.
    pub action: Action,
}

impl<A: Address> Filter<A> {
    /// The catch-all filter at the lowest priority.
    pub fn default_rule(action: Action) -> Self {
        Filter {
            src: Prefix::ROOT,
            dst: Prefix::ROOT,
            src_ports: 0..=u16::MAX,
            dst_ports: 0..=u16::MAX,
            proto: None,
            priority: 0,
            action,
        }
    }

    /// `true` iff the flow key satisfies every dimension.
    pub(crate) fn matches(&self, key: &FlowKey<A>) -> bool {
        self.src.contains(key.src)
            && self.dst.contains(key.dst)
            && self.src_ports.contains(&key.src_port)
            && self.dst_ports.contains(&key.dst_port)
            && self.proto.is_none_or(|p| p == key.proto)
    }

    /// `true` iff some flow key could match both filters: every
    /// dimension's constraints overlap. (Prefixes overlap iff one is a
    /// prefix of the other.)
    pub(crate) fn intersects(&self, other: &Self) -> bool {
        let prefixes_overlap = |a: &Prefix<A>, b: &Prefix<A>| !a.is_disjoint(b);
        let ranges_overlap = |a: &RangeInclusive<u16>, b: &RangeInclusive<u16>| {
            a.start() <= b.end() && b.start() <= a.end()
        };
        let protos_overlap = match (self.proto, other.proto) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        prefixes_overlap(&self.src, &other.src)
            && prefixes_overlap(&self.dst, &other.dst)
            && ranges_overlap(&self.src_ports, &other.src_ports)
            && ranges_overlap(&self.dst_ports, &other.dst_ports)
            && protos_overlap
    }

    /// `true` iff both filters describe the same *region and priority* —
    /// the “filters that both routers have” notion of Section 7. The
    /// action is allowed to differ (one router may mark where another
    /// permits).
    pub(crate) fn same_rule(&self, other: &Self) -> bool {
        self.src == other.src
            && self.dst == other.dst
            && self.src_ports == other.src_ports
            && self.dst_ports == other.dst_ports
            && self.proto == other.proto
            && self.priority == other.priority
    }
}

impl<A: Address> fmt::Display for Filter<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[p{} {}->{} sport {}..={} dport {}..={} proto {}]",
            self.priority,
            self.src,
            self.dst,
            self.src_ports.start(),
            self.src_ports.end(),
            self.dst_ports.start(),
            self.dst_ports.end(),
            self.proto.map_or("any".to_owned(), |p| p.to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn key(src: &str, dst: &str, dport: u16) -> FlowKey<Ip4> {
        FlowKey {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 40000,
            dst_port: dport,
            proto: 6,
        }
    }

    fn web_filter() -> Filter<Ip4> {
        Filter {
            src: p("0.0.0.0/0"),
            dst: p("10.1.0.0/16"),
            src_ports: 0..=u16::MAX,
            dst_ports: 80..=80,
            proto: Some(6),
            priority: 10,
            action: Action::Permit,
        }
    }

    #[test]
    fn matching_checks_every_dimension() {
        let f = web_filter();
        assert!(f.matches(&key("1.2.3.4", "10.1.2.3", 80)));
        assert!(!f.matches(&key("1.2.3.4", "10.2.2.3", 80))); // wrong dst
        assert!(!f.matches(&key("1.2.3.4", "10.1.2.3", 443))); // wrong port
        let mut k = key("1.2.3.4", "10.1.2.3", 80);
        k.proto = 17;
        assert!(!f.matches(&k)); // wrong proto
    }

    #[test]
    fn default_rule_matches_everything() {
        let f = Filter::default_rule(Action::Deny);
        assert!(f.matches(&key("1.2.3.4", "200.9.9.9", 1234)));
        assert_eq!(f.priority, 0);
    }

    #[test]
    fn intersection_requires_overlap_in_every_dimension() {
        let web = web_filter();
        let mut ssh = web_filter();
        ssh.dst_ports = 22..=22;
        assert!(!web.intersects(&ssh), "disjoint port ranges");
        let mut sub = web_filter();
        sub.dst = p("10.1.2.0/24"); // nested prefix: overlaps
        assert!(web.intersects(&sub));
        let mut other_net = web_filter();
        other_net.dst = p("10.2.0.0/16");
        assert!(!web.intersects(&other_net), "disjoint destinations");
        let mut udp = web_filter();
        udp.proto = Some(17);
        assert!(!web.intersects(&udp), "disjoint protocols");
        let mut any_proto = web_filter();
        any_proto.proto = None;
        assert!(web.intersects(&any_proto));
    }

    #[test]
    fn same_rule_ignores_action() {
        let a = web_filter();
        let mut b = web_filter();
        b.action = Action::Mark(3);
        assert!(a.same_rule(&b));
        b.priority = 11;
        assert!(!a.same_rule(&b));
    }
}
