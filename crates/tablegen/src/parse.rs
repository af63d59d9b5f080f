//! Plain-text forwarding-table format: load real tables when available.
//!
//! One prefix per line, `A.B.C.D/len` optionally followed by whitespace
//! and a next-hop token (kept as an opaque string); `#` starts a comment.
//! This replaces the paper's `sh ip route` snapshots with a format any
//! real table can be converted to.

use core::fmt;
use core::str::FromStr;

use clue_trie::{Address, ParseAddressError, Prefix};

/// A parsed table line: the prefix and its (optional) next-hop token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLine<A: Address> {
    /// The route prefix.
    pub prefix: Prefix<A>,
    /// Opaque next-hop token, if present.
    pub next_hop: Option<String>,
}

/// Error from [`parse_table`], carrying the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTableError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// The underlying address error.
    pub(crate) source: ParseAddressError,
}

impl fmt::Display for ParseTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.source)
    }
}

impl std::error::Error for ParseTableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Parses a whole table file.
pub fn parse_table<A>(text: &str) -> Result<Vec<TableLine<A>>, ParseTableError>
where
    A: Address + FromStr<Err = ParseAddressError>,
{
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let prefix_txt = fields.next().expect("non-empty line has a first field");
        let prefix = prefix_txt
            .parse::<Prefix<A>>()
            .map_err(|source| ParseTableError { line: i + 1, source })?;
        let next_hop = fields.next().map(str::to_owned);
        out.push(TableLine { prefix, next_hop });
    }
    Ok(out)
}

/// Parses just the prefixes (next hops discarded, duplicates removed,
/// sorted) — the form the generators and engines consume.
pub fn parse_prefixes<A>(text: &str) -> Result<Vec<Prefix<A>>, ParseTableError>
where
    A: Address + FromStr<Err = ParseAddressError>,
{
    let mut v: Vec<Prefix<A>> = parse_table(text)?.into_iter().map(|l| l.prefix).collect();
    v.sort();
    v.dedup();
    Ok(v)
}

/// Serializes prefixes back to the text format.
pub fn format_prefixes<A: Address>(prefixes: &[Prefix<A>]) -> String {
    let mut s = String::new();
    for p in prefixes {
        s.push_str(&p.to_string());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    #[test]
    fn parses_prefixes_comments_and_next_hops() {
        let text = "\
# a snapshot
10.0.0.0/8 192.0.2.1
10.1.0.0/16\t192.0.2.2   # inline comment

192.168.0.0/16
";
        let lines = parse_table::<Ip4>(text).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].prefix.to_string(), "10.0.0.0/8");
        assert_eq!(lines[0].next_hop.as_deref(), Some("192.0.2.1"));
        assert_eq!(lines[2].next_hop, None);
    }

    #[test]
    fn reports_line_numbers_on_error() {
        let text = "10.0.0.0/8\nnot-a-prefix\n";
        let err = parse_table::<Ip4>(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn roundtrip_through_format() {
        let prefixes = crate::synth::synthesize_ipv4(200, 1);
        let text = format_prefixes(&prefixes);
        let back = parse_prefixes::<Ip4>(&text).unwrap();
        assert_eq!(back, prefixes);
    }

    #[test]
    fn dedups_and_sorts() {
        let text = "20.0.0.0/8\n10.0.0.0/8\n20.0.0.0/8\n";
        let v = parse_prefixes::<Ip4>(text).unwrap();
        assert_eq!(v.len(), 2);
        assert!(v[0] < v[1]);
    }
}
