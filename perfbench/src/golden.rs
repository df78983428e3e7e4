//! Golden simulated outputs, recorded once and compiled into the binary.
//!
//! A golden file is plain text, one `key<TAB>value` per line (`#` starts a
//! comment). Values are the exact text the workload renders for an output
//! (normalized values in Rust's round-trip float notation, cycle and
//! instruction counts, oracle-verdict digests), so a check is a string
//! comparison. `perfbench --record-golden --workload <name>` rewrites a
//! file from the current program.

use std::collections::BTreeMap;

/// Parsed golden values of one workload.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    values: BTreeMap<String, String>,
}

impl Golden {
    /// Parses golden text.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut values = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) =
                line.split_once('\t').ok_or_else(|| format!("golden line {}: no tab", n + 1))?;
            if values.insert(key.to_string(), value.to_string()).is_some() {
                return Err(format!("golden line {}: duplicate key {key}", n + 1));
            }
        }
        Ok(Golden { values })
    }

    /// Number of recorded values.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Checks `actual` against the recorded value of `key`.
    pub fn check(&self, key: &str, actual: &str) -> Result<(), String> {
        match self.values.get(key) {
            None => Err(format!("{key}: no golden value recorded")),
            Some(expected) if expected == actual => Ok(()),
            Some(expected) => Err(format!("{key}: got {actual}, golden {expected}")),
        }
    }

    /// Overrides one value (self-tests force a mismatch with it).
    #[cfg(test)]
    pub fn set(&mut self, key: &str, value: &str) {
        self.values.insert(key.to_string(), value.to_string());
    }
}

/// Renders golden text from `(key, value)` pairs.
pub fn render(header: &str, entries: &[(String, String)]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    for (key, value) in entries {
        out.push_str(key);
        out.push('\t');
        out.push_str(value);
        out.push('\n');
    }
    out
}

/// 64-bit FNV-1a digest, rendered as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_checks() {
        let text = render("a header", &[("k".into(), "1".into()), ("j".into(), "x y".into())]);
        let g = Golden::parse(&text).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.check("k", "1").is_ok());
        assert!(g.check("j", "x y").is_ok());
        assert!(g.check("k", "2").is_err());
        assert!(g.check("missing", "1").is_err());
        assert!(Golden::parse("k\t1\nk\t2\n").is_err());
        assert!(Golden::parse("no tab here\n").is_err());
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_ne!(digest(b"a"), digest(b"b"));
    }
}
