//! Minimal `--key value` argument parsing shared by the harness binaries.

use std::collections::HashMap;
use std::str::FromStr;
use std::time::Duration;

use mbb_datasets::ScaleCaps;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--flag`s from `std::env::args`.
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Args { values, flags }
    }

    /// String value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Presence of a bare `--flag`.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Value of `--key`, `None` when the flag is absent; a bare `--key`
    /// is an error naming the flag.
    fn value(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None if self.flag(key) => Err(format!("--{key} needs a value")),
            value => Ok(value),
        }
    }

    /// Numeric value of `--key`, or `default` when the flag is absent. A
    /// value that does not parse is an error naming the flag.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.value(key)?.map_or(Ok(default), |v| number(key, v))
    }

    /// Per-run time budget (`--budget-secs`, default given).
    pub fn budget(&self, default_secs: u64) -> Result<Duration, String> {
        self.get_u64("budget-secs", default_secs)
            .map(Duration::from_secs)
    }

    /// Stand-in scale caps (`--caps small|default|large`).
    pub fn caps(&self) -> Result<ScaleCaps, String> {
        match self.value("caps")? {
            None | Some("default") => Ok(ScaleCaps::default()),
            Some("small") => Ok(ScaleCaps::small()),
            Some("large") => Ok(ScaleCaps {
                max_edges: 200_000,
                max_vertices: 150_000,
            }),
            Some(other) => Err(format!(
                "--caps: expected small, default or large, got {other:?}"
            )),
        }
    }

    /// Base random seed (`--seed`, default 42).
    pub fn seed(&self) -> Result<u64, String> {
        self.get_u64("seed", 42)
    }

    /// Comma-separated list value.
    pub fn get_list(&self, key: &str) -> Option<Vec<String>> {
        self.get(key)
            .map(|v| v.split(',').map(str::to_string).collect())
    }

    /// Comma-separated numbers (`--sizes 64,128`), `None` when the flag is
    /// absent. An entry that does not parse is an error naming the flag.
    pub fn get_numbers<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        let list = self
            .value(key)?
            .map(|v| v.split(',').map(|v| number(key, v)).collect());
        list.transpose()
    }
}

fn number<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: bad number {value:?}"))
}

/// Reports a bad flag: prints `message` (which names the flag) and exits
/// with status 2. The binaries read each flag with
/// `args.seed().unwrap_or_else(exit_usage)`.
pub fn exit_usage<T>(message: String) -> T {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = parse("--budget-secs 30 --full --caps small");
        assert_eq!(a.get("budget-secs"), Some("30"));
        assert!(a.flag("full"));
        assert_eq!(a.get("caps"), Some("small"));
        assert!(!a.flag("missing"));
    }

    /// A malformed value is an error naming its flag, not the default.
    #[test]
    fn numeric_defaults() {
        let a = parse("--budget-secs x --seed abc");
        let err = a.get_u64("budget-secs", 7).unwrap_err();
        assert!(err.contains("--budget-secs"), "{err}");
        assert!(a.budget(60).is_err());
        assert!(a.seed().unwrap_err().contains("--seed"));
        assert_eq!(a.get_u64("absent", 9), Ok(9));
        // A flag whose value was left out is an error too.
        let bare = parse("--seed --caps small");
        assert!(bare.seed().unwrap_err().contains("--seed"));
        assert!(parse("--caps").caps().is_err());
    }

    #[test]
    fn budget_and_caps() {
        let a = parse("--budget-secs 5 --caps large");
        assert_eq!(a.budget(60), Ok(Duration::from_secs(5)));
        assert_eq!(a.caps().unwrap().max_edges, 200_000);
        let d = parse("");
        assert_eq!(d.budget(60), Ok(Duration::from_secs(60)));
        assert_eq!(d.seed(), Ok(42));
        assert_eq!(d.caps().unwrap().max_edges, ScaleCaps::default().max_edges);
        let named = parse("--caps default");
        assert_eq!(
            named.caps().unwrap().max_edges,
            ScaleCaps::default().max_edges
        );
        let err = parse("--caps tiny").caps().unwrap_err();
        assert!(err.contains("--caps"), "{err}");
    }

    #[test]
    fn lists() {
        let a = parse("--datasets github,jester --sizes 64,128");
        assert_eq!(
            a.get_list("datasets"),
            Some(vec!["github".to_string(), "jester".to_string()])
        );
        assert_eq!(a.get_numbers::<u32>("sizes"), Ok(Some(vec![64, 128])));
        assert_eq!(a.get_numbers::<u32>("absent"), Ok(None));
        let err = parse("--sizes 64,x")
            .get_numbers::<u32>("sizes")
            .unwrap_err();
        assert!(err.contains("--sizes"), "{err}");
    }
}
