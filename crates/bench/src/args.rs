//! Minimal `--key value` argument parsing shared by the harness binaries.

use std::collections::HashMap;
use std::str::FromStr;
use std::time::Duration;

use mbb_datasets::ScaleCaps;

/// Flags every harness binary accepts, each with a value.
const COMMON: [&str; 2] = ["caps", "seed"];

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` as [`parse`](Self::parse) does, exiting with
    /// status 2 and a message naming the argument when it is rejected.
    pub fn from_env(valued: &[&str], bare: &[&str]) -> Args {
        Self::parse(std::env::args().skip(1), valued, bare).unwrap_or_else(exit_usage)
    }

    /// Parses `--key value` pairs for `--caps`, `--seed` and the keys in
    /// `valued`, and bare `--flag`s for the keys in `bare`. Any other
    /// argument, a positional included, is an error naming it, and so is a
    /// valued flag given without its value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        bare: &[&str],
    ) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if bare.contains(&key) {
                flags.push(key.to_string());
            } else if COMMON.contains(&key) || valued.contains(&key) {
                let value = iter
                    .next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                values.insert(key.to_string(), value);
            } else {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(Args { values, flags })
    }

    /// String value of `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Presence of a bare `--flag`.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Numeric value of `--key`, or `default` when the flag is absent. A
    /// value that does not parse is an error naming the flag.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get(key).map_or(Ok(default), |v| number(key, v))
    }

    /// Per-run time budget (`--budget-secs`, default given).
    pub fn budget(&self, default_secs: u64) -> Result<Duration, String> {
        self.get_u64("budget-secs", default_secs)
            .map(Duration::from_secs)
    }

    /// Stand-in scale caps (`--caps small|default|large`).
    pub fn caps(&self) -> Result<ScaleCaps, String> {
        match self.get("caps") {
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
        self.get(key)
            .map(|v| v.split(',').map(|v| number(key, v)).collect())
            .transpose()
    }
}

fn number<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: bad number {value:?}"))
}

/// Reports a bad argument: prints `message` (which names it) and exits
/// with status 2. The binaries read each flag with
/// `args.seed().unwrap_or_else(exit_usage)`.
pub fn exit_usage<T>(message: String) -> T {
    eprintln!("{message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses with the flags these tests read.
    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse(
            s.split_whitespace().map(str::to_string),
            &["budget-secs", "datasets", "sizes"],
            &["full"],
        )
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
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
        let bare = try_parse("--seed --caps small").unwrap_err();
        assert!(bare.contains("--seed"), "{bare}");
        assert!(try_parse("--caps").unwrap_err().contains("--caps"));
    }

    /// An argument the binary does not take is an error naming it, not
    /// something to skip.
    #[test]
    fn unknown_flags_and_positionals_are_rejected() {
        let err = try_parse("--caps small --budget-secs 2 --sed 7").unwrap_err();
        assert!(err.contains("--sed"), "{err}");
        let err = try_parse("--caps small --budget-secs 2 stray").unwrap_err();
        assert!(err.contains("\"stray\""), "{err}");
        // A bare flag takes no value, so what follows it is a positional.
        let err = try_parse("--full 3").unwrap_err();
        assert!(err.contains("\"3\""), "{err}");
        // `--caps` and `--seed` are accepted by every binary; other flags
        // only where the binary lists them.
        let common = Args::parse(["--seed".into(), "7".into()], &[], &[]).unwrap();
        assert_eq!(common.seed(), Ok(7));
        let err = Args::parse(["--budget-secs".into(), "2".into()], &[], &[]).unwrap_err();
        assert!(err.contains("--budget-secs"), "{err}");
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
