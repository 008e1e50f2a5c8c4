//! The argv cursor every `mbb` command parses with.
//!
//! A command walks its arguments with [`Args`], which yields each one as
//! a flag (anything starting with `-`) or a positional, and matches on
//! its own flags; a flag that takes a value reads it with
//! [`Args::value`], [`Args::number`] or [`Args::threads`]. The errors
//! every command shares are the variants of [`ArgError`]. Only the
//! `--flag value` form is accepted, never `--flag=value`.

use std::fmt;
use std::str::FromStr;

use mbb_serve::request::MAX_REQUEST_THREADS;

/// One command-line argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg<'a> {
    /// An argument that starts with `-`.
    Flag(&'a str),
    /// Any other argument.
    Positional(&'a str),
}

impl Arg<'_> {
    /// The error for an argument the command does not take.
    pub fn unknown(self) -> ArgError {
        match self {
            Arg::Flag(text) | Arg::Positional(text) => ArgError::Unknown(text.to_string()),
        }
    }
}

/// Why the arguments did not parse. `Display` gives the text printed
/// after `error: `.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// The flag takes a value, but came last.
    NeedsValue(String),
    /// The flag's value is not a number of the flag's type.
    BadNumber {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
    },
    /// A thread or worker count above [`MAX_REQUEST_THREADS`], the limit
    /// the serve wire also applies: each worker is one OS thread.
    TooManyThreads {
        /// The flag.
        flag: String,
        /// The count given.
        value: usize,
    },
    /// An argument the command does not take.
    Unknown(String),
    /// A second positional where the command takes one.
    Extra(String),
    /// The command's input file was not given.
    MissingInput,
    /// A check of the command's own.
    Invalid(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NeedsValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadNumber { flag, value } => write!(f, "{flag}: bad number {value:?}"),
            ArgError::TooManyThreads { flag, value } => write!(
                f,
                "{flag}: at most {MAX_REQUEST_THREADS} (0 = one per core), got {value}"
            ),
            ArgError::Unknown(arg) => write!(f, "unknown option {arg:?}"),
            ArgError::Extra(arg) => write!(f, "unexpected extra argument {arg:?}"),
            ArgError::MissingInput => f.write_str("missing input file"),
            ArgError::Invalid(message) => f.write_str(message),
        }
    }
}

/// A command's own check, as [`ArgError::Invalid`].
impl From<String> for ArgError {
    fn from(message: String) -> ArgError {
        ArgError::Invalid(message)
    }
}

/// A command's own check, as [`ArgError::Invalid`].
impl From<&str> for ArgError {
    fn from(message: &str) -> ArgError {
        ArgError::Invalid(message.to_string())
    }
}

/// A cursor over a command's arguments (after the command name).
#[derive(Debug)]
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The flag last yielded: the one a value read belongs to.
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor at the first of `args`.
    pub fn new(args: &'a [String]) -> Args<'a> {
        Args {
            rest: args.iter(),
            flag: "",
        }
    }

    /// The value that follows the flag last yielded.
    pub fn value(&mut self) -> Result<&'a str, ArgError> {
        self.rest
            .next()
            .map(String::as_str)
            .ok_or_else(|| ArgError::NeedsValue(self.flag.to_string()))
    }

    /// The value that follows the flag last yielded, as a number.
    pub fn number<T: FromStr>(&mut self) -> Result<T, ArgError> {
        let value = self.value()?;
        parse_number(self.flag, value)
    }

    /// The value that follows the flag last yielded, as a thread count:
    /// at most [`MAX_REQUEST_THREADS`], 0 meaning one per core.
    pub fn threads(&mut self) -> Result<usize, ArgError> {
        let value = self.number()?;
        if value > MAX_REQUEST_THREADS {
            return Err(ArgError::TooManyThreads {
                flag: self.flag.to_string(),
                value,
            });
        }
        Ok(value)
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = Arg<'a>;

    fn next(&mut self) -> Option<Arg<'a>> {
        let arg = self.rest.next()?.as_str();
        if arg.starts_with('-') {
            self.flag = arg;
            Some(Arg::Flag(arg))
        } else {
            Some(Arg::Positional(arg))
        }
    }
}

/// `value`, given for `flag`, as a number.
pub fn parse_number<T: FromStr>(flag: &str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::BadNumber {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Stores `path` as a command's one positional argument, held in `slot`.
pub fn set_once(slot: &mut String, path: &str) -> Result<(), ArgError> {
    if !slot.is_empty() {
        return Err(ArgError::Extra(path.to_string()));
    }
    *slot = path.to_string();
    Ok(())
}

/// Fails with [`ArgError::MissingInput`] when no input file was given.
pub fn require_input(input: &str) -> Result<(), ArgError> {
    if input.is_empty() {
        return Err(ArgError::MissingInput);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn yields_flags_and_positionals_in_order() {
        let argv = split("g.txt --json --k 3 -");
        let mut args = Args::new(&argv);
        assert_eq!(args.next(), Some(Arg::Positional("g.txt")));
        assert_eq!(args.next(), Some(Arg::Flag("--json")));
        assert_eq!(args.next(), Some(Arg::Flag("--k")));
        assert_eq!(args.number::<usize>(), Ok(3));
        assert_eq!(args.next(), Some(Arg::Flag("-")));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn a_value_is_taken_whatever_it_looks_like() {
        let argv = split("--exponent -0.5 --out --json");
        let mut args = Args::new(&argv);
        args.next();
        assert_eq!(args.number::<f64>(), Ok(-0.5));
        args.next();
        assert_eq!(args.value(), Ok("--json"));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn shared_errors_keep_their_texts() {
        let argv = split("--k");
        let mut args = Args::new(&argv);
        args.next();
        assert_eq!(args.value().unwrap_err().to_string(), "--k needs a value");

        let argv = split("--left many");
        let mut args = Args::new(&argv);
        args.next();
        let err = args.number::<u32>().unwrap_err();
        assert_eq!(err.to_string(), "--left: bad number \"many\"");

        assert_eq!(
            Arg::Flag("--frob").unknown().to_string(),
            "unknown option \"--frob\""
        );
        assert_eq!(
            Arg::Positional("x.txt").unknown().to_string(),
            "unknown option \"x.txt\""
        );
        let mut input = String::new();
        assert_eq!(require_input(&input), Err(ArgError::MissingInput));
        assert_eq!(ArgError::MissingInput.to_string(), "missing input file");
        set_once(&mut input, "a.txt").unwrap();
        require_input(&input).unwrap();
        let err = set_once(&mut input, "b.txt").unwrap_err();
        assert_eq!(err.to_string(), "unexpected extra argument \"b.txt\"");
        assert_eq!(input, "a.txt");
    }

    #[test]
    fn thread_counts_are_bounded_by_the_wire_limit() {
        let argv = split(&format!(
            "--threads 0 --threads {MAX_REQUEST_THREADS} --workers {} --threads -1",
            MAX_REQUEST_THREADS + 1
        ));
        let mut args = Args::new(&argv);
        args.next();
        assert_eq!(args.threads(), Ok(0));
        args.next();
        assert_eq!(args.threads(), Ok(MAX_REQUEST_THREADS));
        args.next();
        let err = args.threads().unwrap_err();
        assert_eq!(
            err,
            ArgError::TooManyThreads {
                flag: "--workers".to_string(),
                value: MAX_REQUEST_THREADS + 1,
            }
        );
        let limit = format!("at most {MAX_REQUEST_THREADS}");
        assert!(err.to_string().contains(&limit), "{err}");
        args.next();
        assert!(matches!(args.threads(), Err(ArgError::BadNumber { .. })));
    }
}
