//! The command-line grammar, decided once (no external dependencies).
//!
//! Every subcommand *declares* what it accepts as a [`Grammar`] — which
//! `--name`s take a value, which are switches, whether one positional
//! argument is required — and [`Args::parse`] is the only parser. A
//! command-line name is never classified by what happens to follow it,
//! so `--json true` is an error, not a silently ignored switch, and
//! `--json spec.toml` leaves `spec.toml` positional.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// What one subcommand accepts, written the way its usage line reads:
/// `Grammar("<spec.toml> --threads N --out-dir DIR --json --quiet")`.
/// A leading `<…>` word declares the one required positional argument,
/// `--name WORD` an option that takes a value (`WORD` is only its
/// placeholder), and a `--name` followed by another `--name` or by
/// nothing a switch.
#[derive(Debug)]
pub struct Grammar(pub &'static str);

impl Grammar {
    fn positional(&self) -> Option<&'static str> {
        let first = self.0.split_whitespace().next();
        first.filter(|word| !word.starts_with("--"))
    }

    /// `Some(true)` for a declared value option, `Some(false)` for a
    /// declared switch, `None` for an unknown name.
    fn takes_value(&self, name: &str) -> Option<bool> {
        let mut words = self.0.split_whitespace().peekable();
        while let Some(word) = words.next() {
            if word.strip_prefix("--") == Some(name) {
                return Some(words.peek().is_some_and(|next| !next.starts_with("--")));
            }
        }
        None
    }
}

/// A subcommand's parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    positional: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or interpreting the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `command`'s tokens (the command itself excluded) against
    /// its declared `grammar`.
    ///
    /// # Errors
    ///
    /// An unknown option, a value option without a value, a value after
    /// a switch, a stray or missing positional — each with the
    /// subcommand's usage line appended.
    pub fn parse(command: &str, tokens: &[String], grammar: &Grammar) -> Result<Args, ArgError> {
        let fail = |what: String| {
            ArgError(format!(
                "{what}\nusage: orion-power-cli {command} {}",
                grammar.0
            ))
        };
        let mut args = Args {
            positional: None,
            options: HashMap::new(),
            flags: Vec::new(),
        };
        let mut after_switch = None;
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            let switch = after_switch.take();
            let Some(name) = tok.strip_prefix("--") else {
                if grammar.positional().is_some() && args.positional.is_none() {
                    args.positional = Some(tok.clone());
                    continue;
                }
                return Err(fail(match switch {
                    Some(switch) => format!("--{switch} takes no value (found `{tok}`)"),
                    None => format!("unexpected positional argument `{tok}`"),
                }));
            };
            match grammar.takes_value(name) {
                Some(false) => {
                    args.flags.push(name.to_string());
                    after_switch = Some(name);
                }
                Some(true) => {
                    let value = it
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| fail(format!("--{name} requires a value")))?;
                    args.options.insert(name.to_string(), value.clone());
                }
                None => return Err(fail(format!("unknown option `{tok}` for `{command}`"))),
            }
        }
        if let (Some(what), None) = (grammar.positional(), &args.positional) {
            return Err(fail(format!("missing {what}")));
        }
        Ok(args)
    }

    /// Whether a switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The positional argument, when the grammar declares one (it is
    /// then always present).
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An optional path option.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    fn parsed<T: FromStr>(&self, name: &str, expects: &str) -> Result<Option<T>, ArgError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError(format!("--{name} expects {expects}, got `{v}`")))
            })
            .transpose()
    }

    /// A `u32` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u32_or(&self, name: &str, default: u32) -> Result<u32, ArgError> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// A required `u32` option.
    ///
    /// # Errors
    ///
    /// Returns an error if absent or malformed.
    pub fn u32_required(&self, name: &str) -> Result<u32, ArgError> {
        self.parsed(name, "an integer")?
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// An optional `u64` option (cycle counts, seeds).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u64_opt(&self, name: &str) -> Result<Option<u64>, ArgError> {
        self.parsed(name, "an integer")
    }

    /// A `u64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        Ok(self.u64_opt(name)?.unwrap_or(default))
    }

    /// An optional count that must not be zero (threads, shards,
    /// budgets, timeouts).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is malformed or zero.
    pub fn positive(&self, name: &str) -> Result<Option<u64>, ArgError> {
        match self.u64_opt(name)? {
            Some(0) => Err(ArgError(format!("--{name} must be positive"))),
            n => Ok(n),
        }
    }

    /// An `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.parsed(name, "a number")?.unwrap_or(default))
    }
}

/// A test command line, split on whitespace.
#[cfg(test)]
pub fn toks(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUFFER: Grammar = Grammar("--flits N --bits N --decoder --length-mm X");
    const RUN: Grammar = Grammar("<spec.toml> --threads N --json");

    fn parse_with(grammar: &Grammar, line: &str) -> Result<Args, ArgError> {
        Args::parse("cmd", &toks(line), grammar)
    }

    fn parse(line: &str) -> Result<Args, ArgError> {
        parse_with(&BUFFER, line)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("--flits 64 --bits 256 --decoder").unwrap();
        assert_eq!(a.get("flits"), Some("64"));
        assert_eq!(a.get("bits"), Some("256"));
        assert!(a.flag("decoder"));
        assert!(!a.flag("bogus"));
    }

    #[test]
    fn numeric_accessors() {
        let a = parse("--length-mm 3.5 --bits 32 --flits 0").unwrap();
        assert_eq!(a.f64_or("length-mm", 1.0).unwrap(), 3.5);
        assert_eq!(a.u32_or("bits", 64).unwrap(), 32);
        assert_eq!(a.u32_or("absent", 7).unwrap(), 7);
        assert_eq!(a.u64_or("bits", 64).unwrap(), 32);
        assert_eq!(a.u64_or("absent", 9).unwrap(), 9);
        assert!(a.u32_required("missing").is_err());
        assert_eq!(a.positive("bits").unwrap(), Some(32));
        assert_eq!(a.positive("absent").unwrap(), None);
        assert!(a.positive("flits").unwrap_err().0.contains("positive"));
        assert_eq!(a.path("bits"), Some(PathBuf::from("32")));
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parse("--flits sixty").unwrap();
        assert!(a.u32_or("flits", 1).is_err());
        assert!(a.u32_required("flits").is_err());
        assert!(a.positive("flits").is_err());
    }

    #[test]
    fn rejects_positional_noise_and_valueless_options() {
        assert!(parse("stray").is_err());
        assert!(parse("--flits").is_err());
        assert!(parse("--flits --decoder").is_err());
        assert!(parse("").is_ok());
    }

    #[test]
    fn unknown_option_detection() {
        let e = parse("--flits 4 --typo 9").unwrap_err();
        assert!(e.0.contains("unknown option `--typo` for `cmd`"), "{e}");
        assert!(e.0.contains("usage: orion-power-cli cmd --flits N"), "{e}");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("--decoder --flits 8").unwrap();
        assert!(a.flag("decoder"));
        assert_eq!(a.get("flits"), Some("8"));
    }

    #[test]
    fn a_switch_never_consumes_the_next_token() {
        let e = parse("--decoder true --flits 8").unwrap_err();
        assert!(e.0.contains("--decoder takes no value"), "{e}");
        // With a positional declared, the token after a switch is the
        // positional — in either order — and only a second one is noise.
        for line in [
            "--json spec.toml",
            "spec.toml --json",
            "--threads 2 spec.toml",
        ] {
            let a = parse_with(&RUN, line).unwrap();
            assert_eq!(a.positional(), Some("spec.toml"), "{line}");
        }
        let e = parse_with(&RUN, "spec.toml --json true").unwrap_err();
        assert!(e.0.contains("--json takes no value"), "{e}");
        assert!(parse_with(&RUN, "a.toml b.toml").is_err());
        let e = parse_with(&RUN, "--json").unwrap_err();
        assert!(e.0.contains("missing <spec.toml>"), "{e}");
    }
}
