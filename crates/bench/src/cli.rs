//! A minimal argv parser shared by the command-line binaries.
//!
//! Each binary declares its switches (`--quick`), its valued options
//! (`--seed N`) and how many positional arguments it takes. `--help` / `-h`
//! prints the usage text and exits 0; anything the binary did not declare —
//! an unknown flag, a missing value, a surplus positional — prints the usage
//! and a one-line reason to stderr and exits 2. No argument ever panics.

use std::str::FromStr;

/// Exit status for a bad command line (the convention of shell builtins and
/// most Unix tools).
const USAGE_EXIT: i32 = 2;

/// What a binary accepts on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Usage text printed by `--help` and on every error.
    pub usage: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take exactly one value (`--flag VALUE`).
    pub options: &'static [&'static str],
    /// Maximum number of positional arguments.
    pub max_positionals: usize,
}

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// The command line is malformed; the string says why.
    Invalid(String),
}

/// A command line accepted by a [`Spec`].
#[derive(Debug, Clone, Default)]
pub struct Args {
    switches: Vec<&'static str>,
    options: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Spec {
    /// Parses `args` (without the program name) against this spec.
    pub fn parse<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Args, CliError> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(CliError::Help);
            }
            if let Some(&flag) = self.switches.iter().find(|f| **f == arg) {
                parsed.switches.push(flag);
            } else if let Some(&flag) = self.options.iter().find(|f| **f == arg) {
                let value = args
                    .next()
                    .ok_or_else(|| CliError::Invalid(format!("{flag} needs a value")))?;
                parsed.options.push((flag, value));
            } else if arg.starts_with('-') {
                return Err(CliError::Invalid(format!("unknown argument {arg:?}")));
            } else if parsed.positionals.len() < self.max_positionals {
                parsed.positionals.push(arg);
            } else {
                return Err(CliError::Invalid(format!("unexpected argument {arg:?}")));
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments, exiting on `--help` (status 0) or on a
    /// malformed command line (status [`USAGE_EXIT`]).
    pub fn parse_env_or_exit(&self) -> Args {
        match self.parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError::Help) => {
                println!("{}", self.usage);
                std::process::exit(0);
            }
            Err(CliError::Invalid(reason)) => self.exit_invalid(&reason),
        }
    }

    /// Prints the reason and the usage to stderr and exits with
    /// [`USAGE_EXIT`] — for errors found after parsing (an unknown scenario
    /// name, a value that does not parse).
    pub fn exit_invalid(&self, reason: &str) -> ! {
        eprintln!("error: {reason}\n{}", self.usage);
        std::process::exit(USAGE_EXIT);
    }

    /// The value of `flag` parsed as `T`, exiting through
    /// [`exit_invalid`](Self::exit_invalid) when it does not parse.
    pub fn value_or_exit<T: FromStr>(&self, args: &Args, flag: &str) -> Option<T> {
        args.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| self.exit_invalid(&format!("{flag}: invalid value {v:?}")))
        })
    }
}

impl Args {
    /// True when the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of the option `flag` (the last one, if repeated).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        usage: "usage: tool [--quick] [--seed N] [NAME]",
        switches: &["--quick"],
        options: &["--seed"],
        max_positionals: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        SPEC.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_declared_arguments() {
        let args = parse(&["name", "--quick", "--seed", "7"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.value("--seed"), Some("7"));
        assert_eq!(args.positionals(), ["name"]);
        assert_eq!(args.value("--missing"), None);
    }

    #[test]
    fn help_is_recognised_anywhere_before_an_error() {
        assert_eq!(parse(&["--help", "--bogus"]).unwrap_err(), CliError::Help);
        assert_eq!(parse(&["name", "-h"]).unwrap_err(), CliError::Help);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [&["--seed"][..], &["--bogus", "2"], &["a", "b"], &["-x"]] {
            assert!(
                matches!(parse(bad), Err(CliError::Invalid(_))),
                "{bad:?} must be rejected"
            );
        }
    }
}
