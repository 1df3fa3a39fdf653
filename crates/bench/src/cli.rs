//! The one command-line reader behind `repro`, `calibrate` and `serve`.
//!
//! A binary names its valued flags and its bare switches; [`CommandLine`]
//! splits its arguments into those and the positional rest, and rejects
//! anything else that starts with `--`. Each binary then builds its
//! settings from the reader in a function that returns `Result`, so only
//! its `main` prints a usage line and exits 2.

use std::str::FromStr;

/// A command line split into valued flags, switches and positional
/// arguments. A valued flag reads its value as `--flag VALUE` or
/// `--flag=VALUE`; when a flag repeats, its last occurrence wins.
#[derive(Debug)]
pub struct CommandLine<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> CommandLine<'a> {
    /// Splits `args` for a binary whose valued flags are `flags` and whose
    /// bare switches are `switches`. Arguments not starting with `--` are
    /// positional, in order.
    ///
    /// # Errors
    ///
    /// Names any other `--flag`, a switch given `=VALUE`, and a valued
    /// flag with no value after it.
    pub fn parse(args: &'a [String], flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut line = CommandLine {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (arg, None),
            };
            if !arg.starts_with("--") {
                line.positional.push(arg);
            } else if flags.contains(&flag) {
                let value = inline
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                line.values.push((flag, value));
            } else if inline.is_none() && switches.contains(&flag) {
                line.switches.push(flag);
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(line)
    }

    /// The value of `flag` as `read` makes it, if the flag was given.
    /// Every occurrence must read; the last one wins.
    ///
    /// # Errors
    ///
    /// Names the flag, what it `expects` and the value `read` refused.
    pub fn read<T>(
        &self,
        flag: &str,
        expects: &str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let mut last = None;
        for &(_, value) in self.values.iter().filter(|(f, _)| *f == flag) {
            let parsed = read(value).ok_or_else(|| format!("{flag} wants {expects}, got {value}"));
            last = Some(parsed?);
        }
        Ok(last)
    }

    /// The value of `flag` parsed as a `T` (a number or a path), if the
    /// flag was given; see [`CommandLine::read`].
    ///
    /// # Errors
    ///
    /// Reports a value that does not parse.
    pub fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.read(flag, "a number", |value| value.parse().ok())
    }

    /// Whether `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[&'a str] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: [&str; 3] = ["--jobs", "--out", "--rate"];

    #[test]
    fn both_spellings_read_and_the_last_occurrence_wins() {
        let argv = args(&[
            "fig3",
            "--jobs",
            "2",
            "--out=a.txt",
            "--quick",
            "table2",
            "--rate=0.5",
            "--jobs=7",
            "--out",
            "b=c.txt",
            "-x",
        ]);
        let line = CommandLine::parse(&argv, &FLAGS, &["--quick", "--csv"]).unwrap();
        assert_eq!(line.positional(), ["fig3", "table2", "-x"]);
        assert_eq!(line.value::<usize>("--jobs"), Ok(Some(7)));
        assert_eq!(line.value::<String>("--out"), Ok(Some("b=c.txt".into())));
        assert_eq!(line.value::<f64>("--rate"), Ok(Some(0.5)));
        assert!(line.has("--quick"));
        assert!(!line.has("--csv"));
        // An absent flag has no value, and a value may look like a flag.
        let argv = args(&["--out", "--jobs"]);
        let line = CommandLine::parse(&argv, &FLAGS, &[]).unwrap();
        assert_eq!(line.value::<usize>("--jobs"), Ok(None));
        assert_eq!(line.value::<String>("--out"), Ok(Some("--jobs".into())));
        assert!(line.positional().is_empty());
    }

    #[test]
    fn bad_flags_and_values_are_rejected() {
        let parse = |v: &[&str]| CommandLine::parse(&args(v), &FLAGS, &["--quick"]).map(|_| ());
        assert_eq!(parse(&["--bogus"]), Err("unknown flag --bogus".into()));
        assert_eq!(parse(&["--bogus=1"]), Err("unknown flag --bogus=1".into()));
        assert_eq!(parse(&["--"]), Err("unknown flag --".into()));
        assert_eq!(
            parse(&["--quick=yes"]),
            Err("unknown flag --quick=yes".into())
        );
        assert_eq!(
            parse(&["fig3", "--jobs"]),
            Err("--jobs needs a value".into())
        );
        assert!(parse(&["--jobs="]).is_ok(), "an empty value is a value");

        let argv = args(&["--jobs", "x", "--jobs", "3", "--rate=fast"]);
        let line = CommandLine::parse(&argv, &FLAGS, &[]).unwrap();
        assert_eq!(
            line.value::<usize>("--jobs"),
            Err("--jobs wants a number, got x".into()),
            "a malformed earlier occurrence is not hidden by a later one"
        );
        assert_eq!(
            line.value::<f64>("--rate"),
            Err("--rate wants a number, got fast".into())
        );
        assert_eq!(
            line.value::<u8>("--jobs"),
            Err("--jobs wants a number, got x".into())
        );
        let argv = args(&["--jobs=300"]);
        let line = CommandLine::parse(&argv, &FLAGS, &[]).unwrap();
        assert!(line.value::<u8>("--jobs").is_err(), "out of range");
        let count = |parity| move |v: &str| v.parse::<u32>().ok().filter(|n| n % 2 == parity);
        assert_eq!(
            line.read("--jobs", "an even count", count(0)),
            Ok(Some(300))
        );
        assert_eq!(
            line.read("--jobs", "an odd count", count(1)),
            Err("--jobs wants an odd count, got 300".into())
        );
    }
}
