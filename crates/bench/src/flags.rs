//! The bench binaries' command lines: a binary names the flags it takes
//! — switches (`--quick`) and flags that take a value (`--json <path>`)
//! — and anything else stops it with the usage line instead of running
//! the defaults.

/// The flags given, in order, each with its value if it takes one.
#[derive(Debug)]
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Read the process's arguments. On an unknown argument, or a value
    /// flag given no value, print the error and the usage line and exit
    /// with status 2.
    pub fn parse(switches: &[&str], valued: &[&str]) -> Flags {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Flags::read(args, switches, valued).unwrap_or_else(|e| {
            let name = program.rsplit('/').next().unwrap_or_default();
            let usage = switches.iter().map(|s| format!(" [{s}]"));
            let usage = usage.chain(valued.iter().map(|f| format!(" [{f} <value>]")));
            eprintln!("{e}\nusage: {name}{}", usage.collect::<String>());
            std::process::exit(2)
        })
    }

    /// As [`Flags::parse`], from `args` (the program name left out),
    /// returning the error. A value that starts with `--` is taken for
    /// a missing one.
    pub fn read(
        args: impl IntoIterator<Item = String>,
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = if switches.contains(&flag.as_str()) {
                None
            } else if valued.contains(&flag.as_str()) {
                let value = args.next().filter(|v| !v.starts_with("--"));
                Some(value.ok_or(format!("{flag} takes a value"))?)
            } else {
                return Err(format!("unknown argument {flag:?}"));
            };
            given.push((flag, value));
        }
        Ok(Flags(given))
    }

    /// True if `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    /// The value given to `flag` (the first, if it was given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.0.iter().find(|(f, _)| f == flag);
        given.and_then(|(_, value)| value.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(args: &[&str]) -> Result<Flags, String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::read(args, &["--quick", "--check"], &["--json", "--seeds"])
    }

    #[test]
    fn known_flags_are_read() {
        let flags = read(&["--seeds", "5", "--quick", "--json", "out.json"]).expect("valid");
        assert!(flags.has("--quick") && !flags.has("--check"));
        assert_eq!(flags.value("--seeds"), Some("5"));
        assert_eq!(flags.value("--json"), Some("out.json"));
        assert_eq!(read(&[]).expect("valid").value("--json"), None);
    }

    #[test]
    fn an_unknown_or_valueless_flag_is_an_error() {
        let unknown = read(&["--chek"]).map(|_| ());
        assert_eq!(unknown, Err("unknown argument \"--chek\"".to_string()));
        assert!(read(&["--seed", "5"]).is_err());
        assert!(read(&["5"]).is_err());
        let valueless = read(&["--json"]).map(|_| ());
        assert_eq!(valueless, Err("--json takes a value".to_string()));
        assert!(read(&["--json", "--quick"]).is_err());
    }
}
