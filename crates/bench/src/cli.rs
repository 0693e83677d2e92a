//! A minimal, dependency-free command-line parser for the figure binaries.
//!
//! All binaries accept the same flag style: `--key value` pairs plus the
//! boolean flag `--paper` which switches from the quick default scale to the
//! paper's full scale (10,000 nodes, 100 runs per configuration). Each
//! binary declares the keys it accepts; any other `--key` is an error, so a
//! typo never silently runs the defaults.

use std::collections::BTreeMap;

/// Parsed command-line arguments: a map of `--key value` pairs plus a set of
/// boolean flags (keys given without a value).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the given iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns an error if an argument does not start with `--`.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument '{arg}', expected --key [value]"
                ));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    parsed.values.insert(key.to_owned(), value);
                }
                _ => parsed.flags.push(key.to_owned()),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments (skipping the program name), accepting
    /// only the keys named in `known`.
    ///
    /// # Errors
    ///
    /// Returns an error if any argument is malformed or any key is unknown
    /// (see [`Args::reject_unknown`]).
    pub fn from_env(known: &[&[&str]]) -> Result<Self, String> {
        let args = Self::parse(std::env::args().skip(1))?;
        args.reject_unknown(known)?;
        Ok(args)
    }

    /// Checks every given key, valued or boolean, against the lists in
    /// `known`.
    ///
    /// # Errors
    ///
    /// Returns `unknown option --key` for the first key no list names.
    pub fn reject_unknown(&self, known: &[&[&str]]) -> Result<(), String> {
        let is_known = |key: &str| known.iter().any(|keys| keys.contains(&key));
        match self
            .values
            .keys()
            .chain(&self.flags)
            .find(|key| !is_known(key))
        {
            Some(key) => Err(format!("unknown option --{key}")),
            None => Ok(()),
        }
    }

    /// Returns `true` if the boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Parses `--name` as `T`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{name}")),
        }
    }

    /// Parses `--name` as a comma-separated list of `T`, falling back to
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if any element fails to parse.
    pub fn get_list_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .filter(|part| !part.is_empty())
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("invalid element '{part}' in --{name}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_pairs_and_flags() {
        let args = Args::parse(["--nodes", "500", "--paper", "--fanouts", "1,2,3"]).unwrap();
        assert_eq!(args.value("nodes"), Some("500"));
        assert!(args.flag("paper"));
        assert!(!args.flag("quick"));
        assert_eq!(args.get_or("nodes", 0usize).unwrap(), 500);
        assert_eq!(args.get_or("runs", 42usize).unwrap(), 42);
        assert_eq!(
            args.get_list_or("fanouts", vec![9usize]).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(args.get_list_or("missing", vec![9usize]).unwrap(), vec![9]);
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(Args::parse(["nodes"]).is_err());
        let args = Args::parse(["--nodes", "abc"]).unwrap();
        assert!(args.get_or("nodes", 1usize).is_err());
        let args = Args::parse(["--fanouts", "1,x"]).unwrap();
        assert!(args.get_list_or("fanouts", Vec::<usize>::new()).is_err());
    }

    #[test]
    fn rejects_unknown_options() {
        let known: &[&[&str]] = &[&["nodes", "runs"], &["quiet"]];
        let good = Args::parse(["--nodes", "500", "--quiet"]).unwrap();
        assert_eq!(good.reject_unknown(known), Ok(()));
        let typo = Args::parse(["--node", "500"]).unwrap();
        assert_eq!(
            typo.reject_unknown(known),
            Err("unknown option --node".to_owned())
        );
        let retired = Args::parse(["--runs", "3", "--engine", "btree"]).unwrap();
        assert_eq!(
            retired.reject_unknown(known),
            Err("unknown option --engine".to_owned())
        );
        let flag = Args::parse(["--profile"]).unwrap();
        assert!(flag.reject_unknown(known).is_err());
    }

    #[test]
    fn empty_args_use_defaults() {
        let args = Args::parse(Vec::<String>::new()).unwrap();
        assert_eq!(args.get_or("seed", 7u64).unwrap(), 7);
        assert!(!args.flag("paper"));
    }
}
