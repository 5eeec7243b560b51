//! The one command-line grammar of every petal binary (README.md,
//! *Command lines*): a cursor each binary takes its flags out of, in any
//! order, before [`Flags::finish`] refuses whatever no one took.
//!
//! * `--name value` and `--name=value` are the same flag; a flag given
//!   twice is an error unless the binary takes a list ([`Flags::values`]);
//! * a boolean flag takes no value ([`Flags::flag`]);
//! * a value flag may fall back to an environment variable
//!   ([`Flags::value_or_env`]): the flag beats it, and an unset or empty
//!   variable is no value;
//! * every other argument is a positional, in order.

use std::str::FromStr;

/// What an environment variable holds, if it is set.
type Env = Box<dyn Fn(&str) -> Option<String>>;

/// A command line being read: the arguments no flag has taken yet, and
/// the environment the fallbacks read.
pub struct Flags {
    rest: Vec<String>,
    env: Env,
}

impl Flags {
    /// The process's own arguments (without `argv[0]`) and environment.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1), |var| std::env::var(var).ok())
    }

    /// `args` (without `argv[0]`), with `env(var)` standing in for the
    /// environment, so a test never has to mutate the process's.
    pub fn new(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String> + 'static,
    ) -> Self {
        Flags { rest: args.into_iter().collect(), env: Box::new(env) }
    }

    /// Take every value of `--name`, in order.
    ///
    /// # Errors
    /// `--name` is the last argument, with no value after it.
    pub fn values(&mut self, name: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.rest.len() {
            if self.rest[i] == name {
                if i + 1 == self.rest.len() {
                    return Err(format!("{name} needs a value"));
                }
                self.rest.remove(i);
                out.push(self.rest.remove(i));
            } else if let Some(v) =
                self.rest[i].strip_prefix(name).and_then(|v| v.strip_prefix('='))
            {
                out.push(v.to_owned());
                self.rest.remove(i);
            } else {
                i += 1;
            }
        }
        Ok(out)
    }

    /// Take the value of `--name`, or `None` when it is absent.
    ///
    /// # Errors
    /// A missing value, or `--name` given more than once.
    pub fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let mut values = self.values(name)?;
        if values.len() > 1 {
            return Err(format!("{name} given {} times", values.len()));
        }
        Ok(values.pop())
    }

    /// [`Self::value`], else the environment variable `var`.
    ///
    /// # Errors
    /// As [`Self::value`].
    pub fn value_or_env(&mut self, name: &str, var: &str) -> Result<Option<String>, String> {
        match self.value(name)? {
            Some(v) => Ok(Some(v)),
            None => Ok((self.env)(var).filter(|v| !v.is_empty())),
        }
    }

    /// [`Self::value`], parsed as a `T`.
    ///
    /// # Errors
    /// As [`Self::value`], or a value that does not parse.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?.map(|v| v.parse().map_err(|_| format!("bad {name} `{v}`"))).transpose()
    }

    /// Take the boolean flag `--name`: whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() < before
    }

    /// Take the first argument if it is not a flag: a subcommand.
    pub fn subcommand(&mut self) -> Option<String> {
        let first = self.rest.first()?;
        (!first.starts_with("--")).then(|| self.rest.remove(0))
    }

    /// The positionals, in order, once every flag has been taken.
    ///
    /// # Errors
    /// An argument starting `--` that no one took, or more than `most`
    /// positionals.
    pub fn finish(self, most: usize) -> Result<Vec<String>, String> {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if let Some(extra) = self.rest.get(most) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        Ok(self.rest)
    }
}

/// Refuse a command line: `{prog}: {msg}` and the usage on stderr, then
/// exit 2. Every petal binary refuses its arguments this way.
pub fn exit_usage(prog: &str, msg: &str, usage: &str) -> ! {
    eprintln!("{prog}: {msg}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(args.iter().map(|a| (*a).to_owned()), |var| {
            (var == "PETAL_TEST").then(|| "from-env".to_owned())
        })
    }

    #[test]
    fn both_value_spellings_are_one_flag_and_positionals_keep_their_order() {
        let mut f = flags(&["a", "--x", "1", "b", "--y=2", "--on", "c"]);
        assert_eq!(f.value("--x"), Ok(Some("1".to_owned())));
        assert_eq!(f.value("--y"), Ok(Some("2".to_owned())));
        assert_eq!(f.value("--z"), Ok(None));
        assert!(f.flag("--on"));
        assert!(!f.flag("--off"));
        assert_eq!(f.finish(3), Ok(vec!["a".to_owned(), "b".to_owned(), "c".to_owned()]));
    }

    #[test]
    fn a_list_flag_repeats_and_any_other_flag_given_twice_is_an_error() {
        let mut f = flags(&["--l", "a", "--l=b", "--x", "1", "--x=2"]);
        assert_eq!(f.values("--l"), Ok(vec!["a".to_owned(), "b".to_owned()]));
        assert_eq!(f.value("--x"), Err("--x given 2 times".to_owned()));
        assert_eq!(flags(&["--x"]).value("--x"), Err("--x needs a value".to_owned()));
        // A flag's name is the whole word: `--xy` is not `--x`.
        assert_eq!(flags(&["--xy=1"]).value("--x"), Ok(None));
    }

    #[test]
    fn a_flag_beats_the_environment_and_an_empty_variable_is_none() {
        assert_eq!(flags(&[]).value_or_env("--e", "PETAL_TEST"), Ok(Some("from-env".to_owned())));
        let mut f = flags(&["--e=cli"]);
        assert_eq!(f.value_or_env("--e", "PETAL_TEST"), Ok(Some("cli".to_owned())));
        assert_eq!(flags(&[]).value_or_env("--e", "PETAL_UNSET"), Ok(None));
        let mut empty = Flags::new(Vec::new(), |_| Some(String::new()));
        assert_eq!(empty.value_or_env("--e", "PETAL_EMPTY"), Ok(None));
    }

    #[test]
    fn values_parse_loudly() {
        assert_eq!(flags(&["--n", "7"]).parsed::<u64>("--n"), Ok(Some(7)));
        assert_eq!(flags(&["--n=x"]).parsed::<u64>("--n"), Err("bad --n `x`".to_owned()));
    }

    #[test]
    fn finish_refuses_what_no_one_took() {
        assert_eq!(flags(&["--nope"]).finish(9), Err("unknown flag `--nope`".to_owned()));
        // A boolean flag given a value is not the flag.
        let mut f = flags(&["--on=1"]);
        assert!(!f.flag("--on"));
        assert_eq!(f.finish(0), Err("unknown flag `--on=1`".to_owned()));
        assert_eq!(flags(&["a", "b"]).finish(1), Err("unexpected argument `b`".to_owned()));
    }

    #[test]
    fn a_subcommand_is_a_leading_positional() {
        let mut f = flags(&["ls", "--x", "1"]);
        assert_eq!(f.subcommand(), Some("ls".to_owned()));
        assert_eq!(flags(&["--x", "ls"]).subcommand(), None);
        assert_eq!(flags(&[]).subcommand(), None);
    }
}
