//! `--key value` arguments, shared by the benchmark command and the
//! processes it starts.

use std::collections::BTreeMap;
use std::str::FromStr;

/// The words before the first `--key`, and the `--key value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    pub words: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `args` (without the program name).  A `--key` followed by
    /// another `--key` or by nothing is a flag with the value "1".
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = match args.peek() {
                        Some(next) if !next.starts_with("--") => args.next().expect("peeked"),
                        _ => "1".to_string(),
                    };
                    out.options.insert(key.to_string(), value);
                }
                None => out.words.push(arg),
            }
        }
        out
    }

    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    pub fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of `--key`, parsed; `default` when absent; an error naming
    /// the key when it does not parse.
    pub fn value<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key}: cannot read '{text}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_options_and_flags() {
        let a = Args::parse(
            [
                "compare", "a.json", "--seed", "7", "--quick", "--scale", "0.5",
            ]
            .map(String::from),
        );
        assert_eq!(a.words, ["compare", "a.json"]);
        assert_eq!(a.value("seed", 0u64), Ok(7));
        assert_eq!(a.value("scale", 1.0f64), Ok(0.5));
        assert_eq!(a.value("threads", 2usize), Ok(2));
        assert!(a.has("quick") && !a.has("slow"));
        assert!(a.value::<u64>("scale", 0).is_err());
    }
}
