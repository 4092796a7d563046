//! The command line: exactly `--workload`, `--seed`, `--seconds` and
//! `--trace`, each once, as `--key value` or `--key=value`. Anything
//! else is an error, so a mistyped flag can never fall back to a
//! default and quietly measure something else.

use std::fmt;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IvfOpenai,
    StoreChurn,
    ServeOoc,
    BatchSq8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IvfOpenai,
        Workload::StoreChurn,
        Workload::ServeOoc,
        Workload::BatchSq8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IvfOpenai => "ivf-openai-1536",
            Workload::StoreChurn => "store-churn-sift",
            Workload::ServeOoc => "serve-ooc-sift",
            Workload::BatchSq8 => "batch-sq8-contriever",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A validated command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub const USAGE: &str =
    "usage: pdx-perfbench --workload <name> --seed <n> --seconds <1..=60> --trace <0|1>";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let err = |msg: String| Err(ArgError(msg));
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(token) = it.next() {
            let Some(flag) = token.strip_prefix("--") else {
                return err(format!("unexpected argument {token:?}"));
            };
            let (key, value) = match flag.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => match it.next() {
                    Some(v) => (flag.to_string(), v),
                    None => return err(format!("--{flag} needs a value")),
                },
            };
            let slot_taken = match key.as_str() {
                "workload" => workload
                    .replace(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        ArgError(format!(
                            "unknown workload {value:?} (expected one of {})",
                            names.join(", ")
                        ))
                    })?)
                    .is_some(),
                "seed" => seed
                    .replace(value.parse::<u64>().map_err(|_| {
                        ArgError(format!(
                            "--seed must be a non-negative integer, got {value:?}"
                        ))
                    })?)
                    .is_some(),
                "seconds" => match value.parse::<u64>() {
                    Ok(s @ 1..=60) => seconds.replace(s).is_some(),
                    _ => {
                        return err(format!(
                            "--seconds must be a whole number in 1..=60, got {value:?}"
                        ))
                    }
                },
                "trace" => match value.as_str() {
                    "0" => trace.replace(false).is_some(),
                    "1" => trace.replace(true).is_some(),
                    _ => return err(format!("--trace must be 0 or 1, got {value:?}")),
                },
                _ => return err(format!("unknown flag --{key}")),
            };
            if slot_taken {
                return err(format!("--{key} given twice"));
            }
        }
        match (workload, seed, seconds, trace) {
            (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
                workload,
                seed,
                seconds,
                trace,
            }),
            _ => err("--workload, --seed, --seconds and --trace are all required".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_both_spellings() {
        let a = parse("--workload store-churn-sift --seed 7 --seconds=10 --trace=1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::StoreChurn,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_flags_and_workloads() {
        let base = "--workload ivf-openai-1536 --seed 1 --seconds 5 --trace 0";
        assert!(parse(base).is_ok());
        assert!(parse(&format!("{base} --sed 3")).is_err());
        assert!(parse(&format!("{base} extra")).is_err());
        assert!(parse("--workload ivf-openai --seed 1 --seconds 5 --trace 0").is_err());
        assert!(
            parse(&format!("{base} --seed 2")).is_err(),
            "duplicate flag"
        );
        assert!(parse("--workload ivf-openai-1536 --seconds 5 --trace 0").is_err());
        assert!(parse("--workload ivf-openai-1536 --seed x --seconds 5 --trace 0").is_err());
        assert!(parse("--workload ivf-openai-1536 --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload ivf-openai-1536 --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload ivf-openai-1536 --seed 1 --seconds 5 --trace").is_err());
    }
}
