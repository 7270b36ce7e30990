//! `hare-benchmark`: the repo's benchmark (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! hare-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                   one workload; last stdout line is the result JSON
//! hare-benchmark all [--seed n] [--seconds s] [--out dir]
//!                                   every workload, probes, traced runs; writes results.json
//! hare-benchmark selfcheck [--seed n]   determinism and discrimination facts, in seconds
//! hare-benchmark compare <a.json> <b.json>
//! hare-benchmark spec                   prints BENCHMARK.json
//! ```

mod compare;
mod host;
mod json;
mod model;
mod orchestrate;
mod otrace;
mod probes;
mod rig;
mod selfcheck;
mod spec;
mod stats;
mod timed;
mod workloads;

use std::collections::HashMap;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

use std::process::ExitCode;

/// `--key value` pairs.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Flags(map))
    }

    pub fn str(&self, key: &str, default: &str) -> String {
        self.0.get(key).cloned().unwrap_or_else(|| default.into())
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = match args.first() {
        Some(c) if !c.starts_with("--") => (c.as_str(), &args[1..]),
        _ => ("run", args),
    };
    match cmd {
        "compare" => match rest {
            [a, b] => compare::main(a, b),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        _ => {
            let flags = Flags::parse(rest)?;
            match cmd {
                "run" => orchestrate::driver_run(&flags),
                "all" => orchestrate::all(&flags),
                "selfcheck" => selfcheck::main(&flags),
                "child" => orchestrate::child_main(&flags),
                other => Err(format!("unknown command {other:?}")),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hare-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
