//! # petal-bench — harness regenerating the asserted figures of §6
//!
//! Each binary reproduces one artifact of the paper's evaluation and
//! asserts its claim at harness sizes:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_convolution` | Fig. 2 — convolution mapping sweep over kernel widths |
//! | `fig7_migration` | Fig. 6 + Fig. 7(a–g) — tuned configs, migration matrices + baselines ([`figures`]) |
//! | `ablation_ircache` | §5.4 — IR-cache / small-input-trial tuning-time ablation |
//!
//! Sizes default to reduced values so each binary finishes in seconds of
//! host time (the *virtual* times reported are what the paper's axes
//! correspond to); pass `--full` for the paper's input sizes.

use petal_apps::Benchmark;
use petal_farm::net::Endpoint;
use petal_gpu::profile::MachineProfile;
use petal_registry::ConfigStore;
use petal_tuner::{Tuned, TunerSettings, WarmStart};

pub mod baselines;
pub mod figures;

/// Standard benchmark set at harness sizes.
#[must_use]
pub fn harness_benchmarks(full: bool) -> Vec<Box<dyn Benchmark>> {
    use petal_apps::*;
    if full {
        vec![
            Box::new(blackscholes::BlackScholes::new(500_000)),
            Box::new(poisson::Poisson2D::new(2048, 8)),
            Box::new(convolution::SeparableConvolution::new(3520, 7)),
            Box::new(sort::Sort::new(1 << 20)),
            Box::new(strassen::Strassen::new(1024)),
            Box::new(svd::Svd::new(256, 0.15)),
            Box::new(tridiagonal::Tridiagonal::new(1 << 20)),
        ]
    } else {
        petal_apps::all_benchmarks()
    }
}

/// The harness command line, parsed once: every flag the `fig*` binaries
/// understand, plus whatever positional arguments remain. One parser
/// means a flag added here can never silently leak into another
/// accessor's positional arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// `--full`: run at the paper's input sizes.
    pub full: bool,
    /// `--shards N` / `--shards=N` (or `PETAL_SHARDS=N`): evaluate on
    /// `N` `petal-shard` worker processes; 0 stays in-process.
    pub shards: usize,
    /// `--farmd <endpoint>` / `--farmd=<endpoint>` (or
    /// `PETAL_FARMD=<endpoint>`): evaluate against the `petal-farmd`
    /// dispatcher at `host:port`, `tcp:host:port` or `unix:<path>`.
    /// Wins over `--shards`. Both endpoint flags go through the one
    /// [`Endpoint`] grammar, so a form that works here works everywhere.
    pub farmd: Option<Endpoint>,
    /// `--registry <endpoint>` / `--registry=<endpoint>` (or
    /// `PETAL_REGISTRY=<endpoint>`): the tuned-config registry — a local
    /// directory (`dir:<path>`, or a bare path) or a
    /// `petal-farmd --registry` service (`tcp:host:port` / `unix:<path>`).
    /// Harnesses that support it store their tunes there and warm-start
    /// re-tuning from it (`fig7_migration`'s repair curves).
    pub registry: Option<Endpoint>,
    /// Everything else, in order (e.g. `fig7_migration`'s name filter).
    pub positionals: Vec<String>,
}

impl HarnessArgs {
    /// Parse an argument list (without `argv[0]`). Malformed flag values
    /// are a loud error, never a silent default.
    ///
    /// # Errors
    /// A human-readable message for a missing or non-integer `--shards`
    /// value, or a missing or malformed `--farmd` / `--registry`
    /// endpoint.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_with_env(
            args,
            std::env::var("PETAL_SHARDS").ok().as_deref(),
            std::env::var("PETAL_FARMD").ok().as_deref(),
            std::env::var("PETAL_REGISTRY").ok().as_deref(),
        )
    }

    /// [`Self::parse`] with the `PETAL_SHARDS` / `PETAL_FARMD` /
    /// `PETAL_REGISTRY` values passed explicitly — the actual parser, and
    /// what tests call so they never have to mutate the process
    /// environment (a data race under libtest's concurrent test threads).
    fn parse_with_env<I: IntoIterator<Item = String>>(
        args: I,
        env_shards: Option<&str>,
        env_farmd: Option<&str>,
        env_registry: Option<&str>,
    ) -> Result<Self, String> {
        let parse_shards = |raw: &str| {
            raw.parse().map_err(|_| {
                format!("bad shard count `{raw}`; expected `--shards <N>` (or PETAL_SHARDS=<N>)")
            })
        };
        // Both endpoint flags share the one `Endpoint` grammar; `none`
        // (`Endpoint::Disabled`) is the escape hatch back to local
        // operation when PETAL_FARMD / PETAL_REGISTRY are exported.
        let parse_farmd = |raw: &str| -> Result<Option<Endpoint>, String> {
            match Endpoint::parse(raw)? {
                Endpoint::Disabled => Ok(None),
                Endpoint::Dir(d) => Err(format!(
                    "--farmd needs a dispatcher socket, not the directory `{}`",
                    d.display()
                )),
                Endpoint::Fallback(elements)
                    if elements.iter().any(|e| matches!(e, Endpoint::Dir(_))) =>
                {
                    Err(format!(
                        "--farmd needs dispatcher sockets; the list `{raw}` contains a directory"
                    ))
                }
                e => Ok(Some(e)),
            }
        };
        let parse_registry = |raw: &str| -> Result<Option<Endpoint>, String> {
            match Endpoint::parse_store(raw)? {
                Endpoint::Disabled => Ok(None),
                e => Ok(Some(e)),
            }
        };
        let mut out = HarnessArgs {
            full: false,
            shards: 0,
            farmd: None,
            registry: None,
            positionals: Vec::new(),
        };
        // An explicit `--shards 0` must win over PETAL_SHARDS: the flag
        // is the documented escape hatch back to in-process evaluation.
        let mut shards_from_cli = false;
        let mut farmd_from_cli = false;
        let mut registry_from_cli = false;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--shards" => {
                    let raw = args.next().ok_or("--shards is missing its value")?;
                    out.shards = parse_shards(&raw)?;
                    shards_from_cli = true;
                }
                a if a.starts_with("--shards=") => {
                    out.shards = parse_shards(&a["--shards=".len()..])?;
                    shards_from_cli = true;
                }
                "--farmd" => {
                    let raw = args.next().ok_or("--farmd is missing its value")?;
                    out.farmd = parse_farmd(&raw)?;
                    farmd_from_cli = true;
                }
                a if a.starts_with("--farmd=") => {
                    out.farmd = parse_farmd(&a["--farmd=".len()..])?;
                    farmd_from_cli = true;
                }
                "--registry" => {
                    let raw = args.next().ok_or("--registry is missing its value")?;
                    out.registry = parse_registry(&raw)?;
                    registry_from_cli = true;
                }
                a if a.starts_with("--registry=") => {
                    out.registry = parse_registry(&a["--registry=".len()..])?;
                    registry_from_cli = true;
                }
                _ => out.positionals.push(a),
            }
        }
        if !shards_from_cli {
            if let Some(raw) = env_shards {
                out.shards = parse_shards(raw)?;
            }
        }
        if !farmd_from_cli {
            if let Some(raw) = env_farmd {
                out.farmd = parse_farmd(raw)?;
            }
        }
        if !registry_from_cli {
            if let Some(raw) = env_registry {
                out.registry = parse_registry(raw)?;
            }
        }
        Ok(out)
    }

    /// Parse the process's real command line, exiting loudly on a
    /// malformed flag. Parsed once per process; the free-function
    /// accessors all read the same cached result.
    #[must_use]
    pub fn from_env() -> Self {
        static PARSED: std::sync::OnceLock<HarnessArgs> = std::sync::OnceLock::new();
        PARSED
            .get_or_init(|| {
                Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                })
            })
            .clone()
    }
}

/// `--full` flag shared by the harness binaries.
#[must_use]
pub fn full_flag() -> bool {
    HarnessArgs::from_env().full
}

/// `--shards N` flag (or `PETAL_SHARDS=N`) shared by the harness
/// binaries: run candidate evaluation on `N` `petal-shard` worker
/// processes instead of in-process threads. 0 (the default) stays
/// in-process. Results are bit-identical either way; build the worker
/// first (`cargo build --release -p petal_shard`) or point
/// `PETAL_SHARD_BIN` at it.
#[must_use]
pub fn shards_flag() -> usize {
    HarnessArgs::from_env().shards
}

/// `--farmd <endpoint>` flag (or `PETAL_FARMD=<endpoint>`) shared by the
/// harness binaries: evaluate against the `petal-farmd` dispatcher at
/// `host:port`, `tcp:host:port` or `unix:<path>` instead of local
/// workers — or a comma-separated fallback list of dispatcher sockets,
/// walked in order on every connect. Results are bit-identical to every
/// local mode; `--farmd none` forces local evaluation when the
/// environment variable is exported.
#[must_use]
pub fn farmd_flag() -> Option<Endpoint> {
    HarnessArgs::from_env().farmd
}

/// `--registry <endpoint>` flag (or `PETAL_REGISTRY=<endpoint>`) shared
/// by the harness binaries: the tuned-config registry, either a local
/// directory (`dir:<path>` or a bare path) or a served registry
/// (`tcp:host:port` / `unix:<path>`, a `petal-farmd --registry`
/// dispatcher). A comma-separated list (`tcp:a:1,tcp:b:1,dir:/srv/reg`)
/// fails over across registry hosts, with a `dir:` element as the
/// terminal local fallback. `--registry none` forces registry-free
/// operation when the environment variable is exported.
#[must_use]
pub fn registry_flag() -> Option<Endpoint> {
    HarnessArgs::from_env().registry
}

/// Positional (non-flag) arguments, for binaries like `fig7_migration`
/// that take a benchmark-name filter.
#[must_use]
pub fn positional_args() -> Vec<String> {
    HarnessArgs::from_env().positionals
}

/// The farm settings the harness binaries run with: a remote dispatcher
/// when `--farmd`/`PETAL_FARMD` names one, `--shards N` worker processes
/// when sharding was requested, otherwise one thread per hardware thread.
#[must_use]
pub fn harness_farm_settings() -> petal_farm::FarmSettings {
    if let Some(endpoint) = farmd_flag() {
        return petal_farm::FarmSettings::remote(endpoint.to_string());
    }
    match shards_flag() {
        0 => petal_farm::FarmSettings::host_parallel(),
        n => petal_farm::FarmSettings::sharded(n),
    }
}

/// Tuner settings used by the harnesses (slightly larger than smoke),
/// evaluating on the farm the command line names.
#[must_use]
pub fn harness_tuner_settings() -> TunerSettings {
    tuner_settings_on(harness_farm_settings())
}

/// The harness search on `farm`. Results are bit-identical on every
/// farm (its determinism contract); only wall-clock time changes.
#[must_use]
pub fn tuner_settings_on(farm: petal_farm::FarmSettings) -> TunerSettings {
    TunerSettings {
        seed: 0xf1675,
        trials_per_round: 40,
        population: 5,
        size_schedule: vec![1.0 / 16.0, 1.0 / 4.0, 1.0],
        small_size_trial_fraction: 0.5,
        model_process_restarts: true,
        farm,
        kick_after: 2,
        kick_strength: 3,
        warm_start: None,
    }
}

/// The store `--registry`/`PETAL_REGISTRY` names, opened, or `None`
/// with a stderr warning when it cannot be (the registry is an
/// optimization — an unreachable one must not kill a harness run).
#[must_use]
pub fn registry_store() -> Option<Box<dyn ConfigStore>> {
    let endpoint = registry_flag()?;
    match petal_registry::open(&endpoint) {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("warning: {e}");
            None
        }
    }
}

/// The store's nearest config for `(machine, bench)` as a tuner
/// [`WarmStart`], with a provenance label naming the match tier and
/// donor machine (`registry:family:Laptop`; cross-size donors append
/// the size they were rescaled from). `None` when the store has no
/// usable entry — a warm start is an optimization, never a hard
/// failure, but store errors are reported on stderr so an operator
/// sees why a run tuned cold.
#[must_use]
pub fn registry_warm_start(
    store: &dyn ConfigStore,
    machine: &MachineProfile,
    bench: &dyn Benchmark,
) -> Option<WarmStart> {
    match store.lookup(machine, &bench.spec(), bench.input_size(), false) {
        Ok(Some(m)) => Some(WarmStart {
            source: match m.scaled_from {
                None => format!("registry:{}:{}", m.tier, m.entry.machine.codename),
                Some(size) => {
                    format!("registry:{}:{}:from-size-{size}", m.tier, m.entry.machine.codename)
                }
            },
            config: m.entry.config,
        }),
        Ok(None) => None,
        Err(e) => {
            eprintln!("warning: registry warm-start unavailable: {e}");
            None
        }
    }
}

/// Offer a tuning result to `store` (keep-best). Failures are reported,
/// not fatal: a read-only registry must not kill a run.
pub fn store_tuned(
    store: &dyn ConfigStore,
    bench: &dyn Benchmark,
    machine: &MachineProfile,
    tuned: &Tuned,
    source: &str,
) {
    let entry = petal_registry::StoredEntry {
        machine: machine.clone(),
        bench_spec: bench.spec(),
        size: bench.input_size(),
        config: tuned.config.clone(),
        time_secs: tuned.time_secs,
        source: source.to_owned(),
    };
    if let Err(e) = store.put(&entry, false) {
        eprintln!("warning: could not store tuned config: {e}");
    }
}

/// Render a simple fixed-width table row.
#[must_use]
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{c:<w$} ", w = w));
    }
    out.trim_end().to_owned()
}

/// Pull `"name": <number>` out of one line of a committed `BENCH_*.json`
/// table (the flat one-row-per-line format the `bench_*` binaries render;
/// no JSON dependency is available offline).
#[must_use]
pub fn num_field(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Pull `"name": "<text>"` out of one line of the same format.
#[must_use]
pub fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let rest = &line[line.find(&tag)? + tag.len()..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_fields_are_read_by_name() {
        let line = r#"    {"key": "sort/Desktop", "virtual_secs": 1.5e-3, "virtual_bits": "0x3f589374bc6a7efa"},"#;
        assert_eq!(str_field(line, "key"), Some("sort/Desktop"));
        assert_eq!(num_field(line, "virtual_secs"), Some(1.5e-3));
        assert_eq!(str_field(line, "virtual_bits"), Some("0x3f589374bc6a7efa"));
        assert_eq!(num_field(line, "speedup"), None);
        assert_eq!(str_field(line, "virtual_secs"), None, "a number is not a string");
        assert_eq!(num_field(r#"{"last": 2}"#, "last"), Some(2.0));
    }

    #[test]
    fn harness_benchmark_set_is_complete() {
        let names: Vec<String> =
            harness_benchmarks(false).iter().map(|b| b.name().to_owned()).collect();
        for expected in [
            "Black-Scholes",
            "Poisson2D SOR",
            "SeparableConvolution",
            "Sort",
            "Strassen",
            "SVD",
            "Tridiagonal Solver",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn row_formats_fixed_width() {
        let r = row(&["a".into(), "bb".into()], &[4, 4]);
        assert_eq!(r, "a    bb");
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn harness_args_parse_flags_and_positionals() {
        let a = parse(&["scholes", "--shards", "4", "--full"]).expect("parses");
        assert_eq!(
            a,
            HarnessArgs {
                full: true,
                shards: 4,
                farmd: None,
                registry: None,
                positionals: vec!["scholes".into()],
            }
        );
        let a = parse(&["--shards=2"]).expect("parses");
        assert_eq!(a.shards, 2);
        assert!(a.positionals.is_empty(), "--shards=N is a flag, not a filter");
        let a = parse(&["--farmd", "127.0.0.1:7777"]).expect("parses");
        assert_eq!(a.farmd, Some(Endpoint::Tcp("127.0.0.1:7777".to_owned())));
        let a = parse(&["--farmd=unix:/tmp/farm.sock", "scholes"]).expect("parses");
        assert_eq!(a.farmd, Some(Endpoint::Unix("/tmp/farm.sock".into())));
        assert_eq!(a.positionals, vec!["scholes".to_owned()]);
        let a = parse(&["--registry", "/tmp/reg", "scholes"]).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Dir("/tmp/reg".into())));
        assert_eq!(a.positionals, vec!["scholes".to_owned()]);
        let a = parse(&["--registry=dir:/tmp/reg2"]).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Dir("/tmp/reg2".into())));
        assert!(a.positionals.is_empty(), "--registry=DIR is a flag, not a filter");
        // A served registry is the same flag, different endpoint form.
        let a = parse(&["--registry", "tcp:127.0.0.1:7777"]).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Tcp("127.0.0.1:7777".to_owned())));
    }

    #[test]
    fn harness_args_reject_malformed_shards_loudly() {
        assert!(parse(&["--shards"]).is_err(), "missing value");
        assert!(parse(&["--shards", "bogus"]).is_err(), "non-integer value");
        assert!(parse(&["--shards=x"]).is_err(), "non-integer inline value");
        assert!(parse(&["--farmd"]).is_err(), "missing endpoint value");
        assert!(parse(&["--registry"]).is_err(), "missing registry value");
    }

    #[test]
    fn harness_args_reject_malformed_endpoints_loudly() {
        let e = parse(&["--farmd", "tcp:nohost"]).expect_err("port required");
        assert!(e.contains("missing its port"), "{e}");
        let e = parse(&["--farmd", "dir:/srv/reg"]).expect_err("farmd is a socket");
        assert!(e.contains("dispatcher socket"), "{e}");
        // The same grammar misparse is loud through the env path too.
        assert!(parse_env(&[], None, Some("tcp:nohost"), None).is_err());
        assert!(parse_env(&[], None, None, Some("tcp:nohost")).is_err());
    }

    fn parse_env(
        args: &[&str],
        shards: Option<&str>,
        farmd: Option<&str>,
        registry: Option<&str>,
    ) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_with_env(args.iter().map(|s| (*s).to_owned()), shards, farmd, registry)
    }

    #[test]
    fn explicit_shards_zero_beats_the_environment() {
        let a = parse_env(&["--shards", "0"], Some("4"), None, None).expect("parses");
        assert_eq!(a.shards, 0, "CLI escape hatch wins");
        let a = parse_env(&[], Some("4"), None, None).expect("parses");
        assert_eq!(a.shards, 4, "env applies without the flag");
        assert!(parse_env(&[], Some("bogus"), None, None).is_err(), "malformed env is loud too");
    }

    #[test]
    fn explicit_farmd_none_beats_the_environment() {
        let a =
            parse_env(&["--farmd", "none"], None, Some("127.0.0.1:7777"), None).expect("parses");
        assert_eq!(a.farmd, None, "CLI escape hatch wins");
        let a = parse_env(&[], None, Some("127.0.0.1:7777"), None).expect("parses");
        assert_eq!(a.farmd, Some(Endpoint::Tcp("127.0.0.1:7777".to_owned())), "env applies");
        let a =
            parse_env(&["--farmd", "unix:/s"], None, Some("127.0.0.1:1"), None).expect("parses");
        assert_eq!(a.farmd, Some(Endpoint::Unix("/s".into())), "flag beats env");
    }

    #[test]
    fn explicit_registry_none_beats_the_environment() {
        let a = parse_env(&["--registry", "none"], None, None, Some("/srv/reg")).expect("parses");
        assert_eq!(a.registry, None, "CLI escape hatch wins");
        let a = parse_env(&[], None, None, Some("/srv/reg")).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Dir("/srv/reg".into())), "env applies");
        let a = parse_env(&["--registry=/cli/reg"], None, None, Some("/srv/reg")).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Dir("/cli/reg".into())), "flag beats env");
        // Served endpoints ride the same env-vs-flag path as directories.
        let a = parse_env(&[], None, None, Some("tcp:10.0.0.1:7777")).expect("parses");
        assert_eq!(a.registry, Some(Endpoint::Tcp("10.0.0.1:7777".to_owned())), "env applies");
    }

    #[test]
    fn warm_tuning_round_trips_through_a_registry() {
        use petal_apps::blackscholes::BlackScholes;
        let dir = std::env::temp_dir().join(format!("petal-bench-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bench = BlackScholes::new(50_000);
        let machine = MachineProfile::desktop();
        let store = petal_registry::DirStore::open(&dir).expect("open");
        assert!(
            registry_warm_start(&store, &machine, &bench).is_none(),
            "empty registry yields no warm start"
        );
        let settings = TunerSettings {
            farm: petal_tuner::FarmSettings::sequential(),
            ..TunerSettings::smoke()
        };
        let tuned = petal_tuner::Autotuner::new(&bench, &machine, settings).run();
        store_tuned(&store, &bench, &machine, &tuned, "unit-test");
        let ws = registry_warm_start(&store, &machine, &bench).expect("stored entry found");
        assert_eq!(ws.config, tuned.config);
        assert_eq!(ws.source, "registry:exact:Desktop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
