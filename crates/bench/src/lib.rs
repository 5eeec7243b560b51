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

use petal_apps::cli::{exit_usage, Flags};
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

/// The harness command line (README.md, *Command lines*): every flag the
/// `fig*` binaries and `ablation_ircache` take, plus their positionals.
/// Only a harness that stores its tunes takes `--registry`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// `--full`: run at the paper's input sizes.
    pub full: bool,
    /// `--shards N` (or `PETAL_SHARDS=N`): evaluate on `N` `petal-shard`
    /// worker processes, found beside the binary or at
    /// `PETAL_SHARD_BIN`; 0 stays in-process.
    pub shards: usize,
    /// `--farmd <endpoint>` (or `PETAL_FARMD`): evaluate against the
    /// `petal-farmd` dispatcher at `host:port`, `tcp:host:port` or
    /// `unix:<path>`, or the first that answers of a comma-separated
    /// list. Wins over `--shards`; `none` forces local evaluation.
    pub farmd: Option<Endpoint>,
    /// `--registry <endpoint>` (or `PETAL_REGISTRY`): the tuned-config
    /// registry — a local directory (`dir:<path>`, or a bare path), a
    /// `petal-farmd --registry` service (`tcp:host:port` /
    /// `unix:<path>`), or a fallback list of those; `none` forces a cold
    /// run. `fig7_migration` stores its tunes there and warm-starts
    /// re-tuning from it (its repair curves); a harness that does not
    /// store refuses the flag and never reads the variable.
    pub registry: Option<Endpoint>,
    /// Everything else, in order (e.g. `fig7_migration`'s name filter).
    pub positionals: Vec<String>,
}

impl HarnessArgs {
    /// Take the harness flags out of `flags` — `--registry` only when
    /// `registry` says the harness stores its tunes — leaving at most
    /// `positionals` other arguments. Malformed values are a loud error,
    /// never a silent default.
    ///
    /// # Errors
    /// A human-readable message for a missing or non-integer `--shards`
    /// value, a missing or malformed `--farmd` / `--registry` endpoint,
    /// an unknown flag (`--registry` included, when not taken) or a
    /// positional too many.
    pub fn parse(mut flags: Flags, positionals: usize, registry: bool) -> Result<Self, String> {
        let shards = match flags.value_or_env("--shards", "PETAL_SHARDS")? {
            Some(raw) => raw.parse().map_err(|_| {
                format!("bad shard count `{raw}`; expected `--shards <N>` (or PETAL_SHARDS=<N>)")
            })?,
            None => 0,
        };
        // Both endpoint flags share the one `Endpoint` grammar; `none`
        // (`Endpoint::Disabled`) is the escape hatch back to local
        // operation when PETAL_FARMD / PETAL_REGISTRY are exported.
        let farmd = match flags.value_or_env("--farmd", "PETAL_FARMD")? {
            None => None,
            Some(raw) => match Endpoint::parse(&raw)? {
                Endpoint::Disabled => None,
                Endpoint::Dir(d) => {
                    return Err(format!(
                        "--farmd needs a dispatcher socket, not the directory `{}`",
                        d.display()
                    ))
                }
                Endpoint::Fallback(elements)
                    if elements.iter().any(|e| matches!(e, Endpoint::Dir(_))) =>
                {
                    return Err(format!(
                        "--farmd needs dispatcher sockets; the list `{raw}` contains a directory"
                    ))
                }
                e => Some(e),
            },
        };
        let raw = if registry { flags.value_or_env("--registry", "PETAL_REGISTRY")? } else { None };
        let registry = match raw {
            None => None,
            Some(raw) => match Endpoint::parse_store(&raw)? {
                Endpoint::Disabled => None,
                e => Some(e),
            },
        };
        let full = flags.flag("--full");
        let positionals = flags.finish(positionals)?;
        Ok(HarnessArgs { full, shards, farmd, registry, positionals })
    }

    /// The process's command line, [parsed](Self::parse), whose
    /// positionals are named `positionals` in the usage `prog` exits 2
    /// with when it is refused.
    #[must_use]
    pub fn from_env(prog: &str, positionals: &[&str], registry: bool) -> Self {
        Self::parse(Flags::from_env(), positionals.len(), registry).unwrap_or_else(|e| {
            let names: String = positionals.iter().map(|p| format!(" [{p}]")).collect();
            let (flag, var) =
                if registry { (" [--registry <endpoint>]", ", PETAL_REGISTRY") } else { ("", "") };
            let usage = format!(
                "usage: {prog} [--full] [--shards <N>] [--farmd <endpoint>]{flag}{names}\n\
                 (environment: PETAL_SHARDS, PETAL_FARMD{var}; a flag beats it)"
            );
            exit_usage(prog, &e, &usage)
        })
    }

    /// The farm these arguments name: a remote dispatcher for `--farmd`,
    /// `--shards N` worker processes, otherwise one thread per hardware
    /// thread.
    #[must_use]
    pub fn farm_settings(&self) -> petal_farm::FarmSettings {
        if let Some(endpoint) = &self.farmd {
            return petal_farm::FarmSettings::remote(endpoint.to_string());
        }
        match self.shards {
            0 => petal_farm::FarmSettings::host_parallel(),
            n => petal_farm::FarmSettings::sharded(n),
        }
    }

    /// The harness search ([`tuner_settings_on`]) on [`Self::farm_settings`].
    #[must_use]
    pub fn tuner_settings(&self) -> TunerSettings {
        tuner_settings_on(self.farm_settings())
    }

    /// The store `--registry` names, opened, or `None` with a stderr
    /// warning when it cannot be (the registry is an optimization — an
    /// unreachable one must not kill a harness run).
    #[must_use]
    pub fn registry_store(&self) -> Option<Box<dyn ConfigStore>> {
        match petal_registry::open(self.registry.as_ref()?) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: {e}");
                None
            }
        }
    }
}

/// The mode flag of a `bench_*` binary: at most one of `modes`, or exit 2
/// with `prog`'s `usage` before anything is measured.
#[must_use]
pub fn mode_flag(prog: &str, usage: &str, modes: &[&'static str]) -> Option<&'static str> {
    let mut flags = Flags::from_env();
    let given: Vec<&'static str> = modes.iter().copied().filter(|m| flags.flag(m)).collect();
    let checked = flags.finish(0).and_then(|_| match given[..] {
        [] => Ok(None),
        [mode] => Ok(Some(mode)),
        _ => Err(format!("{} exclude each other", given.join(" and "))),
    });
    checked.unwrap_or_else(|e| exit_usage(prog, &e, usage))
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
        parse_env(args, None, None, None)
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
        let env = [("PETAL_SHARDS", shards), ("PETAL_FARMD", farmd), ("PETAL_REGISTRY", registry)]
            .map(|(var, value)| (var, value.map(str::to_owned)));
        let env = move |var: &str| env.iter().find(|(v, _)| *v == var).and_then(|(_, x)| x.clone());
        HarnessArgs::parse(Flags::new(args.iter().map(|s| (*s).to_owned()), env), 1, true)
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
    fn a_harness_that_stores_nothing_refuses_registry_and_never_reads_the_variable() {
        let env = |var: &str| (var == "PETAL_REGISTRY").then(|| "tcp:nohost".to_owned());
        let parse = |args: &[&str]| {
            HarnessArgs::parse(Flags::new(args.iter().map(|s| (*s).to_owned()), env), 0, false)
        };
        for args in [&["--registry", "/tmp/reg"][..], &["--registry=none"]] {
            let e = parse(args).expect_err("--registry is not this harness's flag");
            assert!(e.contains("unknown flag `--registry"), "{e}");
        }
        let a = parse(&["--full"]).expect("a malformed PETAL_REGISTRY is not read");
        assert_eq!(a.registry, None);
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
