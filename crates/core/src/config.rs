//! Choice configurations: selectors and tunables (§5.1, §5.3).
//!
//! A [`Config`] is the product of autotuning — the paper's *choice
//! configuration file*. It contains:
//!
//! * **Selectors** — per call-site algorithm choices as a piecewise-constant
//!   function of input size: cutoffs `C = [c₁ … c_{m−1}]` and algorithms
//!   `A = [α₁ … α_m]`, with `SELECT(input, s) = αᵢ` such that
//!   `cᵢ > size(input) ≥ cᵢ₋₁` (c₀ = 0, c_m = ∞). Poly-algorithms arise
//!   from selectors consulted at recursive call sites.
//! * **Tunables** — bounded integers: OpenCL local work sizes, GPU/CPU work
//!   ratios in 1/8 steps, sequential/parallel cutoffs, split sizes.
//!
//! Configs round-trip through a small text format (`Display`/`FromStr`), the
//! stand-in for the on-disk configuration file.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Maximum selector levels — "every transform provides 12 levels of
/// algorithmic choices for 12 different ranges of input sizes" (§5.3).
pub const MAX_SELECTOR_LEVELS: usize = 12;

/// GPU/CPU workload ratios move in increments of 1/8 (§4.3, §5.3).
pub const RATIO_DENOMINATOR: i64 = 8;

/// A piecewise-constant algorithm selector over input sizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selector {
    /// Strictly increasing input-size cutoffs (`m−1` entries).
    cutoffs: Vec<u64>,
    /// Algorithm index per interval (`m` entries).
    algs: Vec<usize>,
    /// Number of algorithms choosable at this site.
    num_algs: usize,
}

impl Selector {
    /// A selector that always picks `alg` out of `num_algs` choices.
    ///
    /// # Panics
    /// Panics if `alg >= num_algs` or `num_algs == 0`.
    #[must_use]
    pub fn constant(alg: usize, num_algs: usize) -> Self {
        assert!(num_algs > 0 && alg < num_algs, "algorithm index out of range");
        Selector { cutoffs: Vec::new(), algs: vec![alg], num_algs }
    }

    /// A multi-level selector.
    ///
    /// # Panics
    /// Panics unless `algs.len() == cutoffs.len() + 1`, cutoffs strictly
    /// increase, every algorithm index is `< num_algs`, and the level count
    /// does not exceed [`MAX_SELECTOR_LEVELS`].
    #[must_use]
    pub fn new(cutoffs: Vec<u64>, algs: Vec<usize>, num_algs: usize) -> Self {
        assert_eq!(algs.len(), cutoffs.len() + 1, "need one algorithm per interval");
        assert!(algs.len() <= MAX_SELECTOR_LEVELS, "too many selector levels");
        assert!(cutoffs.windows(2).all(|w| w[0] < w[1]), "cutoffs must strictly increase");
        assert!(algs.iter().all(|&a| a < num_algs), "algorithm index out of range");
        Selector { cutoffs, algs, num_algs }
    }

    /// The paper's `SELECT`: the algorithm for `size`.
    #[must_use]
    pub fn select(&self, size: u64) -> usize {
        let idx = self.cutoffs.partition_point(|&c| c <= size);
        self.algs[idx]
    }

    /// Number of algorithms choosable at this site.
    #[must_use]
    pub fn num_algs(&self) -> usize {
        self.num_algs
    }

    /// Levels (intervals) in this selector.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.algs.len()
    }

    /// Cutoffs (shared reference for mutation-by-rebuild in the tuner).
    #[must_use]
    pub fn cutoffs(&self) -> &[u64] {
        &self.cutoffs
    }

    /// Per-interval algorithms.
    #[must_use]
    pub fn algs(&self) -> &[usize] {
        &self.algs
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // "alg0" or "alg0 <c1 alg1 <c2 alg2"
        write!(f, "{}", self.algs[0])?;
        for (c, a) in self.cutoffs.iter().zip(&self.algs[1..]) {
            write!(f, " <{c} {a}")?;
        }
        write!(f, " of {}", self.num_algs)
    }
}

/// A bounded integer tunable parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tunable {
    /// Current value, in `[min, max]`.
    pub value: i64,
    /// Inclusive lower bound.
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
}

impl Tunable {
    /// New tunable clamped into range.
    ///
    /// # Panics
    /// Panics when `min > max`.
    #[must_use]
    pub fn new(value: i64, min: i64, max: i64) -> Self {
        assert!(min <= max, "empty tunable range");
        Tunable { value: value.clamp(min, max), min, max }
    }

    /// Number of representable values.
    #[must_use]
    pub fn cardinality(&self) -> u64 {
        (self.max - self.min + 1) as u64
    }
}

/// A full program configuration: what the autotuner evolves and what the
/// executor consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Config {
    selectors: BTreeMap<String, Selector>,
    tunables: BTreeMap<String, Tunable>,
}

impl Config {
    /// Empty configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) a selector.
    pub fn set_selector(&mut self, name: &str, s: Selector) {
        self.selectors.insert(name.to_owned(), s);
    }

    /// Install (or replace) a tunable.
    pub fn set_tunable(&mut self, name: &str, t: Tunable) {
        self.tunables.insert(name.to_owned(), t);
    }

    /// Look up a selector.
    #[must_use]
    pub fn selector(&self, name: &str) -> Option<&Selector> {
        self.selectors.get(name)
    }

    /// Look up a tunable.
    #[must_use]
    pub fn tunable(&self, name: &str) -> Option<&Tunable> {
        self.tunables.get(name)
    }

    /// `SELECT` on the named selector; 0 when absent (the first algorithm
    /// is always the safe default).
    #[must_use]
    pub fn select(&self, name: &str, size: u64) -> usize {
        self.selectors.get(name).map_or(0, |s| s.select(size))
    }

    /// Tunable value with a default when absent.
    #[must_use]
    pub fn tunable_or(&self, name: &str, default: i64) -> i64 {
        self.tunables.get(name).map_or(default, |t| t.value)
    }

    /// Iterate selectors (name-sorted; deterministic).
    pub fn selectors(&self) -> impl Iterator<Item = (&str, &Selector)> {
        self.selectors.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate tunables (name-sorted; deterministic).
    pub fn tunables(&self) -> impl Iterator<Item = (&str, &Tunable)> {
        self.tunables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Mutable access for the tuner's mutators.
    pub fn selectors_mut(&mut self) -> &mut BTreeMap<String, Selector> {
        &mut self.selectors
    }

    /// Mutable access for the tuner's mutators.
    pub fn tunables_mut(&mut self) -> &mut BTreeMap<String, Tunable> {
        &mut self.tunables
    }

    /// log₁₀ of the size of the search space this configuration lives in
    /// (the "# Possible Configs" column of Fig. 8). Selectors contribute
    /// `(num_algs · cutoff_granularity)^levels`; tunables their cardinality.
    #[must_use]
    pub fn log10_space_size(&self, max_input_size: u64) -> f64 {
        let mut log10 = 0.0;
        for s in self.selectors.values() {
            let per_level = (s.num_algs() as f64) * (max_input_size.max(2) as f64);
            log10 += (per_level.log10()) * MAX_SELECTOR_LEVELS as f64;
        }
        for t in self.tunables.values() {
            log10 += (t.cardinality() as f64).log10();
        }
        log10
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, s) in &self.selectors {
            writeln!(f, "selector {name} = {s}")?;
        }
        for (name, t) in &self.tunables {
            writeln!(f, "tunable {name} = {} in {}..={}", t.value, t.min, t.max)?;
        }
        Ok(())
    }
}

/// Error parsing a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for Config {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut cfg = Config::new();
        for (i, raw) in s.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| ParseConfigError { line: i + 1, message: message.into() };
            if let Some(rest) = line.strip_prefix("selector ") {
                let (name, spec) = rest.split_once('=').ok_or_else(|| err("missing '='"))?;
                let spec = spec.trim();
                let (body, num) = spec.rsplit_once(" of ").ok_or_else(|| err("missing 'of N'"))?;
                let num_algs: usize = num.trim().parse().map_err(|_| err("bad algorithm count"))?;
                let mut toks = body.split_whitespace();
                let first: usize = toks
                    .next()
                    .ok_or_else(|| err("empty selector"))?
                    .parse()
                    .map_err(|_| err("bad algorithm index"))?;
                let mut cutoffs = Vec::new();
                let mut algs = vec![first];
                while let Some(tok) = toks.next() {
                    let c = tok
                        .strip_prefix('<')
                        .ok_or_else(|| err("expected '<cutoff'"))?
                        .parse()
                        .map_err(|_| err("bad cutoff"))?;
                    let a: usize = toks
                        .next()
                        .ok_or_else(|| err("cutoff without algorithm"))?
                        .parse()
                        .map_err(|_| err("bad algorithm index"))?;
                    cutoffs.push(c);
                    algs.push(a);
                }
                if algs.iter().any(|&a| a >= num_algs) {
                    return Err(err("algorithm index exceeds count"));
                }
                if !cutoffs.windows(2).all(|w| w[0] < w[1]) {
                    return Err(err("cutoffs must strictly increase"));
                }
                cfg.set_selector(name.trim(), Selector::new(cutoffs, algs, num_algs));
            } else if let Some(rest) = line.strip_prefix("tunable ") {
                let (name, spec) = rest.split_once('=').ok_or_else(|| err("missing '='"))?;
                let (val, range) = spec.split_once(" in ").ok_or_else(|| err("missing 'in'"))?;
                let (lo, hi) = range.split_once("..=").ok_or_else(|| err("missing '..='"))?;
                let value: i64 = val.trim().parse().map_err(|_| err("bad value"))?;
                let min: i64 = lo.trim().parse().map_err(|_| err("bad minimum"))?;
                let max: i64 = hi.trim().parse().map_err(|_| err("bad maximum"))?;
                if min > max || value < min || value > max {
                    return Err(err("value outside range"));
                }
                cfg.set_tunable(name.trim(), Tunable::new(value, min, max));
            } else {
                return Err(err("expected 'selector' or 'tunable'"));
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_matches_paper_semantics() {
        // SELECT(input, s) = α_i s.t. c_i > size ≥ c_{i−1}
        let s = Selector::new(vec![100, 10_000], vec![2, 1, 0], 3);
        assert_eq!(s.select(0), 2);
        assert_eq!(s.select(99), 2);
        assert_eq!(s.select(100), 1);
        assert_eq!(s.select(9_999), 1);
        assert_eq!(s.select(10_000), 0);
        assert_eq!(s.select(u64::MAX), 0);
    }

    #[test]
    fn constant_selector() {
        let s = Selector::constant(1, 3);
        assert_eq!(s.select(0), 1);
        assert_eq!(s.select(1 << 40), 1);
        assert_eq!(s.levels(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_increasing_cutoffs_panic() {
        let _ = Selector::new(vec![5, 5], vec![0, 1, 2], 3);
    }

    #[test]
    fn config_roundtrips_through_text() {
        let mut cfg = Config::new();
        cfg.set_selector("sort", Selector::new(vec![341, 64_294, 174_762], vec![3, 1, 2, 0], 7));
        cfg.set_selector("convolve", Selector::constant(2, 3));
        cfg.set_tunable("convolve.local_size", Tunable::new(128, 1, 1024));
        cfg.set_tunable("convolve.gpu_ratio", Tunable::new(8, 0, 8));
        let text = cfg.to_string();
        let parsed: Config = text.parse().expect("roundtrip parse");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = "selector s = 0 of 1\nnonsense".parse::<Config>().unwrap_err();
        assert_eq!(err.line, 2);
        let err = "selector s = 5 of 3".parse::<Config>().unwrap_err();
        assert!(err.message.contains("exceeds"));
        let err = "tunable t = 9 in 0..=8".parse::<Config>().unwrap_err();
        assert!(err.message.contains("range"));
    }

    #[test]
    fn defaults_for_missing_entries() {
        let cfg = Config::new();
        assert_eq!(cfg.select("anything", 42), 0);
        assert_eq!(cfg.tunable_or("missing", 7), 7);
    }

    #[test]
    fn space_size_grows_with_choices() {
        let mut small = Config::new();
        small.set_selector("t", Selector::constant(0, 2));
        let mut big = small.clone();
        big.set_tunable("x", Tunable::new(0, 0, 1023));
        let n = 1 << 20;
        assert!(big.log10_space_size(n) > small.log10_space_size(n));
        // A benchmark-sized space should be astronomically large (Fig. 8
        // reports 10^130 .. 10^2435).
        assert!(small.log10_space_size(n) > 50.0);
    }
}
