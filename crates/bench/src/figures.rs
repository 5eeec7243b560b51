//! Fig. 6 and Fig. 7 as one table, and the bands the paper's claims hold
//! it to.
//!
//! [`table`] tunes each (benchmark, machine) pair once: those tunes are
//! Fig. 6. It then runs every tuned config and every baseline on every
//! machine through [`Benchmark::run_with_config`], so all cells share the
//! one `Executor` seed that call uses, and divides each cell by the same
//! re-run of the column machine's own tune. Every diagonal cell is
//! therefore exactly 1.0. (The tuner's `time_secs` is the luckiest engine
//! seed its winner drew, so it is never a denominator here.)
//!
//! [`check`] holds a table to what this simulator reproduces of the
//! paper at harness sizes; PAPER.md lists the deviations it does not
//! assert.

use std::ops::RangeInclusive;

use petal_apps::Benchmark;
use petal_core::Config;
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, Tuned, TunerSettings};

use crate::baselines;

/// One benchmark's Fig. 6 column and Fig. 7 matrix.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The benchmark's name.
    pub bench: String,
    /// Its input size, at which Fig. 6 reads the selectors.
    pub size: u64,
    /// The machines' codenames: the columns, in the order of the first rows.
    pub machines: Vec<String>,
    /// Each machine's native tune, in `machines` order (Fig. 6).
    pub tuned: Vec<Tuned>,
    /// Each machine's own tune re-run there: every cell's denominator.
    pub native_secs: Vec<f64>,
    /// One row per machine's tuned config, then the baseline, if any.
    pub rows: Vec<Row>,
}

/// One Fig. 7 row: a cell per machine, the config's virtual time over
/// the native re-run; `None` where the config cannot run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `"<Machine> Config"`, or the baseline's label.
    pub label: String,
    /// One cell per column machine.
    pub cells: Vec<Option<f64>>,
}

/// Tune every benchmark on every machine once and price every tuned
/// config and baseline on every machine.
///
/// # Panics
/// If a machine's own tuned config fails to run on that machine.
#[must_use]
pub fn table(
    benches: &[Box<dyn Benchmark>],
    machines: &[MachineProfile],
    settings: &TunerSettings,
) -> Vec<Figure> {
    benches.iter().map(|b| figure(&**b, machines, settings)).collect()
}

fn figure(bench: &dyn Benchmark, machines: &[MachineProfile], settings: &TunerSettings) -> Figure {
    let tuned: Vec<Tuned> =
        machines.iter().map(|m| Autotuner::new(bench, m, settings.clone()).run()).collect();
    let row = |label: String, config: &dyn Fn(&MachineProfile) -> Option<Config>| Row {
        label,
        cells: machines
            .iter()
            .map(|m| bench.run_with_config(m, &config(m)?).ok().map(|r| r.virtual_time_secs()))
            .collect(),
    };
    let mut rows: Vec<Row> = machines
        .iter()
        .zip(&tuned)
        .map(|(m, t)| row(format!("{} Config", m.codename), &|_| Some(t.config.clone())))
        .collect();
    if let Some((label, _)) = machines.first().and_then(|m| baselines::baseline(bench, m)) {
        rows.push(row(label.to_owned(), &|m| baselines::baseline(bench, m)?.1));
    }
    let native_secs: Vec<f64> = (0..machines.len())
        .map(|i| rows[i].cells[i].expect("a tune runs where it was tuned"))
        .collect();
    for cell in rows.iter_mut().flat_map(|r| r.cells.iter_mut().zip(&native_secs)) {
        *cell.0 = cell.0.map(|secs| secs / cell.1);
    }
    Figure {
        bench: bench.name().to_owned(),
        size: bench.input_size(),
        machines: machines.iter().map(|m| m.codename.clone()).collect(),
        tuned,
        native_secs,
        rows,
    }
}

/// A printed cell: `1.53x`, or `n/a` where the config cannot run.
#[must_use]
pub fn cell(c: Option<f64>) -> String {
    c.map_or_else(|| "n/a".to_owned(), |c| format!("{c:.2}x"))
}

/// Where a Fig. 7 cell must lie.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// The row's config is at least this many times slower.
    AtLeast(f64),
    /// The row's config cannot run on this machine.
    Absent,
}

use Band::{Absent, AtLeast};

/// (benchmark, row, machine, band): the asserted Fig. 7 cells. Each bound
/// sits well below the value measured at harness sizes, leaving room for
/// a change to the engine's stealing model without re-pinning it.
const CELLS: &[(&str, &str, &str, Band)] = &[
    ("Black-Scholes", "CPU-only Config", "Desktop", AtLeast(2.0)),
    ("Black-Scholes", "CPU-only Config", "Server", AtLeast(2.0)),
    ("Black-Scholes", "CPU-only Config", "Laptop", AtLeast(2.0)),
    ("SeparableConvolution", "Hand-coded OpenCL", "Desktop", AtLeast(1.2)),
    ("SeparableConvolution", "Hand-coded OpenCL", "Server", Absent),
    ("SeparableConvolution", "Hand-coded OpenCL", "Laptop", AtLeast(1.2)),
    ("Sort", "GPU-only Config", "Desktop", AtLeast(10.0)),
    ("Sort", "GPU-only Config", "Server", AtLeast(10.0)),
    ("Sort", "GPU-only Config", "Laptop", AtLeast(10.0)),
    ("Strassen", "Laptop Config", "Desktop", AtLeast(2.0)),
    ("Strassen", "Laptop Config", "Server", AtLeast(5.0)),
    ("Strassen", "Hand-coded OpenCL", "Desktop", AtLeast(1.1)),
    ("Strassen", "Hand-coded OpenCL", "Server", Absent),
    ("Strassen", "Hand-coded OpenCL", "Laptop", AtLeast(1.1)),
];

/// (benchmark, machine, selector, algorithm, GPU eighths): the asserted
/// Fig. 6 placements, read at the benchmark's input size.
const PLACEMENTS: &[(&str, &str, &str, usize, RangeInclusive<i64>)] = &[
    // All on the GPU.
    ("Black-Scholes", "Desktop", "blackscholes", 1, 8..=8),
    // A concurrent CPU/GPU split (the paper's is 25%/75%).
    ("Black-Scholes", "Laptop", "blackscholes", 1, 1..=7),
];

/// Hold every figure of `table` to its bands: each diagonal cell is
/// exactly 1.0, each asserted Fig. 7 cell is in its band, and each
/// asserted Fig. 6 placement holds.
///
/// # Errors
/// One message per violation, naming the benchmark, row and column.
pub fn check(table: &[Figure]) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    for f in table {
        let mut fail = |what: String| errors.push(format!("{}: {what}", f.bench));
        let column = |machine: &str| f.machines.iter().position(|m| m == machine);
        for (i, (machine, row)) in f.machines.iter().zip(&f.rows).enumerate() {
            if row.cells[i] != Some(1.0) {
                fail(format!(
                    "{} on {machine} is {:?}, not its native run",
                    row.label, row.cells[i]
                ));
            }
        }
        for &(_, label, machine, band) in CELLS.iter().filter(|c| c.0 == f.bench) {
            let row = f.rows.iter().find(|r| r.label == label);
            let Some(c) = row.zip(column(machine)).map(|(r, mi)| r.cells[mi]) else {
                fail(format!("{label} on {machine}: no such cell"));
                continue;
            };
            let holds = match (band, c) {
                (AtLeast(bound), Some(c)) => c >= bound,
                (Absent, None) => true,
                _ => false,
            };
            if !holds {
                fail(format!("{label} on {machine} is {}, outside {band:?}", cell(c)));
            }
        }
        for (_, machine, selector, alg, eighths) in PLACEMENTS.iter().filter(|p| p.0 == f.bench) {
            let Some(config) = column(machine).map(|mi| &f.tuned[mi].config) else {
                fail(format!("Fig. 6 on {machine}: no such column"));
                continue;
            };
            let got = config.select(selector, f.size);
            let ratio = config.tunable_or(&format!("{selector}.gpu_ratio"), 8);
            if got != *alg || !eighths.contains(&ratio) {
                fail(format!(
                    "Fig. 6 on {machine}: {selector} is alg {got} at {ratio}/8, not alg {alg} at \
                     {eighths:?}/8"
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_tuner::TuningStats;

    /// A Strassen figure on the paper's machines whose cells all sit in
    /// their bands.
    fn strassen() -> Figure {
        let machines = ["Desktop", "Server", "Laptop"].map(String::from).to_vec();
        let row = |label: &str, cells: [Option<f64>; 3]| Row {
            label: label.to_owned(),
            cells: cells.to_vec(),
        };
        Figure {
            bench: "Strassen".to_owned(),
            size: 256,
            tuned: machines
                .iter()
                .map(|_| Tuned {
                    config: Config::default(),
                    time_secs: 1.0,
                    stats: TuningStats::default(),
                })
                .collect(),
            machines,
            native_secs: vec![1.0; 3],
            rows: vec![
                row("Desktop Config", [Some(1.0), Some(1.5), Some(1.5)]),
                row("Server Config", [Some(1.5), Some(1.0), Some(1.5)]),
                row("Laptop Config", [Some(3.5), Some(12.0), Some(1.0)]),
                row("Hand-coded OpenCL", [Some(1.25), None, Some(1.5)]),
            ],
        }
    }

    #[test]
    fn a_band_or_a_diagonal_cell_can_fail_and_is_named() {
        assert_eq!(check(&[strassen()]), Ok(()));
        let mut f = strassen();
        f.rows[2].cells[0] = Some(1.9); // Laptop Config on Desktop: below 2x
        f.rows[1].cells[1] = Some(0.93); // the Server diagonal
        let errors = check(&[f]).expect_err("two cells are out of band");
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(
            errors.iter().any(|e| e.starts_with("Strassen: Laptop Config on Desktop is 1.90x")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.starts_with("Strassen: Server Config on Server is Some(0.93)")),
            "{errors:?}"
        );
        let mut f = strassen();
        f.rows[3].cells[1] = Some(2.0);
        let errors = check(&[f]).expect_err("the hand-coded kernel cannot run on Server");
        assert_eq!(errors, ["Strassen: Hand-coded OpenCL on Server is 2.00x, outside Absent"]);
    }

    #[test]
    fn a_fig6_placement_can_fail_and_is_named() {
        use petal_core::{Selector, Tunable};
        let mut f = strassen();
        f.bench = "Black-Scholes".to_owned();
        for (t, eighths) in f.tuned.iter_mut().zip([8, 4, 8]) {
            t.config.set_selector("blackscholes", Selector::constant(1, 2));
            t.config.set_tunable("blackscholes.gpu_ratio", Tunable::new(eighths, 0, 8));
        }
        let errors = check(&[f]).expect_err("the Laptop runs everything on the GPU");
        let laptop: Vec<_> = errors.iter().filter(|e| e.contains("Fig. 6")).collect();
        assert_eq!(
            laptop,
            ["Black-Scholes: Fig. 6 on Laptop: blackscholes is alg 1 at 8/8, not alg 1 at 1..=7/8"]
        );
    }
}
