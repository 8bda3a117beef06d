//! FlowDiff's benchmark harness. See `README.md` for the workloads, the
//! metrics and how to read the output.
//!
//! ```text
//! flowdiff-benchmark --serve-bin PATH --out DIR
//!     --workload NAME --seed N --seconds S --trace 0|1   one run, result as JSON on the last line
//!     [--seed N] [--seconds S]                          every workload, untraced then traced
//!     --agree [--runs R] [--seed N] [--seconds S]       two sets of R untraced runs per workload
//!     --manifest                                        print BENCHMARK.json
//! ```

mod calib;
mod inputs;
mod layers;
mod loadgen;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Ctx, RunResult};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agree: bool,
    runs: usize,
    ctx: Ctx,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
        agree: false,
        runs: 10,
        ctx: Ctx {
            serve_bin: PathBuf::new(),
            out: PathBuf::from("benchmark/out"),
        },
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--runs" => args.runs = number(value()?)?.max(2) as usize,
            "--agree" => args.agree = true,
            "--serve-bin" => args.ctx.serve_bin = value()?.into(),
            "--out" => args.ctx.out = value()?.into(),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload: {w}"));
        }
    }
    if !args.ctx.serve_bin.is_file() {
        return Err(format!(
            "--serve-bin {}: not a file (run benchmark/run.sh, which builds it)",
            args.ctx.serve_bin.display()
        ));
    }
    std::fs::create_dir_all(&args.ctx.out)
        .map_err(|e| format!("{}: {e}", args.ctx.out.display()))?;
    Ok(args)
}

/// The driver's result line.
fn result_json(result: &RunResult, spec: &[Metric]) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .zip(spec)
        .map(|((name, value), m)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

fn print_table(workload: &str, result: &RunResult, spec: &[Metric]) {
    println!(
        "\n== {workload}: {} ({} attempted, {} failed, failed_share {:.6})",
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    for note in &result.notes {
        println!("   {note}");
    }
    for ((name, value), m) in result.metrics.iter().zip(spec) {
        println!("   {name:<38} {value:>16.3} {:<9} {}", m.unit, m.note);
    }
}

/// Every workload once: untraced for the end-to-end metrics, then
/// traced for the per-layer ones.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in &WORKLOADS {
        for (trace, spec) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = run::run(&args.ctx, w.name, args.seed, args.seconds, trace)?;
            print_table(w.name, &result, spec);
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

/// The driver's acceptance rule, run locally: two sets of `runs`
/// untraced runs per workload (seeds `seed..seed + runs`); every
/// metric's quartile spread must stay within its bound (`setup_s`
/// excepted) and the second set's median may not be worse than the
/// first's by more than the bound.
fn run_agree(args: &Args) -> Result<bool, String> {
    let mut agreed = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
        for set in 0..2 {
            let mut columns = vec![Vec::new(); END_TO_END.len()];
            for run in 0..args.runs {
                let result = run::run(
                    &args.ctx,
                    w.name,
                    args.seed + run as u64,
                    args.seconds,
                    false,
                )?;
                agreed &= result.correct;
                for (column, (_, value)) in columns.iter_mut().zip(&result.metrics) {
                    column.push(*value);
                }
                eprintln!(
                    "{} set {set} run {run}: {}",
                    w.name,
                    result_json(&result, &END_TO_END)
                );
            }
            sets.push(columns);
        }
        println!("\n== {}", w.name);
        for (i, m) in END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let mut medians = Vec::new();
            let mut line = format!("   {:<22}", m.name);
            let mut ok = true;
            for set in &mut sets {
                let (q1, q3) = stats::quartiles(&mut set[i]);
                let median = stats::median(&mut set[i]);
                let spread = (q3 - q1) / median;
                ok &= m.name == "setup_s" || spread <= bound;
                line += &format!(
                    "  median {median:.4} q1 {q1:.4} q3 {q3:.4} n {} spread {spread:.4}",
                    set[i].len()
                );
                medians.push(median);
            }
            let worse = match m.better {
                "higher" => (medians[0] - medians[1]) / medians[0],
                _ => (medians[1] - medians[0]) / medians[0],
            };
            ok &= worse <= bound;
            println!(
                "{line}  second worse by {worse:+.4}  bound {bound}  {} {}",
                m.unit,
                if ok { "ok" } else { "DISAGREE" }
            );
            agreed &= ok;
        }
    }
    Ok(agreed)
}

fn real_main() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", spec::manifest());
            return Ok(true);
        }
        Some("--calib") => {
            println!("{}", calib::spin());
            return Ok(true);
        }
        Some("--batch-child") => {
            let paths: Vec<String> = argv.skip(1).collect();
            let [l1, l2] = paths.as_slice() else {
                return Err("--batch-child needs <l1.fcap> <l2.fcap>".into());
            };
            run::batch_child(Path::new(l1), Path::new(l2))?;
            return Ok(true);
        }
        _ => {}
    }
    let args = parse_args(argv)?;
    if args.agree {
        return run_agree(&args);
    }
    let Some(workload) = &args.workload else {
        return run_all(&args);
    };
    let result = run::run(&args.ctx, workload, args.seed, args.seconds, args.trace)?;
    for note in &result.notes {
        eprintln!("{workload}: {note}");
    }
    let spec = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", result_json(&result, spec));
    // An incorrect run is reported in the result line, not the exit code.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
