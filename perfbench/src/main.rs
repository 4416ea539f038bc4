//! The repository's benchmark: the paper-default co-design flow and the
//! job server, driven from outside through their public APIs.
//!
//! ```text
//! perfbench --workload <flow_paper|serve_jobs|serve_control>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-reference <seeds>
//! ```
//!
//! `--trace 0` runs the named workload untraced and reports the
//! end-to-end metrics. `--trace 1` runs a traced pass of every workload
//! (the named one gets half the time, the others a quarter each) and
//! reports the per-layer metrics. Either way the run checks the
//! outputs, prints a metric table to stderr and a JSON result as the
//! last line of stdout, and exits non-zero if any check failed. See
//! README.md for the workloads and metrics.

mod control;
mod flow;
mod jobs;
mod reference;
mod report;
mod stats;
mod sys;
mod wire;

use report::Report;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FlowPaper,
    ServeJobs,
    ServeControl,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FlowPaper,
        Workload::ServeJobs,
        Workload::ServeControl,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FlowPaper => "flow_paper",
            Workload::ServeJobs => "serve_jobs",
            Workload::ServeControl => "serve_control",
        }
    }

    fn run(self, seed: u64, seconds: f64, traced: bool, report: &mut Report) {
        // Set-up is timed this many times and the median reported;
        // a traced pass does not report set-up, so it sets up once.
        let setup_reps = if traced { 1 } else { 5 };
        match self {
            Workload::FlowPaper => flow::run(seed, seconds, traced, setup_reps, report),
            Workload::ServeJobs => jobs::run(seed, seconds, traced, setup_reps, report),
            Workload::ServeControl => control::run(seed, seconds, traced, setup_reps, report),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    RecordReference(u64),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    if let Some(seeds) = value("--record-reference")? {
        let seeds = seeds
            .parse()
            .map_err(|_| "--record-reference takes a count")?;
        return Ok(Command::RecordReference(seeds));
    }
    let workload = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .unwrap_or("0")
        .parse()
        .map_err(|_| "--seed takes a non-negative integer")?;
    let seconds: f64 = value("--seconds")?
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Run(args)) => args,
        Ok(Command::RecordReference(seeds)) => {
            print!("{}", flow::record_reference(seeds));
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::provenance()
    );
    let mut report = Report::default();
    if args.trace {
        for workload in Workload::ALL {
            let share = if workload == args.workload { 0.5 } else { 0.25 };
            workload.run(args.seed, args.seconds * share, true, &mut report);
        }
    } else {
        args.workload
            .run(args.seed, args.seconds, false, &mut report);
        report.put_exact("peak_rss_mb", sys::peak_rss_mb());
    }
    report.finish(args.trace)
}
