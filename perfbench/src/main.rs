//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as one JSON line — the
//! end-to-end metrics untraced, the per-layer ledger traced. Exits 1 when
//! the oracle finds a wrong output, 2 on a bad command line.

use std::process::ExitCode;

use perfbench::run::{self, alloc};
use perfbench::{Kind, Scale};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("no workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t} is not 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <stream|scatter|serving> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::FULL;
    let report = if args.trace {
        run::traced(args.kind, args.seed, args.seconds, &scale)
    } else {
        run::untraced(args.kind, args.seed, args.seconds, &scale)
    };
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!("perfbench: state digest {:#018x}", report.digest);
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
