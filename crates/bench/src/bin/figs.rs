//! `figs [--only <id>[,<id>...]]`: run the paper's figures and tables,
//! all of them or the listed ones. `SPINNAKER_QUICK=1` (any value but
//! `0`) runs the faster, lower-resolution pass.

use std::process::ExitCode;

fn main() -> ExitCode {
    let quick = std::env::var("SPINNAKER_QUICK").is_ok_and(|v| v != "0");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = spinnaker_bench::select(&args).and_then(|figures| {
        figures.into_iter().try_for_each(|(id, figure)| {
            println!("\n################ {id} ################");
            figure(quick).map_err(|e| format!("{id}: {e}"))
        })
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("figs: {e}");
            ExitCode::FAILURE
        }
    }
}
