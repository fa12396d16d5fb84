//! Run every experiment in sequence (respects `SPINNAKER_QUICK`).

use std::process::Command;

fn main() {
    let bins = [
        "fig1", "fig8", "fig9", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19", "fig20", "fig21", "tab1",
    ];
    for bin in bins {
        println!("\n################ {bin} ################");
        let status = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .status()
            .expect("spawn experiment binary");
        assert!(status.success(), "{bin} failed");
    }
}
