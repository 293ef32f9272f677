//! Table 4 reproduction: the simulator parameters actually in use —
//! printed in the paper's layout, from the canonical `PaperParams`.

use groupsafe_workload::PaperParams;

fn main() {
    let p = PaperParams::default();
    println!("Table 4 — simulator parameters:\n");
    print!("{}", p.render_table());
    println!("\nExtensions beyond Table 4 (EXPERIMENTS.md, \"Substitutions and extensions\"):");
    println!(
        "{:<50} {:.0}% of accesses to {:.0}% of items",
        "Hotspot (abort-rate calibration)",
        p.hot_access_fraction * 100.0,
        p.hot_set_fraction * 100.0
    );
}
