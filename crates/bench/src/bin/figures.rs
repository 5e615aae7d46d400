//! Regenerate the paper's tables and figures: `figures [ROW...]` runs the
//! named rows of `mimicnet_bench::ROWS`, or every row when none is named,
//! printing `=== <row> ===` before each. A row that fails prints
//! `FAIL <row>: <error>` on stderr; the others still run, and the exit
//! status is 1 if any failed. `SCALE=full` selects the larger sweep.

use mimicnet_bench::{Row, Scale, Scenarios, ROWS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut rows: Vec<&Row> = Vec::new();
    for name in &names {
        match ROWS.iter().find(|r| r.name == name) {
            Some(row) => rows.push(row),
            None => {
                let known: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
                eprintln!("error: no row named {name}; rows: {}", known.join(" "));
                return ExitCode::from(2);
            }
        }
    }
    if names.is_empty() {
        rows = ROWS.iter().collect();
    }
    let scale = Scale::from_env();
    let mut sc = Scenarios::new(scale);
    let mut failed = false;
    for row in rows {
        println!("=== {} ===", row.name);
        if let Err(e) = row.execute(&mut sc, scale) {
            eprintln!("FAIL {}: {e}", row.name);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
