//! CLI for `sqo-analyze`.
//!
//! ```text
//! cargo run -p sqo-analyze                 # report findings, exit 0
//! cargo run -p sqo-analyze -- --deny       # exit 1 on any finding (CI)
//! cargo run -p sqo-analyze -- --json out.json
//! cargo run -p sqo-analyze -- --inventory  # ordering inventory (markdown)
//! cargo run -p sqo-analyze -- --root /path/to/workspace
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    deny: bool,
    json: Option<PathBuf>,
    inventory: bool,
}

fn parse_args() -> Result<Args, String> {
    // Default to the workspace root whether invoked via `cargo run -p`
    // (manifest dir is crates/analyze) or as a bare binary from the root.
    let default_root = match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(p)
        }
        None => PathBuf::from("."),
    };
    let mut args = Args { root: default_root, deny: false, json: None, inventory: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny" => args.deny = true,
            "--inventory" => args.inventory = true,
            "--json" => {
                args.json = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--json needs a path".to_string())?,
                ));
            }
            "--root" => {
                args.root =
                    PathBuf::from(it.next().ok_or_else(|| "--root needs a path".to_string())?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: sqo-analyze [--deny] [--json <path>] [--inventory] [--root <dir>]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match sqo_analyze::run(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sqo-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("sqo-analyze: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.inventory {
        print!("{}", report.inventory_markdown());
    }

    for finding in &report.findings {
        println!("{finding}");
    }
    let justified = report
        .ordering_inventory
        .iter()
        .filter(|s| !s.in_test && s.justification.is_some())
        .count();
    let non_test = report.ordering_inventory.iter().filter(|s| !s.in_test).count();
    println!(
        "sqo-analyze: {} files, {} findings, {}/{} non-test ordering sites justified",
        report.files_scanned,
        report.findings.len(),
        justified,
        non_test,
    );

    if args.deny && !report.findings.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
