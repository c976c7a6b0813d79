//! The `rmrls` command-line entry point; all logic lives in the library
//! layer (`rmrls_cli`) so it can be unit-tested.

use std::process::ExitCode;

fn main() -> ExitCode {
    let command = match rmrls_cli::parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", rmrls_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut out = String::new();
    let result = rmrls_cli::run(command, &mut out);
    print!("{out}");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
