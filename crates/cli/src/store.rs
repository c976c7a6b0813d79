//! `rmrls store`: inspect or repair a persistent circuit store.

use std::fmt::Write;

use crate::{err, CliResult, Command, Flags, StoreAction};

/// Builds `Command::Store` from the arguments after `store`: the action
/// word, then the flags.
pub fn parse(mut args: impl Iterator<Item = String>) -> CliResult<Command> {
    let action = match args.next().as_deref() {
        Some("stats") => StoreAction::Stats,
        Some("fsck") => StoreAction::Fsck,
        Some("compact") => StoreAction::Compact,
        Some(other) => {
            return Err(err(format!(
                "unknown store subcommand '{other}' (stats, fsck, compact)"
            )))
        }
        None => return Err(err("store needs a subcommand: stats, fsck, or compact")),
    };
    let flags = Flags::scan("store", args)?;
    let store = flags.required("--store", "store needs --store FILE")?;
    Ok(Command::Store { action, store })
}

/// Runs `rmrls store <action>` on the store file `store`.
pub fn run_store(action: StoreAction, store: &str, out: &mut dyn Write) -> CliResult {
    let in_store = |e: String| err(format!("{store}: {e}"));
    match action {
        StoreAction::Stats => {
            // Opening performs the full recovery pass (torn-tail
            // truncation, quarantine, re-verification), so the stats
            // describe the store as the engine would see it.
            let s = rmrls_engine::CircuitStore::open(store).map_err(in_store)?;
            writeln!(out, "{}", s.stats().to_json())?;
        }
        StoreAction::Fsck => {
            // Read-only: reports damage without modifying the file
            // (open/compact are the repair paths).
            let report = rmrls_engine::fsck(store).map_err(in_store)?;
            writeln!(out, "{}", report.to_json())?;
            if !report.clean() {
                return Err(err(format!(
                    "{store}: damage found ({} quarantined records, {} \
                     verify-rejected, {} torn tail bytes)",
                    report.quarantined.len(),
                    report.verify_rejected,
                    report.torn_tail_bytes
                )));
            }
        }
        StoreAction::Compact => {
            let mut s = rmrls_engine::CircuitStore::open(store).map_err(in_store)?;
            let stats = s.compact().map_err(in_store)?;
            writeln!(
                out,
                "compacted {store}: {} records kept, {} -> {} bytes",
                stats.records_kept, stats.bytes_before, stats.bytes_after
            )?;
        }
    }
    Ok(())
}
