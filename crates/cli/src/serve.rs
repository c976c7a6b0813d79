//! `rmrls serve`: the long-lived synthesis daemon.

use std::fmt::Write;

use rmrls_serve::{ServeDaemon, ServeOptions};

use crate::{err, CliResult, Command, EngineFlags, Flags};

/// Builds `Command::Serve`; what is not given keeps the value of [`ServeOptions::default`].
pub fn parse(flags: &Flags) -> CliResult<Command> {
    let defaults = ServeOptions::default();
    let queue = flags.count("--queue")?;
    let max_body_bytes = flags.number("--max-body-bytes")?;
    Ok(Command::Serve {
        engine: EngineFlags::parse(flags)?,
        addr: flags.string("--addr").unwrap_or(defaults.addr),
        queue: queue.unwrap_or(defaults.queue_capacity),
        max_body_bytes: max_body_bytes.unwrap_or(defaults.max_body_bytes),
        journal: flags.string("--journal"),
    })
}

/// Runs `rmrls serve` until Ctrl-C.
pub fn run_serve(command: Command, out: &mut dyn Write) -> CliResult {
    let Command::Serve {
        engine,
        addr,
        queue,
        max_body_bytes,
        journal,
    } = command
    else {
        unreachable!("run dispatches only serve here")
    };
    // The warm cache persists across restarts: circuits solved by
    // earlier incarnations are re-verified on open and served as cache
    // hits. Stdout is buffered until exit, so a store warning goes to
    // stderr.
    let (mut batch, warning) = engine.batch_options();
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    batch.store_provenance = "serve".to_string();
    let opts = ServeOptions {
        addr,
        workers: batch.workers,
        queue_capacity: queue,
        max_body_bytes,
        journal_path: journal,
        batch,
    };
    // Ctrl-C once drains (running requests finish, queued work is
    // skipped — and replayed on restart when journaled); twice aborts
    // in-flight searches.
    let shutdown = rmrls_engine::ShutdownHandles::install_sigint();
    let daemon = ServeDaemon::start(opts, shutdown).map_err(err)?;
    // The address a client needs now is announced on stderr (matching
    // --metrics-addr), including when port 0 picked a port.
    eprintln!(
        "serve: listening on http://{} — POST /synthesize, \
         GET /requests/<id>[/events], /metrics, /healthz, /jobs",
        daemon.local_addr()
    );
    // Registry handles are shared by name, so this counter stays
    // readable after `wait` consumes the daemon.
    let completed = daemon.telemetry().registry().counter("requests_completed");
    daemon.wait();
    writeln!(
        out,
        "serve: shut down ({} requests completed)",
        completed.get()
    )?;
    Ok(())
}
