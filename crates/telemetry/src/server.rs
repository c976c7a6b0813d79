//! The accept loop: one listener thread that hands every connection,
//! with its socket timeouts set, to a caller-supplied handler on a
//! thread of its own.
//!
//! The handler owns the connection: it reads the request (choosing its
//! own body cap), routes it and writes the response. Because each
//! connection runs on its own thread, a stalled or slow client holds
//! up only itself — other scrapes and submits are served meanwhile.
//! Connection threads are detached; a handler that blocks (a
//! synthesize request waiting on its job) is unblocked by whatever it
//! waits on, not by the server.
//!
//! Shutdown is cooperative: [`HttpServer::shutdown`] (or `Drop`) flips
//! a stop flag, opens one throwaway connection to its own listener to
//! unblock `accept`, then joins the accept thread. The flag is checked
//! before a connection is handed out, so the wake connection is never
//! answered.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Prometheus text exposition content type (format version 0.0.4).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Per-connection socket read and write timeout. Generous enough for
/// slow POST bodies, small enough that a stalled client cannot pin a
/// connection thread for long.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A running HTTP listener. Dropping it shuts it down, so the port is
/// released on every exit path.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop; `handler` serves each connection on its
    /// own thread. The bound address — with the real port — is
    /// available via [`local_addr`](HttpServer::local_addr).
    ///
    /// # Errors
    ///
    /// When the address cannot be bound or the accept thread cannot be
    /// spawned.
    pub fn bind<A, H>(addr: A, handler: H) -> io::Result<HttpServer>
    where
        A: ToSocketAddrs,
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("rmrls-http-accept".into())
                .spawn(move || accept_loop(&listener, Arc::new(handler), &stop))?
        };
        Ok(HttpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the listener actually bound (real port even when
    /// the caller asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread. Connections already
    /// handed out finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // `accept` has no timeout; a throwaway self-connection wakes
        // the loop so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        let _ = thread.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<H>(listener: &TcpListener, handler: Arc<H>, stop: &AtomicBool)
where
    H: Fn(TcpStream) + Send + Sync + 'static,
{
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let handler = Arc::clone(&handler);
        // A failed spawn drops the connection; the client sees a reset.
        let _ = std::thread::Builder::new()
            .name("rmrls-http-conn".into())
            .spawn(move || handler(stream));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn echo_path(stream: TcpStream) {
        let Ok(request) = crate::read_request(&stream) else {
            return;
        };
        let _ = crate::write_response(
            &stream,
            &crate::Response::ok("text/plain", request.path),
            false,
        );
    }

    #[test]
    fn hands_each_connection_to_the_handler_with_timeouts_set() {
        let server = HttpServer::bind("127.0.0.1:0", |stream: TcpStream| {
            let timeouts = (
                stream.read_timeout().unwrap(),
                stream.write_timeout().unwrap(),
            );
            assert_eq!(timeouts, (Some(IO_TIMEOUT), Some(IO_TIMEOUT)));
            echo_path(stream);
        })
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 200 OK\r\n") && raw.ends_with("/x"),
            "{raw}"
        );
        server.shutdown();
    }

    #[test]
    fn a_stalled_connection_does_not_block_the_next_one() {
        let server = HttpServer::bind("127.0.0.1:0", echo_path).unwrap();
        let addr = server.local_addr();
        // Half a request head, then silence: its handler waits out the
        // read timeout on its own thread.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /st").unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(IO_TIMEOUT / 2)).unwrap();
        s.write_all(b"GET /next HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw)
            .expect("served before the stall times out");
        assert!(raw.ends_with("/next"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn shutdown_releases_the_port_and_never_answers_the_wake() {
        let answered = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&answered);
        let server =
            HttpServer::bind("127.0.0.1:0", move |_| flag.store(true, Ordering::SeqCst)).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !answered.load(Ordering::SeqCst),
            "the wake connection reached the handler"
        );
        // Rebinding the same port succeeds once the listener is gone.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
        drop(rebound);
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn drop_also_shuts_down() {
        let addr;
        {
            let server = HttpServer::bind("127.0.0.1:0", echo_path).unwrap();
            addr = server.local_addr();
        }
        assert!(TcpListener::bind(addr).is_ok());
    }
}
