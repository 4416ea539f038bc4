//! The bounded, self-sizing pool of connection handlers behind the
//! accept loop.
//!
//! The accept loop hands each connection to the most recently idle
//! handler (LIFO, so the warmest thread serves and the coldest ones
//! age out). It spawns a handler only when none is idle and fewer than
//! [`MAX_HANDLERS`] are live; at the cap it gets the connection back
//! and refuses it. An idle handler exits after [`HANDLER_IDLE_TTL`],
//! and dropping the pool releases every idle handler at once, so the
//! live thread count follows real concurrency and a stopped server
//! leaves no parked threads. A busy handler finishes its connection
//! and then exits if the pool is gone.
//!
//! Handlers are detached: a busy one may be streaming events for a
//! job that outlives the accept loop, and waiting for it would tie
//! server shutdown to its clients.

use crate::http::{HANDLER_IDLE_TTL, MAX_HANDLERS};
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

/// What the accept loop and the handlers share.
#[derive(Default)]
struct State {
    /// Idle handlers, most recently idle last: each parks on the
    /// receiving end of its own one-shot channel.
    idle: Vec<(u64, Sender<TcpStream>)>,
    /// Handler threads alive, idle or busy; never above `MAX_HANDLERS`.
    live: usize,
    next_id: u64,
    /// Set when the pool is dropped; handlers exit instead of parking.
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
}

impl Shared {
    /// The pool state. Every update leaves it consistent, and a
    /// handler's panic never happens while it holds the lock, so a
    /// poisoned lock still guards valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks handler `id` until the accept loop hands it a connection.
    /// `None` tells it to exit: it idled past its TTL, or the pool
    /// closed.
    fn park(&self, id: u64) -> Option<TcpStream> {
        let rx: Receiver<TcpStream> = {
            let mut state = self.lock();
            if state.closed {
                return None;
            }
            let (tx, rx) = mpsc::channel();
            state.idle.push((id, tx));
            rx
        };
        match rx.recv_timeout(HANDLER_IDLE_TTL) {
            Ok(stream) => Some(stream),
            Err(RecvTimeoutError::Disconnected) => None,
            Err(RecvTimeoutError::Timeout) => {
                let mut state = self.lock();
                if let Some(at) = state.idle.iter().position(|(idle, _)| *idle == id) {
                    state.idle.remove(at);
                    return None;
                }
                drop(state);
                // The accept loop took this handler off the stack as
                // the TTL ran out: its connection is already sent, or
                // the pool closed and dropped the sender.
                rx.recv().ok()
            }
        }
    }
}

/// Gives a handler's slot back when its thread exits, panic included.
struct Live(Arc<Shared>);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.lock().live -= 1;
    }
}

/// A bounded pool of threads running `handler` on one connection at a
/// time. See the module docs for the sizing policy.
pub(crate) struct HandlerPool<F> {
    shared: Arc<Shared>,
    handler: Arc<F>,
}

impl<F: Fn(TcpStream) + Send + Sync + 'static> HandlerPool<F> {
    pub(crate) fn new(handler: F) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
            }),
            handler: Arc::new(handler),
        }
    }

    /// Hands `stream` to the most recently idle handler, or to a new one
    /// while fewer than [`MAX_HANDLERS`] are live. Returns the stream
    /// when every handler is busy, for the caller to refuse.
    pub(crate) fn dispatch(&self, mut stream: TcpStream) -> Option<TcpStream> {
        let id = {
            let mut state = self.shared.lock();
            while let Some((_, tx)) = state.idle.pop() {
                // A parked handler only drops its receiver after taking
                // itself off the stack, so this send cannot fail; if it
                // ever did, the next idle handler gets the stream.
                match tx.send(stream) {
                    Ok(()) => return None,
                    Err(mpsc::SendError(back)) => stream = back,
                }
            }
            if state.live >= MAX_HANDLERS {
                return Some(stream);
            }
            state.live += 1;
            state.next_id += 1;
            state.next_id
        };
        let live = Live(Arc::clone(&self.shared));
        let handler = Arc::clone(&self.handler);
        // A failed spawn drops the closure: `live` gives the slot back
        // and the connection closes unanswered.
        let _ = thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                let mut next = Some(stream);
                while let Some(stream) = next {
                    handler(stream);
                    next = live.0.park(id);
                }
            });
        None
    }
}

impl<F> Drop for HandlerPool<F> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.closed = true;
        // Dropping the senders wakes every parked handler to exit.
        state.idle.clear();
    }
}
