//! The session registry: who owns which prepared instance, per connection.
//!
//! A `prepare` binds an [`InstanceHandle`] (plus the alphabet used to
//! format witnesses, and — once an `enumerate` has run — the live
//! [`WordCursor`]) to a server-assigned session name. Sessions are scoped
//! to their connection: one client cannot touch (or even probe for)
//! another client's sessions. The handle pins the prepared artifact, so a
//! session survives engine-cache eviction; dropping the session releases
//! the pin.
//!
//! **Idle eviction.** Every registry operation sweeps sessions that have
//! not been touched within the TTL — a client that walked away mid-stream
//! does not pin its instance forever. An evicted session behaves exactly
//! like a closed one (`unknown-session` on next use); the client re-opens
//! with `prepare` (cheap: the instance is usually still cached) and, for
//! enumeration, continues from its last resume token — tokens outlive
//! sessions by design.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lsc_automata::Alphabet;

use crate::engine::{InstanceHandle, WordCursor};

/// One open session: the pinned instance, how to print its witnesses, and
/// the live cursor (if an enumeration is in flight).
pub struct Session {
    /// The pinned prepared instance.
    pub handle: InstanceHandle,
    /// Formats witnesses for the wire.
    pub alphabet: Alphabet,
    /// The live enumeration cursor, if any.
    pub cursor: Option<WordCursor>,
    last_used: Instant,
}

/// The connection-scoped session table. See the module docs.
pub struct SessionRegistry {
    inner: Mutex<HashMap<(u64, String), Session>>,
    ttl: Duration,
    next_id: AtomicU64,
    evicted: AtomicU64,
}

impl SessionRegistry {
    /// A registry whose sessions idle out after `ttl`.
    pub fn new(ttl: Duration) -> SessionRegistry {
        SessionRegistry {
            inner: Mutex::new(HashMap::new()),
            ttl,
            next_id: AtomicU64::new(1),
            evicted: AtomicU64::new(0),
        }
    }

    /// Opens a session on a connection; returns the server-assigned name
    /// (`s1`, `s2`, ...; unique server-wide).
    pub fn open(&self, conn: u64, handle: InstanceHandle, alphabet: Alphabet) -> String {
        let name = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut inner = self.inner.lock().expect("session registry poisoned");
        self.sweep(&mut inner);
        inner.insert(
            (conn, name.clone()),
            Session {
                handle,
                alphabet,
                cursor: None,
                last_used: Instant::now(),
            },
        );
        name
    }

    /// Checks a session out for one request: the entry leaves the table
    /// (so its cursor can be driven without holding the registry lock) and
    /// must be returned via [`SessionRegistry::put_back`]. `None` if the
    /// connection has no such session (never opened, closed, or evicted).
    pub fn take(&self, conn: u64, name: &str) -> Option<Session> {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        self.sweep(&mut inner);
        inner.remove(&(conn, name.to_string())).map(|mut s| {
            s.last_used = Instant::now();
            s
        })
    }

    /// Returns a checked-out session to the table, refreshing its idle
    /// clock.
    pub fn put_back(&self, conn: u64, name: &str, mut session: Session) {
        session.last_used = Instant::now();
        self.inner
            .lock()
            .expect("session registry poisoned")
            .insert((conn, name.to_string()), session);
    }

    /// Closes one session. Returns whether it existed.
    pub fn close(&self, conn: u64, name: &str) -> bool {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        self.sweep(&mut inner);
        inner.remove(&(conn, name.to_string())).is_some()
    }

    /// Drops every session a connection owns (the disconnect hook).
    pub fn drop_conn(&self, conn: u64) {
        self.inner
            .lock()
            .expect("session registry poisoned")
            .retain(|(owner, _), _| *owner != conn);
    }

    /// Open sessions, server-wide.
    pub fn len(&self) -> usize {
        let mut inner = self.inner.lock().expect("session registry poisoned");
        self.sweep(&mut inner);
        inner.len()
    }

    /// True when no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions evicted by the idle TTL so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn sweep(&self, inner: &mut HashMap<(u64, String), Session>) {
        let before = inner.len();
        let ttl = self.ttl;
        inner.retain(|_, s| s.last_used.elapsed() <= ttl);
        let evicted = before - inner.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShardedEngine;
    use lsc_automata::families::blowup_nfa;
    use std::sync::Arc;

    fn handle(engine: &ShardedEngine) -> InstanceHandle {
        engine.prepare_nfa(&Arc::new(blowup_nfa(3)), 6)
    }

    #[test]
    fn sessions_are_connection_scoped() {
        let engine = ShardedEngine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_secs(60));
        let name = registry.open(1, handle(&engine), Alphabet::binary());
        assert!(registry.take(2, &name).is_none(), "foreign connection");
        let session = registry.take(1, &name).expect("owner sees it");
        registry.put_back(1, &name, session);
        assert!(registry.close(1, &name));
        assert!(!registry.close(1, &name), "already closed");
    }

    #[test]
    fn names_are_unique_and_drop_conn_clears() {
        let engine = ShardedEngine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_secs(60));
        let a = registry.open(1, handle(&engine), Alphabet::binary());
        let b = registry.open(1, handle(&engine), Alphabet::binary());
        let c = registry.open(2, handle(&engine), Alphabet::binary());
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(registry.len(), 3);
        registry.drop_conn(1);
        assert_eq!(registry.len(), 1);
        assert!(registry.take(2, &c).is_some());
    }

    #[test]
    fn idle_sessions_evict() {
        let engine = ShardedEngine::with_defaults();
        let registry = SessionRegistry::new(Duration::from_millis(20));
        let name = registry.open(1, handle(&engine), Alphabet::binary());
        std::thread::sleep(Duration::from_millis(40));
        assert!(registry.take(1, &name).is_none(), "idled out");
        assert_eq!(registry.evicted(), 1);
        assert!(registry.is_empty());
    }
}
