//! A client-server key-value store: the request/reply pattern.
//!
//! CS87's "C socket client-server" short lab and CS45's distributed-
//! systems introduction both teach the same structure: a server loop
//! services typed requests from concurrent clients; clients block on
//! replies. Channels stand in for sockets; the protocol (request enum,
//! reply enum, versioned writes) is the real content.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::thread::JoinHandle;

/// Client requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read a key.
    Get {
        /// Key to read.
        key: String,
    },
    /// Write a key, returning the new version.
    Put {
        /// Key to write.
        key: String,
        /// Value to store.
        value: String,
    },
    /// Delete a key.
    Delete {
        /// Key to delete.
        key: String,
    },
    /// Compare-and-swap: write only if the current version matches.
    Cas {
        /// Key to write.
        key: String,
        /// Expected current version.
        expect_version: u64,
        /// Value to store on success.
        value: String,
    },
    /// Shut the server down.
    Shutdown,
}

/// Server replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Value and its version.
    Value {
        /// The stored value.
        value: String,
        /// Its version number.
        version: u64,
    },
    /// Key absent.
    NotFound,
    /// Write accepted; the new version.
    Ok {
        /// Version after the write.
        version: u64,
    },
    /// CAS failed; the actual current version.
    CasConflict {
        /// The version the server holds.
        actual_version: u64,
    },
    /// Server acknowledged shutdown.
    Bye,
}

/// A server's store: key → (value, version).
pub type Store = HashMap<String, (String, u64)>;

/// Execute one request against `store` — the GET/PUT/DEL/CAS semantics
/// every server in this crate shares (this module's channel server and
/// [`crate::kv_tcp::TcpKvServer`]). A write bumps the version;
/// a version restarts at 1 after a delete; CAS against version 0 creates
/// an absent key. `Shutdown` touches nothing and answers `Bye`.
pub fn apply(store: &mut Store, req: &Request) -> Reply {
    match req {
        Request::Get { key } => match store.get(key) {
            Some((value, version)) => Reply::Value {
                value: value.clone(),
                version: *version,
            },
            None => Reply::NotFound,
        },
        Request::Put { key, value } => {
            let entry = store.entry(key.clone()).or_insert((String::new(), 0));
            entry.0.clone_from(value);
            entry.1 += 1;
            Reply::Ok { version: entry.1 }
        }
        Request::Delete { key } => match store.remove(key) {
            Some(_) => Reply::Ok { version: 0 },
            None => Reply::NotFound,
        },
        Request::Cas {
            key,
            expect_version,
            value,
        } => match store.get_mut(key) {
            Some((v, ver)) if *ver == *expect_version => {
                v.clone_from(value);
                *ver += 1;
                Reply::Ok { version: *ver }
            }
            Some((_, ver)) => Reply::CasConflict {
                actual_version: *ver,
            },
            None if *expect_version == 0 => {
                store.insert(key.clone(), (value.clone(), 1));
                Reply::Ok { version: 1 }
            }
            None => Reply::CasConflict { actual_version: 0 },
        },
        Request::Shutdown => Reply::Bye,
    }
}

struct Envelope {
    req: Request,
    reply_to: Sender<Reply>,
}

/// A handle for sending requests to a running server.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Envelope>,
}

impl Client {
    /// Send a request and block for the reply.
    pub fn call(&self, req: Request) -> Reply {
        let (rtx, rrx) = unbounded();
        self.tx
            .send(Envelope { req, reply_to: rtx })
            .expect("server has exited");
        rrx.recv().expect("server dropped the reply channel")
    }

    /// Convenience: get a key's value.
    pub fn get(&self, key: &str) -> Option<String> {
        match self.call(Request::Get { key: key.into() }) {
            Reply::Value { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Convenience: put a key, returning the new version.
    pub fn put(&self, key: &str, value: &str) -> u64 {
        match self.call(Request::Put {
            key: key.into(),
            value: value.into(),
        }) {
            Reply::Ok { version } => version,
            other => panic!("unexpected put reply {other:?}"),
        }
    }
}

/// A running server: the thread plus the request statistics on join.
pub struct Server {
    handle: JoinHandle<ServerStats>,
    tx: Sender<Envelope>,
}

/// Counters the server reports at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests serviced (excluding Shutdown).
    pub requests: u64,
    /// Get requests that found the key.
    pub hits: u64,
    /// CAS attempts rejected.
    pub cas_conflicts: u64,
}

impl Server {
    /// Start a server thread; returns the server handle and a client.
    pub fn start() -> (Server, Client) {
        let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = unbounded();
        let handle = std::thread::spawn(move || {
            let mut store = Store::new();
            let mut stats = ServerStats::default();
            while let Ok(Envelope { req, reply_to }) = rx.recv() {
                if let Request::Shutdown = req {
                    let _ = reply_to.send(Reply::Bye);
                    break;
                }
                let reply = apply(&mut store, &req);
                stats.requests += 1;
                match reply {
                    Reply::Value { .. } => stats.hits += 1,
                    Reply::CasConflict { .. } => stats.cas_conflicts += 1,
                    _ => {}
                }
                let _ = reply_to.send(reply);
            }
            stats
        });
        (
            Server {
                handle,
                tx: tx.clone(),
            },
            Client { tx },
        )
    }

    /// Shut down and collect statistics.
    pub fn shutdown(self) -> ServerStats {
        let (rtx, rrx) = unbounded();
        let _ = self.tx.send(Envelope {
            req: Request::Shutdown,
            reply_to: rtx,
        });
        let _ = rrx.recv();
        self.handle.join().expect("server panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_delete_roundtrip() {
        let (server, client) = Server::start();
        assert_eq!(client.get("x"), None);
        assert_eq!(client.put("x", "1"), 1);
        assert_eq!(client.get("x"), Some("1".into()));
        assert_eq!(client.put("x", "2"), 2, "version increments");
        assert_eq!(
            client.call(Request::Delete { key: "x".into() }),
            Reply::Ok { version: 0 }
        );
        assert_eq!(client.get("x"), None);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cas_succeeds_only_on_matching_version() {
        let (server, client) = Server::start();
        client.put("k", "a"); // version 1
        let r = client.call(Request::Cas {
            key: "k".into(),
            expect_version: 1,
            value: "b".into(),
        });
        assert_eq!(r, Reply::Ok { version: 2 });
        let r = client.call(Request::Cas {
            key: "k".into(),
            expect_version: 1,
            value: "c".into(),
        });
        assert_eq!(r, Reply::CasConflict { actual_version: 2 });
        assert_eq!(client.get("k"), Some("b".into()));
        let stats = server.shutdown();
        assert_eq!(stats.cas_conflicts, 1);
    }

    #[test]
    fn cas_version_zero_creates() {
        let (server, client) = Server::start();
        let r = client.call(Request::Cas {
            key: "new".into(),
            expect_version: 0,
            value: "v".into(),
        });
        assert_eq!(r, Reply::Ok { version: 1 });
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_serviced() {
        let (server, client) = Server::start();
        let handles: Vec<_> = (0..8)
            .map(|c| {
                let client = client.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        client.put(&format!("k{c}"), &i.to_string());
                    }
                    client.get(&format!("k{c}")).unwrap()
                })
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), "99", "client {c}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.requests, 8 * 101);
    }

    #[test]
    fn concurrent_cas_exactly_one_winner_per_round() {
        let (server, client) = Server::start();
        client.put("counter", "0"); // version 1
                                    // 4 clients race to CAS version 1 -> exactly one wins.
        let wins: usize = (0..4)
            .map(|i| {
                let client = client.clone();
                std::thread::spawn(move || {
                    matches!(
                        client.call(Request::Cas {
                            key: "counter".into(),
                            expect_version: 1,
                            value: format!("w{i}"),
                        }),
                        Reply::Ok { .. }
                    )
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(wins, 1, "CAS linearizes concurrent writers");
        let stats = server.shutdown();
        assert_eq!(stats.cas_conflicts, 3);
    }
}
