//! The sharded store's vocabulary: the client operation ([`ShardOp`])
//! with its wire codec, one statement of its PUT/GET/DEL semantics
//! ([`apply_op`], [`apply_script`]), and the consistent-hash ring that
//! decides which shard serves which key ([`shard_ring`]).
//!
//! This is the [`crate::dht`] lecture made executable: [`crate::serve`]
//! routes every client op by [`HashRing::node_for`] to a replicated
//! shard process, and its gate holds the served state equal to
//! [`apply_script`] over the acknowledged ops.

use crate::dht::HashRing;
use pdc_mpi::{Payload, WireMessage};
use std::collections::BTreeMap;

/// Virtual nodes per shard on the routing ring.
const VNODES: usize = 64;

/// One client operation against the sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOp {
    /// Bind `key` to `val`; the key's version bumps on every write and
    /// restarts at 1 after a delete.
    Put {
        /// Key to write.
        key: String,
        /// Value to store.
        val: String,
    },
    /// Read `key`.
    Get {
        /// Key to read.
        key: String,
    },
    /// Remove `key`.
    Del {
        /// Key to remove.
        key: String,
    },
}

impl ShardOp {
    /// The key this operation routes on.
    pub fn key(&self) -> &str {
        match self {
            ShardOp::Put { key, .. } | ShardOp::Get { key } | ShardOp::Del { key } => key,
        }
    }
}

impl Payload for ShardOp {
    fn size_bytes(&self) -> u64 {
        // 1 discriminant byte + the strings' bytes, matching encode().
        1 + match self {
            ShardOp::Put { key, val } => (key.len() + val.len()) as u64,
            ShardOp::Get { key } | ShardOp::Del { key } => key.len() as u64,
        }
    }
}

impl WireMessage for ShardOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardOp::Put { key, val } => {
                out.push(0);
                key.encode(out);
                val.encode(out);
            }
            ShardOp::Get { key } => {
                out.push(1);
                key.encode(out);
            }
            ShardOp::Del { key } => {
                out.push(2);
                key.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let (&disc, rest) = buf.split_first()?;
        *buf = rest;
        Some(match disc {
            0 => ShardOp::Put {
                key: String::decode(buf)?,
                val: String::decode(buf)?,
            },
            1 => ShardOp::Get {
                key: String::decode(buf)?,
            },
            2 => ShardOp::Del {
                key: String::decode(buf)?,
            },
            _ => return None,
        })
    }
}

/// The store's final contents, sorted by key: `(key, (value, version))`.
pub type KvState = Vec<(String, (String, u64))>;

/// What applying one [`ShardOp`] did — enough for a caller to build the
/// client-visible reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applied {
    /// A PUT wrote this version.
    Put(u64),
    /// A GET observed this binding (or its absence).
    Got(Option<(String, u64)>),
    /// A DEL removed an existing key (`true`) or missed (`false`).
    Del(bool),
}

/// Apply one op to a store map — the single source of truth for
/// PUT/GET/DEL semantics, shared by the direct-apply reference in tests
/// and gates and the replicated serving tier's primaries. The version bumps on every write and
/// restarts at 1 after a delete.
///
/// A PUT on a bound key overwrites the value in place (reusing its
/// buffer) and clones no key; only a PUT that creates a key allocates.
pub fn apply_op(store: &mut BTreeMap<String, (String, u64)>, op: &ShardOp) -> Applied {
    match op {
        ShardOp::Put { key, val } => match store.get_mut(key) {
            Some((cur, ver)) => {
                cur.clone_from(val);
                *ver += 1;
                Applied::Put(*ver)
            }
            None => {
                store.insert(key.clone(), (val.clone(), 1));
                Applied::Put(1)
            }
        },
        ShardOp::Get { key } => Applied::Got(store.get(key).cloned()),
        ShardOp::Del { key } => Applied::Del(store.remove(key).is_some()),
    }
}

/// Reference semantics: apply a whole script to one flat map. The serve
/// gate compares a replicated, failure-injected run's final state
/// against `apply_script(acked ops)` — zero lost acknowledged writes.
pub fn apply_script<'a>(ops: impl IntoIterator<Item = &'a ShardOp>) -> KvState {
    let mut store = BTreeMap::new();
    for op in ops {
        apply_op(&mut store, op);
    }
    store.into_iter().collect()
}

/// The routing ring for `shards` shards: ring node `s` is world rank
/// `s + 1` (rank 0 is the serving tier's front end).
pub fn shard_ring(shards: usize) -> HashRing {
    let mut ring = HashRing::new(VNODES);
    for s in 0..shards {
        ring.add_node(s as u64);
    }
    ring
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ops_roundtrip_the_wire_codec() {
        let ops = vec![
            ShardOp::Put {
                key: "k".into(),
                val: "v".into(),
            },
            ShardOp::Get { key: "k".into() },
            ShardOp::Del { key: "".into() },
        ];
        let bytes = ops.to_bytes();
        assert_eq!(Vec::<ShardOp>::from_bytes(&bytes), Some(ops.clone()));
        // Truncation is rejected, not mis-decoded.
        assert_eq!(Vec::<ShardOp>::from_bytes(&bytes[..bytes.len() - 1]), None);
        // Modeled sizes match encoded discriminant + payload layout.
        let op = ShardOp::Put {
            key: "abc".into(),
            val: "de".into(),
        };
        assert_eq!(op.size_bytes(), 1 + 3 + 2);
    }
}
