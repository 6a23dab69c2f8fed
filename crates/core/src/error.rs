//! Error type of the SNAPLE predictor.

use std::error::Error as StdError;
use std::fmt;

use snaple_gas::EngineError;

/// Errors produced while running a SNAPLE prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapleError {
    /// The underlying GAS engine failed (resource exhaustion, injected node
    /// failures, invalid cluster shapes).
    Engine(EngineError),
    /// The prediction configuration is unusable.
    InvalidConfig(String),
    /// A [`ConcurrentServer`](crate::concurrent::ConcurrentServer)'s
    /// bounded submission queue is full — backpressure instead of
    /// unbounded memory growth. Retry, block with
    /// [`ServeHandle::submit`](crate::concurrent::ServeHandle::submit), or
    /// raise
    /// [`ConcurrentOptions::queue_capacity`](crate::concurrent::ConcurrentOptions::queue_capacity).
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// A shard of a [`ShardRouter`](crate::shard::ShardRouter) deployment
    /// failed — its process died, its pipe broke, or it answered with a
    /// malformed or corrupt wire frame. In-flight requests routed to the
    /// shard fail with this error; the router itself stays up and
    /// `drain()` still completes.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// What broke: the wire/transport error message.
        message: String,
    },
    /// The durability layer failed to persist an update: the commitlog
    /// append or a snapshot checkpoint hit an I/O failure *before* the
    /// delta was applied — the serving state is unchanged and the
    /// update must be considered rejected (write-ahead semantics).
    Durability {
        /// The underlying `snaple_store::StoreError` message.
        message: String,
    },
}

impl fmt::Display for SnapleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapleError::Engine(e) => write!(f, "engine error: {e}"),
            SnapleError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SnapleError::QueueFull { capacity } => write!(
                f,
                "submission queue full ({capacity} requests pending); retry, \
                 block via submit(), or raise the queue capacity"
            ),
            SnapleError::ShardFailed { shard, message } => {
                write!(f, "shard {shard} failed: {message}")
            }
            SnapleError::Durability { message } => {
                write!(f, "durability error (update not applied): {message}")
            }
        }
    }
}

impl StdError for SnapleError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SnapleError::Engine(e) => Some(e),
            SnapleError::InvalidConfig(_)
            | SnapleError::QueueFull { .. }
            | SnapleError::ShardFailed { .. }
            | SnapleError::Durability { .. } => None,
        }
    }
}

impl From<EngineError> for SnapleError {
    fn from(e: EngineError) -> Self {
        SnapleError::Engine(e)
    }
}

/// A graph backend's recorded load failure, as
/// [`EngineError::GraphFault`].
impl From<snaple_graph::GraphError> for SnapleError {
    fn from(e: snaple_graph::GraphError) -> Self {
        SnapleError::Engine(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_gas::NodeId;

    #[test]
    fn wraps_engine_errors_with_source() {
        let e: SnapleError = EngineError::NodeFailure {
            node: NodeId::new(1),
            step: "s".into(),
        }
        .into();
        assert!(e.to_string().contains("engine error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapleError>();
    }
}
