//! Server construction: the [`ServerConfig`] builder and the typed
//! [`NetConfigError`] it returns, matching the
//! `StoreConfig`/`CacheConfig` builder pattern.
//!
//! `ServerConfig` fields are private — every construction goes through
//! [`ServerConfig::builder`] (or [`ServerConfig::default`], which is
//! the builder's output on defaults), so an `AriaServer` can never be
//! started on an unvalidated knob set.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use crate::proto::MAX_FRAME_LEN;

/// Why a [`ServerConfigBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetConfigError {
    /// `max_connections` must be at least one.
    ZeroConnections,
    /// `pipeline_window` must be at least one.
    ZeroPipelineWindow,
    /// The write-buffer bound is outside the accepted range: it must
    /// hold at least one minimal frame and must not exceed the frame
    /// cap times 16 (the server may buffer up to one over-bound frame
    /// beyond the limit, so an unbounded limit would unbound memory).
    WriteBufferBound {
        /// The rejected limit.
        limit: usize,
        /// Smallest accepted limit.
        min: usize,
        /// Largest accepted limit.
        max: usize,
    },
    /// A timeout was zero (`write_timeout`, or a `Some(0)` read
    /// timeout / queue-delay budget / sojourn bound / watchdog
    /// window); zero timeouts disconnect or shed everything instantly.
    ZeroTimeout {
        /// Which knob was zero.
        which: &'static str,
    },
    /// The reactor count must be at least one.
    ZeroReactors,
    /// Fewer connections than reactors: at least one reactor could
    /// never be assigned a connection, so the thread count is a
    /// misconfiguration (lower `reactors` or raise `max_connections`).
    ConnectionsBelowReactors {
        /// Configured connection limit.
        max_connections: usize,
        /// Configured reactor count.
        reactors: usize,
    },
}

impl fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetConfigError::ZeroConnections => write!(f, "max_connections must be non-zero"),
            NetConfigError::ZeroPipelineWindow => write!(f, "pipeline_window must be non-zero"),
            NetConfigError::WriteBufferBound { limit, min, max } => {
                write!(f, "write_buffer_limit {limit} outside accepted range [{min}, {max}]")
            }
            NetConfigError::ZeroTimeout { which } => write!(f, "{which} must be non-zero"),
            NetConfigError::ZeroReactors => write!(f, "reactors must be non-zero"),
            NetConfigError::ConnectionsBelowReactors { max_connections, reactors } => write!(
                f,
                "max_connections ({max_connections}) below reactor count ({reactors}): \
                 some reactors could never serve a connection"
            ),
        }
    }
}

impl std::error::Error for NetConfigError {}

/// Smallest accepted `write_buffer_limit`: room for one minimal frame.
pub const MIN_WRITE_BUFFER: usize = 64;

/// Largest accepted `write_buffer_limit`.
pub const MAX_WRITE_BUFFER: usize = MAX_FRAME_LEN * 16;

/// Validated tuning knobs for [`crate::AriaServer`]. Construct with
/// [`ServerConfig::builder`]; read with the accessor methods.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    max_connections: usize,
    pipeline_window: usize,
    write_buffer_limit: usize,
    write_timeout: Duration,
    read_timeout: Option<Duration>,
    reactors: usize,
    queue_delay_budget: Option<Duration>,
    shed_sojourn: Option<Duration>,
    watchdog_window: Option<Duration>,
    flight_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::builder().build().expect("default server config is valid")
    }
}

impl ServerConfig {
    /// A fallible builder starting from the default configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            max_connections: 64,
            pipeline_window: 256,
            write_buffer_limit: 256 * 1024,
            write_timeout: Duration::from_secs(5),
            read_timeout: None,
            reactors: None,
            queue_delay_budget: None,
            shed_sojourn: None,
            watchdog_window: None,
            flight_dir: None,
        }
    }

    /// Connections beyond this are rejected with
    /// [`crate::proto::ErrorCode::TooManyConnections`] and closed.
    pub fn max_connections(&self) -> usize {
        self.max_connections
    }

    /// Max requests decoded per connection per reactor tick.
    pub fn pipeline_window(&self) -> usize {
        self.pipeline_window
    }

    /// Bound on buffered response bytes before a connection stops
    /// being read.
    pub fn write_buffer_limit(&self) -> usize {
        self.write_buffer_limit
    }

    /// A response flush slower than this disconnects the client.
    pub fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// Close a connection with no complete request for this long
    /// (`None`: idle connections are kept forever).
    pub fn read_timeout(&self) -> Option<Duration> {
        self.read_timeout
    }

    /// Number of reactor threads the server runs.
    pub fn reactors(&self) -> usize {
        self.reactors
    }

    /// Per-shard admission budget: refuse new data ops when a shard's
    /// estimated queue delay exceeds this (`None`: admission off).
    pub fn queue_delay_budget(&self) -> Option<Duration> {
        self.queue_delay_budget
    }

    /// CoDel-style sojourn bound: decoded data ops that waited longer
    /// than this in server-side buffers are shed before store
    /// submission (`None`: sojourn shedding off).
    pub fn shed_sojourn(&self) -> Option<Duration> {
        self.shed_sojourn
    }

    /// Stuck-shard watchdog window: a shard holding queued work but
    /// retiring no batches for this long is quarantined (`None`:
    /// watchdog off).
    pub fn watchdog_window(&self) -> Option<Duration> {
        self.watchdog_window
    }

    /// Directory the flight recorder writes anomaly post-mortem dumps
    /// to (`None`: no watcher thread, dumps only served over the wire).
    pub fn flight_dir(&self) -> Option<&PathBuf> {
        self.flight_dir.as_ref()
    }
}

/// One reactor per available core, but never more reactors than
/// connections: a reactor that can never be assigned a connection is
/// an idle thread.
fn default_reactors(max_connections: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(max_connections)
}

/// Fallible builder for [`ServerConfig`].
///
/// ```
/// use aria_net::ServerConfig;
/// use std::time::Duration;
///
/// let cfg = ServerConfig::builder()
///     .max_connections(128)
///     .write_timeout(Duration::from_secs(2))
///     .build()
///     .unwrap();
/// assert_eq!(cfg.max_connections(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    max_connections: usize,
    pipeline_window: usize,
    write_buffer_limit: usize,
    write_timeout: Duration,
    read_timeout: Option<Duration>,
    /// `None`: derived from the core count and `max_connections`.
    reactors: Option<usize>,
    queue_delay_budget: Option<Duration>,
    shed_sojourn: Option<Duration>,
    watchdog_window: Option<Duration>,
    flight_dir: Option<PathBuf>,
}

impl ServerConfigBuilder {
    /// Set the connection limit (default 64).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Set the pipeline window (default 256).
    pub fn pipeline_window(mut self, n: usize) -> Self {
        self.pipeline_window = n;
        self
    }

    /// Set the write-buffer bound in bytes (default 256 KiB).
    pub fn write_buffer_limit(mut self, bytes: usize) -> Self {
        self.write_buffer_limit = bytes;
        self
    }

    /// Set the flush timeout (default 5 s).
    pub fn write_timeout(mut self, t: Duration) -> Self {
        self.write_timeout = t;
        self
    }

    /// Set (or clear) the idle read timeout (default `None`).
    pub fn read_timeout(mut self, t: Option<Duration>) -> Self {
        self.read_timeout = t;
        self
    }

    /// Set the reactor thread count (default: one per core, capped at
    /// `max_connections`).
    pub fn reactors(mut self, n: usize) -> Self {
        self.reactors = Some(n);
        self
    }

    /// Set (or clear) the per-shard admission budget (default `None`:
    /// admission control off).
    pub fn queue_delay_budget(mut self, t: Option<Duration>) -> Self {
        self.queue_delay_budget = t;
        self
    }

    /// Set (or clear) the sojourn-shedding bound (default `None`:
    /// sojourn shedding off).
    pub fn shed_sojourn(mut self, t: Option<Duration>) -> Self {
        self.shed_sojourn = t;
        self
    }

    /// Set (or clear) the stuck-shard watchdog window (default `None`:
    /// watchdog off).
    pub fn watchdog_window(mut self, t: Option<Duration>) -> Self {
        self.watchdog_window = t;
        self
    }

    /// Set (or clear) the flight-recorder dump directory (default
    /// `None`: no watcher thread). The directory is created at bind.
    pub fn flight_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.flight_dir = dir;
        self
    }

    /// Validate and build the configuration.
    pub fn build(self) -> Result<ServerConfig, NetConfigError> {
        if self.max_connections == 0 {
            return Err(NetConfigError::ZeroConnections);
        }
        if self.pipeline_window == 0 {
            return Err(NetConfigError::ZeroPipelineWindow);
        }
        if !(MIN_WRITE_BUFFER..=MAX_WRITE_BUFFER).contains(&self.write_buffer_limit) {
            return Err(NetConfigError::WriteBufferBound {
                limit: self.write_buffer_limit,
                min: MIN_WRITE_BUFFER,
                max: MAX_WRITE_BUFFER,
            });
        }
        if self.write_timeout.is_zero() {
            return Err(NetConfigError::ZeroTimeout { which: "write_timeout" });
        }
        if self.read_timeout.is_some_and(|t| t.is_zero()) {
            return Err(NetConfigError::ZeroTimeout { which: "read_timeout" });
        }
        if self.queue_delay_budget.is_some_and(|t| t.is_zero()) {
            return Err(NetConfigError::ZeroTimeout { which: "queue_delay_budget" });
        }
        if self.shed_sojourn.is_some_and(|t| t.is_zero()) {
            return Err(NetConfigError::ZeroTimeout { which: "shed_sojourn" });
        }
        if self.watchdog_window.is_some_and(|t| t.is_zero()) {
            return Err(NetConfigError::ZeroTimeout { which: "watchdog_window" });
        }
        let reactors = self.reactors.unwrap_or_else(|| default_reactors(self.max_connections));
        if reactors == 0 {
            return Err(NetConfigError::ZeroReactors);
        }
        if self.max_connections < reactors {
            return Err(NetConfigError::ConnectionsBelowReactors {
                max_connections: self.max_connections,
                reactors,
            });
        }
        Ok(ServerConfig {
            max_connections: self.max_connections,
            pipeline_window: self.pipeline_window,
            write_buffer_limit: self.write_buffer_limit,
            write_timeout: self.write_timeout,
            read_timeout: self.read_timeout,
            reactors,
            queue_delay_budget: self.queue_delay_budget,
            shed_sojourn: self.shed_sojourn,
            watchdog_window: self.watchdog_window,
            flight_dir: self.flight_dir,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_and_read_back() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.max_connections(), 64);
        assert_eq!(cfg.pipeline_window(), 256);
        assert_eq!(cfg.write_buffer_limit(), 256 * 1024);
        assert_eq!(cfg.write_timeout(), Duration::from_secs(5));
        assert_eq!(cfg.read_timeout(), None);
        assert!(cfg.reactors() >= 1);
        assert_eq!(cfg.queue_delay_budget(), None);
        assert_eq!(cfg.shed_sojourn(), None);
        assert_eq!(cfg.watchdog_window(), None);
        assert_eq!(cfg.flight_dir(), None);
    }

    #[test]
    fn overload_knobs_build_and_reject_zero() {
        let cfg = ServerConfig::builder()
            .queue_delay_budget(Some(Duration::from_millis(50)))
            .shed_sojourn(Some(Duration::from_millis(20)))
            .watchdog_window(Some(Duration::from_secs(2)))
            .build()
            .unwrap();
        assert_eq!(cfg.queue_delay_budget(), Some(Duration::from_millis(50)));
        assert_eq!(cfg.shed_sojourn(), Some(Duration::from_millis(20)));
        assert_eq!(cfg.watchdog_window(), Some(Duration::from_secs(2)));
        assert_eq!(
            ServerConfig::builder().queue_delay_budget(Some(Duration::ZERO)).build().unwrap_err(),
            NetConfigError::ZeroTimeout { which: "queue_delay_budget" }
        );
        assert_eq!(
            ServerConfig::builder().shed_sojourn(Some(Duration::ZERO)).build().unwrap_err(),
            NetConfigError::ZeroTimeout { which: "shed_sojourn" }
        );
        assert_eq!(
            ServerConfig::builder().watchdog_window(Some(Duration::ZERO)).build().unwrap_err(),
            NetConfigError::ZeroTimeout { which: "watchdog_window" }
        );
    }

    #[test]
    fn validation_rejects_each_bad_knob() {
        assert_eq!(
            ServerConfig::builder().max_connections(0).build().unwrap_err(),
            NetConfigError::ZeroConnections
        );
        assert_eq!(
            ServerConfig::builder().pipeline_window(0).build().unwrap_err(),
            NetConfigError::ZeroPipelineWindow
        );
        assert!(matches!(
            ServerConfig::builder().write_buffer_limit(1).build().unwrap_err(),
            NetConfigError::WriteBufferBound { limit: 1, .. }
        ));
        assert!(matches!(
            ServerConfig::builder().write_buffer_limit(MAX_WRITE_BUFFER + 1).build().unwrap_err(),
            NetConfigError::WriteBufferBound { .. }
        ));
        assert_eq!(
            ServerConfig::builder().write_timeout(Duration::ZERO).build().unwrap_err(),
            NetConfigError::ZeroTimeout { which: "write_timeout" }
        );
        assert_eq!(
            ServerConfig::builder().read_timeout(Some(Duration::ZERO)).build().unwrap_err(),
            NetConfigError::ZeroTimeout { which: "read_timeout" }
        );
        assert_eq!(
            ServerConfig::builder().reactors(0).build().unwrap_err(),
            NetConfigError::ZeroReactors
        );
    }

    /// An unset reactor count never exceeds the connection limit, so a
    /// small limit builds on any core count; an explicit count above
    /// the limit is still refused.
    #[test]
    fn default_reactor_count_fits_the_connection_limit() {
        let cfg = ServerConfig::builder().max_connections(1).build().unwrap();
        assert_eq!(cfg.reactors(), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ServerConfig::default().reactors(), cores.min(64));
        assert_eq!(
            ServerConfig::builder().max_connections(2).reactors(4).build().unwrap_err(),
            NetConfigError::ConnectionsBelowReactors { max_connections: 2, reactors: 4 }
        );
    }
}
