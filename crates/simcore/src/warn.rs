//! Uniform warning output for the whole workspace.
//!
//! Every crate that needs to surface a non-fatal problem (an unparsable
//! environment variable, a stale cache entry, a clamped setting) routes it
//! through [`memnet_warn!`](crate::memnet_warn!) so all warnings carry the same greppable
//! `[memnet:warn]` prefix — `grep '\[memnet:warn\]'` over a CI log finds
//! every one, regardless of which subsystem emitted it.

/// Prints a warning line to stderr with the `[memnet:warn]` prefix.
///
/// Accepts the same arguments as `format!`. Subsystems conventionally open
/// the message with their own `[tag]` so the origin stays visible:
///
/// ```
/// memnet_simcore::memnet_warn!("[settings] unknown key {:?} ignored", "FOO");
/// ```
#[macro_export]
macro_rules! memnet_warn {
    ($($arg:tt)*) => {
        eprintln!("[memnet:warn] {}", format_args!($($arg)*))
    };
}

/// Prints an informational progress line to stderr with the `[memnet]`
/// prefix.
///
/// The companion to [`memnet_warn!`](crate::memnet_warn!) for non-warning chatter (progress,
/// bookkeeping, file-written notices) that should stay off stdout —
/// stdout is reserved for machine-readable output — without masquerading
/// as a warning. Routing every stderr write through one of these two
/// macros keeps the streams greppable and lets a lint test enforce that
/// no bare `eprintln!` sneaks into library code.
///
/// ```
/// memnet_simcore::memnet_log!("[cache] wrote {} entries", 3);
/// ```
#[macro_export]
macro_rules! memnet_log {
    ($($arg:tt)*) => {
        eprintln!("[memnet] {}", format_args!($($arg)*))
    };
}
