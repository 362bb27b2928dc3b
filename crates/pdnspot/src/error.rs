//! Error type for PDN evaluation, designed to cross a wire.
//!
//! [`PdnError`] started life as a library-only enum; the `pdn-serve`
//! daemon forces it to be **wire-ready**:
//!
//! * the enum is `#[non_exhaustive]` so new failure classes can ship
//!   without breaking downstream matches;
//! * every error maps to a stable [`ErrorCode`] (via [`PdnError::code`])
//!   whose `u16` discriminants are frozen protocol constants — clients
//!   on older protocol revisions can still classify errors they have
//!   never seen spelled out;
//! * the [`PdnError::Wire`] variant is the decoded form of an error that
//!   crossed the wire: it preserves the original code and rendered
//!   message even when the native variant (a regulator error full of
//!   `&'static str` fields) cannot be rebuilt on the receiving side.
//!
//! The serve protocol's `ServeError` frame (in the `pdn-serve` crate)
//! converts losslessly to and from this type: structured variants
//! (scenario, degradation, lattice coordinates) round-trip field by
//! field, and leaf regulator/units errors round-trip as code + message.

use std::fmt;

/// Stable wire-level classification of a [`PdnError`].
///
/// The `u16` values are frozen protocol constants: they are what the
/// `pdn-serve` framing writes on the wire, so **never renumber them** —
/// add new codes at the end instead. [`ErrorCode::from_wire`] maps
/// unknown discriminants to [`ErrorCode::Unknown`] rather than failing,
/// which keeps old clients compatible with new servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// A regulator rejected its operating point ([`PdnError::Vr`]).
    Vr,
    /// A quantity or curve failed validation ([`PdnError::Units`]).
    Units,
    /// The scenario is inconsistent ([`PdnError::Scenario`]).
    Scenario,
    /// A component degraded out of its envelope ([`PdnError::Degraded`]).
    Degraded,
    /// A batch campaign failed at a lattice point ([`PdnError::Lattice`]).
    Lattice,
    /// A malformed, truncated, or corrupt protocol frame.
    Protocol,
    /// The server's admission queue is full; retry later.
    Overloaded,
    /// A snapshot could not be written, read, or validated.
    Snapshot,
    /// The server is shutting down and no longer accepts work.
    Shutdown,
    /// The request is well-formed but names something the server does not
    /// serve (an unknown PDN, an unresident surface, a disabled feature).
    Unsupported,
    /// The request's deadline expired before (or while) the server could
    /// answer it. The work it named may still have completed for other
    /// waiters coalesced onto the same point.
    DeadlineExceeded,
    /// The server isolated an internal failure (a panicking evaluation)
    /// while answering this request. Retryable once: a second panic on
    /// the same bit-exact request quarantines it as
    /// [`ErrorCode::Poisoned`].
    Internal,
    /// The bit-exact request has panicked the server repeatedly and is
    /// quarantined. Terminal: retrying the identical bytes will never
    /// succeed.
    Poisoned,
    /// An error code this build does not know (sent by a newer peer).
    Unknown,
}

impl ErrorCode {
    /// The frozen wire discriminant.
    pub fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Vr => 1,
            ErrorCode::Units => 2,
            ErrorCode::Scenario => 3,
            ErrorCode::Degraded => 4,
            ErrorCode::Lattice => 5,
            ErrorCode::Protocol => 6,
            ErrorCode::Overloaded => 7,
            ErrorCode::Snapshot => 8,
            ErrorCode::Shutdown => 9,
            ErrorCode::Unsupported => 10,
            ErrorCode::DeadlineExceeded => 11,
            ErrorCode::Internal => 12,
            ErrorCode::Poisoned => 13,
            ErrorCode::Unknown => 0xFFFF,
        }
    }

    /// Decodes a wire discriminant; unknown values map to
    /// [`ErrorCode::Unknown`] (never an error — forward compatibility).
    pub fn from_wire(raw: u16) -> Self {
        match raw {
            1 => ErrorCode::Vr,
            2 => ErrorCode::Units,
            3 => ErrorCode::Scenario,
            4 => ErrorCode::Degraded,
            5 => ErrorCode::Lattice,
            6 => ErrorCode::Protocol,
            7 => ErrorCode::Overloaded,
            8 => ErrorCode::Snapshot,
            9 => ErrorCode::Shutdown,
            10 => ErrorCode::Unsupported,
            11 => ErrorCode::DeadlineExceeded,
            12 => ErrorCode::Internal,
            13 => ErrorCode::Poisoned,
            _ => ErrorCode::Unknown,
        }
    }

    /// Whether a client may retry the same request unchanged and expect
    /// it to eventually succeed.
    ///
    /// Retryable codes are transient server conditions: load shedding
    /// ([`ErrorCode::Overloaded`]), an expired deadline
    /// ([`ErrorCode::DeadlineExceeded`]), and a first isolated panic
    /// ([`ErrorCode::Internal`] — bounded, because a repeat panic on the
    /// same bytes becomes the terminal [`ErrorCode::Poisoned`]). Every
    /// other code describes the request or the server state itself, and
    /// retrying unchanged bytes cannot help. Retryable errors may carry
    /// a `RetryAfter` hint on the wire; clients without one should back
    /// off exponentially from ~10 ms.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::DeadlineExceeded | ErrorCode::Internal)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Vr => "vr",
            ErrorCode::Units => "units",
            ErrorCode::Scenario => "scenario",
            ErrorCode::Degraded => "degraded",
            ErrorCode::Lattice => "lattice",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Snapshot => "snapshot",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Internal => "internal",
            ErrorCode::Poisoned => "poisoned",
            ErrorCode::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Error produced by PDNspot evaluations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdnError {
    /// A regulator rejected its operating point.
    Vr(pdn_vr::VrError),
    /// A quantity or curve failed validation.
    Units(pdn_units::UnitsError),
    /// The scenario is inconsistent (e.g. no powered domain, or a solver
    /// could not bracket a solution).
    Scenario(String),
    /// A component refused to enter its full-function envelope, such as
    /// an invalid protection configuration. Produced by validation paths
    /// whose caller must see the loss of service quality as an error.
    /// (Fault campaigns carry on degraded and count it instead.)
    Degraded {
        /// The component that degraded (e.g. `MaxCurrentProtection`,
        /// `FlexWattsRuntime`).
        component: String,
        /// Human-readable description of the degradation.
        reason: String,
    },
    /// A reference-counted view of another error, used where one failure
    /// fans out to many consumers (a failing lattice point reported once
    /// per PDN): cloning bumps a refcount instead of deep-copying the
    /// error. Transparent in `Display` and `source`.
    Shared(std::sync::Arc<PdnError>),
    /// A batch campaign failed at a specific lattice point (see
    /// [`crate::batch`]); carries the failing coordinates so a single bad
    /// point can be located inside a large sweep.
    Lattice {
        /// Display name of the PDN being evaluated, or `None` when
        /// scenario construction itself failed (before any PDN ran).
        pdn: Option<String>,
        /// Human-readable lattice coordinates (e.g. `tdp=18W wl=MT
        /// ar=0.56`).
        point: String,
        /// The underlying failure.
        source: Box<PdnError>,
    },
    /// An error that crossed the wire and whose native variant cannot be
    /// rebuilt on this side (regulator/units errors carry `&'static str`
    /// fields that only exist in the producing process). The original
    /// [`ErrorCode`] and rendered message are preserved, so
    /// [`PdnError::code`] and `Display` behave exactly as they did at the
    /// sender.
    Wire {
        /// The stable classification the sender reported.
        code: ErrorCode,
        /// The sender's rendered error message.
        message: String,
    },
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::Vr(e) => write!(f, "regulator error: {e}"),
            PdnError::Units(e) => write!(f, "units error: {e}"),
            PdnError::Scenario(msg) => write!(f, "scenario error: {msg}"),
            PdnError::Degraded { component, reason } => {
                write!(f, "{component} degraded: {reason}")
            }
            PdnError::Shared(inner) => fmt::Display::fmt(inner, f),
            PdnError::Lattice { pdn: Some(pdn), point, source } => {
                write!(f, "evaluation of {pdn} failed at lattice point [{point}]: {source}")
            }
            PdnError::Lattice { pdn: None, point, source } => {
                write!(f, "scenario construction failed at lattice point [{point}]: {source}")
            }
            PdnError::Wire { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for PdnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PdnError::Vr(e) => Some(e),
            PdnError::Units(e) => Some(e),
            PdnError::Scenario(_) => None,
            PdnError::Degraded { .. } => None,
            PdnError::Shared(inner) => std::error::Error::source(inner.as_ref()),
            PdnError::Lattice { source, .. } => Some(source.as_ref()),
            PdnError::Wire { .. } => None,
        }
    }
}

impl PdnError {
    /// Wraps this error in a reference-counted [`PdnError::Shared`] so
    /// subsequent clones are refcount bumps; already-shared errors are
    /// returned unchanged (no nesting).
    pub(crate) fn into_shared(self) -> Self {
        match self {
            PdnError::Shared(_) => self,
            other => PdnError::Shared(std::sync::Arc::new(other)),
        }
    }

    /// The stable wire-level classification of this error.
    ///
    /// [`PdnError::Shared`] is transparent (reports the inner code);
    /// [`PdnError::Lattice`] reports [`ErrorCode::Lattice`] — the
    /// coordinates, not the leaf cause, are what a sweeping client routes
    /// on, and the leaf code survives in the serialized cause chain.
    pub fn code(&self) -> ErrorCode {
        match self {
            PdnError::Vr(_) => ErrorCode::Vr,
            PdnError::Units(_) => ErrorCode::Units,
            PdnError::Scenario(_) => ErrorCode::Scenario,
            PdnError::Degraded { .. } => ErrorCode::Degraded,
            PdnError::Shared(inner) => inner.code(),
            PdnError::Lattice { .. } => ErrorCode::Lattice,
            PdnError::Wire { code, .. } => *code,
        }
    }
}

impl From<pdn_vr::VrError> for PdnError {
    fn from(e: pdn_vr::VrError) -> Self {
        PdnError::Vr(e)
    }
}

impl From<pdn_units::UnitsError> for PdnError {
    fn from(e: pdn_units::UnitsError) -> Self {
        PdnError::Units(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = PdnError::from(pdn_units::UnitsError::NotFinite { what: "ratio" });
        assert!(e.to_string().contains("units"));
        assert!(std::error::Error::source(&e).is_some());
        let s = PdnError::Scenario("no powered domain".into());
        assert!(s.to_string().contains("no powered domain"));
        assert!(std::error::Error::source(&s).is_none());
    }

    #[test]
    fn degraded_errors_name_the_component() {
        let e = PdnError::Degraded {
            component: "MaxCurrentProtection".into(),
            reason: "vin_iccmax must be positive".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("MaxCurrentProtection") && msg.contains("positive"), "{msg}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn shared_errors_are_transparent() {
        let inner = PdnError::Lattice {
            pdn: None,
            point: "tdp=4W state=C8".into(),
            source: Box::new(PdnError::Scenario("no powered domain".into())),
        };
        let shared = inner.clone().into_shared();
        assert_eq!(shared.to_string(), inner.to_string());
        assert_eq!(shared.code(), inner.code());
        assert_eq!(
            std::error::Error::source(&shared).map(ToString::to_string),
            std::error::Error::source(&inner).map(ToString::to_string)
        );
        // Re-sharing does not nest.
        assert_eq!(shared.clone().into_shared(), shared);
    }

    #[test]
    fn lattice_errors_carry_coordinates_and_chain() {
        let inner = PdnError::Scenario("no powered domain".into());
        let e = PdnError::Lattice {
            pdn: Some("IVR".into()),
            point: "tdp=18W wl=MT ar=0.56".into(),
            source: Box::new(inner.clone()),
        };
        let msg = e.to_string();
        assert!(msg.contains("IVR") && msg.contains("tdp=18W"), "{msg}");
        assert!(msg.contains("no powered domain"), "{msg}");
        assert_eq!(std::error::Error::source(&e).map(ToString::to_string), Some(inner.to_string()));
        let build = PdnError::Lattice {
            pdn: None,
            point: "tdp=4W state=C8".into(),
            source: Box::new(inner),
        };
        assert!(build.to_string().contains("scenario construction"), "{build}");
    }

    #[test]
    fn every_variant_reports_its_stable_code() {
        let cases: Vec<(PdnError, ErrorCode)> = vec![
            (PdnError::from(pdn_units::UnitsError::NotFinite { what: "x" }), ErrorCode::Units),
            (
                PdnError::Vr(pdn_vr::VrError::UnsupportedOperatingPoint {
                    regulator: "buck".into(),
                    reason: "duty".into(),
                }),
                ErrorCode::Vr,
            ),
            (PdnError::Scenario("bad".into()), ErrorCode::Scenario),
            (
                PdnError::Degraded { component: "PMU".into(), reason: "latched".into() },
                ErrorCode::Degraded,
            ),
            (
                PdnError::Lattice {
                    pdn: None,
                    point: "tdp=4W".into(),
                    source: Box::new(PdnError::Scenario("bad".into())),
                },
                ErrorCode::Lattice,
            ),
            (
                PdnError::Wire { code: ErrorCode::Overloaded, message: "queue full".into() },
                ErrorCode::Overloaded,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }

    #[test]
    fn error_codes_round_trip_and_tolerate_unknowns() {
        let all = [
            ErrorCode::Vr,
            ErrorCode::Units,
            ErrorCode::Scenario,
            ErrorCode::Degraded,
            ErrorCode::Lattice,
            ErrorCode::Protocol,
            ErrorCode::Overloaded,
            ErrorCode::Snapshot,
            ErrorCode::Shutdown,
            ErrorCode::Unsupported,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
            ErrorCode::Poisoned,
            ErrorCode::Unknown,
        ];
        let mut seen = std::collections::HashSet::new();
        for code in all {
            assert_eq!(ErrorCode::from_wire(code.to_wire()), code);
            assert!(seen.insert(code.to_wire()), "duplicate wire value for {code}");
        }
        assert_eq!(ErrorCode::from_wire(31999), ErrorCode::Unknown);
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::DeadlineExceeded.is_retryable());
        assert!(
            ErrorCode::Internal.is_retryable(),
            "first panic is retryable (quarantine bounds it)"
        );
        assert!(!ErrorCode::Poisoned.is_retryable(), "quarantined requests are terminal");
        assert!(!ErrorCode::Scenario.is_retryable());
        assert!(!ErrorCode::Shutdown.is_retryable());
    }

    #[test]
    fn wire_errors_preserve_sender_rendering() {
        let native = PdnError::from(pdn_units::UnitsError::NotFinite { what: "ratio" });
        let decoded = PdnError::Wire { code: native.code(), message: native.to_string() };
        assert_eq!(decoded.to_string(), native.to_string());
        assert_eq!(decoded.code(), native.code());
    }
}
