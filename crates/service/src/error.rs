//! Typed, wire-mappable service errors.
//!
//! Every failure a request can provoke — malformed JSON, an unknown
//! session, an out-of-range delta index, a saturated admission queue —
//! becomes a [`ServiceError`] long before it could panic a worker thread.
//! Each variant carries enough to render both a JSON error body and the
//! HTTP status it travels under.

use crate::json::Json;
use explain3d_incremental::DeltaError;
use std::fmt;

/// Everything that can go wrong serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request body or a field in it could not be parsed.
    BadRequest(String),
    /// The named session does not exist (never created, dropped, or
    /// evicted under the memory budget).
    SessionNotFound(String),
    /// A create targeted a name that is already registered.
    SessionExists(String),
    /// A delta referenced a tuple index outside the relation it addressed.
    Delta(DeltaError),
    /// The session exists but has no report yet (nothing explained).
    NoReport(String),
    /// The admission queue is full: the request was shed, try again later.
    Overloaded,
    /// The requested HTTP method/path pair is not part of the protocol.
    NotFound(String),
    /// The request exceeded a hard protocol limit (body size, header
    /// count, …).
    TooLarge(String),
    /// A delta was parsed against session shapes that no longer exist:
    /// the session was dropped and re-created (with different relations)
    /// between the shape read and the apply. Retry against the fresh
    /// session.
    ShapeConflict(String),
    /// The peer went silent mid-request and the connection timed out.
    Timeout(String),
    /// Strict durability mode: the session's storage is degraded and the
    /// write could not be logged, so it is refused rather than acked
    /// without durability. Retry after the `Retry-After` hint.
    DurabilityUnavailable(String),
    /// The session's durable state was written in a format version this
    /// build cannot read (by a newer build, say). Recovery refuses the
    /// session and leaves its files in place; the message names the
    /// session and the version found.
    UnsupportedVersion(String),
    /// An internal invariant failed (e.g. a poisoned session lock after a
    /// worker panic). The worker survives and reports it instead of dying.
    Internal(String),
}

impl ServiceError {
    /// Short machine-readable error code (stable across messages).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::SessionNotFound(_) => "session_not_found",
            ServiceError::SessionExists(_) => "session_exists",
            ServiceError::Delta(_) => "delta_out_of_range",
            ServiceError::NoReport(_) => "no_report",
            ServiceError::Overloaded => "overloaded",
            ServiceError::NotFound(_) => "not_found",
            ServiceError::TooLarge(_) => "too_large",
            ServiceError::ShapeConflict(_) => "shape_conflict",
            ServiceError::Timeout(_) => "timeout",
            ServiceError::DurabilityUnavailable(_) => "durability_unavailable",
            ServiceError::UnsupportedVersion(_) => "unsupported_version",
            ServiceError::Internal(_) => "internal",
        }
    }

    /// The HTTP status this error travels under.
    pub fn http_status(&self) -> (u16, &'static str) {
        match self {
            ServiceError::BadRequest(_) | ServiceError::Delta(_) => (400, "Bad Request"),
            ServiceError::SessionNotFound(_) | ServiceError::NotFound(_) => (404, "Not Found"),
            ServiceError::SessionExists(_) => (409, "Conflict"),
            ServiceError::NoReport(_) => (409, "Conflict"),
            ServiceError::TooLarge(_) => (413, "Payload Too Large"),
            ServiceError::ShapeConflict(_) => (409, "Conflict"),
            ServiceError::Timeout(_) => (408, "Request Timeout"),
            ServiceError::Overloaded => (429, "Too Many Requests"),
            ServiceError::DurabilityUnavailable(_) => (503, "Service Unavailable"),
            ServiceError::UnsupportedVersion(_) | ServiceError::Internal(_) => {
                (500, "Internal Server Error")
            }
        }
    }

    /// The JSON error body.
    pub fn to_json(&self) -> Json {
        Json::obj().set("error", self.code()).set("message", self.to_string())
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::SessionNotFound(name) => write!(f, "no session named {name:?}"),
            ServiceError::SessionExists(name) => {
                write!(f, "session {name:?} already exists")
            }
            ServiceError::Delta(e) => write!(f, "{e}"),
            ServiceError::NoReport(name) => {
                write!(f, "session {name:?} has not been explained yet")
            }
            ServiceError::Overloaded => {
                write!(f, "admission queue full, request shed — retry later")
            }
            ServiceError::NotFound(what) => write!(f, "no such route: {what}"),
            ServiceError::TooLarge(what) => write!(f, "request too large: {what}"),
            ServiceError::ShapeConflict(name) => write!(
                f,
                "session {name:?} was re-created with different shapes while this \
                 delta was in flight — retry against the current session"
            ),
            ServiceError::Timeout(what) => write!(f, "request timed out: {what}"),
            ServiceError::DurabilityUnavailable(name) => write!(
                f,
                "session {name:?} cannot log writes durably right now — \
                 retry with the same request_id"
            ),
            ServiceError::UnsupportedVersion(what) => write!(f, "{what}"),
            ServiceError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<DeltaError> for ServiceError {
    fn from(e: DeltaError) -> Self {
        ServiceError::Delta(e)
    }
}

impl From<crate::json::JsonError> for ServiceError {
    fn from(e: crate::json::JsonError) -> Self {
        ServiceError::BadRequest(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_and_codes_are_stable() {
        assert_eq!(ServiceError::Overloaded.http_status().0, 429);
        assert_eq!(ServiceError::SessionNotFound("x".into()).http_status().0, 404);
        assert_eq!(ServiceError::SessionExists("x".into()).http_status().0, 409);
        assert_eq!(ServiceError::BadRequest("y".into()).http_status().0, 400);
        assert_eq!(ServiceError::TooLarge("z".into()).http_status().0, 413);
        let newer = ServiceError::UnsupportedVersion("v".into());
        assert_eq!((newer.http_status().0, newer.code()), (500, "unsupported_version"));
        let body = ServiceError::Overloaded.to_json().to_string();
        assert!(body.contains("\"error\":\"overloaded\""));
    }
}
