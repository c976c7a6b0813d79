//! The wire form of one synthesis request.
//!
//! A `POST /synthesize` body is a small JSON object naming a spec in
//! one of the manifest's inline kinds. Parsing here only validates the
//! *envelope* (JSON shape, required fields); the spec string itself is
//! validated by the engine's admission path
//! ([`admit`](SynthesisRequest::admit)), so a bad spec becomes a per-request
//! error record exactly like a bad manifest line in batch mode.

use rmrls_engine::{admit_inline, Admission};
use rmrls_obs::Json;

/// One parsed `POST /synthesize` body.
///
/// ```json
/// {"kind": "perm", "spec": "1,0,3,2", "name": "swap01", "deadline_ms": 2000}
/// ```
///
/// `kind` is one of the manifest's inline kinds (`perm`, `table`,
/// `tfc`, `bench`); `spec` is its argument. `name` and `deadline_ms`
/// are optional.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthesisRequest {
    /// Display name (defaults to `"request"` when omitted).
    pub name: String,
    /// Spec kind: `perm`, `table`, `tfc`, or `bench`.
    pub kind: String,
    /// The spec payload (permutation list, TFC text, benchmark name…).
    pub spec: String,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl SynthesisRequest {
    /// Parses a request body. Errors name the offending field so the
    /// 400 response is actionable.
    pub fn from_json_str(body: &str) -> Result<SynthesisRequest, String> {
        let json = Json::parse(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
        if !matches!(json, Json::Obj(_)) {
            return Err("body must be a JSON object".to_string());
        }
        let field = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field: {key:?}"))
        };
        let kind = field("kind")?;
        let spec = field("spec")?;
        let name = match json.get("name") {
            None => "request".to_string(),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| "field \"name\" must be a string".to_string())?,
        };
        let deadline_ms = match json.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                "field \"deadline_ms\" must be a non-negative integer".to_string()
            })?),
        };
        Ok(SynthesisRequest {
            name,
            kind,
            spec,
            deadline_ms,
        })
    }

    /// The request as JSON — the exact fields
    /// [`from_json_str`](SynthesisRequest::from_json_str) reads, so journaled requests
    /// round-trip.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_string(), Json::str(&self.name)),
            ("kind".to_string(), Json::str(&self.kind)),
            ("spec".to_string(), Json::str(&self.spec)),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::uint(ms)));
        }
        Json::Obj(fields)
    }

    /// Resolves the request into an engine admission. Malformed specs
    /// become [`Admission::Error`] — reported per request, never fatal
    /// to the daemon.
    pub fn admit(&self, id: u64) -> Admission {
        admit_inline(&self.name, &self.kind, &self.spec, format!("request:{id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_body() {
        let r = SynthesisRequest::from_json_str(
            r#"{"kind":"perm","spec":"1,0,3,2","name":"swap","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.name, "swap");
        assert_eq!(r.kind, "perm");
        assert_eq!(r.spec, "1,0,3,2");
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn name_and_deadline_are_optional() {
        let r = SynthesisRequest::from_json_str(r#"{"kind":"perm","spec":"1,0"}"#).unwrap();
        assert_eq!(r.name, "request");
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn malformed_bodies_name_the_problem() {
        for (body, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "JSON object"),
            (r#"{"spec":"1,0"}"#, "kind"),
            (r#"{"kind":"perm"}"#, "spec"),
            (
                r#"{"kind":"perm","spec":"1,0","deadline_ms":"soon"}"#,
                "deadline_ms",
            ),
            (r#"{"kind":"perm","spec":"1,0","name":7}"#, "name"),
        ] {
            let err = SynthesisRequest::from_json_str(body).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn round_trips_through_json() {
        let r = SynthesisRequest {
            name: "x".into(),
            kind: "perm".into(),
            spec: "1,0".into(),
            deadline_ms: Some(9),
        };
        let back = SynthesisRequest::from_json_str(&r.to_json().to_string()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn bad_specs_surface_as_admission_errors() {
        let r = SynthesisRequest::from_json_str(r#"{"kind":"perm","spec":"0,0"}"#).unwrap();
        assert!(matches!(r.admit(1), Admission::Error { .. }));
    }
}
