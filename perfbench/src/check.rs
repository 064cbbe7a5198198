//! Comparing two explanation reports that should agree.
//!
//! Byte identity of the fingerprints is the contract, but Stage 2 does not
//! yet break ties among equally optimal solutions canonically: the encoder
//! adds validity constraints in hash-map order, so two runs on the same
//! input can pick different optima with the same objective (summed in a
//! different order, so equal up to rounding). A comparison therefore has
//! three outcomes: the same explanation (same tuples and matches,
//! completeness, and floats equal up to rounding), an equal-objective tie
//! (counted, so the rate stays visible), or a failed check. Checks that
//! follow from the explanation, such as equal F-measures, apply only to
//! the same explanation.

use crate::Outcome;
use explain3d::prelude::*;
use explain3d::service::json::Json;
use explain3d::service::wire;

/// What a report asserts, as far as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub fingerprint: String,
    /// Provenance `(side, tuple)`, value `(side, tuple)` and evidence
    /// `(left, right)` explanations, each list sorted.
    pub picks: [Vec<(usize, usize)>; 3],
    /// The log-probability, then the impacts of each value explanation and
    /// the probability of each evidence match, in the order of `picks`.
    pub floats: Vec<f64>,
    pub complete: bool,
}

fn side_index(side: Side) -> usize {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

impl Claim {
    fn new(fingerprint: String, e: &ExplanationSet, log_probability: f64, complete: bool) -> Claim {
        let mut provenance: Vec<_> =
            e.provenance.iter().map(|p| (side_index(p.side), p.tuple)).collect();
        provenance.sort_unstable();
        let mut value: Vec<_> = e
            .value
            .iter()
            .map(|v| ((side_index(v.side), v.tuple), [v.old_impact, v.new_impact]))
            .collect();
        value.sort_by_key(|(k, _)| *k);
        let mut evidence: Vec<_> =
            e.evidence.matches().iter().map(|m| ((m.left, m.right), m.prob)).collect();
        evidence.sort_by_key(|(k, _)| *k);
        let mut floats = vec![log_probability];
        floats.extend(value.iter().flat_map(|(_, f)| *f));
        floats.extend(evidence.iter().map(|(_, p)| *p));
        Claim {
            fingerprint,
            picks: [
                provenance,
                value.iter().map(|(k, _)| *k).collect(),
                evidence.iter().map(|(k, _)| *k).collect(),
            ],
            floats,
            complete,
        }
    }

    pub fn of(report: &ExplanationReport) -> Claim {
        Claim::new(
            wire::fingerprint_hex(report),
            &report.explanations,
            report.log_probability,
            report.complete,
        )
    }

    /// The claim of a served report body.
    pub fn from_json(body: &Json) -> Result<Claim, String> {
        let field = |k: &str| body.get(k).ok_or_else(|| format!("report without {k}"));
        Ok(Claim::new(
            field("fingerprint")?.as_str().ok_or("fingerprint is not a string")?.to_string(),
            &explanations_of(body)?,
            field("log_probability")?.as_f64().ok_or("log_probability is not a number")?,
            field("complete")?.as_bool().ok_or("complete is not a boolean")?,
        ))
    }
}

/// Parses the explanations of a served explain or report body.
pub fn explanations_of(body: &Json) -> Result<ExplanationSet, String> {
    let e = body.get("explanations").ok_or("response without explanations")?;
    let list = |key: &str| e.get(key).and_then(Json::as_arr).ok_or(format!("explanations.{key}"));
    let side = |j: &Json| match j.get("side").and_then(Json::as_str) {
        Some("left") => Ok(Side::Left),
        Some("right") => Ok(Side::Right),
        _ => Err("bad side".to_string()),
    };
    let int = |j: &Json, k: &str| {
        j.get(k).and_then(Json::as_i64).map(|v| v as usize).ok_or(format!("bad {k}"))
    };
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("bad {k}"));
    let mut set = ExplanationSet::new();
    for p in list("provenance")? {
        set.add_provenance(side(p)?, int(p, "tuple")?);
    }
    for v in list("value")? {
        set.add_value(side(v)?, int(v, "tuple")?, num(v, "old_impact")?, num(v, "new_impact")?);
    }
    for m in list("evidence")? {
        set.evidence.push(TupleMatch::new(int(m, "left")?, int(m, "right")?, num(m, "prob")?));
    }
    Ok(set)
}

/// Running tally of report comparisons.
#[derive(Default)]
pub struct Agreement {
    pub exact: usize,
    pub rounded: usize,
    pub ties: usize,
}

impl Agreement {
    /// Compares `got` against `want` and returns whether both hold the
    /// same explanation: byte-identical, or equal up to float rounding. An
    /// equal-objective tie (same log-probability up to rounding, the same
    /// number of explanations and matches, the same completeness) is
    /// counted and returns false; anything else is a failed check
    /// recorded in `out`.
    pub fn compare(&mut self, out: &mut Outcome, what: &str, got: &Claim, want: &Claim) -> bool {
        let sizes = |c: &Claim| c.picks.each_ref().map(Vec::len);
        if got.fingerprint == want.fingerprint {
            self.exact += 1;
            return true;
        }
        if got.picks == want.picks
            && got.complete == want.complete
            && got.floats.len() == want.floats.len()
            && got.floats.iter().zip(&want.floats).all(|(&a, &b)| rounding_apart(a, b))
        {
            self.rounded += 1;
            return true;
        }
        if sizes(got) == sizes(want)
            && got.complete == want.complete
            && rounding_apart(got.floats[0], want.floats[0])
        {
            self.ties += 1;
        } else {
            out.problems.push(format!(
                "{what}: reports disagree (log-probability {} vs {}, sizes {:?} vs {:?}, complete {} vs {})",
                got.floats[0],
                want.floats[0],
                sizes(got),
                sizes(want),
                got.complete,
                want.complete
            ));
        }
        false
    }

    pub fn line(&self, what: &str) -> String {
        format!(
            "{what:<24} {:>5} byte-identical, {} equal up to float rounding, {} equal-objective ties",
            self.exact, self.rounded, self.ties
        )
    }
}

/// Equal up to the rounding of a differently ordered sum.
fn rounding_apart(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}
