//! Quality golden: explanation and evidence precision / recall / F1 of all
//! six methods of `run_all_methods`, on reduced-size versions of the
//! Figure 6 (academic), Figure 7 (IMDb) and Figure 8 (synthetic) cases.
//!
//! The numbers are the ones the `fig*` binaries print (three decimals).
//! Any change fails the test; a change that moves a number on purpose must
//! update `GOLDEN` and justify the move in the change log. On a mismatch the
//! assertion message prints the whole table as computed, ready to paste.

use explain3d::datagen::{
    generate_academic, generate_synthetic, generate_views, AcademicConfig, GeneratedCase,
    ImdbConfig, ImdbTemplate, SyntheticConfig,
};
use explain3d_bench::run_all_methods;

const GOLDEN: &str = "\
umass EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
umass GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
umass THRESHOLD-0.9 0.556 1.000 0.714 1.000 0.923 0.960
umass RSWOOSH 0.556 1.000 0.714 1.000 0.923 0.960
umass EXACTCOVER 0.115 0.600 0.194 0.538 0.538 0.538
umass FORMALEXP-Top15 0.160 0.800 0.267 0.000 0.000 0.000
osu EXPLAIN3D 0.750 0.857 0.800 1.000 0.960 0.980
osu GREEDY 0.750 0.857 0.800 1.000 0.960 0.980
osu THRESHOLD-0.9 0.429 0.857 0.571 1.000 0.840 0.913
osu RSWOOSH 0.429 0.857 0.571 1.000 0.840 0.913
osu EXACTCOVER 0.190 0.571 0.286 0.519 0.560 0.538
osu FORMALEXP-Top15 0.188 0.429 0.261 0.000 0.000 0.000
imdb-CountComedies EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountComedies GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountComedies THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountComedies RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountComedies EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountComedies FORMALEXP-Top15 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-CountUsMovies FORMALEXP-Top15 1.000 1.000 1.000 1.000 1.000 1.000
imdb-TotalGross EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-TotalGross GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-TotalGross THRESHOLD-0.9 0.000 1.000 0.000 0.000 0.000 0.000
imdb-TotalGross RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-TotalGross EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-TotalGross FORMALEXP-Top15 1.000 1.000 1.000 0.000 0.000 0.000
imdb-MaxGross EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MaxGross GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MaxGross THRESHOLD-0.9 0.000 1.000 0.000 0.000 0.000 0.000
imdb-MaxGross RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MaxGross EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MaxGross FORMALEXP-Top15 1.000 1.000 1.000 0.000 0.000 0.000
imdb-AvgGross EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgGross GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgGross THRESHOLD-0.9 0.000 1.000 0.000 0.000 0.000 0.000
imdb-AvgGross RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgGross EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgGross FORMALEXP-Top15 1.000 1.000 1.000 0.000 0.000 0.000
imdb-AvgRuntime EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgRuntime GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgRuntime THRESHOLD-0.9 0.000 1.000 0.000 0.000 0.000 0.000
imdb-AvgRuntime RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgRuntime EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-AvgRuntime FORMALEXP-Top15 1.000 1.000 1.000 0.000 0.000 0.000
imdb-ActorsInShortMovies EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActorsInShortMovies GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActorsInShortMovies THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActorsInShortMovies RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActorsInShortMovies EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActorsInShortMovies FORMALEXP-Top15 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MoviesByDirectorBirthYear EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MoviesByDirectorBirthYear GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MoviesByDirectorBirthYear THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MoviesByDirectorBirthYear RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-MoviesByDirectorBirthYear EXACTCOVER 0.636 0.875 0.737 0.500 0.500 0.500
imdb-MoviesByDirectorBirthYear FORMALEXP-Top15 0.571 1.000 0.727 0.000 0.000 0.000
imdb-LongestMovie EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-LongestMovie GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-LongestMovie THRESHOLD-0.9 0.000 1.000 0.000 0.000 0.000 0.000
imdb-LongestMovie RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
imdb-LongestMovie EXACTCOVER 1.000 1.000 1.000 1.000 1.000 1.000
imdb-LongestMovie FORMALEXP-Top15 1.000 1.000 1.000 0.000 0.000 0.000
imdb-ActressesNotInGenre EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActressesNotInGenre GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActressesNotInGenre THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
imdb-ActressesNotInGenre RSWOOSH 0.154 1.000 0.267 0.000 0.000 0.000
imdb-ActressesNotInGenre EXACTCOVER 0.196 0.562 0.290 0.457 0.477 0.467
imdb-ActressesNotInGenre FORMALEXP-Top15 0.257 0.562 0.353 0.000 0.000 0.000
synthetic EXPLAIN3D 1.000 1.000 1.000 1.000 1.000 1.000
synthetic GREEDY 1.000 1.000 1.000 1.000 1.000 1.000
synthetic THRESHOLD-0.9 1.000 1.000 1.000 1.000 1.000 1.000
synthetic RSWOOSH 1.000 1.000 1.000 1.000 1.000 1.000
synthetic EXACTCOVER 0.767 0.885 0.821 0.898 0.936 0.917
synthetic FORMALEXP-Top15 0.196 0.385 0.260 0.000 0.000 0.000
";

/// The reduced cases: the paper's academic pairs with fewer programs and
/// fewer unrelated universities, two IMDb templates over a smaller corpus,
/// and one synthetic case.
fn cases() -> Vec<(String, GeneratedCase)> {
    let mut out = Vec::new();
    for (label, config) in [
        (
            "umass",
            AcademicConfig { num_programs: 30, other_universities: 6, ..AcademicConfig::umass() },
        ),
        (
            "osu",
            AcademicConfig { num_programs: 30, other_universities: 6, ..AcademicConfig::osu() },
        ),
    ] {
        out.push((label.to_string(), generate_academic(&config)));
    }
    let views =
        generate_views(&ImdbConfig { num_movies: 150, num_persons: 180, ..Default::default() });
    for template in [
        ImdbTemplate::CountComedies,
        ImdbTemplate::CountUsMovies,
        ImdbTemplate::TotalGross,
        ImdbTemplate::MaxGross,
        ImdbTemplate::AvgGross,
        ImdbTemplate::AvgRuntime,
        ImdbTemplate::ActorsInShortMovies,
        ImdbTemplate::MoviesByDirectorBirthYear,
        ImdbTemplate::LongestMovie,
        ImdbTemplate::ActressesNotInGenre,
    ] {
        let case = views.case(template, &views.default_param(template, 7));
        out.push((format!("imdb-{template:?}"), case));
    }
    out.push(("synthetic".to_string(), generate_synthetic(&SyntheticConfig::new(60, 0.2, 200))));
    out
}

fn table() -> String {
    let mut out = String::new();
    for (label, case) in cases() {
        for o in run_all_methods(&case, 50) {
            out.push_str(&format!(
                "{label} {} {:.3} {:.3} {:.3} {:.3} {:.3} {:.3}\n",
                o.method,
                o.explanation.precision,
                o.explanation.recall,
                o.explanation.f_measure,
                o.evidence.precision,
                o.evidence.recall,
                o.evidence.f_measure,
            ));
        }
    }
    out
}

#[test]
fn method_accuracy_matches_the_golden_table() {
    let actual = table();
    assert!(
        actual == GOLDEN,
        "quality table moved; expected:\n{GOLDEN}\nactual (case method expl P R F1 evid P R F1):\n{actual}"
    );
}
