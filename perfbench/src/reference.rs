//! Committed reference data: the paper's figures behind `paper_err_pp`
//! and the simulated-result digests expected at seed 0.

use std::collections::{BTreeMap, BTreeSet};

use serde::Deserialize;

const PAPER_FIGURES: &str = include_str!("../reference/paper_figures.json");
const DIGESTS_SEED0: &str = include_str!("../reference/digests_seed0.tsv");

/// One figure; its `section`, `unit` and `claim` fields document it for
/// readers and are not read here.
#[derive(Debug, Deserialize)]
struct Figure {
    id: String,
    paper: f64,
}

#[derive(Debug, Deserialize)]
struct Figures {
    figures: Vec<Figure>,
}

/// The paper's value of figure `id`.
fn paper_figure(id: &str) -> f64 {
    let figures: Figures = serde_json::from_str(PAPER_FIGURES).expect("paper_figures.json parses");
    let fig = figures
        .figures
        .iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("paper_figures.json has no figure {id:?}"));
    fig.paper
}

/// Mean absolute gap in percentage points between measured figures and
/// the paper's: `measured` holds `(figure id, value in the figure's unit)`.
pub fn paper_err_pp(measured: &[(String, f64)]) -> f64 {
    let n = measured.len().max(1) as f64;
    measured
        .iter()
        .map(|(id, v)| (v - paper_figure(id)).abs())
        .sum::<f64>()
        / n
}

/// Expected digests at seed 0 of one kind (`output` or `sim`) for
/// `workload`, by label.
fn expected_digests(workload: &str, kind: &str) -> BTreeMap<String, String> {
    DIGESTS_SEED0
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            (f.len() == 4 && f[0] == workload && f[1] == kind)
                .then(|| (f[2].to_owned(), f[3].to_owned()))
        })
        .collect()
}

/// Compares `actual` `(label, digest)` pairs with the committed ones;
/// returns one problem line per mismatched, missing or unexpected label.
pub fn check_digests(workload: &str, kind: &str, actual: &[(String, String)]) -> Vec<String> {
    let expected = expected_digests(workload, kind);
    let actual: BTreeMap<String, String> = actual.iter().cloned().collect();
    let labels: BTreeSet<&String> = expected.keys().chain(actual.keys()).collect();
    labels
        .into_iter()
        .filter_map(|l| match (actual.get(l), expected.get(l)) {
            (Some(a), Some(e)) if a == e => None,
            (a, e) => Some(format!(
                "{workload}: {kind} {l}: digest {}, committed {}",
                a.map_or("missing", String::as_str),
                e.map_or("none", String::as_str)
            )),
        })
        .collect()
}
