//! The `figures` rows, the committed `results/` and DESIGN.md §4's index
//! name the same set of artifacts.

use mimicnet_bench::ROWS;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn row_names() -> BTreeSet<&'static str> {
    ROWS.iter().map(|r| r.name).collect()
}

#[test]
fn row_names_are_unique() {
    assert_eq!(row_names().len(), ROWS.len(), "a row name repeats");
}

#[test]
fn every_row_has_a_result_and_every_result_a_row() {
    let results: BTreeSet<String> = std::fs::read_dir(repo().join("results"))
        .expect("results/ exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter_map(|f| f.strip_suffix(".txt").map(str::to_string))
        .collect();
    let rows: BTreeSet<String> = row_names().into_iter().map(str::to_string).collect();
    let no_result: Vec<_> = rows.difference(&results).collect();
    let no_row: Vec<_> = results.difference(&rows).collect();
    assert!(
        no_result.is_empty(),
        "rows without results/<name>.txt: {no_result:?}"
    );
    assert!(no_row.is_empty(), "results/*.txt without a row: {no_row:?}");
}

/// Every row is named in the last column of DESIGN.md §4's table, and
/// every name there is a row.
#[test]
fn design_index_names_every_row() {
    let design = std::fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md");
    let start = design.find("\n## 4. ").expect("DESIGN.md has a §4");
    let end = start
        + 1
        + design[start + 1..]
            .find("\n## ")
            .expect("a section follows §4");
    let mut indexed = BTreeSet::new();
    // Table lines after the header and its separator.
    for line in design[start..end]
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2)
    {
        let last = line.trim_end_matches('|').rsplit('|').next().unwrap_or("");
        indexed.extend(last.split('`').skip(1).step_by(2).map(str::to_string));
    }
    let rows: BTreeSet<String> = row_names().into_iter().map(str::to_string).collect();
    let missing: Vec<_> = rows.difference(&indexed).collect();
    let unknown: Vec<_> = indexed.difference(&rows).collect();
    assert!(
        missing.is_empty(),
        "rows missing from DESIGN.md §4: {missing:?}"
    );
    assert!(
        unknown.is_empty(),
        "DESIGN.md §4 names no such row: {unknown:?}"
    );
}
