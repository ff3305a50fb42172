//! The experiment index embedded in `EXPERIMENTS.md` between the
//! `BEGIN/END GENERATED` markers must be [`experiments_index_markdown()`]'s
//! output byte for byte, so the table can only be edited in
//! [`all_experiments()`]. `matching_doc_is_clean` holds the checked-in
//! file to that; the other tests pin what the check reports.

use crate::experiments::{all_experiments, experiments_index_markdown};

const BEGIN: &str = "<!-- BEGIN GENERATED: experiment registry index -->\n";
const END: &str = "<!-- END GENERATED: experiment registry index -->";

/// The text between `doc`'s generated-index markers, if both are there.
fn generated_block(doc: &str) -> Option<&str> {
    doc.split_once(BEGIN)
        .and_then(|(_, rest)| rest.split_once(END))
        .map(|(block, _)| block)
}

/// `Ok` when `doc` embeds the current index; otherwise what is wrong and
/// how to regenerate it.
fn check_index(doc: &str) -> Result<(), String> {
    let block =
        generated_block(doc).ok_or("EXPERIMENTS.md has lost its `BEGIN/END GENERATED` markers")?;
    let index = experiments_index_markdown();
    let have: Vec<&str> = block.split_inclusive('\n').collect();
    let want: Vec<&str> = index.split_inclusive('\n').collect();
    let Some(i) = (0..have.len().max(want.len())).find(|&i| have.get(i) != want.get(i)) else {
        return Ok(());
    };
    let show =
        |line: Option<&&str>| line.map_or("nothing".to_string(), |l| format!("`{}`", l.trim_end()));
    Err(format!(
        "EXPERIMENTS.md's registry index is stale at table line {}: it has {}, the registry \
         renders {}; regenerate it with \
         `cargo run --release -p hh-bench --bin experiments -- --index`",
        i + 1,
        show(have.get(i)),
        show(want.get(i))
    ))
}

mod tests {
    use super::*;

    fn doc_with(index: &str) -> String {
        format!("# Experiments\n\n{BEGIN}{index}{END}\n")
    }

    #[test]
    fn extracts_entries_in_order() {
        let index = experiments_index_markdown();
        let doc = doc_with(&index);
        let rows: Vec<&str> = generated_block(&doc).expect("markers").lines().collect();
        let entries: Vec<String> = all_experiments()
            .iter()
            .map(|e| format!("| {} | {} |", e.id, e.title))
            .collect();
        assert!(!entries.is_empty());
        assert_eq!(rows[..2], ["| id | title |", "|----|-------|"]);
        assert_eq!(rows[2..], entries[..]);
    }

    #[test]
    fn matching_doc_is_clean() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        if let Err(why) = check_index(&doc) {
            panic!("{why}");
        }
    }

    #[test]
    fn stale_table_is_flagged() {
        let index = experiments_index_markdown();
        let first = &all_experiments()[0];
        let edited = index.replacen(first.title, "Old title", 1);
        let why = check_index(&doc_with(&edited)).expect_err("an edited title is stale");
        assert!(why.contains("stale at table line 3"), "{why}");
        assert!(
            why.contains("Old title") && why.contains("-- --index"),
            "{why}"
        );

        let last_row = index.trim_end().rfind('\n').expect("a table") + 1;
        let why = check_index(&doc_with(&index[..last_row])).expect_err("a missing row is stale");
        assert!(why.contains("it has nothing"), "{why}");
    }

    #[test]
    fn missing_markers_are_flagged() {
        let why = check_index("# No markers here").expect_err("no markers");
        assert!(why.contains("markers"), "{why}");
        let index = experiments_index_markdown();
        let swapped = format!("{END}\n{index}{BEGIN}");
        assert!(check_index(&swapped)
            .expect_err("markers out of order")
            .contains("markers"));
    }
}
