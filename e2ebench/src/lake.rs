//! The generated lake: CSVs on disk, held-out tables, ground truth.
//!
//! `synthetic(lake + held_out, seed)` derives tables one after the
//! other from one seeded stream, so the first `lake` tables do not
//! depend on how many are held out. They go to disk as the lake; the
//! rest are never lake members and serve as query targets and as the
//! tables the write path adds and removes. Ground truth covers both.

use std::collections::HashSet;
use std::path::Path;

use d3l_benchgen::GroundTruth;
use d3l_server::api::table_to_json;
use d3l_server::json::Json;
use d3l_table::{csv, Table};

pub struct Lake {
    pub truth: GroundTruth,
    /// Names of the tables written to disk.
    pub members: HashSet<String>,
    /// Tables kept out of the lake, in generation order.
    pub held_out: Vec<Table>,
}

/// Generate the lake, write its CSVs into `dir` and keep `held_out`
/// tables back.
pub fn generate(lake: usize, held_out: usize, seed: u64, dir: &Path) -> std::io::Result<Lake> {
    let bench = d3l_benchgen::synthetic(lake + held_out, seed);
    std::fs::create_dir_all(dir)?;
    let mut members = HashSet::new();
    let mut rest = Vec::with_capacity(held_out);
    for (i, (_, table)) in bench.lake.iter().enumerate() {
        if i < lake {
            std::fs::write(
                dir.join(format!("{}.csv", table.name())),
                csv::to_csv(table),
            )?;
            members.insert(table.name().to_string());
        } else {
            rest.push(table.clone());
        }
    }
    Ok(Lake {
        truth: bench.truth,
        members,
        held_out: rest,
    })
}

impl Lake {
    /// Ground-truth answer set of `target` restricted to lake members.
    pub fn relevant(&self, target: &str) -> HashSet<String> {
        self.truth
            .answer_set(target)
            .into_iter()
            .filter(|t| self.members.contains(t))
            .collect()
    }
}

/// The `POST /query` body for a top-10 query.
pub fn query_body(table: &Table) -> String {
    Json::Obj(vec![
        ("table".to_string(), table_to_json(table)),
        ("k".to_string(), Json::Num(crate::K as f64)),
    ])
    .to_string()
}

/// The `POST /tables` body.
pub fn add_body(table: &Table) -> String {
    Json::Obj(vec![("table".to_string(), table_to_json(table))]).to_string()
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copy a directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}
