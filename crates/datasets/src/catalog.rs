//! The 30 KONECT datasets of Table 5 and the 12 "tough" datasets (D1–D12)
//! of Table 6 / Figures 4–6.
//!
//! The real KONECT files are not redistributable/offline-available, so each
//! entry records the published shape — `|L|`, `|R|`, density ×10⁻⁴ and the
//! paper-reported optimum half-size — from which `crate::synth` builds a
//! scaled synthetic stand-in (see the "Synthetic stand-ins" section of
//! `docs/DATASETS.md` for the substitution rationale).

use serde::{Deserialize, Serialize};

/// Shape and ground truth of one Table 5 dataset.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DatasetSpec {
    /// KONECT dataset name as printed in Table 5.
    pub name: &'static str,
    /// `|L|` of the real dataset.
    pub left: u64,
    /// `|R|` of the real dataset.
    pub right: u64,
    /// Edge density × 10⁴ (the paper's `Density×10−4` column).
    pub density_e4: f64,
    /// Paper-reported optimum MBB half-size (`Optimum` column).
    pub optimum: u32,
    /// Position in Table 6's tough-dataset list (`D1`–`D12`), if present.
    pub tough_rank: Option<u8>,
}

impl DatasetSpec {
    /// Edge count implied by the published shape.
    pub fn num_edges(&self) -> u64 {
        (self.left as f64 * self.right as f64 * self.density_e4 * 1e-4).round() as u64
    }

    /// The `D*` label for tough datasets.
    pub fn tough_label(&self) -> Option<String> {
        self.tough_rank.map(|r| format!("D{r}"))
    }
}

/// The 30 datasets of Table 5, in the paper's row order.
pub fn catalog() -> &'static [DatasetSpec] {
    const fn spec(
        name: &'static str,
        left: u64,
        right: u64,
        density_e4: f64,
        optimum: u32,
        tough_rank: Option<u8>,
    ) -> DatasetSpec {
        DatasetSpec {
            name,
            left,
            right,
            density_e4,
            optimum,
            tough_rank,
        }
    }
    static CATALOG: [DatasetSpec; 30] = [
        spec("unicodelang", 254, 614, 8.0, 4, None),
        spec("moreno-crime-crime", 829, 551, 3.2, 2, None),
        spec("opsahl-ucforum", 899, 522, 71.855, 5, None),
        spec("escorts", 10_106, 6_624, 0.756, 6, None),
        spec("jester", 173_421, 100, 563.376, 100, Some(1)),
        spec("pics-ut", 17_122, 82_035, 1.637, 30, Some(2)),
        spec("youtube-groupmemberships", 94_238, 30_087, 0.103, 12, None),
        spec("dbpedia-writer", 89_356, 46_213, 0.035, 6, None),
        spec("dbpedia-starring", 76_099, 81_085, 0.046, 6, None),
        spec("github", 56_519, 120_867, 0.064, 12, Some(3)),
        spec("dbpedia-recordlabel", 168_337, 18_421, 0.075, 6, None),
        spec("dbpedia-producer", 48_833, 138_844, 0.031, 6, None),
        spec("dbpedia-location", 172_091, 53_407, 0.032, 5, None),
        spec("dbpedia-occupation", 127_577, 101_730, 0.019, 6, None),
        spec("dbpedia-genre", 258_934, 7_783, 0.230, 7, None),
        spec("discogs-lgenre", 270_771, 15, 1021.2, 15, None),
        spec(
            "bookcrossing-full-rating",
            105_278,
            340_523,
            0.032,
            13,
            Some(4),
        ),
        spec(
            "flickr-groupmemberships",
            395_979,
            103_631,
            0.208,
            47,
            Some(5),
        ),
        spec("actor-movie", 127_823, 383_640, 0.030, 8, Some(6)),
        spec(
            "stackexchange-stackoverflow",
            545_196,
            96_680,
            0.025,
            9,
            Some(7),
        ),
        spec("bibsonomy-2ui", 5_794, 767_447, 0.575, 8, None),
        spec("dbpedia-team", 901_166, 34_461, 0.044, 6, None),
        spec("reuters", 781_265, 283_911, 0.273, 51, Some(8)),
        spec("discogs-style", 1_617_943, 383, 38.868, 42, Some(9)),
        spec("gottron-trec", 556_077, 1_173_225, 0.128, 101, Some(10)),
        spec("edit-frwiktionary", 5_017, 1_907_247, 0.773, 19, None),
        spec(
            "discogs-affiliation",
            1_754_823,
            270_771,
            0.030,
            26,
            Some(11),
        ),
        spec("wiki-en-cat", 1_853_493, 182_947, 0.011, 14, None),
        spec("edit-dewiki", 425_842, 3_195_148, 0.042, 49, Some(12)),
        spec("dblp-author", 1_425_813, 4_000, 0.002, 10, None),
    ];
    &CATALOG
}

/// The 12 tough datasets in Table 6 top-down order (D1–D12).
pub fn tough_datasets() -> Vec<&'static DatasetSpec> {
    let mut tough: Vec<&'static DatasetSpec> = catalog()
        .iter()
        .filter(|s| s.tough_rank.is_some())
        .collect();
    tough.sort_by_key(|s| s.tough_rank);
    tough
}

/// Looks a dataset up by name.
pub fn find(name: &str) -> Option<&'static DatasetSpec> {
    catalog().iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_thirty_entries() {
        assert_eq!(catalog().len(), 30);
    }

    #[test]
    fn twelve_tough_datasets_in_order() {
        let tough = tough_datasets();
        assert_eq!(tough.len(), 12);
        assert_eq!(tough[0].name, "jester");
        assert_eq!(tough[11].name, "edit-dewiki");
        for (i, spec) in tough.iter().enumerate() {
            assert_eq!(spec.tough_rank, Some(i as u8 + 1));
        }
    }

    #[test]
    fn edge_counts_are_plausible() {
        // jester: 173421 × 100 × 563.376e-4 ≈ 977k.
        let jester = find("jester").unwrap();
        let edges = jester.num_edges();
        assert!((900_000..1_050_000).contains(&edges), "{edges}");
        // dblp-author is the sparsest.
        let dblp = find("dblp-author").unwrap();
        assert!(dblp.num_edges() < 2_000);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = catalog().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn find_works() {
        assert!(find("github").is_some());
        assert!(find("no-such-dataset").is_none());
        assert_eq!(find("reuters").unwrap().optimum, 51);
    }

    #[test]
    fn tough_labels() {
        assert_eq!(find("jester").unwrap().tough_label(), Some("D1".into()));
        assert_eq!(find("unicodelang").unwrap().tough_label(), None);
    }

    #[test]
    fn specs_serialize() {
        let s = serde_json::to_string(find("github").unwrap()).unwrap();
        assert!(s.contains("github"));
    }
}
