//! The Stud-IP-like corpus profile (Section 7.4.1, Figure 5).
//!
//! "The Stud IP Learning Management System allows sharing of
//! access-controlled materials within groups of students and teachers.
//! … the installation at 'University 1' has over 3,300 courses and
//! 6,000 registered students. Most users belong to at most 20 groups
//! and can access fewer than 200 documents. The amount of material
//! stored for each course increases uniformly during the semester
//! (Figure 5b). A mid-semester snapshot used for our experiments
//! contained 8,500 documents with 570,000 terms."
//!
//! The generator reproduces all four Figure 5 distributions: skewed
//! documents-per-group (5a), uniform-in-time uploads (5b), skewed
//! users-per-group (5c) and the induced documents-accessible-per-user
//! (5d).

use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_index::{Document, GroupId, TermId};

use crate::groups::GroupAssignments;
use crate::synth::{doc_id_for, sample_length};
use crate::zipf::ZipfSampler;

/// Stud-IP-profile parameters. Defaults approximate the paper's
/// mid-semester snapshot at reduced vocabulary scale.
#[derive(Debug, Clone)]
pub struct StudipConfig {
    /// Number of courses (collaboration groups).
    pub num_courses: u32,
    /// Number of registered users.
    pub num_users: u32,
    /// Total documents in the snapshot (paper: 8,500).
    pub num_docs: usize,
    /// Vocabulary size (paper: 570,000 distinct terms; default scaled).
    pub vocabulary_size: usize,
    /// Zipf exponent of term popularity.
    pub zipf_exponent: f64,
    /// Zipf exponent of documents-per-course skew (Figure 5a).
    pub course_size_exponent: f64,
    /// Mean document length in tokens.
    pub avg_doc_length: usize,
    /// Log-normal length spread.
    pub doc_length_sigma: f64,
    /// Maximum groups per user (paper: "most users belong to at most
    /// 20 groups").
    pub max_groups_per_user: u32,
    /// Semester length in days (for the Figure 5b upload timeline).
    pub semester_days: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudipConfig {
    fn default() -> Self {
        Self {
            num_courses: 300,
            num_users: 1_500,
            num_docs: 8_500,
            vocabulary_size: 60_000,
            zipf_exponent: 1.0,
            course_size_exponent: 1.0,
            avg_doc_length: 150,
            doc_length_sigma: 0.6,
            max_groups_per_user: 20,
            semester_days: 120,
            seed: 5,
        }
    }
}

/// A generated Stud-IP-like dataset: documents with upload timestamps
/// plus the user-group relation.
#[derive(Debug, Clone)]
pub struct StudipData {
    /// The documents; `doc.group` is the course.
    pub documents: Vec<Document>,
    /// Upload day of each document (parallel to `documents`),
    /// uniform over the semester (Figure 5b).
    pub upload_day: Vec<u32>,
    /// User ↔ course memberships.
    pub memberships: GroupAssignments,
    /// Number of courses.
    pub num_courses: u32,
    /// Vocabulary size the generator drew from.
    pub vocabulary_size: usize,
}

impl StudipData {
    /// Generates the dataset.
    pub fn generate(config: &StudipConfig) -> Self {
        assert!(config.num_courses > 0, "need at least one course");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let vocabulary = ZipfSampler::new(config.vocabulary_size, config.zipf_exponent);
        let course_popularity =
            ZipfSampler::new(config.num_courses as usize, config.course_size_exponent);

        let mut documents = Vec::with_capacity(config.num_docs);
        let mut upload_day = Vec::with_capacity(config.num_docs);
        // Per-host (not per-course) sequence counters: courses 64
        // apart share a host slot (see `doc_host`), so per-course
        // counters would collide once `num_courses > 64`.
        let mut per_host_sequence = [0u32; crate::synth::DOC_HOST_SLOTS];
        for _ in 0..config.num_docs {
            let course = course_popularity.sample(&mut rng) as u32;
            let group = GroupId(course);
            let host = crate::synth::doc_host(group) as usize;
            let sequence = per_host_sequence[host];
            per_host_sequence[host] += 1;
            let length = sample_length(config.avg_doc_length, config.doc_length_sigma, &mut rng);
            let mut counts: std::collections::HashMap<TermId, u32> =
                std::collections::HashMap::new();
            for _ in 0..length {
                let term = TermId(vocabulary.sample(&mut rng) as u32);
                *counts.entry(term).or_insert(0) += 1;
            }
            documents.push(Document::from_term_counts(
                doc_id_for(group, sequence),
                group,
                counts.into_iter().collect(),
            ));
            // Figure 5b: uploads uniform across the semester.
            upload_day.push(rand::Rng::random_range(&mut rng, 0..config.semester_days));
        }

        let memberships = GroupAssignments::generate(
            config.num_users,
            config.num_courses,
            config.max_groups_per_user,
            config.seed.wrapping_add(1),
        );

        Self {
            documents,
            upload_day,
            memberships,
            num_courses: config.num_courses,
            vocabulary_size: config.vocabulary_size,
        }
    }

    /// Documents per course, descending — Figure 5a.
    pub fn documents_per_group(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_courses as usize];
        for doc in &self.documents {
            counts[doc.group.0 as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// Cumulative uploads per day — Figure 5b (should grow linearly).
    pub fn cumulative_uploads(&self, semester_days: u32) -> Vec<usize> {
        let mut per_day = vec![0usize; semester_days as usize];
        for &day in &self.upload_day {
            if let Some(slot) = per_day.get_mut(day as usize) {
                *slot += 1;
            }
        }
        let mut cumulative = Vec::with_capacity(per_day.len());
        let mut total = 0usize;
        for count in per_day {
            total += count;
            cumulative.push(total);
        }
        cumulative
    }

    /// Users per group, descending — Figure 5c.
    pub fn users_per_group(&self) -> Vec<usize> {
        self.memberships.users_per_group()
    }

    /// Documents accessible per user, descending — Figure 5d.
    pub fn documents_accessible_per_user(&self) -> Vec<usize> {
        let mut docs_per_group = vec![0usize; self.num_courses as usize];
        for doc in &self.documents {
            docs_per_group[doc.group.0 as usize] += 1;
        }
        let mut accessible: Vec<usize> = self
            .memberships
            .users()
            .map(|user| {
                self.memberships
                    .groups_of(user)
                    .map(|g| docs_per_group[g.0 as usize])
                    .sum()
            })
            .collect();
        accessible.sort_unstable_by(|a, b| b.cmp(a));
        accessible
    }

    /// Corpus statistics over the full snapshot.
    pub fn statistics(&self) -> zerber_index::CorpusStats {
        let mut dfs = vec![0u64; self.vocabulary_size];
        for doc in &self.documents {
            for &(term, _) in &doc.terms {
                if let Some(slot) = dfs.get_mut(term.0 as usize) {
                    *slot += 1;
                }
            }
        }
        zerber_index::CorpusStats::from_document_frequencies(dfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately small configuration.
    fn tiny() -> StudipConfig {
        StudipConfig {
            num_courses: 20,
            num_users: 100,
            num_docs: 300,
            vocabulary_size: 4_000,
            avg_doc_length: 60,
            ..StudipConfig::default()
        }
    }

    /// Regression: per-course sequence counters used to collide for
    /// courses 64 apart (which share a 6-bit host slot), duplicating
    /// document ids at the default 300-course scale.
    #[test]
    fn document_ids_are_unique_above_64_courses() {
        let data = StudipData::generate(&StudipConfig {
            num_docs: 2_000,
            num_courses: 300,
            ..tiny()
        });
        let mut ids: Vec<u32> = data.documents.iter().map(|d| d.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), data.documents.len());
    }

    #[test]
    fn document_count_matches_config() {
        let data = StudipData::generate(&tiny());
        assert_eq!(data.documents.len(), 300);
        assert_eq!(data.upload_day.len(), 300);
    }

    #[test]
    fn docs_per_group_is_skewed() {
        let data = StudipData::generate(&tiny());
        let counts = data.documents_per_group();
        assert!(counts[0] >= 3 * counts[counts.len() / 2].max(1));
    }

    #[test]
    fn uploads_grow_roughly_linearly() {
        let config = StudipConfig {
            num_docs: 3_000,
            ..tiny()
        };
        let data = StudipData::generate(&config);
        let cumulative = data.cumulative_uploads(config.semester_days);
        let mid = cumulative[cumulative.len() / 2] as f64;
        let total = *cumulative.last().unwrap() as f64;
        assert_eq!(total as usize, 3_000);
        assert!(
            (mid / total - 0.5).abs() < 0.1,
            "mid-semester fraction {}",
            mid / total
        );
    }

    #[test]
    fn most_users_access_bounded_documents() {
        // Figure 5d: "most users … can access fewer than 200
        // documents" — at tiny() scale (300 docs) the analogous bound
        // is that the median user accesses well under half the corpus.
        let data = StudipData::generate(&tiny());
        let accessible = data.documents_accessible_per_user();
        let median = accessible[accessible.len() / 2];
        assert!(median < 150, "median accessible {median}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = StudipData::generate(&tiny());
        let b = StudipData::generate(&tiny());
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.upload_day, b.upload_day);
    }
}
