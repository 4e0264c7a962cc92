//! User ↔ group membership generation.
//!
//! Section 2: "As each person can only accomplish a certain amount of
//! work, in practice she will belong to a limited number of
//! collaboration groups." Section 7.4.1 (Figure 5): "Most users belong
//! to at most 20 groups and can access fewer than 200 documents."

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use zerber_index::{GroupId, UserId};

use crate::zipf::ZipfSampler;

/// A bidirectional user ↔ group membership relation.
#[derive(Debug, Clone, Default)]
pub struct GroupAssignments {
    user_groups: HashMap<UserId, HashSet<GroupId>>,
    group_users: HashMap<GroupId, HashSet<UserId>>,
}

impl GroupAssignments {
    /// An empty relation.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Randomly assigns `num_users` users to `num_groups` groups.
    ///
    /// Each user joins between 1 and `max_groups_per_user` groups; the
    /// per-user group count and the chosen groups are Zipf-skewed so a
    /// few groups (large courses / popular projects) end up big, as in
    /// Figure 5c.
    pub(crate) fn generate(
        num_users: u32,
        num_groups: u32,
        max_groups_per_user: u32,
        seed: u64,
    ) -> Self {
        assert!(num_groups > 0 && num_users > 0, "need users and groups");
        assert!(max_groups_per_user >= 1, "users join at least one group");
        let mut rng = StdRng::seed_from_u64(seed);
        let group_popularity = ZipfSampler::new(num_groups as usize, 0.8);
        let membership_count = ZipfSampler::new(max_groups_per_user as usize, 1.6);
        let mut assignments = Self::new();
        for user in 0..num_users {
            let count = membership_count.sample(&mut rng) + 1;
            let mut joined = HashSet::new();
            let mut attempts = 0;
            while joined.len() < count && attempts < count * 20 {
                joined.insert(GroupId(group_popularity.sample(&mut rng) as u32));
                attempts += 1;
            }
            // Guarantee at least one membership even under collisions.
            if joined.is_empty() {
                joined.insert(GroupId(rng.random_range(0..num_groups)));
            }
            for group in joined {
                assignments.add(UserId(user), group);
            }
        }
        assignments
    }

    /// Adds one membership.
    pub(crate) fn add(&mut self, user: UserId, group: GroupId) {
        self.user_groups.entry(user).or_default().insert(group);
        self.group_users.entry(group).or_default().insert(user);
    }

    /// Groups of a user.
    pub fn groups_of(&self, user: UserId) -> impl Iterator<Item = GroupId> + '_ {
        self.user_groups
            .get(&user)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// All users with at least one membership.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.user_groups.keys().copied()
    }

    /// Distribution of group sizes (users per group) — Figure 5c.
    pub(crate) fn users_per_group(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.group_users.values().map(HashSet::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_users_all_have_memberships() {
        let assignments = GroupAssignments::generate(500, 40, 20, 9);
        for user in 0..500 {
            assert!(
                assignments.groups_of(UserId(user)).count() >= 1,
                "user {user} has no groups"
            );
        }
    }

    #[test]
    fn membership_counts_respect_bound() {
        let assignments = GroupAssignments::generate(500, 40, 20, 10);
        for user in 0..500 {
            let count = assignments.groups_of(UserId(user)).count();
            assert!(count <= 20, "user {user} in {count} groups");
        }
    }

    #[test]
    fn most_users_in_few_groups() {
        // Figure 5: the membership distribution is heavily skewed
        // towards 1-2 groups.
        let assignments = GroupAssignments::generate(2_000, 40, 20, 11);
        let single = (0..2_000u32)
            .filter(|&u| assignments.groups_of(UserId(u)).count() <= 2)
            .count();
        assert!(single > 1_200, "only {single} users in <= 2 groups");
    }

    #[test]
    fn group_sizes_are_skewed() {
        let assignments = GroupAssignments::generate(2_000, 40, 20, 12);
        let sizes = assignments.users_per_group();
        assert!(sizes[0] > sizes[sizes.len() - 1] * 3, "sizes {sizes:?}");
    }

    #[test]
    fn bidirectional_views_agree() {
        let assignments = GroupAssignments::generate(100, 10, 5, 13);
        for user in assignments.users() {
            for group in assignments.groups_of(user) {
                assert!(assignments.group_users[&group].contains(&user));
            }
        }
    }
}
