//! Update mixing across owners (Section 5.4.1).
//!
//! "Bob can also pool his updates with other people's, or send his
//! through a MIX network, to give himself anonymity and improve index
//! freshness." A [`UpdateMixer`] collects pending insert entries from
//! several owners and flushes them to each server in a randomly
//! interleaved order, so an adversary watching arrivals on a
//! compromised server cannot tell which elements came from the same
//! owner — let alone the same document — without waiting for an entire
//! mixing epoch.

use rand::seq::SliceRandom;
use rand::Rng;

use zerber_core::PlId;
use zerber_net::{AuthToken, StoredShare};
use zerber_server::ServerError;

use crate::transport::ServerHandle;

/// One owner's contribution to the current mixing epoch.
#[derive(Debug, Clone)]
struct Contribution {
    token: AuthToken,
    /// Per-server entry queues, aligned with the server list.
    per_server: Vec<Vec<(PlId, StoredShare)>>,
}

/// Pools multiple owners' updates and flushes them interleaved.
#[derive(Debug, Default)]
pub struct UpdateMixer {
    contributions: Vec<Contribution>,
    server_count: usize,
}

impl UpdateMixer {
    /// A mixer for a deployment of `server_count` index servers.
    pub fn new(server_count: usize) -> Self {
        Self {
            contributions: Vec::new(),
            server_count,
        }
    }

    /// Submits one owner's pending per-server batches (as produced by
    /// [`DocumentOwner::drain_pending`](crate::DocumentOwner::drain_pending))
    /// under that owner's token.
    ///
    /// # Panics
    /// Panics if the batch shape does not match the server count.
    pub fn submit(&mut self, token: AuthToken, per_server: Vec<Vec<(PlId, StoredShare)>>) {
        assert_eq!(
            per_server.len(),
            self.server_count,
            "one queue per server required"
        );
        self.contributions.push(Contribution { token, per_server });
    }

    /// Number of elements pooled for the current epoch (counted on
    /// server 0; identical across servers for well-formed input).
    pub fn pooled_elements(&self) -> usize {
        self.contributions
            .iter()
            .map(|c| c.per_server.first().map_or(0, Vec::len))
            .sum()
    }

    /// Flushes the epoch: for every server, the entries of all owners
    /// are shuffled together and delivered in interleaved runs, one
    /// `insert_batch` per run (a run is a maximal subsequence of the
    /// shuffle belonging to one owner, since each insert authenticates
    /// as a single owner).
    ///
    /// Returns the number of insert RPCs issued per server (the
    /// anonymity/overhead trade-off: more interleaving = more RPCs).
    pub fn flush<R: Rng + ?Sized>(
        &mut self,
        servers: &[std::sync::Arc<dyn ServerHandle>],
        rng: &mut R,
    ) -> Result<usize, ServerError> {
        assert_eq!(servers.len(), self.server_count, "server list mismatch");
        if self.contributions.is_empty() {
            return Ok(0);
        }

        // Build a shuffled owner-index sequence; the same interleaving
        // is used for every server so share alignment is preserved.
        let mut sequence: Vec<usize> = self
            .contributions
            .iter()
            .enumerate()
            .flat_map(|(owner, c)| {
                std::iter::repeat_n(owner, c.per_server.first().map_or(0, Vec::len))
            })
            .collect();
        sequence.shuffle(rng);

        let mut rpcs = 0usize;
        for (server_index, server) in servers.iter().enumerate() {
            // Per-owner cursors into their entry queues.
            let mut cursors = vec![0usize; self.contributions.len()];
            let mut position = 0usize;
            while position < sequence.len() {
                let owner = sequence[position];
                // Extend the run while the next shuffled slot belongs
                // to the same owner.
                let mut run_end = position;
                while run_end < sequence.len() && sequence[run_end] == owner {
                    run_end += 1;
                }
                let count = run_end - position;
                let contribution = &self.contributions[owner];
                let from = cursors[owner];
                let entries = &contribution.per_server[server_index][from..from + count];
                server.insert_batch(contribution.token, entries)?;
                cursors[owner] += count;
                position = run_end;
                if server_index == 0 {
                    rpcs += 1;
                }
            }
        }
        self.contributions.clear();
        Ok(rpcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use zerber_core::ElementId;
    use zerber_field::Fp;
    use zerber_index::{GroupId, UserId};
    use zerber_server::{IndexServer, TokenAuth};

    fn entry(element: u64, pl: u32) -> (PlId, StoredShare) {
        (
            PlId(pl),
            StoredShare {
                element: ElementId(element),
                group: GroupId(0),
                share: Fp::new(element),
            },
        )
    }

    fn world(owners: u32) -> (Vec<Arc<dyn ServerHandle>>, Vec<AuthToken>, Arc<TokenAuth>) {
        let auth = Arc::new(TokenAuth::new());
        let server = IndexServer::new(0, Fp::new(3), auth.clone());
        let mut tokens = Vec::new();
        for owner in 0..owners {
            server.add_user_to_group(UserId(owner), GroupId(0));
            tokens.push(auth.issue(UserId(owner)));
        }
        (vec![Arc::new(server)], tokens, auth)
    }

    #[test]
    fn all_entries_are_delivered() {
        let (servers, tokens, auth) = world(2);
        let mut mixer = UpdateMixer::new(1);
        mixer.submit(tokens[0], vec![vec![entry(1, 0), entry(2, 0)]]);
        mixer.submit(tokens[1], vec![vec![entry(3, 0), entry(4, 1)]]);
        assert_eq!(mixer.pooled_elements(), 4);

        let mut rng = StdRng::seed_from_u64(1);
        let rpcs = mixer.flush(&servers, &mut rng).unwrap();
        assert!(rpcs >= 2, "two owners need at least two RPCs");
        assert_eq!(mixer.pooled_elements(), 0);

        let reader = auth.issue(UserId(0));
        let total: usize = servers[0]
            .begin_fetch(reader, &[(PlId(0), None), (PlId(1), None)])
            .wait()
            .unwrap()
            .iter()
            .map(|list| list.len())
            .sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn interleaving_breaks_contiguity() {
        // With many owners of many elements, the shuffle must produce
        // more RPC runs than owners (i.e. the per-owner entries are NOT
        // delivered as one contiguous block each).
        let (servers, tokens, _auth) = world(4);
        let mut mixer = UpdateMixer::new(1);
        for (owner, token) in tokens.iter().enumerate() {
            let entries: Vec<_> = (0..50u64)
                .map(|i| entry(owner as u64 * 100 + i, 0))
                .collect();
            mixer.submit(*token, vec![entries]);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let rpcs = mixer.flush(&servers, &mut rng).unwrap();
        assert!(
            rpcs > 4 * 2,
            "expected heavy interleaving, got {rpcs} runs for 4 owners"
        );
    }

    #[test]
    fn empty_epoch_is_a_noop() {
        let (servers, _tokens, _auth) = world(1);
        let mut mixer = UpdateMixer::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(mixer.flush(&servers, &mut rng).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "one queue per server")]
    fn wrong_shape_panics() {
        let mut mixer = UpdateMixer::new(2);
        mixer.submit(AuthToken(1), vec![vec![]]);
    }
}
