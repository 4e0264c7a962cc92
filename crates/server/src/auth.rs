//! Authentication.
//!
//! Section 5.4.2: "The index servers rely on an enterprise-wide
//! authentication service, such as one normally finds in today's large
//! enterprises; Kerberos or any other approach to authentication in
//! distributed systems can be adopted here." Accordingly the server
//! depends only on the [`AuthService`] trait; [`TokenAuth`] is the
//! in-memory stand-in used by the simulation.

use std::collections::HashMap;

use parking_lot::RwLock;

use zerber_index::UserId;
use zerber_net::AuthToken;

/// The authentication black box.
pub trait AuthService: Send + Sync {
    /// Resolves a token to a user, or `None` if invalid/expired.
    fn authenticate(&self, token: AuthToken) -> Option<UserId>;
}

/// In-memory token issuer/verifier.
#[derive(Debug, Default)]
pub struct TokenAuth {
    tokens: RwLock<HashMap<u64, UserId>>,
    next: RwLock<u64>,
}

impl TokenAuth {
    /// An empty authority.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues a fresh token for a user.
    pub fn issue(&self, user: UserId) -> AuthToken {
        let mut next = self.next.write();
        // Simple LCG step keeps tokens non-sequential without needing
        // an RNG; uniqueness is what matters for the simulation.
        *next = next
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let token = AuthToken(*next);
        self.tokens.write().insert(token.0, user);
        token
    }

    /// How many unrevoked tokens `user` holds.
    pub fn live_tokens(&self, user: UserId) -> usize {
        self.tokens.read().values().filter(|&&u| u == user).count()
    }

    /// Revokes a token; returns true iff it existed.
    pub fn revoke(&self, token: AuthToken) -> bool {
        self.tokens.write().remove(&token.0).is_some()
    }
}

impl AuthService for TokenAuth {
    fn authenticate(&self, token: AuthToken) -> Option<UserId> {
        self.tokens.read().get(&token.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issued_tokens_authenticate() {
        let auth = TokenAuth::new();
        let token = auth.issue(UserId(7));
        assert_eq!(auth.authenticate(token), Some(UserId(7)));
    }

    #[test]
    fn unknown_tokens_fail() {
        let auth = TokenAuth::new();
        assert_eq!(auth.authenticate(AuthToken(12345)), None);
    }

    #[test]
    fn revoked_tokens_fail() {
        let auth = TokenAuth::new();
        let token = auth.issue(UserId(1));
        assert!(auth.revoke(token));
        assert_eq!(auth.authenticate(token), None);
        assert!(!auth.revoke(token));
    }

    #[test]
    fn tokens_are_distinct_per_issue() {
        let auth = TokenAuth::new();
        let a = auth.issue(UserId(1));
        let b = auth.issue(UserId(1));
        assert_ne!(a, b);
        // Both remain valid (multiple sessions).
        assert_eq!(auth.authenticate(a), Some(UserId(1)));
        assert_eq!(auth.authenticate(b), Some(UserId(1)));
        assert_eq!(auth.live_tokens(UserId(1)), 2);
        auth.revoke(a);
        assert_eq!(auth.live_tokens(UserId(1)), 1);
        assert_eq!(auth.live_tokens(UserId(2)), 0);
    }
}
