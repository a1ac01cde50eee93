//! Retry budget and deterministic backoff for sweep cells.

use std::thread;
use std::time::Duration;

use gpumem_sim::{SimError, SimReport};
use gpumem_types::SimRng;

/// Deterministic seeded exponential backoff between retry attempts.
///
/// The delay before retry `n` (the first retry is `n = 1`) is
/// `base_ms << (n - 1)`, capped at `max_ms`, plus a jitter of up to half
/// the delay drawn from a [`SimRng`] stream forked from `(seed, salt, n)`
/// — so two cells retrying at once do not hammer the host in lockstep,
/// yet the whole schedule is reproducible from the policy and the cell's
/// salt alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds (0 disables waiting).
    pub base_ms: u64,
    /// Ceiling on the exponential growth, in milliseconds.
    pub max_ms: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Backoff {
    /// A backoff that never waits (retry immediately).
    pub const NONE: Backoff = Backoff {
        base_ms: 0,
        max_ms: 0,
        seed: 0,
    };

    /// The delay in milliseconds before retry `attempt` (1-based) of the
    /// work item identified by `salt`. Deterministic in
    /// `(self, salt, attempt)`.
    pub fn delay_ms(&self, salt: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self
            .base_ms
            .checked_shl(attempt.saturating_sub(1).min(32))
            .unwrap_or(u64::MAX)
            .min(self.max_ms.max(self.base_ms));
        let jitter = SimRng::new(self.seed)
            .fork(salt)
            .fork(attempt as u64)
            .gen_range(exp / 2 + 1);
        exp + jitter
    }
}

/// How the sweep responds to a failed attempt at a cell: up to
/// `max_attempts` tries, separated by deterministic seeded exponential
/// [`Backoff`].
///
/// Only *host-dependent* errors ([`SimError::is_host_dependent`]: a missed
/// wall-clock deadline) are retried — a deterministic error (wedge, queue
/// overflow, expired cycle budget) would fail every retry identically, so
/// it fails fast after one attempt regardless of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (≥ 1; the first run counts as one).
    pub max_attempts: u32,
    /// Wait schedule between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// `max_attempts` tries with no waiting between them.
    pub fn immediate(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::NONE,
        }
    }
}

impl Default for RetryPolicy {
    /// One retry, immediately.
    fn default() -> Self {
        RetryPolicy::immediate(2)
    }
}

/// Runs `attempt` under `policy`, retrying host-dependent failures with
/// the policy's backoff. Returns how many attempts were made alongside the
/// final outcome. `salt` keys the jitter stream (the cell key's low word).
pub(crate) fn retry_with_policy<F>(
    policy: &RetryPolicy,
    salt: u64,
    mut attempt: F,
) -> (u32, Result<SimReport, SimError>)
where
    F: FnMut() -> Result<SimReport, SimError>,
{
    let max = policy.max_attempts.max(1);
    let mut tries = 0u32;
    loop {
        tries += 1;
        match attempt() {
            Ok(report) => return (tries, Ok(report)),
            Err(error) => {
                if !error.is_host_dependent() || tries >= max {
                    return (tries, Err(error));
                }
                let ms = policy.backoff.delay_ms(salt, tries);
                if ms > 0 {
                    thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_helper_counts_attempts_and_stops_on_success() {
        let mut calls = 0;
        let (attempts, out) = retry_with_policy(&RetryPolicy::immediate(5), 7, || {
            calls += 1;
            if calls < 3 {
                Err(SimError::DeadlineExceeded {
                    cycle: 0,
                    budget_seconds: 0.0,
                })
            } else {
                Ok(SimReport::default())
            }
        });
        assert_eq!(attempts, 3);
        assert!(out.is_ok());
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        let b = Backoff {
            base_ms: 100,
            max_ms: 1000,
            seed: 42,
        };
        for attempt in 1..8 {
            let d1 = b.delay_ms(5, attempt);
            let d2 = b.delay_ms(5, attempt);
            assert_eq!(d1, d2, "delays must be reproducible");
            let exp = (100u64 << (attempt - 1)).min(1000);
            assert!(d1 >= exp, "delay below the exponential floor");
            assert!(d1 <= exp + exp / 2, "jitter above half the delay");
        }
        // Different salts draw different jitter streams.
        let draws: Vec<u64> = (0..16).map(|salt| b.delay_ms(salt, 3)).collect();
        let distinct: std::collections::BTreeSet<u64> = draws.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter must vary across salts");
        assert_eq!(Backoff::NONE.delay_ms(1, 1), 0);
    }
}
