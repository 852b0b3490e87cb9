//! PHOLD: the classic synthetic Time Warp workload, defined here so kernel
//! cost can be measured with the `hotpotato` handler out of the picture.
//!
//! A fixed population of tokens hops between LPs. Handling a token costs a
//! few arithmetic operations and two or three CLCG4 draws: an exponential
//! delay, a remote/local coin, and — for remote hops — a uniform
//! destination. Unlike hot-potato events, which all land exactly one step
//! ahead, PHOLD timestamps are continuously distributed, so the pending set
//! is used the way a general-purpose priority queue expects.

use pdes::audit::AuditHasher;
use pdes::rng::ReversibleRng;
use pdes::{EventCtx, InitCtx, LpId, Merge, Model, ReverseCtx, VirtualTime};

/// The PHOLD model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phold {
    /// Number of LPs.
    pub n_lps: u32,
    /// Tokens each LP starts with.
    pub tokens_per_lp: u32,
    /// Probability a hop goes to a uniformly drawn LP instead of staying.
    pub remote_frac: f64,
}

/// Per-LP state: everything [`Model::reverse`] restores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PholdState {
    /// Tokens handled here.
    pub handled: u64,
    /// Order-sensitive fold of `(token, time)` over the handled tokens, so
    /// a kernel that commits a different order changes the output.
    pub acc: u64,
}

/// A token; its id doubles as the event tie-break (each token has exactly
/// one pending event at any time, so keys never collide).
#[derive(Clone, Copy, Debug)]
pub struct Token(pub u64);

/// Network-wide totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PholdOutput {
    /// Tokens handled by all LPs.
    pub handled: u64,
    /// Order-independent sum of every LP's order-sensitive `acc`.
    pub checksum: u64,
}

impl Merge for PholdOutput {
    fn merge(&mut self, other: Self) {
        self.handled += other.handled;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }
}

impl Phold {
    /// Exponential delay of mean one step, at least one tick.
    fn delay(rng: &mut impl ReversibleRng) -> u64 {
        ((rng.exponential(1.0) * VirtualTime::STEP as f64) as u64).max(1)
    }

    fn stamp(token: Token, at: VirtualTime) -> u64 {
        token.0 ^ at.ticks()
    }
}

impl Model for Phold {
    type State = PholdState;
    type Payload = Token;
    type Output = PholdOutput;

    fn n_lps(&self) -> u32 {
        self.n_lps
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Token>) -> PholdState {
        for k in 0..self.tokens_per_lp {
            let token = lp as u64 * self.tokens_per_lp as u64 + k as u64;
            let at = VirtualTime(Self::delay(ctx.rng()));
            ctx.schedule_at(lp, at, token, Token(token));
        }
        PholdState::default()
    }

    fn handle(&self, state: &mut PholdState, token: &mut Token, ctx: &mut EventCtx<'_, Token>) {
        state.handled += 1;
        state.acc = state.acc.rotate_left(5) ^ Self::stamp(*token, ctx.now());
        let delay = Self::delay(ctx.rng());
        let dst = if ctx.rng().bernoulli(self.remote_frac) {
            ctx.rng().integer(0, self.n_lps as u64 - 1) as LpId
        } else {
            ctx.lp()
        };
        ctx.schedule(dst, delay, token.0, *token);
    }

    fn reverse(&self, state: &mut PholdState, token: &mut Token, ctx: &ReverseCtx) {
        state.acc = (state.acc ^ Self::stamp(*token, ctx.now())).rotate_right(5);
        state.handled -= 1;
    }

    fn audit_state(&self, _lp: LpId, state: &PholdState, h: &mut AuditHasher) {
        h.write_u64(state.handled);
        h.write_u64(state.acc);
    }

    fn finish(&self, lp: LpId, state: &PholdState, out: &mut PholdOutput) {
        out.handled += state.handled;
        out.checksum = out
            .checksum
            .wrapping_add(state.acc.wrapping_mul(2 * lp as u64 + 1));
    }
}
