//! Writing your own model on the pdes engine: a PCS-style cellular network
//! (the application ROSS itself was validated on — Carothers, Fujimoto &
//! Lin, PADS '95, reference [6] of the paper).
//!
//! Each LP is a cell with a fixed number of radio channels. Calls arrive as
//! a Poisson-ish process, hold a channel for an exponential duration, and
//! hand off to a neighboring cell or complete. Blocked calls (no free
//! channel) are dropped. The model implements full reverse computation, so
//! it runs on the optimistic kernel — and the example verifies sequential
//! and parallel agreement, just like the hot-potato study does.
//!
//! ```sh
//! cargo run --release --example custom_model
//! ```

use pdes::prelude::*;
use pdes::rng::ReversibleRng;

/// Cells arranged on a ring; calls hand off to ring neighbors.
struct PcsNetwork {
    cells: u32,
    channels: u32,
    /// Mean call holding time in steps.
    hold_steps: f64,
}

#[derive(Clone, Debug)]
enum PcsEvent {
    /// A call attempt at this cell. `stream` marks the cell's own arrival
    /// process (which self-perpetuates); handoff attempts have it false.
    CallArrival { id: u64, stream: bool },
    /// An ongoing call ends or hands off.
    CallEnd { id: u64, handoff: bool },
}

#[derive(Default)]
struct CellState {
    busy: u32,
    answered: u64,
    blocked: u64,
    completed: u64,
    handoffs: u64,
}

#[derive(Default, Debug, PartialEq, Eq)]
struct PcsTotals {
    answered: u64,
    blocked: u64,
    completed: u64,
    handoffs: u64,
}

impl Merge for PcsTotals {
    fn merge(&mut self, o: Self) {
        self.answered += o.answered;
        self.blocked += o.blocked;
        self.completed += o.completed;
        self.handoffs += o.handoffs;
    }
}

impl PcsNetwork {
    fn hold_ticks(&self, u: f64) -> u64 {
        // Exponential holding time, at least one tick.
        let t = -self.hold_steps * (1.0 - u).ln() * VirtualTime::STEP as f64;
        (t as u64).max(1)
    }
}

impl Model for PcsNetwork {
    type State = CellState;
    type Payload = PcsEvent;
    type Output = PcsTotals;

    fn n_lps(&self) -> u32 {
        self.cells
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, PcsEvent>) -> CellState {
        // Each cell gets a stream of call arrivals, one per step, jittered.
        let jitter = ctx.rng().integer(1, VirtualTime::STEP - 1);
        let id = (lp as u64) << 40;
        ctx.schedule_at(
            lp,
            VirtualTime(VirtualTime::STEP + jitter),
            id,
            PcsEvent::CallArrival { id, stream: true },
        );
        CellState::default()
    }

    fn handle(&self, state: &mut CellState, ev: &mut PcsEvent, ctx: &mut EventCtx<'_, PcsEvent>) {
        match *ev {
            PcsEvent::CallArrival { id, stream } => {
                // Admit or block.
                if state.busy < self.channels {
                    ctx.bf().set(0, true);
                    state.busy += 1;
                    state.answered += 1;
                    let hold = self.hold_ticks(ctx.rng().uniform());
                    let handoff = ctx.rng().bernoulli(0.3);
                    ctx.schedule_self(hold, id | 1, PcsEvent::CallEnd { id, handoff });
                } else {
                    state.blocked += 1;
                }
                // The cell's arrival process perpetuates itself.
                if stream {
                    let next_id = id + 4;
                    ctx.schedule_self(
                        VirtualTime::STEP,
                        next_id,
                        PcsEvent::CallArrival {
                            id: next_id,
                            stream: true,
                        },
                    );
                }
            }
            PcsEvent::CallEnd { id, handoff } => {
                state.busy -= 1;
                if handoff {
                    state.handoffs += 1;
                    // Hand off to the next cell on the ring as a fresh
                    // arrival (it may be blocked there).
                    let next = (ctx.lp() + 1) % self.cells;
                    let delay = ctx.rng().integer(1, VirtualTime::STEP / 2);
                    ctx.schedule(
                        next,
                        delay,
                        id | 2,
                        PcsEvent::CallArrival {
                            id: id | 2,
                            stream: false,
                        },
                    );
                } else {
                    state.completed += 1;
                }
            }
        }
    }

    fn reverse(&self, state: &mut CellState, ev: &mut PcsEvent, ctx: &ReverseCtx) {
        match *ev {
            PcsEvent::CallArrival { .. } => {
                if ctx.bf().get(0) {
                    state.busy -= 1;
                    state.answered -= 1;
                } else {
                    state.blocked -= 1;
                }
            }
            PcsEvent::CallEnd { handoff, .. } => {
                state.busy += 1;
                if handoff {
                    state.handoffs -= 1;
                } else {
                    state.completed -= 1;
                }
            }
        }
    }

    fn finish(&self, _lp: LpId, s: &CellState, out: &mut PcsTotals) {
        out.answered += s.answered;
        out.blocked += s.blocked;
        out.completed += s.completed;
        out.handoffs += s.handoffs;
    }
}

fn main() {
    let model = PcsNetwork {
        cells: 64,
        channels: 8,
        hold_steps: 3.0,
    };
    let config = EngineConfig::new(VirtualTime::from_steps(300)).with_seed(0x9C5);
    println!("== PCS cellular network: 64 cells, 8 channels, 300 steps ==\n");

    let seq = Run::new(&model, &config)
        .sequential()
        .go()
        .expect("sequential run failed");
    let par = Run::new(&model, &config.clone().with_pes(2).with_kps(16))
        .go()
        .expect("parallel run failed");

    println!("answered : {}", seq.output.answered);
    println!(
        "blocked  : {} ({:.2}% blocking probability)",
        seq.output.blocked,
        100.0 * seq.output.blocked as f64 / (seq.output.blocked + seq.output.answered) as f64
    );
    println!("completed: {}", seq.output.completed);
    println!("handoffs : {}", seq.output.handoffs);
    println!(
        "\nsequential committed {} events; parallel committed {} (rolled back {})",
        seq.stats.events_committed, par.stats.events_committed, par.stats.events_rolled_back
    );

    assert_eq!(seq.output, par.output, "kernels disagree");
    println!("sequential ≡ parallel ✔  (the engine generalizes beyond routing)");
}
