//! The hot-potato routing simulation model (the paper's `Router.c`).
//!
//! One LP per router. Event flow within a synchronous step (see
//! [`timing`](crate::timing)):
//!
//! * **ARRIVE** — a packet reaches a router. At its destination it is
//!   absorbed (statistics recorded) unless it is Sleeping in
//!   proof-verification mode; otherwise an ROUTE micro-event is scheduled
//!   in the priority band corresponding to the packet's routing precedence.
//! * **ROUTE** — the router picks an outgoing link per the configured
//!   [`PolicyKind`], applies the BHW priority transitions, claims the link
//!   for this step, and schedules the ARRIVE at the neighbor one step later
//!   (carrying the packet's lifetime jitter).
//! * **INJECT** — an injection application attempts to place a new packet
//!   on a free link; on failure the wait counter keeps accruing.
//! * **HEARTBEAT** — optional administrative no-op.
//!
//! Every state mutation is mirrored by the reverse handler using the saved
//! fields in [`Msg`] and the event bitfield, making the model safe under
//! Time Warp rollback. RNG draws are un-stepped by the kernel.
//!
//! Fidelity note: the BHW theory says a Running packet can be deflected
//! only *while turning* and only by another Running packet. In the
//! simulation this is emergent, not enforced: Running packets route first
//! (earliest band), so only another Running packet can have claimed their
//! home-run link — the same practical approximation the paper's simulation
//! makes.

use pdes::ckpt::{CkptError, CkptReader, CkptWriter};
use pdes::model::{EventCtx, InitCtx, ReverseCtx};
use pdes::prelude::*;
use pdes::rng::ReversibleRng;
use topo::{BlockMapping, Direction, Topology, Torus};

use crate::config::HotPotatoConfig;
use crate::msg::{bits, tie, Msg, SavedInject, SavedRoute};
use crate::packet::{Packet, PacketId, Priority};
use crate::policy::PolicyKind;
use crate::router::RouterState;
use crate::stats::NetStats;
use crate::timing::{arrive_time, inject_time, route_time, HEARTBEAT_PHASE, JITTER_SPAN};

/// Codes for the model-level notes this model drops into the kernel's
/// flight recorder via [`EventCtx::note`] (kind
/// [`ModelNote`](pdes::obs::ObsKind::ModelNote)). The note's `arg` carries the
/// packet id (or, for [`ABSORB`](notes::ABSORB), the delivered packet's
/// deflection count). Notes are recorded at execution time — speculated
/// executions leave notes even if later rolled back (see
/// [`EventCtx::note`]); committed truth lives in
/// [`NetStats`](crate::stats::NetStats).
pub mod notes {
    /// A packet was deflected off its desired link.
    pub const DEFLECT: u64 = 1;
    /// A packet was absorbed at its destination (`arg` = its deflections).
    pub const ABSORB: u64 = 2;
    /// An injector placed a new packet on a free link.
    pub const INJECT: u64 = 3;
    /// An injection attempt found no free link.
    pub const INJECT_FAIL: u64 = 4;
    /// A transiently over-subscribed router parked a packet one step
    /// (possible only in speculative states; never commits).
    pub const STALL: u64 = 5;
}

/// Codes for the causal hops this model emits into the kernel's *committed*
/// packet trace via [`EventCtx::trace_hop`]. Unlike [`notes`], hops follow
/// the committed history (rolled-back executions leave none), so the
/// lineage `INJECT → ROUTE* → ABSORB` per packet carries exact per-packet
/// latency and deflection counts, bit-identical between kernels. `packet`
/// is always the packed [`PacketId`]; `arg` packs kind-specific values via
/// the helpers here.
pub mod hops {
    /// Packet entered the network; `arg` = steps its injector waited for a
    /// free link.
    pub const INJECT: u8 = 1;
    /// Packet was routed one step; `arg` = [`pack_route`].
    pub const ROUTE: u8 = 2;
    /// Packet was absorbed at its destination; `arg` = [`pack_absorb`].
    pub const ABSORB: u8 = 3;

    /// Pack a ROUTE hop's argument: whether this hop deflected the packet,
    /// and its total deflection count after the hop.
    pub fn pack_route(deflected: bool, deflections_after: u32) -> u64 {
        ((deflected as u64) << 32) | deflections_after as u64
    }

    /// Inverse of [`pack_route`].
    pub fn unpack_route(arg: u64) -> (bool, u32) {
        (arg >> 32 != 0, arg as u32)
    }

    /// Pack an ABSORB hop's argument: the step the packet was injected at
    /// and its final deflection count. Injection steps are bounded by the
    /// run horizon, far below 2³².
    pub fn pack_absorb(injected_step: u64, deflections: u32) -> u64 {
        debug_assert!(injected_step < 1 << 32, "horizon exceeds ABSORB packing");
        (injected_step << 32) | deflections as u64
    }

    /// Inverse of [`pack_absorb`].
    pub fn unpack_absorb(arg: u64) -> (u64, u32) {
        (arg >> 32, arg as u32)
    }
}

/// The simulation model: an N×N grid of hot-potato routers.
pub struct HotPotatoModel<T: Topology> {
    topo: T,
    cfg: HotPotatoConfig,
}

impl HotPotatoModel<Torus> {
    /// The paper's setup: an N×N torus.
    pub fn torus(cfg: HotPotatoConfig) -> Self {
        let topo = Torus::new(cfg.n);
        Self::with_topology(topo, cfg)
    }
}

impl HotPotatoModel<topo::Mesh> {
    /// The SPAA-analysis topology: an open N×N mesh.
    pub fn mesh(cfg: HotPotatoConfig) -> Self {
        let topo = topo::Mesh::new(cfg.n);
        Self::with_topology(topo, cfg)
    }
}

impl<T: Topology> HotPotatoModel<T> {
    /// Build a model over any [`Topology`] whose node count matches `n²`.
    pub fn with_topology(topo: T, cfg: HotPotatoConfig) -> Self {
        assert_eq!(
            topo.n_nodes(),
            cfg.n * cfg.n,
            "topology/config dimension mismatch"
        );
        assert!(
            topo.n_nodes() < tie::MAX_LP,
            "grid too large for the tie namespace"
        );
        HotPotatoModel { topo, cfg }
    }

    /// The run configuration.
    pub fn config(&self) -> &HotPotatoConfig {
        &self.cfg
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Virtual-time horizon covering exactly `cfg.steps` full steps.
    pub fn end_time(&self) -> VirtualTime {
        VirtualTime::from_steps(self.cfg.steps + 1)
    }

    /// A [`Run`] of this model under `engine`, with the horizon set to
    /// [`end_time`](Self::end_time) and the paper's rectangular block
    /// LP→KP→PE mapping (Section 3.2.3). Further builder steps — another
    /// `.mapping(..)`, `.sequential()`, `.resume(..)`, … — apply as usual.
    pub fn run(&self, engine: &EngineConfig) -> Run<'_, Self> {
        let mut cfg = engine.clone();
        cfg.end_time = self.end_time();
        Run::new(self, &cfg).mapping(BlockMapping::new(self.cfg.n, cfg.n_kps, cfg.n_pes))
    }

    // ---- forward handlers -------------------------------------------------

    fn handle_arrive(&self, state: &mut RouterState, pkt: Packet, ctx: &mut EventCtx<'_, Msg>) {
        let lp = ctx.lp();
        let step = ctx.now().step();
        if pkt.dst == lp {
            // Absorb at the destination. Sleeping packets are only absorbed
            // in practical mode (absorb_sleeping); in proof-verification
            // mode they keep moving, as in the paper's model.
            let absorb = pkt.priority != Priority::Sleeping || self.cfg.absorb_sleeping;
            if absorb {
                ctx.bf().set(bits::ABSORB, true);
                state.stats.delivered += 1;
                state.stats.transit_steps_sum += step - pkt.injected_step;
                state.stats.distance_sum += self.topo.distance(pkt.src, lp) as u64;
                state.stats.delivered_deflections_sum += pkt.deflections as u64;
                ctx.note(notes::ABSORB, pkt.deflections as u64);
                ctx.trace_hop(
                    hops::ABSORB,
                    pkt.id.0,
                    hops::pack_absorb(pkt.injected_step, pkt.deflections),
                );
                return;
            }
        }
        // Schedule the routing decision in this packet's precedence band.
        let prec = self.cfg.policy.precedence(&pkt, step, self.cfg.n);
        let rt = route_time(step, prec, pkt.jitter);
        let delay = rt - ctx.now();
        ctx.schedule_self(
            delay,
            pkt.id.0,
            Msg::Route {
                packet: pkt,
                saved: SavedRoute::default(),
            },
        );
    }

    fn handle_route(
        &self,
        state: &mut RouterState,
        pkt: Packet,
        saved: &mut SavedRoute,
        ctx: &mut EventCtx<'_, Msg>,
    ) {
        let lp = ctx.lp();
        let step = ctx.now().step();
        self.ensure_step(
            state,
            step,
            ctx,
            &mut saved.old_links,
            &mut saved.old_cur_step,
        );

        let free = state.free_links(self.topo.link_dirs(lp));
        if free.is_empty() {
            // In causally-consistent states the deflection guarantee makes
            // this impossible (≤ 4 resident packets, 4 links). Under
            // optimistic execution a stale duplicate branch can transiently
            // over-subscribe the router; park the packet one step and let
            // the inevitable rollback clean up (committed stalls are
            // asserted to be zero by the test suite).
            ctx.bf().set(bits::STALLED, true);
            state.stats.stalls += 1;
            ctx.note(notes::STALL, pkt.id.0);
            let at = arrive_time(step + 1, pkt.jitter);
            ctx.schedule_self(at - ctx.now(), pkt.id.0, Msg::Arrive { packet: pkt });
            return;
        }
        let decision = self
            .cfg
            .policy
            .decide(&self.topo, lp, &pkt, free, ctx.rng());

        // BHW priority transitions (paper Section 1.2.4).
        let mut out = pkt;
        if self.cfg.policy == PolicyKind::Bhw {
            match pkt.priority {
                Priority::Sleeping => {
                    // On being routed: wake with probability 1/(24N).
                    let p = self.cfg.p_wake();
                    if ctx.rng().bernoulli(p) {
                        out.priority = Priority::Active;
                        ctx.bf().set(bits::PROMOTE, true);
                        state.stats.promotions += 1;
                    }
                }
                Priority::Active => {
                    // On deflection: get excited with probability 1/(16N).
                    if decision.deflected {
                        let p = self.cfg.p_excite();
                        if ctx.rng().bernoulli(p) {
                            out.priority = Priority::Excited;
                            ctx.bf().set(bits::PROMOTE, true);
                            state.stats.promotions += 1;
                        }
                    }
                }
                Priority::Excited => {
                    if decision.deflected {
                        out.priority = Priority::Active;
                        ctx.bf().set(bits::DEMOTE, true);
                        state.stats.demotions += 1;
                    } else {
                        // Took its home-run link: now Running.
                        out.priority = Priority::Running;
                        ctx.bf().set(bits::PROMOTE, true);
                        state.stats.promotions += 1;
                    }
                }
                Priority::Running => {
                    if decision.deflected {
                        out.priority = Priority::Active;
                        ctx.bf().set(bits::DEMOTE, true);
                        state.stats.demotions += 1;
                    }
                }
            }
        }

        state.stats.routes += 1;
        state.stats.routes_by_priority[pkt.priority.rank() as usize] += 1;
        if decision.deflected {
            ctx.bf().set(bits::DEFLECT, true);
            state.stats.deflections += 1;
            out.deflections += 1;
            ctx.note(notes::DEFLECT, pkt.id.0);
        }
        ctx.trace_hop(
            hops::ROUTE,
            pkt.id.0,
            hops::pack_route(decision.deflected, out.deflections),
        );
        state.take_link(decision.dir);
        saved.chosen = decision.dir.index() as u8;
        out.last_dir = Some(decision.dir);

        let neighbor = self
            .topo
            .neighbor(lp, decision.dir)
            .expect("chosen link exists");
        let at = arrive_time(step + 1, out.jitter);
        ctx.schedule(
            neighbor,
            at - ctx.now(),
            out.id.0,
            Msg::Arrive { packet: out },
        );
    }

    fn handle_inject(
        &self,
        state: &mut RouterState,
        saved: &mut SavedInject,
        ctx: &mut EventCtx<'_, Msg>,
    ) {
        let lp = ctx.lp();
        let step = ctx.now().step();
        debug_assert!(state.is_injector, "INJECT at a non-injector router");
        self.ensure_step(
            state,
            step,
            ctx,
            &mut saved.old_links,
            &mut saved.old_cur_step,
        );

        state.stats.inject_attempts += 1;
        let free = state.free_links(self.topo.link_dirs(lp));
        if free.is_empty() {
            // No free link: the pending packet keeps waiting.
            ctx.bf().set(bits::INJECT_FAIL, true);
            state.stats.inject_failures += 1;
            ctx.note(notes::INJECT_FAIL, lp as u64);
        } else {
            ctx.bf().set(bits::INJECTED, true);
            // Fixed draw order: link, destination, jitter.
            let k = ctx.rng().integer(0, (free.len() - 1) as u64) as u32;
            let dir = free.nth(k).expect("nth within len");
            let r = ctx.rng().integer(0, self.topo.n_nodes() as u64 - 2) as u32;
            let dst = if r >= lp { r + 1 } else { r };
            let jitter = ctx.rng().integer(0, JITTER_SPAN - 1);

            let id = PacketId::new(lp, state.next_seq);
            state.next_seq += 1;
            let wait = step - state.pending_since_step;
            saved.wait_steps = wait;
            saved.old_pending_since = state.pending_since_step;
            saved.old_max_wait = state.stats.max_wait_steps;
            state.stats.injected += 1;
            state.stats.wait_steps_sum += wait;
            state.stats.max_wait_steps = state.stats.max_wait_steps.max(wait);
            state.pending_since_step = step + 1;
            state.take_link(dir);
            saved.chosen = dir.index() as u8;

            let pkt = Packet {
                id,
                dst,
                src: lp,
                priority: Priority::Sleeping,
                injected_step: step,
                jitter,
                last_dir: Some(dir),
                deflections: 0,
            };
            let neighbor = self.topo.neighbor(lp, dir).expect("free link exists");
            let at = arrive_time(step + 1, jitter);
            ctx.note(notes::INJECT, id.0);
            ctx.trace_hop(hops::INJECT, id.0, wait);
            ctx.schedule(neighbor, at - ctx.now(), id.0, Msg::Arrive { packet: pkt });
        }

        // The application attempts an injection every step.
        let next = inject_time(step + 1, lp);
        ctx.schedule_self(
            next - ctx.now(),
            tie::inject(lp),
            Msg::Inject {
                saved: SavedInject::default(),
            },
        );
    }

    fn handle_heartbeat(&self, state: &mut RouterState, ctx: &mut EventCtx<'_, Msg>) {
        let lp = ctx.lp();
        state.stats.heartbeats += 1;
        let every = self
            .cfg
            .heartbeat_every
            .expect("heartbeat event without config");
        let next = VirtualTime::from_parts(ctx.now().step() + every, HEARTBEAT_PHASE);
        ctx.schedule_self(next - ctx.now(), tie::heartbeat(lp), Msg::Heartbeat);
    }

    /// Lazily reset the per-step link occupancy on the first ROUTE/INJECT
    /// of a new step, saving the overwritten values for reverse.
    #[inline]
    fn ensure_step(
        &self,
        state: &mut RouterState,
        step: u64,
        ctx: &mut EventCtx<'_, Msg>,
        old_links: &mut u8,
        old_cur_step: &mut u64,
    ) {
        if state.cur_step != step {
            ctx.bf().set(bits::RESET, true);
            *old_links = state.links;
            *old_cur_step = state.cur_step;
            state.cur_step = step;
            state.links = 0;
        }
    }
}

impl<T: Topology> Model for HotPotatoModel<T> {
    type State = RouterState;
    type Payload = Msg;
    type Output = NetStats;

    fn n_lps(&self) -> u32 {
        self.topo.n_nodes()
    }

    /// One step: every event a router schedules for a neighbour is an
    /// ARRIVE at the start of the next step (`arrive_time(step + 1, ..)`);
    /// everything else it schedules is for itself. On torus and mesh alike,
    /// a run bounded to one step of optimism is therefore windowed and
    /// rollback-free.
    fn epoch(&self) -> Option<u64> {
        Some(VirtualTime::STEP)
    }

    fn init(&self, lp: LpId, ctx: &mut InitCtx<'_, Msg>) -> RouterState {
        let mut state = RouterState::default();

        // probability_i: each router is an injector with this probability
        // (always one draw, so streams stay aligned across configurations).
        let u = ctx.rng().uniform();
        state.is_injector = u < self.cfg.injector_fraction;

        // "The network is initialized to full": pre-load packets arriving
        // at this router at step 1.
        for _ in 0..self.cfg.initial_packets {
            let r = ctx.rng().integer(0, self.topo.n_nodes() as u64 - 2) as u32;
            let dst = if r >= lp { r + 1 } else { r };
            let jitter = ctx.rng().integer(0, JITTER_SPAN - 1);
            let id = PacketId::new(lp, state.next_seq);
            state.next_seq += 1;
            let pkt = Packet {
                id,
                dst,
                src: lp,
                priority: Priority::Sleeping,
                injected_step: 0,
                jitter,
                last_dir: None,
                deflections: 0,
            };
            ctx.schedule_at(
                lp,
                arrive_time(1, jitter),
                id.0,
                Msg::Arrive { packet: pkt },
            );
        }

        if state.is_injector {
            state.pending_since_step = 1;
            ctx.schedule_at(
                lp,
                inject_time(1, lp),
                tie::inject(lp),
                Msg::Inject {
                    saved: SavedInject::default(),
                },
            );
        }
        if self.cfg.heartbeat_every.is_some() {
            ctx.schedule_at(
                lp,
                VirtualTime::from_parts(1, HEARTBEAT_PHASE),
                tie::heartbeat(lp),
                Msg::Heartbeat,
            );
        }
        state
    }

    fn handle(&self, state: &mut RouterState, payload: &mut Msg, ctx: &mut EventCtx<'_, Msg>) {
        match payload {
            Msg::Arrive { packet } => self.handle_arrive(state, *packet, ctx),
            Msg::Route { packet, saved } => {
                let pkt = *packet;
                self.handle_route(state, pkt, saved, ctx);
            }
            Msg::Inject { saved } => self.handle_inject(state, saved, ctx),
            Msg::Heartbeat => self.handle_heartbeat(state, ctx),
        }
    }

    fn reverse(&self, state: &mut RouterState, payload: &mut Msg, ctx: &ReverseCtx) {
        let bf = ctx.bf();
        match payload {
            Msg::Arrive { packet } => {
                if bf.get(bits::ABSORB) {
                    state.stats.delivered -= 1;
                    state.stats.transit_steps_sum -= ctx.now().step() - packet.injected_step;
                    state.stats.distance_sum -= self.topo.distance(packet.src, ctx.lp()) as u64;
                    state.stats.delivered_deflections_sum -= packet.deflections as u64;
                }
            }
            Msg::Route { packet, saved } => {
                if bf.get(bits::STALLED) {
                    // The stalled branch only counted the stall (after a
                    // possible step reset, undone below).
                    state.stats.stalls -= 1;
                    if bf.get(bits::RESET) {
                        state.links = saved.old_links;
                        state.cur_step = saved.old_cur_step;
                    }
                    return;
                }
                state.stats.routes -= 1;
                state.stats.routes_by_priority[packet.priority.rank() as usize] -= 1;
                if bf.get(bits::DEFLECT) {
                    state.stats.deflections -= 1;
                }
                if bf.get(bits::PROMOTE) {
                    state.stats.promotions -= 1;
                }
                if bf.get(bits::DEMOTE) {
                    state.stats.demotions -= 1;
                }
                if bf.get(bits::RESET) {
                    state.links = saved.old_links;
                    state.cur_step = saved.old_cur_step;
                } else {
                    state.release_link(Direction::from_index(saved.chosen as usize));
                }
            }
            Msg::Inject { saved } => {
                state.stats.inject_attempts -= 1;
                if bf.get(bits::INJECT_FAIL) {
                    state.stats.inject_failures -= 1;
                }
                if bf.get(bits::INJECTED) {
                    state.stats.injected -= 1;
                    state.stats.wait_steps_sum -= saved.wait_steps;
                    state.stats.max_wait_steps = saved.old_max_wait;
                    state.pending_since_step = saved.old_pending_since;
                    state.next_seq -= 1;
                    if !bf.get(bits::RESET) {
                        state.release_link(Direction::from_index(saved.chosen as usize));
                    }
                }
                if bf.get(bits::RESET) {
                    state.links = saved.old_links;
                    state.cur_step = saved.old_cur_step;
                }
            }
            Msg::Heartbeat => {
                state.stats.heartbeats -= 1;
            }
        }
    }

    fn finish(&self, _lp: LpId, state: &RouterState, out: &mut NetStats) {
        out.absorb_router(&state.stats, state.is_injector);
    }

    fn audit_state(&self, _lp: LpId, state: &RouterState, h: &mut AuditHasher) {
        // Every reversible field of RouterState, in declaration order; the
        // auditor's reverse-replay probe and rollback hash check compare
        // this digest (plus the RNG stream position) across undo paths.
        h.write_u64(state.cur_step);
        h.write_u64(state.links as u64);
        h.write_bool(state.is_injector);
        h.write_u64(state.pending_since_step);
        h.write_u32(state.next_seq);
        let s = &state.stats;
        h.write_u64(s.delivered);
        h.write_u64(s.transit_steps_sum);
        h.write_u64(s.distance_sum);
        h.write_u64(s.delivered_deflections_sum);
        h.write_u64(s.injected);
        h.write_u64(s.wait_steps_sum);
        h.write_u64(s.max_wait_steps);
        h.write_u64(s.inject_attempts);
        h.write_u64(s.inject_failures);
        h.write_u64(s.routes);
        for r in s.routes_by_priority {
            h.write_u64(r);
        }
        h.write_u64(s.deflections);
        h.write_u64(s.promotions);
        h.write_u64(s.demotions);
        h.write_u64(s.heartbeats);
        h.write_u64(s.stalls);
    }

    // ---- checkpoint serialization (see [`pdes::ckpt`]) --------------------
    //
    // All-integer state, encoded field by field in `audit_state` order so a
    // decoded state necessarily reproduces the captured audit fingerprint.

    fn save_state(
        &self,
        _lp: LpId,
        state: &RouterState,
        w: &mut CkptWriter,
    ) -> Result<(), CkptError> {
        w.u64(state.cur_step);
        w.u8(state.links);
        w.bool(state.is_injector);
        w.u64(state.pending_since_step);
        w.u32(state.next_seq);
        let s = &state.stats;
        w.u64(s.delivered);
        w.u64(s.transit_steps_sum);
        w.u64(s.distance_sum);
        w.u64(s.delivered_deflections_sum);
        w.u64(s.injected);
        w.u64(s.wait_steps_sum);
        w.u64(s.max_wait_steps);
        w.u64(s.inject_attempts);
        w.u64(s.inject_failures);
        w.u64(s.routes);
        for r in s.routes_by_priority {
            w.u64(r);
        }
        w.u64(s.deflections);
        w.u64(s.promotions);
        w.u64(s.demotions);
        w.u64(s.heartbeats);
        w.u64(s.stalls);
        Ok(())
    }

    fn load_state(&self, lp: LpId, r: &mut CkptReader<'_>) -> Result<RouterState, CkptError> {
        let mut state = RouterState {
            cur_step: r.u64()?,
            links: r.u8()?,
            is_injector: r.bool()?,
            pending_since_step: r.u64()?,
            next_seq: r.u32()?,
            ..RouterState::default()
        };
        if state.links & !0b1111 != 0 {
            return Err(CkptError::Corrupt(format!(
                "router {lp}: link mask {:#x} sets nonexistent links",
                state.links
            )));
        }
        let s = &mut state.stats;
        s.delivered = r.u64()?;
        s.transit_steps_sum = r.u64()?;
        s.distance_sum = r.u64()?;
        s.delivered_deflections_sum = r.u64()?;
        s.injected = r.u64()?;
        s.wait_steps_sum = r.u64()?;
        s.max_wait_steps = r.u64()?;
        s.inject_attempts = r.u64()?;
        s.inject_failures = r.u64()?;
        s.routes = r.u64()?;
        for slot in s.routes_by_priority.iter_mut() {
            *slot = r.u64()?;
        }
        s.deflections = r.u64()?;
        s.promotions = r.u64()?;
        s.demotions = r.u64()?;
        s.heartbeats = r.u64()?;
        s.stalls = r.u64()?;
        Ok(state)
    }

    fn save_payload(&self, payload: &Msg, w: &mut CkptWriter) -> Result<(), CkptError> {
        match payload {
            Msg::Arrive { packet } => {
                w.u8(0);
                save_packet(packet, w);
            }
            Msg::Route { packet, saved } => {
                w.u8(1);
                save_packet(packet, w);
                w.u8(saved.old_links);
                w.u64(saved.old_cur_step);
                w.u8(saved.chosen);
            }
            Msg::Inject { saved } => {
                w.u8(2);
                w.u8(saved.old_links);
                w.u64(saved.old_cur_step);
                w.u8(saved.chosen);
                w.u64(saved.old_pending_since);
                w.u64(saved.old_max_wait);
                w.u64(saved.wait_steps);
            }
            Msg::Heartbeat => w.u8(3),
        }
        Ok(())
    }

    fn load_payload(&self, r: &mut CkptReader<'_>) -> Result<Msg, CkptError> {
        match r.u8()? {
            0 => Ok(Msg::Arrive {
                packet: load_packet(r)?,
            }),
            1 => Ok(Msg::Route {
                packet: load_packet(r)?,
                saved: SavedRoute {
                    old_links: r.u8()?,
                    old_cur_step: r.u64()?,
                    chosen: r.u8()?,
                },
            }),
            2 => Ok(Msg::Inject {
                saved: SavedInject {
                    old_links: r.u8()?,
                    old_cur_step: r.u64()?,
                    chosen: r.u8()?,
                    old_pending_since: r.u64()?,
                    old_max_wait: r.u64()?,
                    wait_steps: r.u64()?,
                },
            }),
            3 => Ok(Msg::Heartbeat),
            tag => Err(CkptError::Corrupt(format!("unknown Msg tag {tag}"))),
        }
    }
}

/// Encode a [`Packet`] field by field (declaration order).
fn save_packet(p: &Packet, w: &mut CkptWriter) {
    w.u64(p.id.0);
    w.u32(p.dst);
    w.u32(p.src);
    w.u8(p.priority.rank());
    w.u64(p.injected_step);
    w.u64(p.jitter);
    // 0 = no last link; else `Direction` index + 1.
    w.u8(p.last_dir.map_or(0, |d| d.index() as u8 + 1));
    w.u32(p.deflections);
}

/// Inverse of [`save_packet`], rejecting out-of-range enums.
fn load_packet(r: &mut CkptReader<'_>) -> Result<Packet, CkptError> {
    let id = PacketId(r.u64()?);
    let dst = r.u32()?;
    let src = r.u32()?;
    let rank = r.u8()?;
    if rank > 3 {
        return Err(CkptError::Corrupt(format!("packet priority rank {rank}")));
    }
    let priority = Priority::from_rank(rank);
    let injected_step = r.u64()?;
    let jitter = r.u64()?;
    let last_dir = match r.u8()? {
        0 => None,
        d if d <= 4 => Some(Direction::from_index(d as usize - 1)),
        d => return Err(CkptError::Corrupt(format!("packet direction code {d}"))),
    };
    let deflections = r.u32()?;
    Ok(Packet {
        id,
        dst,
        src,
        priority,
        injected_step,
        jitter,
        last_dir,
        deflections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdes::event::Bitfield;
    use pdes::model::Emit;
    use pdes::rng::Clcg4;

    fn model(n: u32) -> HotPotatoModel<Torus> {
        HotPotatoModel::torus(HotPotatoConfig::new(n, 100))
    }

    fn arrive_msg(pkt: Packet) -> Msg {
        Msg::Arrive { packet: pkt }
    }

    fn test_packet(dst: LpId, priority: Priority) -> Packet {
        Packet {
            id: PacketId::new(3, 1),
            dst,
            src: 3,
            priority,
            injected_step: 2,
            jitter: 1234,
            last_dir: None,
            deflections: 0,
        }
    }

    /// Drive one event by hand, returning emissions and draw count.
    fn drive(
        m: &HotPotatoModel<Torus>,
        state: &mut RouterState,
        msg: &mut Msg,
        lp: LpId,
        now: VirtualTime,
        rng: &mut Clcg4,
    ) -> (Bitfield, Vec<Emit<Msg>>, u64) {
        let mut bf = Bitfield::default();
        let mut out = Vec::new();
        let before = rng.call_count();
        {
            let mut ctx = EventCtx::synthetic(lp, lp, now, &mut bf, rng, &mut out);
            m.handle(state, msg, &mut ctx);
        }
        (bf, out, rng.call_count() - before)
    }

    #[test]
    fn run_without_pes_or_kps_is_config_invalid() {
        // The builders assert, so break the counts by hand: the block
        // mapping `run` sets must not assert before the config is checked.
        let m = model(4);
        for (pes, kps) in [(0, 16), (2, 0), (0, 0)] {
            let mut engine = EngineConfig::new(m.end_time());
            (engine.n_pes, engine.n_kps) = (pes, kps);
            let r = m.run(&engine).go();
            assert!(
                matches!(r, Err(RunError::ConfigInvalid { .. })),
                "pes={pes} kps={kps}: {:?}",
                r.err()
            );
        }
    }

    #[test]
    fn arrival_at_destination_is_absorbed() {
        let m = model(8);
        let mut state = RouterState::default();
        let mut rng = Clcg4::new(1);
        let mut msg = arrive_msg(test_packet(5, Priority::Active));
        let now = arrive_time(7, 1234);
        let (bf, out, draws) = drive(&m, &mut state, &mut msg, 5, now, &mut rng);
        assert!(bf.get(bits::ABSORB));
        assert!(out.is_empty(), "absorbed packets schedule nothing");
        assert_eq!(draws, 0);
        assert_eq!(state.stats.delivered, 1);
        assert_eq!(state.stats.transit_steps_sum, 5); // step 7 - injected 2
        assert_eq!(
            state.stats.distance_sum,
            Torus::new(8).distance(3, 5) as u64
        );
    }

    #[test]
    fn sleeping_arrival_at_destination_routes_on_in_proof_mode() {
        let cfg = HotPotatoConfig::new(8, 100).with_absorb_sleeping(false);
        let m = HotPotatoModel::torus(cfg);
        let mut state = RouterState::default();
        let mut rng = Clcg4::new(1);
        let mut msg = arrive_msg(test_packet(5, Priority::Sleeping));
        let (bf, out, _) = drive(&m, &mut state, &mut msg, 5, arrive_time(7, 1234), &mut rng);
        assert!(!bf.get(bits::ABSORB));
        assert_eq!(state.stats.delivered, 0);
        assert_eq!(out.len(), 1, "schedules its ROUTE micro-event");
        assert!(matches!(out[0].payload, Msg::Route { .. }));
        assert_eq!(out[0].dst, 5, "ROUTE is a self event");
    }

    #[test]
    fn arrival_elsewhere_schedules_route_in_priority_band() {
        let m = model(8);
        let mut state = RouterState::default();
        let mut rng = Clcg4::new(1);
        for (prio, band) in [(Priority::Running, 0u64), (Priority::Sleeping, 3u64)] {
            let mut msg = arrive_msg(test_packet(9, prio));
            let (_, out, _) = drive(&m, &mut state, &mut msg, 5, arrive_time(7, 1234), &mut rng);
            assert_eq!(out.len(), 1);
            let sub = out[0].recv_time.sub_step();
            let base = crate::timing::ROUTE_BASE + band * crate::timing::ROUTE_BAND;
            assert!(
                (base..base + crate::timing::ROUTE_BAND).contains(&sub),
                "{prio:?} routed at sub-step {sub}, expected band {band}"
            );
        }
    }

    #[test]
    fn route_claims_link_and_forwards_packet() {
        let m = model(8);
        let mut state = RouterState {
            cur_step: 99, // stale step forces a reset
            links: 0b1111,
            ..Default::default()
        };
        let mut rng = Clcg4::new(2);
        let pkt = test_packet(1, Priority::Sleeping); // dst = (0,1): East good
        let mut msg = Msg::Route {
            packet: pkt,
            saved: SavedRoute::default(),
        };
        let now = route_time(7, Priority::Sleeping, pkt.jitter);
        let (bf, out, _) = drive(&m, &mut state, &mut msg, 0, now, &mut rng);
        assert!(bf.get(bits::RESET), "stale step must reset the link mask");
        assert_eq!(state.cur_step, 7);
        assert!(state.is_taken(Direction::East));
        assert!(!bf.get(bits::DEFLECT));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1);
        assert_eq!(out[0].recv_time.step(), 8, "arrives next step");
        match &out[0].payload {
            Msg::Arrive { packet } => {
                assert_eq!(packet.last_dir, Some(Direction::East));
                assert_eq!(packet.jitter, pkt.jitter, "jitter is carried for life");
            }
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn route_deflects_when_good_links_taken() {
        let m = model(8);
        let mut state = RouterState {
            cur_step: 7,
            ..Default::default()
        };
        state.take_link(Direction::East); // the only good link for dst=(0,1)
        let mut rng = Clcg4::new(3);
        let pkt = test_packet(1, Priority::Active);
        let mut msg = Msg::Route {
            packet: pkt,
            saved: SavedRoute::default(),
        };
        let now = route_time(7, Priority::Active, pkt.jitter);
        let (bf, out, _) = drive(&m, &mut state, &mut msg, 0, now, &mut rng);
        assert!(bf.get(bits::DEFLECT));
        assert_eq!(state.stats.deflections, 1);
        match &out[0].payload {
            Msg::Arrive { packet } => assert_ne!(packet.last_dir, Some(Direction::East)),
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn excited_promotes_to_running_on_home_run() {
        let m = model(8);
        let mut state = RouterState {
            cur_step: 7,
            ..Default::default()
        };
        let mut rng = Clcg4::new(4);
        let pkt = test_packet(3, Priority::Excited); // same row, East is home-run
        let mut msg = Msg::Route {
            packet: pkt,
            saved: SavedRoute::default(),
        };
        let now = route_time(7, Priority::Excited, pkt.jitter);
        let (bf, out, draws) = drive(&m, &mut state, &mut msg, 0, now, &mut rng);
        assert!(bf.get(bits::PROMOTE));
        assert_eq!(draws, 0, "home-run hit draws nothing");
        match &out[0].payload {
            Msg::Arrive { packet } => assert_eq!(packet.priority, Priority::Running),
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn excited_demotes_to_active_on_deflection() {
        let m = model(8);
        let mut state = RouterState {
            cur_step: 7,
            ..Default::default()
        };
        state.take_link(Direction::East);
        let mut rng = Clcg4::new(4);
        let pkt = test_packet(3, Priority::Excited);
        let mut msg = Msg::Route {
            packet: pkt,
            saved: SavedRoute::default(),
        };
        let now = route_time(7, Priority::Excited, pkt.jitter);
        let (bf, out, _) = drive(&m, &mut state, &mut msg, 0, now, &mut rng);
        assert!(bf.get(bits::DEMOTE));
        assert!(bf.get(bits::DEFLECT));
        match &out[0].payload {
            Msg::Arrive { packet } => assert_eq!(packet.priority, Priority::Active),
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn inject_succeeds_on_free_link_and_reschedules() {
        let m = model(8);
        let mut state = RouterState {
            is_injector: true,
            pending_since_step: 1,
            ..Default::default()
        };
        let mut rng = Clcg4::new(5);
        let mut msg = Msg::Inject {
            saved: SavedInject::default(),
        };
        let now = inject_time(4, 0);
        let (bf, out, draws) = drive(&m, &mut state, &mut msg, 0, now, &mut rng);
        assert!(bf.get(bits::INJECTED));
        assert_eq!(draws, 3, "link, destination, jitter");
        assert_eq!(state.stats.injected, 1);
        assert_eq!(state.stats.wait_steps_sum, 3); // waited steps 1..4
        assert_eq!(state.stats.max_wait_steps, 3);
        assert_eq!(state.pending_since_step, 5);
        assert_eq!(state.next_seq, 1);
        assert_eq!(out.len(), 2, "packet ARRIVE + next INJECT");
        assert!(matches!(out[0].payload, Msg::Arrive { .. }));
        assert!(matches!(out[1].payload, Msg::Inject { .. }));
        assert_eq!(out[1].recv_time.step(), 5);
        match &out[0].payload {
            Msg::Arrive { packet } => {
                assert_ne!(packet.dst, 0, "never inject to self");
                assert_eq!(packet.injected_step, 4);
                assert_eq!(packet.priority, Priority::Sleeping);
            }
            other => panic!("expected Arrive, got {other:?}"),
        }
    }

    #[test]
    fn inject_fails_when_all_links_taken() {
        let m = model(8);
        let mut state = RouterState {
            is_injector: true,
            pending_since_step: 1,
            cur_step: 4,
            ..Default::default()
        };
        for d in topo::ALL_DIRECTIONS {
            state.take_link(d);
        }
        let mut rng = Clcg4::new(5);
        let mut msg = Msg::Inject {
            saved: SavedInject::default(),
        };
        let (bf, out, draws) = drive(&m, &mut state, &mut msg, 0, inject_time(4, 0), &mut rng);
        assert!(bf.get(bits::INJECT_FAIL));
        assert_eq!(draws, 0);
        assert_eq!(state.stats.injected, 0);
        assert_eq!(state.stats.inject_failures, 1);
        assert_eq!(out.len(), 1, "only the next INJECT attempt");
        assert_eq!(state.pending_since_step, 1, "still waiting since step 1");
    }

    #[test]
    fn init_preloads_four_packets_and_injector() {
        let m = model(8);
        let mut rng = Clcg4::new(6);
        let mut out = Vec::new();
        let state = {
            let mut ctx = InitCtx::synthetic(9, &mut rng, &mut out);
            m.init(9, &mut ctx)
        };
        assert!(state.is_injector, "fraction 1.0 makes everyone an injector");
        let arrives = out
            .iter()
            .filter(|e| matches!(e.payload, Msg::Arrive { .. }))
            .count();
        let injects = out
            .iter()
            .filter(|e| matches!(e.payload, Msg::Inject { .. }))
            .count();
        assert_eq!(arrives, 4);
        assert_eq!(injects, 1);
        for e in &out {
            assert_eq!(e.recv_time.step(), 1, "everything starts at step 1");
            if let Msg::Arrive { packet } = &e.payload {
                assert_ne!(packet.dst, 9);
                assert_eq!(e.dst, 9);
            }
        }
    }

    #[test]
    fn zero_injector_fraction_means_static_run() {
        let cfg = HotPotatoConfig::new(8, 10).with_injectors(0.0);
        let m = HotPotatoModel::torus(cfg);
        let mut rng = Clcg4::new(6);
        let mut out = Vec::new();
        let state = {
            let mut ctx = InitCtx::synthetic(0, &mut rng, &mut out);
            m.init(0, &mut ctx)
        };
        assert!(!state.is_injector);
        assert!(out.iter().all(|e| matches!(e.payload, Msg::Arrive { .. })));
    }
}
