package system

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file holds the one stepping loop every rig runs. A Session is a
// steppable run whose state between steps is a valid checkpoint boundary.
// The supervisor (internal/supervisor) drives sessions generically; the CLIs
// build them from flags; each rig's Run is a session stepped to the end.

// quantum is the stepping granularity of single-kernel rigs. The sharded rig
// steps by its link lookahead instead: its only valid checkpoint boundary is
// the barrier.
const quantum = sim.Microsecond

// errDeadline is what Step wraps when a run passes its deadline unfinished.
var errDeadline = errors.New("system: simulation did not complete")

// Session is a steppable, checkpointable run of any rig. Each Step advances
// every kernel to one barrier tick and then runs the barrier section on the
// calling goroutine, so between Steps all kernels are parked at the same tick
// and every link outbox has been flushed — the only state in which a
// checkpoint is valid (the link save refuses unflushed outboxes). A
// single-kernel rig is the degenerate case: one kernel, no links, a fixed
// 1 µs quantum and no worker goroutines. Close stops the workers.
type Session struct {
	mgr      *checkpoint.Manager
	deadline sim.Tick

	kernels []*sim.Kernel // kernels[0] carries the session clock
	names   []string      // each kernel's checkpoint component name
	links   []*mem.ShardLink
	quantum sim.Tick // the barrier quantum when the system is busy
	quanta  int      // adaptive cap: up to quanta*quantum per Step (see horizon)
	hub     *obs.Hub // frontend probes for ShardQuantumFlush; nil when none

	gens  []*trafficgen.Generator
	xbar  *xbar.Crossbar // nil on TrafficRig
	ctrls []Controller

	// shares[j] is what worker j steps: kernels j, j+nw, j+2nw, ... Share
	// 0 is the coordinator's; bar runs the others and is nil with one share.
	shares []*share
	bar    *barrier
	steps  uint64
}

// newSession starts a session over an empty checkpoint manager; the rig's
// NewSession registers its components (addKernel, addFanout) in a fixed,
// configuration-derived order and finishes with open.
func newSession(fingerprint string, maxSim, quantum sim.Tick, quanta int) *Session {
	return &Session{mgr: checkpoint.NewManager(fingerprint), deadline: maxSim, quantum: quantum, quanta: quanta}
}

func (s *Session) addKernel(name string, k *sim.Kernel) {
	s.kernels = append(s.kernels, k)
	s.names = append(s.names, name)
	s.mgr.Register(name, checkpoint.WrapKernel(k))
}

func (s *Session) registerCtrl(name string, c Controller) error {
	cc, ok := c.(checkpoint.Checkpointable)
	if !ok {
		return fmt.Errorf("system: controller %s (%T) does not support checkpointing", c.Name(), c)
	}
	s.mgr.Register(name, cc)
	return nil
}

// addFanout adopts a crossbar rig's memory side and registers it: the
// crossbar, the links (none on a single kernel), then the controllers and
// generators by index.
func (s *Session) addFanout(x *xbar.Crossbar, links []*mem.ShardLink, ctrls []Controller, gens []*trafficgen.Generator) error {
	s.xbar, s.links, s.ctrls, s.gens = x, links, ctrls, gens
	s.mgr.Register("xbar", x)
	for i, l := range links {
		s.mgr.Register(fmt.Sprintf("link%d", i), l)
	}
	for i, c := range ctrls {
		if err := s.registerCtrl(fmt.Sprintf("mc%d", i), c); err != nil {
			return err
		}
	}
	for i, g := range gens {
		s.mgr.Register(fmt.Sprintf("gen%d", i), g)
	}
	return nil
}

// open registers the statistics last and deals the kernels to workers
// goroutines (see ShardedConfig.Workers).
func (s *Session) open(reg *stats.Registry, workers int) *Session {
	s.mgr.Register("stats", checkpoint.WrapStats(reg))
	nw := min(max(workers, 1), len(s.kernels))
	s.shares = s.split(nw)
	if nw > 1 {
		s.bar = startBarrier(s.shares, spinRule(nw))
	}
	return s
}

// NewSession builds the rig's checkpoint manager (components registered in a
// fixed, configuration-derived order) and wraps the rig for stepping. The
// fingerprint must encode every configuration knob that shapes the
// simulation, so a checkpoint is never resumed under a different setup;
// maxSim bounds total simulated time across all segments.
func (r *TrafficRig) NewSession(fingerprint string, maxSim sim.Tick) (*Session, error) {
	s := newSession(fingerprint, maxSim, quantum, 1)
	s.addKernel("kernel", r.K)
	s.ctrls, s.gens = []Controller{r.Ctrl}, []*trafficgen.Generator{r.Gen}
	if err := s.registerCtrl("mc", r.Ctrl); err != nil {
		return nil, err
	}
	s.mgr.Register("gen", r.Gen)
	return s.open(r.Reg, 1), nil
}

// NewSession wraps the multi-channel rig for supervised stepping; see
// (*TrafficRig).NewSession for the contract.
func (r *MultiChannelRig) NewSession(fingerprint string, maxSim sim.Tick) (*Session, error) {
	s := newSession(fingerprint, maxSim, quantum, 1)
	s.addKernel("kernel", r.K)
	if err := s.addFanout(r.Xbar, nil, r.Ctrls, r.Gens); err != nil {
		return nil, err
	}
	return s.open(r.Reg, 1), nil
}

// NewSession wraps the sharded rig for stepping and spins up its worker
// goroutines; see (*TrafficRig).NewSession for the contract. The worker
// count deliberately stays out of the fingerprint callers should build:
// statistics are worker-count independent, so a checkpoint taken with one
// worker count may be resumed with another. AdaptiveQuanta, by contrast,
// MUST go into the fingerprint — it changes the schedule (see horizon).
func (r *ShardedRig) NewSession(fingerprint string, maxSim sim.Tick) (*Session, error) {
	s := newSession(fingerprint, maxSim, r.lookahead, r.adaptiveQuanta)
	s.hub = r.frontHub
	s.addKernel("front", r.Front)
	for i, ck := range r.Chans {
		s.addKernel(fmt.Sprintf("chan%d", i), ck)
	}
	if err := s.addFanout(r.Xbar, r.Links, r.Ctrls, r.Gens); err != nil {
		return nil, err
	}
	return s.open(r.Reg, r.workers), nil
}

// split deals the kernels round-robin into nw shares.
func (s *Session) split(nw int) []*share {
	shares := make([]*share, nw)
	for j := range shares {
		shares[j] = &share{}
	}
	for i, k := range s.kernels {
		sh := shares[i%nw]
		sh.kernels = append(sh.kernels, k)
		sh.names = append(sh.names, s.names[i])
	}
	return shares
}

// Manager returns the checkpoint manager.
func (s *Session) Manager() *checkpoint.Manager { return s.mgr }

// Now returns the session's simulated tick (every kernel's tick between
// Steps).
func (s *Session) Now() sim.Tick { return s.kernels[0].Now() }

// Start arms the generators. Call exactly once for a fresh run; never after
// a restore (the checkpoint carries the generators' event state).
func (s *Session) Start() {
	for _, g := range s.gens {
		g.Start()
	}
}

// Steps returns how many barriers the session has executed; with
// AdaptiveQuanta > 1 this is the measure of how much barrier overhead the
// widened horizon saved.
func (s *Session) Steps() uint64 { return s.steps }

// stepKernels runs every kernel to the barrier tick: the coordinator steps
// share 0 while the workers step theirs (see barrier.go for the handoff).
// Panics are collected from EVERY share — the handoff always completes
// before anything is re-raised — and re-thrown in worker order as one
// *ShardPanicError carrying worker and kernel identity for each. A watchdog
// trip is returned, the first in worker order.
//
//shard:barrier reads every share's panics once all workers have arrived
func (s *Session) stepKernels(limit sim.Tick) error {
	if s.bar != nil {
		s.bar.release(limit)
	}
	s.shares[0].run(0, limit)
	if s.bar != nil {
		s.bar.gather()
	}
	var pvs []ShardPanic
	var err error
	for _, sh := range s.shares {
		pvs = append(pvs, sh.panics...)
		if err == nil {
			err = sh.err
		}
	}
	if len(pvs) > 0 {
		panic(&ShardPanicError{Panics: pvs})
	}
	return err
}

// horizon picks the barrier tick for the next quantum.
//
// The conservative baseline is now+L (L = the quantum; on the sharded rig
// the link latency, i.e. the lookahead): any packet a shard offers during the
// quantum is due at its send tick plus L, which is at or after the barrier,
// so it always lands in the receiving shard's future. AdaptiveQuanta Q > 1
// widens that when the system is idle. Let E = the earliest pending event
// across ALL kernels (between Steps every outbox is flushed, so all future
// work — including every in-flight cross-shard packet — sits in some
// kernel's queue). No kernel does anything before E, so no offer is made
// before E, so nothing can be due before E+L: a barrier at min(E+L, now+Q*L)
// preserves the invariant. E >= now always (events are never scheduled in
// the past), hence the adaptive horizon never shrinks below the baseline.
// With no events pending anywhere the quantum jumps straight to the cap —
// idle stretches cost 1/Q of the barriers.
//
// The choice of horizon shifts barrier ticks and therefore event sequence
// numbers, so adaptive and fixed runs are two DIFFERENT deterministic
// schedules; each one is still a pure function of the configuration,
// independent of worker count (horizon inputs are read single-threaded at
// the barrier).
func (s *Session) horizon() sim.Tick {
	now := s.Now()
	limit := now + s.quantum
	if s.quanta <= 1 {
		return limit
	}
	hcap := now + s.quantum*sim.Tick(s.quanta)
	eMin := sim.Tick(0)
	pending := false
	for _, k := range s.kernels {
		if t, ok := k.PeekNext(); ok && (!pending || t < eMin) {
			eMin, pending = t, true
		}
	}
	if !pending {
		return hcap
	}
	if h := eMin + s.quantum; h < hcap {
		hcap = h
	}
	if hcap < limit {
		// Unreachable while events are never scheduled in the past; keep the
		// conservative floor anyway so a kernel bug degrades to the fixed
		// quantum instead of a causality violation.
		return limit
	}
	return hcap
}

// gensDone reports whether every generator has finished issuing and seen all
// its responses.
func (s *Session) gensDone() bool {
	for _, g := range s.gens {
		if !g.Done() {
			return false
		}
	}
	return true
}

// done reports whether the whole system is complete and quiescent: the run's
// stopping condition.
func (s *Session) done() bool {
	if !s.gensDone() || s.xbar != nil && (!s.xbar.Quiescent() || s.xbar.InFlight() != 0) {
		return false
	}
	for _, l := range s.links {
		if !l.Quiescent() {
			return false
		}
	}
	for _, c := range s.ctrls {
		if !c.Quiescent() {
			return false
		}
	}
	return true
}

// Step advances one quantum plus the barrier section and reports completion.
// A session restored from a completion checkpoint already sits where the run
// finished, and advancing it would move Now past the recorded end and skew
// every time-normalised statistic (bus utilisation divides by Now), so
// completion is checked before stepping, not only after. A watchdog trip
// surfaces as the error, and so does passing the deadline unfinished.
func (s *Session) Step() (bool, error) {
	if s.done() {
		return true, nil
	}
	if err := s.stepKernels(s.horizon()); err != nil {
		return false, err
	}
	s.steps++

	// Barrier section: single-threaded. Publish cross-shard traffic, then
	// check for completion and drive drains.
	now := s.Now()
	for i, l := range s.links {
		reqs, resps := l.Flush()
		if s.hub != nil && (reqs > 0 || resps > 0) {
			s.hub.Emit(obs.ShardQuantumFlush{
				Src: "rig", At: now, Shard: i,
				Requests: reqs, Responses: resps,
			})
		}
	}
	if s.done() {
		return true, nil
	}
	if s.gensDone() {
		for _, c := range s.ctrls {
			if d, ok := c.(Drainer); ok && !c.Quiescent() {
				d.Drain()
			}
		}
	}
	if now >= s.deadline {
		return false, fmt.Errorf("%w within %s", errDeadline, s.deadline)
	}
	return false, nil
}

// Close stops the worker goroutines and returns once they have exited;
// closing again is a no-op. The rig itself stays usable (stats, bandwidth
// queries); a new session may be opened afterwards, and stepping this one
// further runs every kernel on the calling goroutine.
func (s *Session) Close() {
	if s.bar != nil {
		s.bar.stop()
		s.bar = nil
		s.shares = s.split(1)
	}
}

// run starts a fresh session and steps it until the run completes, which it
// reports, or passes its deadline. It is every rig's Run loop. Any other
// failure panics: a watchdog trip, as Kernel.RunUntil does, or a
// non-checkpointable controller, since a session is the only way to step a
// rig.
func run(s *Session, err error) bool {
	if err != nil {
		panic(err)
	}
	defer s.Close()
	s.Start()
	for {
		done, err := s.Step()
		if done {
			return true
		}
		if errors.Is(err, errDeadline) {
			return false
		}
		if err != nil {
			panic(err)
		}
	}
}

// ShardPanic identifies one kernel's recovered panic: which worker goroutine
// ran it, which kernel it was (by checkpoint component name: "kernel",
// "front" or "chan<N>"), and the original panic value.
type ShardPanic struct {
	Worker int    // worker index (0-based)
	Kernel string // the kernel's checkpoint component name
	Value  any    // the recovered panic value
}

// ShardPanicError aggregates every kernel panic from one quantum. With
// several workers more than one shard can fail in the same quantum; keeping
// only one (the old behaviour kept whichever worker reported last) hides
// the others and makes the surviving report depend on goroutine timing.
type ShardPanicError struct {
	Panics []ShardPanic
}

func (e *ShardPanicError) Error() string {
	s := fmt.Sprintf("system: %d shard panic(s) in quantum:", len(e.Panics))
	for _, p := range e.Panics {
		s += fmt.Sprintf(" [worker %d, kernel %s: %v]", p.Worker, p.Kernel, p.Value)
	}
	return s
}
