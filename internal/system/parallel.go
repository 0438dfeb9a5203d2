package system

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// This file implements the sharded (parallel) multi-channel rig. Channel
// interleaving happens in the crossbar (paper §II-E), so downstream of it
// each DRAM channel is an independent timing domain: its controller, DRAM
// state, refresh machinery and statistics never touch another channel's.
// The rig exploits that by giving every channel its own sim.Kernel and
// running the kernels on worker goroutines in fixed time quanta, separated
// by barriers — conservative parallel discrete-event simulation with the
// channel links as the lookahead device.
//
// Determinism argument, in full:
//
//  1. Within a quantum, a shard only reads and writes its own state. The
//     single cross-shard channel is mem.ShardLink, and during a quantum a
//     shard only appends to its side's outbox.
//  2. Outboxes are published at the barrier, by the coordinator, alone, in
//     a fixed order. Every cross-shard event (a link delivery) is therefore
//     scheduled by deterministic single-threaded code.
//  3. The quantum never exceeds the link latency, so a published packet is
//     always due at or after the barrier tick: it lands in the receiving
//     shard's future and can never reorder against events the receiver
//     already executed.
//
// Hence the event sequence of every kernel — and every statistic — is a
// pure function of the configuration, independent of worker count or OS
// scheduling. Workers=1 and Workers=N produce bit-identical dumps; the test
// suite asserts this on the JSON output.
//
// The sharded topology is not timing-identical to MultiChannelRig: each
// request pays one extra link hop each way (the lookahead latency), which
// models the physical channel interconnect the single-kernel rig folds into
// the crossbar. Whether extra workers pay off depends on how much event work
// a quantum holds against the barrier handoff (barrier.go); DESIGN.md §8
// records the measured numbers. With one channel, or more workers than
// hardware threads, prefer Workers <= 1, which runs the same deterministic
// schedule without goroutine overhead.

// ShardedConfig shapes a ShardedRig.
//
//fp:check
type ShardedConfig struct {
	Kind       Kind
	Spec       dram.Spec
	Mapping    dram.Mapping
	ClosedPage bool
	Channels   int
	Xbar       xbar.Config
	// Gens and Patterns pair up; one generator per entry.
	Gens     []trafficgen.Config
	Patterns []trafficgen.Pattern
	// Workers is how many goroutines step shards between barriers, counting
	// the goroutine that calls Step: it steps share 0 itself, and Workers-1
	// more goroutines step the rest (capped at one per kernel). 0 or 1 steps
	// every shard on the calling goroutine. Whatever the count, the
	// schedule, and so every statistic, is identical.
	//fp:skip worker-count independence is the contract: excluding it is what lets a checkpoint taken under -parallel 4 resume under -parallel 1
	Workers int
	// Lookahead is the one-way channel-link latency and the barrier
	// quantum. 0 defaults to the crossbar latency (or 1ns if that is 0).
	//fp:skip nothing sets it today (every rig takes the crossbar-latency default); like AdaptiveQuanta it shifts the barrier schedule, so the first caller to set it must fingerprint it
	Lookahead sim.Tick
	// AdaptiveQuanta widens the barrier quantum when the system is idle: a
	// value Q > 1 lets Step advance up to Q*Lookahead per barrier, bounded
	// by the earliest pending event plus the lookahead (see Step for the
	// safety argument). 0 or 1 keeps the fixed quantum. The adaptive and
	// fixed schedules are EACH deterministic and worker-count independent,
	// but they differ from each other (barrier ticks shift event sequence
	// numbers), so AdaptiveQuanta belongs in any checkpoint fingerprint.
	AdaptiveQuanta int
	// TuneEvent and TuneCycle optionally adjust the matched controller
	// configurations, as in RigConfig. Function-valued, so the fingerprint
	// cannot see through them: a caller that tunes and checkpoints must fold
	// the tuned knobs into its fingerprint itself (dramctrl's sharded runner
	// does exactly that for the power-state idle times).
	//fp:skip function-valued; callers fold the knobs they tune into their own fingerprint
	TuneEvent func(*core.Config)
	//fp:skip function-valued; callers fold the knobs they tune into their own fingerprint
	TuneCycle func(*cyclesim.Config)
	// FrontProbes feeds observability events from the frontend shard (the
	// crossbar, plus the rig's quantum-barrier events). Probes attached here
	// run on the frontend kernel's goroutine only.
	//fp:skip probes only observe; results never depend on them
	FrontProbes *obs.Hub
	// ShardProbes optionally gives each channel shard its own hub (length
	// must be 0 or Channels). Per-shard probes run on that shard's worker
	// goroutine during quanta, so each must touch only its own state; merge
	// results in OnQuantum, which runs in the single-threaded barrier.
	//fp:skip probes only observe; results never depend on them
	ShardProbes []*obs.Hub
	// OnQuantum, when set, runs in the single-threaded barrier section at
	// the end of every Step — the place to drain per-shard probe buffers in
	// deterministic shard order (e.g. obs.TraceSink.Flush).
	//fp:skip observation drain hook; it reads simulation state but never writes it
	OnQuantum func()
}

// ShardedRig is the parallel counterpart of MultiChannelRig: generators and
// crossbar on a frontend kernel, each channel controller on its own kernel
// behind a ShardLink.
type ShardedRig struct {
	Front *sim.Kernel
	Chans []*sim.Kernel
	Reg   *stats.Registry
	Gens  []*trafficgen.Generator
	Xbar  *xbar.Crossbar
	Ctrls []Controller
	Links []*mem.ShardLink

	workers        int
	lookahead      sim.Tick
	adaptiveQuanta int
	frontHub       *obs.Hub // nil when no frontend probe is attached
	onQuantum      func()
}

// buildShardController builds one channel controller with the rig's tuning
// hooks applied; cfg.Channels tells the address decoder how many channel
// bits the crossbar already consumed.
func buildShardController(k *sim.Kernel, cfg ShardedConfig, reg *stats.Registry, hub *obs.Hub, name string) (Controller, error) {
	switch cfg.Kind {
	case EventBased:
		c := MatchedEventConfig(cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage)
		if cfg.TuneEvent != nil {
			cfg.TuneEvent(&c)
		}
		c.Probes = hub
		return core.NewController(k, c, reg, name)
	case CycleBased:
		c := MatchedCycleConfig(cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage)
		if cfg.TuneCycle != nil {
			cfg.TuneCycle(&c)
		}
		c.Probes = hub
		return cyclesim.NewController(k, c, reg, name)
	}
	return nil, fmt.Errorf("system: unknown controller kind %d", cfg.Kind)
}

// NewShardedRig builds the sharded multi-channel system.
func NewShardedRig(cfg ShardedConfig) (*ShardedRig, error) {
	if len(cfg.Gens) != len(cfg.Patterns) || len(cfg.Gens) == 0 {
		return nil, fmt.Errorf("system: generators (%d) and patterns (%d) must pair up", len(cfg.Gens), len(cfg.Patterns))
	}
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("system: sharded rig needs at least one channel")
	}
	lookahead := cfg.Lookahead
	if lookahead == 0 {
		lookahead = cfg.Xbar.Latency
	}
	if lookahead <= 0 {
		lookahead = sim.Nanosecond
	}

	front := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	dec, err := dram.NewDecoder(cfg.Spec.Org, cfg.Mapping, cfg.Channels)
	if err != nil {
		return nil, err
	}
	// Route at the mapping's interleave granularity, widened so no request
	// straddles a channel (the paper's cache-line-or-page default, §II-F).
	gran := dec.InterleaveBytes()
	for _, g := range cfg.Gens {
		for gran < g.RequestBytes {
			gran *= 2
		}
	}
	if len(cfg.ShardProbes) != 0 && len(cfg.ShardProbes) != cfg.Channels {
		return nil, fmt.Errorf("system: ShardProbes must be empty or one hub per channel (%d given, %d channels)",
			len(cfg.ShardProbes), cfg.Channels)
	}
	route := xbar.InterleaveRoute(cfg.Channels, gran)
	xcfg := cfg.Xbar
	xcfg.Probes = cfg.FrontProbes
	xb, err := xbar.New(front, xcfg, route, reg, "xbar")
	if err != nil {
		return nil, err
	}
	rig := &ShardedRig{
		Front:          front,
		Reg:            reg,
		Xbar:           xb,
		workers:        cfg.Workers,
		lookahead:      lookahead,
		adaptiveQuanta: cfg.AdaptiveQuanta,
		frontHub:       cfg.FrontProbes.OrNil(),
		onQuantum:      cfg.OnQuantum,
	}
	for i := 0; i < cfg.Channels; i++ {
		ck := sim.NewKernel()
		// Each shard registers statistics in a private registry so hot
		// counters are written by exactly one worker; the root absorbs the
		// shard by reference, and the dump (always taken with workers
		// parked) sees live values. Per-shard probe hubs follow the same
		// ownership rule.
		shardReg := stats.NewRegistry("sys")
		var shardHub *obs.Hub
		if len(cfg.ShardProbes) > 0 {
			shardHub = cfg.ShardProbes[i]
		}
		ctrl, err := buildShardController(ck, cfg, shardReg, shardHub, fmt.Sprintf("mc%d", i))
		if err != nil {
			return nil, err
		}
		reg.Absorb(shardReg)
		link := mem.NewShardLink(fmt.Sprintf("link%d", i), front, ck, lookahead)
		mem.Connect(xb.AttachMemory("mem"), link.FrontPort())
		mem.Connect(link.BackPort(), ctrl.Port())
		rig.Chans = append(rig.Chans, ck)
		rig.Ctrls = append(rig.Ctrls, ctrl)
		rig.Links = append(rig.Links, link)
	}
	for i := range cfg.Gens {
		gen, err := trafficgen.New(front, cfg.Gens[i], cfg.Patterns[i], reg, fmt.Sprintf("gen%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), xb.AttachRequestor("gen"))
		rig.Gens = append(rig.Gens, gen)
	}
	return rig, nil
}

// Lookahead returns the barrier quantum (= link latency).
func (r *ShardedRig) Lookahead() sim.Tick { return r.lookahead }

// ShardPanic identifies one shard kernel's recovered panic: which worker
// goroutine ran it, which kernel it was, and the original panic value.
type ShardPanic struct {
	Worker int    // worker index (0-based)
	Kernel string // "front" or "chan<N>"
	Value  any    // the recovered panic value
}

// ShardPanicError aggregates every shard panic from one quantum. With
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

// ShardedSession is a steppable ShardedRig run: each Step advances every
// shard one lookahead quantum and executes the barrier section, so between
// Steps all kernels are parked at the barrier tick and every link outbox has
// been flushed — the only state in which a sharded checkpoint is valid (the
// link save refuses unflushed outboxes). Close stops the workers.
type ShardedSession struct {
	rig      *ShardedRig
	mgr      *checkpoint.Manager
	deadline sim.Tick

	kernels []*sim.Kernel
	// shares[j] is what worker j steps: kernels j, j+nw, j+2nw, ... Share
	// 0 is the coordinator's; bar runs the others and is nil with one share.
	shares []*share
	bar    *barrier
	steps  uint64
}

// NewSession builds the rig's checkpoint manager and spins up the worker
// goroutines; see (*TrafficRig).NewSession for the contract. The worker
// count deliberately stays out of the fingerprint callers should build:
// statistics are worker-count independent, so a checkpoint taken with one
// worker count may be resumed with another. AdaptiveQuanta, by contrast,
// MUST go into the fingerprint — it changes the schedule (see horizon).
func (r *ShardedRig) NewSession(fingerprint string, maxSim sim.Tick) (*ShardedSession, error) {
	mgr := checkpoint.NewManager(fingerprint)
	mgr.Register("front", checkpoint.WrapKernel(r.Front))
	for i, ck := range r.Chans {
		mgr.Register(fmt.Sprintf("chan%d", i), checkpoint.WrapKernel(ck))
	}
	mgr.Register("xbar", r.Xbar)
	for i, l := range r.Links {
		mgr.Register(fmt.Sprintf("link%d", i), l)
	}
	for i, c := range r.Ctrls {
		cc, ok := c.(checkpoint.Checkpointable)
		if !ok {
			return nil, fmt.Errorf("system: controller %s (%T) does not support checkpointing", c.Name(), c)
		}
		mgr.Register(fmt.Sprintf("mc%d", i), cc)
	}
	for i, g := range r.Gens {
		mgr.Register(fmt.Sprintf("gen%d", i), g)
	}
	mgr.Register("stats", checkpoint.WrapStats(r.Reg))

	s := &ShardedSession{
		rig:      r,
		mgr:      mgr,
		deadline: maxSim,
		kernels:  append([]*sim.Kernel{r.Front}, r.Chans...),
	}
	nw := min(max(r.workers, 1), len(s.kernels))
	s.shares = s.split(nw)
	if nw > 1 {
		s.bar = startBarrier(s.shares, spinRule(nw))
	}
	return s, nil
}

// split deals the kernels round-robin into nw shares.
func (s *ShardedSession) split(nw int) []*share {
	shares := make([]*share, nw)
	for j := range shares {
		shares[j] = &share{}
	}
	for i, k := range s.kernels {
		sh := shares[i%nw]
		sh.kernels = append(sh.kernels, k)
		sh.names = append(sh.names, s.kernelName(i))
	}
	return shares
}

// kernelName labels s.kernels[i] for panic attribution.
func (s *ShardedSession) kernelName(i int) string {
	if i == 0 {
		return "front"
	}
	return fmt.Sprintf("chan%d", i-1)
}

// Manager returns the checkpoint manager.
func (s *ShardedSession) Manager() *checkpoint.Manager { return s.mgr }

// Now returns the frontend kernel's tick (== every shard's tick between
// Steps).
func (s *ShardedSession) Now() sim.Tick { return s.rig.Front.Now() }

// Start arms the generators (fresh runs only).
func (s *ShardedSession) Start() {
	for _, g := range s.rig.Gens {
		g.Start()
	}
}

// stepKernels runs every kernel to the barrier tick: the coordinator steps
// share 0 while the workers step theirs (see barrier.go for the handoff).
// Shard panics are collected from EVERY share — the handoff always
// completes before anything is re-raised — and re-thrown in worker order as
// one *ShardPanicError carrying worker and kernel identity for each.
//
//shard:barrier reads every share's panics once all workers have arrived
func (s *ShardedSession) stepKernels(limit sim.Tick) {
	if s.bar != nil {
		s.bar.release(limit)
	}
	s.shares[0].run(0, limit)
	if s.bar != nil {
		s.bar.gather()
	}
	var pvs []ShardPanic
	for _, sh := range s.shares {
		pvs = append(pvs, sh.panics...)
	}
	if len(pvs) > 0 {
		panic(&ShardPanicError{Panics: pvs})
	}
}

// Steps returns how many barriers the session has executed; with
// AdaptiveQuanta > 1 this is the measure of how much barrier overhead the
// widened horizon saved.
func (s *ShardedSession) Steps() uint64 { return s.steps }

// horizon picks the barrier tick for the next quantum.
//
// The conservative baseline is now+L (L = link latency = lookahead): any
// packet a shard offers during the quantum is due at its send tick plus L,
// which is at or after the barrier, so it always lands in the receiving
// shard's future. AdaptiveQuanta Q > 1 widens that when the system is idle.
// Let E = the earliest pending event across ALL kernels (between Steps every
// outbox is flushed, so all future work — including every in-flight
// cross-shard packet — sits in some kernel's queue). No kernel does anything
// before E, so no offer is made before E, so nothing can be due before E+L:
// a barrier at min(E+L, now+Q*L) preserves the invariant. E >= now always
// (events are never scheduled in the past), hence the adaptive horizon never
// shrinks below the baseline. With no events pending anywhere the quantum
// jumps straight to the cap — idle stretches cost 1/Q of the barriers.
//
// The choice of horizon shifts barrier ticks and therefore event sequence
// numbers, so adaptive and fixed runs are two DIFFERENT deterministic
// schedules; each one is still a pure function of the configuration,
// independent of worker count (horizon inputs are read single-threaded at
// the barrier).
func (s *ShardedSession) horizon() sim.Tick {
	r := s.rig
	now := r.Front.Now()
	limit := now + r.lookahead
	if r.adaptiveQuanta <= 1 {
		return limit
	}
	hcap := now + r.lookahead*sim.Tick(r.adaptiveQuanta)
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
	if h := eMin + r.lookahead; h < hcap {
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

// Step advances one quantum plus the barrier section and reports completion.
func (s *ShardedSession) Step() (bool, error) {
	r := s.rig
	s.stepKernels(s.horizon())
	s.steps++

	// Barrier section: single-threaded. Publish cross-shard traffic, then
	// check for completion and drive drains.
	for i, l := range r.Links {
		reqs, resps := l.Flush()
		if r.frontHub != nil && (reqs > 0 || resps > 0) {
			r.frontHub.Emit(obs.ShardQuantumFlush{
				Src: "rig", At: r.Front.Now(), Shard: i,
				Requests: reqs, Responses: resps,
			})
		}
	}
	if r.onQuantum != nil {
		// Still single-threaded: drain per-shard probe buffers in fixed
		// shard order so merged output is worker-count independent.
		r.onQuantum()
	}
	allDone := true
	for _, g := range r.Gens {
		if !g.Done() {
			allDone = false
			break
		}
	}
	if allDone {
		quiet := r.Xbar.Quiescent() && r.Xbar.InFlight() == 0
		for _, l := range r.Links {
			if !l.Quiescent() {
				quiet = false
			}
		}
		for _, c := range r.Ctrls {
			if !c.Quiescent() {
				if d, ok := c.(Drainer); ok {
					d.Drain()
				}
				quiet = false
			}
		}
		if quiet {
			return true, nil
		}
	}
	if r.Front.Now() >= s.deadline {
		return false, fmt.Errorf("system: sharded simulation did not complete within %s", s.deadline)
	}
	return false, nil
}

// Close stops the worker goroutines and returns once they have exited;
// closing again is a no-op. The rig itself stays usable (stats, bandwidth
// queries); a new session may be opened afterwards, and stepping this one
// further runs every shard on the calling goroutine.
func (s *ShardedSession) Close() {
	if s.bar != nil {
		s.bar.stop()
		s.bar = nil
		s.shares = s.split(1)
	}
}

// Run starts all generators and steps the shards in lookahead-sized quanta
// until every generator finishes and the system drains, or until maxSim
// simulated time passes. It reports whether the run completed. A panic in
// any shard is re-raised on the calling goroutine.
func (r *ShardedRig) Run(maxSim sim.Tick) bool {
	s, err := r.NewSession("", r.Front.Now()+maxSim)
	if err != nil {
		// Only a non-checkpointable controller trips this. Run never saves,
		// but a session is the only way to step the rig, so there is no
		// fallback: surface it loudly.
		panic(err)
	}
	defer s.Close()
	s.Start()
	for {
		done, err := s.Step()
		if done {
			return true
		}
		if err != nil {
			return false
		}
	}
}

// AggregateBandwidth sums channel bandwidths.
func (r *ShardedRig) AggregateBandwidth() float64 {
	var sum float64
	for _, c := range r.Ctrls {
		sum += c.Bandwidth()
	}
	return sum
}

// AvgBusUtilisation averages controller bus utilisation.
func (r *ShardedRig) AvgBusUtilisation() float64 {
	var sum float64
	for _, c := range r.Ctrls {
		sum += c.BusUtilisation()
	}
	return sum / float64(len(r.Ctrls))
}
