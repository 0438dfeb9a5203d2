package system

import (
	"fmt"

	"repro/internal/core"
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
	// AdaptiveQuanta widens the barrier quantum when the system is idle: a
	// value Q > 1 lets Step advance up to Q*Lookahead per barrier, bounded
	// by the earliest pending event plus the lookahead (see Session.horizon
	// for the safety argument). 0 or 1 keeps the fixed quantum. The
	// adaptive and fixed schedules are EACH deterministic and worker-count
	// independent, but they differ from each other (barrier ticks shift
	// event sequence numbers), so AdaptiveQuanta belongs in any checkpoint
	// fingerprint.
	AdaptiveQuanta int
	// TuneEvent optionally adjusts the matched event-based controller
	// configuration, as in RigConfig. Function-valued, so the fingerprint
	// cannot see through it: a caller that tunes and checkpoints must fold
	// the tuned knobs into its fingerprint itself (dramctrl's sharded runner
	// does exactly that for the power-state idle times).
	//fp:skip function-valued; callers fold the knobs they tune into their own fingerprint
	TuneEvent func(*core.Config)
	// FrontProbes feeds observability events from the frontend shard (the
	// crossbar, plus the rig's quantum-barrier events). Probes attached here
	// run on the frontend kernel's goroutine only.
	//fp:skip probes only observe; results never depend on them
	FrontProbes *obs.Hub
	// ShardProbes optionally gives each channel shard its own hub (length
	// must be 0 or Channels). Per-shard probes run on that shard's worker
	// goroutine during quanta, so each must touch only its own state; merge
	// results between Steps, which run the barrier section on the caller
	// (e.g. obs.TraceSink.Flush).
	//fp:skip probes only observe; results never depend on them
	ShardProbes []*obs.Hub
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
}

// NewShardedRig builds the sharded multi-channel system.
func NewShardedRig(cfg ShardedConfig) (*ShardedRig, error) {
	if len(cfg.Gens) != len(cfg.Patterns) || len(cfg.Gens) == 0 {
		return nil, fmt.Errorf("system: generators (%d) and patterns (%d) must pair up", len(cfg.Gens), len(cfg.Patterns))
	}
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("system: sharded rig needs at least one channel")
	}
	// The link latency, and so the lookahead, is the crossbar latency.
	lookahead := cfg.Xbar.Latency
	if lookahead <= 0 {
		lookahead = sim.Nanosecond
	}

	front := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	route, err := interleaveRoute(cfg.Spec, cfg.Mapping, cfg.Channels, maxRequestBytes(cfg.Gens))
	if err != nil {
		return nil, err
	}
	if len(cfg.ShardProbes) != 0 && len(cfg.ShardProbes) != cfg.Channels {
		return nil, fmt.Errorf("system: ShardProbes must be empty or one hub per channel (%d given, %d channels)",
			len(cfg.ShardProbes), cfg.Channels)
	}
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
		ctrl, err := buildController(ck, cfg.Kind, cfg.Spec, cfg.Mapping, cfg.Channels, cfg.ClosedPage,
			cfg.TuneEvent, shardHub, shardReg, fmt.Sprintf("mc%d", i))
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
	if rig.Gens, err = attachGens(front, xb, cfg.Gens, cfg.Patterns, reg); err != nil {
		return nil, err
	}
	return rig, nil
}

// Lookahead returns the barrier quantum (= link latency, derived from the
// crossbar latency).
func (r *ShardedRig) Lookahead() sim.Tick { return r.lookahead }

// Run starts all generators and steps the shards in lookahead-sized quanta
// until every generator finishes and the system drains, or until maxSim
// simulated time passes. It reports whether the run completed. A panic in
// any shard is re-raised on the calling goroutine.
func (r *ShardedRig) Run(maxSim sim.Tick) bool { return run(r.NewSession("", r.Front.Now()+maxSim)) }

// AggregateBandwidth sums channel bandwidths.
func (r *ShardedRig) AggregateBandwidth() float64 { return sumBandwidth(r.Ctrls) }

// AvgBusUtilisation averages controller bus utilisation.
func (r *ShardedRig) AvgBusUtilisation() float64 { return avgBusUtilisation(r.Ctrls) }
