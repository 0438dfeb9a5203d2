package system

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// The sharded session's quantum handoff. The coordinator (the goroutine that
// calls Step) runs share 0 itself; shares 1..nw-1 run on nw-1 persistent
// worker goroutines. One quantum is:
//
//  1. the coordinator stores the barrier tick and bumps epoch, waking any
//     worker parked on it;
//  2. everyone runs their share to the barrier tick;
//  3. each worker bumps arrived; the last one wakes the coordinator if it
//     parked, and the coordinator proceeds to the barrier section.
//
// Both sides wait the same way: poll the atomic counter for up to spinFor,
// then park on a channel. Spinning turns a quantum that lasts a few
// microseconds into a few cache-line transfers instead of a futex wake and
// park per worker. It only pays when every goroutine of the session has a
// CPU of its own, so spinRule allows it exactly when nw <= min(GOMAXPROCS,
// NumCPU); otherwise a spinner would steal the CPU the goroutine it waits
// for needs, and both sides park at once. Spinning must be two-sided: a
// goroutine that parks while its partner spins pays the futex wake on every
// quantum. The bound on the spin keeps an idle session (a caller between
// Steps, a checkpoint being written) from burning a CPU.
//
// The rule cannot see other processes, nor an operating system that keeps
// both goroutines' threads on one CPU (measured on a 2-vCPU VM after it sat
// idle: for seconds, every spin timed out and 2-worker runs took 20x
// longer). So the coordinator also watches the spins and parks the whole
// session for a while when they do not pay (spinGate). Workers follow the
// mode of the quantum they last ran, so both sides switch together.
//
// The atomics carry the happens-before edges: writes made before an Add are
// visible to whoever loads the new value.

// spinFor bounds how long a waiting goroutine polls before it parks:
// several saturated quanta. A bound near one quantum (~4 µs) timed out on
// most barriers and ran slower than a plain channel handoff. The bound is
// wall time, not a poll count, because a poll costs ~0.5 ns plain but tens
// of ns under the race detector.
const spinFor = 30 * time.Microsecond

// The spin gate. A session starts, and resumes after every park, with a
// probe: if nearly all of its first probeQuanta spinning quanta see a spin
// time out, spinning does not pay and the session parks for parkQuanta,
// twice as long after each further failed probe, up to maxPark. After a passed probe, missRate is a
// running average (weight 1/256, in 1/65536ths) of spinning quanta in which
// a spin timed out. On a quiet host well under 1% do, in bursts of tens (a
// garbage collection, a preempted thread) that must not trip the gate; when
// spinning stops paying, nearly all do, and after about 180 in a row the
// rate passes maxMissRate and the session parks for parkQuanta. The probe
// can be short because it only has to catch the hopeless case: a passed
// probe that should have failed costs at most those 180 quanta.
const (
	probeQuanta = 32
	maxMissRate = 1 << 15
	parkQuanta  = 4096
	maxPark     = 1 << 16
)

// spin polls v until it reaches want or spinFor passes, and reports which.
// The clock is read only once the first poll fails, and then every 256
// polls: often enough that the bound holds where a poll is slow (tens of ns
// under the race detector), rarely enough that the reads do not delay
// noticing v.
func spin(v *atomic.Uint64, want uint64) bool {
	if v.Load() >= want {
		return true
	}
	start := time.Now()
	for i := 1; v.Load() < want; i++ {
		if i%256 == 0 && time.Since(start) > spinFor {
			return false
		}
	}
	return true
}

// parker is one goroutine's wait slot: spin on a counter, then park.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: the waker never blocks
}

// await returns once v >= want, spinning first if canSpin, and reports
// whether a spin timed out. Parking is race-free against unpark: the waiter
// publishes parked before re-checking v, and the waker publishes v before
// checking parked, so at least one of them sees the other. Exactly one side
// wins the parked CAS; if the waker wins it sends, and the waiter consumes
// that token before returning. A token can be stale — the last worker of one
// quantum may reach unpark only after the coordinator has parked for the
// next — so a woken waiter re-checks v and parks again.
func (p *parker) await(v *atomic.Uint64, want uint64, canSpin bool) (missed bool) {
	if canSpin {
		if spin(v, want) {
			return false
		}
		missed = true
	}
	for {
		p.parked.Store(true)
		if v.Load() >= want && p.parked.CompareAndSwap(true, false) {
			return missed
		}
		<-p.wake
		if v.Load() >= want {
			return missed
		}
	}
}

// unpark wakes p if it parked. Call it after publishing the counter value p
// waits for.
func (p *parker) unpark() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// barrier is the handoff between the coordinator and the worker goroutines.
type barrier struct {
	canSpin bool // spinRule held when the session started
	// Stored before epoch is bumped, for the released quantum.
	limit    sim.Tick
	spinning bool // waits spin first; otherwise they park at once
	quit     bool // set for the final bump only

	epoch   atomic.Uint64 // quanta released, plus the final quit bump
	arrived atomic.Uint64 // worker completions over all quanta
	misses  atomic.Uint64 // worker spins that timed out

	gate       spinGate // owned by the coordinator
	seenMisses uint64   // misses already fed to the gate

	coord   parker
	workers []parker
	wg      sync.WaitGroup
}

// spinRule reports whether a session of nw goroutines may spin while it
// waits: only when each of them can have a CPU of its own.
func spinRule(nw int) bool {
	return nw <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// startBarrier launches one goroutine per share after the first; shares[0]
// is the coordinator's own. canSpin allows spin-then-park waits; without it
// every wait parks at once.
func startBarrier(shares []*share, canSpin bool) *barrier {
	nw := len(shares)
	b := &barrier{
		canSpin: canSpin,
		gate:    spinGate{parkLen: parkQuanta, probe: probeQuanta},
		workers: make([]parker, nw-1),
	}
	b.coord.wake = make(chan struct{}, 1)
	for j := 1; j < nw; j++ {
		b.workers[j-1].wake = make(chan struct{}, 1)
		b.wg.Add(1)
		go b.work(j, shares[j])
	}
	return b
}

// work is worker j's loop: wait for a quantum, run the share, report. Each
// wait uses the spin mode of the quantum the worker last ran.
func (b *barrier) work(j int, sh *share) {
	defer b.wg.Done()
	p := &b.workers[j-1]
	spinning := b.canSpin
	for epoch := uint64(1); ; epoch++ {
		if p.await(&b.epoch, epoch, spinning) {
			b.misses.Add(1)
		}
		if b.quit {
			return
		}
		spinning = b.spinning
		sh.run(j, b.limit)
		if b.arrived.Add(1) == epoch*uint64(len(b.workers)) {
			b.coord.unpark()
		}
	}
}

// release starts a quantum ending at limit on every worker.
func (b *barrier) release(limit sim.Tick) {
	b.limit = limit
	b.spinning = b.canSpin && b.gate.spin()
	b.epoch.Add(1)
	for i := range b.workers {
		b.workers[i].unpark()
	}
}

// gather returns once every worker has finished the released quantum, and
// feeds the quantum's spin outcome to the gate.
func (b *barrier) gather() {
	missed := b.coord.await(&b.arrived, b.epoch.Load()*uint64(len(b.workers)), b.spinning)
	if m := b.misses.Load(); m != b.seenMisses {
		b.seenMisses = m
		missed = true
	}
	if b.spinning {
		b.gate.record(missed)
	}
}

// spinGate decides quantum by quantum whether a session spins (see the
// constants above).
type spinGate struct {
	parkFor   int // quanta left before spinning is tried again
	parkLen   int // the next park's length
	probe     int // spinning quanta left in the current probe
	probeMiss int // of those so far, how many timed out
	missRate  int
}

// spin reports whether the next quantum spins.
func (g *spinGate) spin() bool {
	if g.parkFor > 0 {
		g.parkFor--
		return false
	}
	return true
}

// record feeds the gate whether a spin timed out in a spinning quantum.
func (g *spinGate) record(missed bool) {
	if g.probe > 0 {
		g.probe--
		if missed {
			g.probeMiss++
		}
		if g.probe == 0 && g.probeMiss > probeQuanta*7/8 {
			g.park()
			g.parkLen = min(2*g.parkLen, maxPark)
		}
		return
	}
	if missed {
		g.missRate += (1<<16 - g.missRate) >> 8
	} else {
		g.missRate -= g.missRate >> 8
	}
	if g.missRate > maxMissRate {
		g.parkLen = parkQuanta
		g.park()
	}
}

// park stops spinning for the next parkLen quanta, then probes again.
func (g *spinGate) park() {
	g.parkFor = g.parkLen
	g.probe, g.probeMiss, g.missRate = probeQuanta, 0, 0
}

// stop ends the worker goroutines and waits until they have exited. It must
// not overlap a quantum.
func (b *barrier) stop() {
	b.quit = true
	b.epoch.Add(1)
	for i := range b.workers {
		b.workers[i].unpark()
	}
	b.wg.Wait()
}

// share is the fixed subset of kernels one worker steps each quantum, with
// the panics and the first watchdog trip its last quantum recovered.
type share struct {
	kernels []*sim.Kernel
	names   []string
	panics  []ShardPanic
	err     error
}

// run advances every kernel of the share to limit as worker j. It recovers
// per kernel, not per share: a failing shard must not stop the worker from
// finishing its remaining kernels, so the handoff always completes and the
// pool stays in a defined state.
func (sh *share) run(j int, limit sim.Tick) {
	sh.panics, sh.err = nil, nil
	for i, k := range sh.kernels {
		pv, err := runShardKernel(k, limit)
		if pv != nil {
			sh.panics = append(sh.panics, ShardPanic{Worker: j, Kernel: sh.names[i], Value: pv})
		}
		if sh.err == nil {
			sh.err = err
		}
	}
}

// runShardKernel advances one kernel to the barrier, translating a panic
// into a returned value.
func runShardKernel(k *sim.Kernel, limit sim.Tick) (pv any, err error) {
	defer func() { pv = recover() }()
	_, err = k.RunUntilErr(limit)
	return nil, err
}
