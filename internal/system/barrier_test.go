package system

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// The handoff itself, in both waiting modes: after every gather, each
// worker's kernels must have run exactly to the barrier tick and no further,
// and under -race any early return from gather shows up as a race on the
// kernel or share state the coordinator reads here. Spinning is only tested
// where the session rule would allow it; oversubscribed, it is slow by
// design.
func TestBarrierHandoff(t *testing.T) {
	for _, tc := range []struct {
		spin bool
		nw   int
	}{{false, 3}, {true, 2}} {
		t.Run(fmt.Sprintf("spin%v", tc.spin), func(t *testing.T) {
			if tc.spin && !spinRule(tc.nw) {
				t.Skipf("%d goroutines would not spin on this host", tc.nw)
			}
			const nk, quanta = 7, 2000
			nw := tc.nw
			ticks := make([]int, nk)
			var shares []*share
			for j := 0; j < nw; j++ {
				shares = append(shares, &share{})
			}
			for i := 0; i < nk; i++ {
				k := sim.NewKernel()
				var ev *sim.Event
				ev = sim.NewEvent("tick", func() {
					ticks[i]++
					k.ScheduleIn(ev, sim.Nanosecond)
				})
				k.Schedule(ev, sim.Nanosecond)
				sh := shares[i%nw]
				sh.kernels = append(sh.kernels, k)
				sh.names = append(sh.names, fmt.Sprintf("k%d", i))
			}
			b := startBarrier(shares, tc.spin)
			defer b.stop()
			for q := 1; q <= quanta; q++ {
				limit := sim.Tick(q) * sim.Nanosecond
				b.release(limit)
				shares[0].run(0, limit)
				b.gather()
				for i := range ticks {
					if ticks[i] != q {
						t.Fatalf("quantum %d: kernel %d fired %d times", q, i, ticks[i])
					}
				}
				for _, sh := range shares {
					for _, k := range sh.kernels {
						if k.Now() != limit {
							t.Fatalf("quantum %d: kernel at %s, barrier %s", q, k.Now(), limit)
						}
					}
				}
			}
		})
	}
}

// A wake that arrives before the counter reached its target — the last
// worker of one quantum can unpark the coordinator after it has parked for
// the next — must send the waiter back to sleep, not let it return.
func TestParkerIgnoresStaleWake(t *testing.T) {
	p := parker{wake: make(chan struct{}, 1)}
	var v atomic.Uint64
	done := make(chan struct{})
	go func() {
		p.await(&v, 1, false)
		close(done)
	}()
	waitParked := func() {
		for !p.parked.Load() {
			select {
			case <-done:
				t.Fatal("await returned before the counter reached its target")
			default:
				runtime.Gosched()
			}
		}
	}
	waitParked()
	p.unpark() // stale: v is still 0
	waitParked()
	v.Store(1)
	p.unpark()
	<-done
}

// waitGoroutines polls until the goroutine count is back to want: a worker
// that has signalled its exit still needs a moment to leave the scheduler.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops every worker goroutine: on a session that never stepped,
// after a shard panic, and when called twice.
func TestShardedCloseReleasesWorkers(t *testing.T) {
	open := func(t *testing.T) (*ShardedRig, *ShardedSession) {
		t.Helper()
		rig, err := NewShardedRig(shardedConfig(EventBased, 4, 4, false))
		if err != nil {
			t.Fatal(err)
		}
		s, err := rig.NewSession("", rig.Front.Now()+50*sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rig, s
	}
	t.Run("never-stepped", func(t *testing.T) {
		base := runtime.NumGoroutine()
		_, s := open(t)
		s.Close()
		waitGoroutines(t, base)
	})
	t.Run("after-panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		rig, s := open(t)
		k := rig.Chans[0]
		k.Schedule(sim.NewEvent("boom", func() { panic("boom") }), k.Now())
		s.Start()
		func() {
			defer func() {
				if _, ok := recover().(*ShardPanicError); !ok {
					t.Fatal("expected a *ShardPanicError")
				}
			}()
			for {
				s.Step()
			}
		}()
		s.Close()
		waitGoroutines(t, base)
	})
	t.Run("close-twice", func(t *testing.T) {
		base := runtime.NumGoroutine()
		rig, s := open(t)
		s.Start()
		for i := 0; i < 10; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		s.Close()
		waitGoroutines(t, base)
		// Stepping on after Close runs every shard on this goroutine, to
		// the same statistics.
		for {
			done, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		var buf bytes.Buffer
		if err := rig.Reg.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if serial, _ := shardedStats(t, shardedConfig(EventBased, 4, 1, false)); buf.String() != serial {
			t.Fatal("run finished after Close differs from the serial run")
		}
	})
}

// The coordinator steps share 0 itself, so a panic there is attributed to
// worker 0; a panic in another share in the same quantum is reported too,
// after it, in worker order.
func TestShardedCoordinatorPanicAttribution(t *testing.T) {
	// Workers=2 over front+4 channels: share 0 = front, chan1, chan3 (the
	// coordinator); share 1 = chan0, chan2.
	rig, err := NewShardedRig(shardedConfig(EventBased, 4, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := rig.NewSession("", rig.Front.Now()+50*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, ci := range []int{0, 3} {
		k := rig.Chans[ci]
		k.Schedule(sim.NewEvent("boom", func() { panic(fmt.Sprintf("boom-chan%d", ci)) }), k.Now())
	}
	s.Start()
	var spe *ShardPanicError
	func() {
		defer func() { spe, _ = recover().(*ShardPanicError) }()
		s.Step()
	}()
	if spe == nil {
		t.Fatal("first quantum did not raise a *ShardPanicError")
	}
	want := []ShardPanic{
		{Worker: 0, Kernel: "chan3", Value: "boom-chan3"},
		{Worker: 1, Kernel: "chan0", Value: "boom-chan0"},
	}
	if fmt.Sprint(spe.Panics) != fmt.Sprint(want) {
		t.Fatalf("panics = %v, want %v", spe.Panics, want)
	}
}

// More workers than GOMAXPROCS makes both sides park instead of spinning;
// the run must still finish with statistics byte-identical to one worker.
func TestShardedOversubscribedMatchesSerial(t *testing.T) {
	serial, serialNow := shardedStats(t, shardedConfig(EventBased, 4, 1, false))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if spinRule(3) {
		t.Fatal("3 workers on GOMAXPROCS=1 would spin")
	}
	par, parNow := shardedStats(t, shardedConfig(EventBased, 4, 3, false))
	if par != serial || parNow != serialNow {
		t.Fatalf("oversubscribed run differs from serial (finished %s vs %s)", parNow, serialNow)
	}
}

// runGate drives a spin gate for n quanta; missed says whether quantum q's
// spin times out. It returns how many quanta spun.
func runGate(g *spinGate, n int, missed func(q int) bool) int {
	spun := 0
	for q := 0; q < n; q++ {
		if g.spin() {
			spun++
			g.record(missed(q))
		}
	}
	return spun
}

// The spin gate keeps spinning through the timeouts a quiet host produces,
// gives up quickly when every spin times out, and comes back once they stop.
func TestSpinGate(t *testing.T) {
	newGate := func() *spinGate { return &spinGate{parkLen: parkQuanta, probe: probeQuanta} }
	const n = 100_000

	if spun := runGate(newGate(), n, func(int) bool { return false }); spun != n {
		t.Fatalf("no timeouts: spun %d of %d quanta", spun, n)
	}
	// Bursts of 40 timeouts every 1000 quanta, after the first probe.
	bursts := func(q int) bool { return q >= probeQuanta && q%1000 < 40 }
	if spun := runGate(newGate(), n, bursts); spun != n {
		t.Fatalf("timeout bursts: spun %d of %d quanta", spun, n)
	}
	// Every spin times out: only failed probes spin, each park twice as
	// long as the last, so the probes cost a few hundred quanta in all.
	if spun := runGate(newGate(), n, func(int) bool { return true }); spun > 8*probeQuanta {
		t.Fatalf("all timeouts: spun %d of %d quanta", spun, n)
	}
	// Spinning that stops paying mid-run parks within a few hundred
	// quanta, and spins again after the park once the timeouts stop.
	g := newGate()
	var firstPark, resumed int
	for q := 0; q < n && resumed == 0; q++ {
		if !g.spin() {
			if firstPark == 0 {
				firstPark = q
			}
			continue
		}
		if firstPark != 0 {
			resumed = q
		}
		g.record(q >= 5000 && firstPark == 0)
	}
	if firstPark < 5000 || firstPark > 5000+256 {
		t.Fatalf("timeouts from quantum 5000 parked the session at %d", firstPark)
	}
	if resumed != firstPark+parkQuanta {
		t.Fatalf("parked at %d, spun again at %d, want after %d parked quanta", firstPark, resumed, parkQuanta)
	}
}
