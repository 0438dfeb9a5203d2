package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refEntry is one pending event in the reference model.
type refEntry struct {
	id   int
	when Tick
	pri  Priority
	seq  uint64
}

// refQueue is the reference the calendar queue must agree with: a flat list
// of pending events fired in (when, priority, seq) order, where seq counts
// every Schedule in call order.
type refQueue struct {
	now     Tick
	nextSeq uint64
	pending []refEntry
}

func (q *refQueue) schedule(id int, when Tick, pri Priority) {
	q.deschedule(id)
	q.pending = append(q.pending, refEntry{id: id, when: when, pri: pri, seq: q.nextSeq})
	q.nextSeq++
}

func (q *refQueue) deschedule(id int) {
	q.pending = slices.DeleteFunc(q.pending, func(e refEntry) bool { return e.id == id })
}

// runUntil fires every pending event due at or before limit, in order;
// onFire may schedule more work, exactly as a kernel callback would.
func (q *refQueue) runUntil(limit Tick, onFire func(id int)) {
	for {
		i := -1
		for j, e := range q.pending {
			if e.when > limit {
				continue
			}
			if i < 0 || refBefore(e, q.pending[i]) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		e := q.pending[i]
		q.pending = slices.Delete(q.pending, i, i+1)
		q.now = e.when
		onFire(e.id)
	}
	q.now = max(q.now, limit)
}

func refBefore(a, b refEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// retreatCoverage counts the retreat shapes a randomized run exercised.
type retreatCoverage struct {
	gapBelow, gapExact, gapAbove int // cursor-to-target gaps <, =, > bucketCount
	boundary                     int // live entries exactly at bucket bn+bucketCount
	tombstone                    int // descheduled entries in an evicted slot
	refill                       int // evicted entries later fired via the far heap
}

// Events scheduled behind a cursor that RunUntil parked at a future bucket
// make the kernel retreat its window, evicting only the buckets that leave
// it. This drives random Schedule/Deschedule/Reschedule/RunUntil sequences,
// many of them aimed at exactly those retreats, and requires the kernel to
// fire the same events in the same order as the reference, with its
// ring/far-heap bookkeeping consistent after every operation.
func TestQueueRetreatMatchesReference(t *testing.T) {
	var cov retreatCoverage
	for seed := int64(1); seed <= 60; seed++ {
		runRetreatModel(t, seed, &cov)
	}
	if cov.gapBelow == 0 || cov.gapExact == 0 || cov.gapAbove == 0 ||
		cov.boundary == 0 || cov.tombstone == 0 || cov.refill == 0 {
		t.Fatalf("randomized run missed a retreat shape: %+v", cov)
	}
}

func runRetreatModel(t *testing.T, seed int64, cov *retreatCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	ref := &refQueue{}

	const nEvents = 48
	pris := []Priority{MinPriority, DefaultPriority, DefaultPriority, MaxPriority}
	events := make([]*Event, nEvents)
	kFires, rFires := make([]int, nEvents), make([]int, nEvents)
	evicted := make([]bool, nEvents)
	var got, want []int

	// Every third event re-arms itself a few times from its own callback, so
	// both models also schedule while running. The delay depends only on
	// the event and its fire count.
	rearm := func(id, fires int) (Tick, bool) {
		if id%3 != 0 || fires > 3 {
			return 0, false
		}
		return Tick((id*7919+fires*104729)%400_000) + 1, true
	}
	for id := range events {
		events[id] = NewEventPri("e", pris[id%len(pris)], func() {
			got = append(got, id)
			if evicted[id] {
				cov.refill++
				evicted[id] = false
			}
			kFires[id]++
			if d, ok := rearm(id, kFires[id]); ok {
				k.Schedule(events[id], k.Now()+d)
			}
		})
	}
	refFire := func(id int) {
		want = append(want, id)
		rFires[id]++
		if d, ok := rearm(id, rFires[id]); ok {
			ref.schedule(id, ref.now+d, events[id].priority)
		}
	}

	schedule := func(id int, when Tick) {
		k.Reschedule(events[id], when)
		ref.schedule(id, when, events[id].priority)
		evicted[id] = false
	}
	deschedule := func(id int) {
		k.Deschedule(events[id])
		ref.deschedule(id)
		evicted[id] = false
	}
	// inBucket picks a tick inside bucket b, never before now.
	inBucket := func(b int64) Tick {
		return max(Tick(b<<bucketShift)+Tick(rng.Int63n(1<<bucketShift)), k.Now())
	}
	idle := func() int {
		for tries := 0; tries < 8; tries++ {
			if id := rng.Intn(nEvents); !events[id].scheduled {
				return id
			}
		}
		return -1
	}
	check := func(op string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d, %s: fired %v, reference fired %v", seed, op, got, want)
		}
		if k.Now() != ref.now {
			t.Fatalf("seed %d, %s: now %s, reference %s", seed, op, k.Now(), ref.now)
		}
		if k.Pending() != len(ref.pending) || k.inWindow+k.farLive != k.pending {
			t.Fatalf("seed %d, %s: pending %d (ring %d + far %d), reference %d",
				seed, op, k.Pending(), k.inWindow, k.farLive, len(ref.pending))
		}
		for _, e := range ref.pending {
			if ev := events[e.id]; !ev.scheduled || ev.when != e.when {
				t.Fatalf("seed %d, %s: event %d not scheduled at %s", seed, op, e.id, e.when)
			}
		}
	}

	for step := 0; step < 250; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			// A fresh event, near (inside the window) or far (heap).
			if id := idle(); id >= 0 {
				span := 400 * Nanosecond
				if rng.Intn(3) == 0 {
					span = 3 * Microsecond
				}
				schedule(id, k.Now()+Tick(rng.Int63n(int64(span))))
			}
			check("schedule")
		case op < 4:
			if len(ref.pending) > 0 {
				deschedule(ref.pending[rng.Intn(len(ref.pending))].id)
			}
			check("deschedule")
		case op < 5:
			schedule(rng.Intn(nEvents), k.Now()+Tick(rng.Int63n(int64(Microsecond))))
			check("reschedule")
		case op < 7:
			// Schedule behind the parked cursor, at a chosen gap.
			maxGap := k.curBucket - bucketOf(k.Now())
			if maxGap <= 0 {
				continue
			}
			gaps := []int64{1 + rng.Int63n(bucketCount-1), bucketCount - 1, bucketCount, bucketCount + 1,
				bucketCount + 1 + rng.Int63n(2*bucketCount)}
			gap := min(gaps[rng.Intn(len(gaps))], maxGap)
			bn := k.curBucket - gap
			if gap <= bucketCount {
				// Two entries at the first bucket the retreat evicts (one of
				// them may be descheduled, leaving a tombstone in an evicted
				// slot) and one at the last bucket that stays.
				for _, b := range []int64{bn + bucketCount, bn + bucketCount, bn + bucketCount - 1} {
					if id := idle(); id >= 0 && b >= k.curBucket {
						schedule(id, inBucket(b))
					}
				}
				for _, e := range ref.pending {
					if bucketOf(e.when) == bn+bucketCount && rng.Intn(2) == 0 {
						deschedule(e.id)
						cov.tombstone++
						break
					}
				}
			}
			id := idle()
			if id < 0 {
				continue
			}
			var evict []int
			for _, e := range ref.pending {
				if bucketOf(e.when) >= bn+bucketCount && !events[e.id].inFar {
					evict = append(evict, e.id)
					if bucketOf(e.when) == bn+bucketCount {
						cov.boundary++
					}
				}
			}
			switch {
			case gap < bucketCount:
				cov.gapBelow++
			case gap == bucketCount:
				cov.gapExact++
			default:
				cov.gapAbove++
			}
			schedule(id, inBucket(bn))
			if k.curBucket != bn {
				t.Fatalf("seed %d: cursor at bucket %d after scheduling into bucket %d", seed, k.curBucket, bn)
			}
			for _, eid := range evict {
				if !events[eid].inFar {
					t.Fatalf("seed %d: event %d at bucket %d not evicted by the retreat to %d",
						seed, eid, bucketOf(events[eid].when), bn)
				}
				evicted[eid] = true
			}
			check("retreat")
		default:
			// Short runs park the cursor at a future event; long ones cross
			// the window and refill it from the far heap.
			limit := k.Now() + Tick(rng.Int63n(int64(700*Nanosecond)))
			k.RunUntil(limit)
			ref.runUntil(limit, refFire)
			check("run-until")
		}
	}
	k.Run()
	ref.runUntil(MaxTick, refFire)
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d, final run: fired %v, reference fired %v", seed, got, want)
	}
	if k.Pending() != 0 {
		t.Fatalf("seed %d: %d events left after Run", seed, k.Pending())
	}
}
