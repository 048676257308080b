package sim

import "testing"

// TestIngressLaneStorageBounded drives one lane that never drains — its
// occupancy swings between 1 and 24 — through 100k pushes and pops. The
// lane's storage must stay within a small multiple of its peak occupancy,
// arrivals must pop in push order, and the slots past the live queue must
// hold no handler references.
func TestIngressLaneStorageBounded(t *testing.T) {
	q := NewIngress(1)
	h := &orderRecorder{order: new([]uint64)}
	var pushed, popped uint64
	push := func() {
		pushed++
		q.Push(0, IngressEvent{At: int64(pushed), Seq: pushed, H: h, Arg: pushed})
	}
	push()
	peak := 0
	for pushed < 100_000 {
		for q.Len() < 24 {
			push()
		}
		if q.Len() > peak {
			peak = q.Len()
		}
		for q.Len() > 1 {
			popped++
			if ev := q.Pop(); ev.Arg != popped {
				t.Fatalf("pop %d returned arrival %d", popped, ev.Arg)
			}
		}
		l := &q.lanes[0]
		if c := cap(l.evs); c > 4*peak+2*laneCompactMin {
			t.Fatalf("after %d pushes the lane holds %d slots for peak occupancy %d", pushed, c, peak)
		}
		for i, ev := range l.evs[len(l.evs):cap(l.evs)] {
			if ev.H != nil {
				t.Fatalf("slot %d past the queue still references a handler", len(l.evs)+i)
			}
		}
	}
}
