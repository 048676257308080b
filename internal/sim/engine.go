// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a pending-event set keyed by (time, sequence).
// Scheduling an event never executes it immediately; Run drains the set in
// timestamp order, advancing the simulated clock. Because ties are broken by
// insertion sequence, two runs with the same inputs produce identical
// schedules, which makes every experiment in this repository reproducible.
//
// All times are simulated nanoseconds. The engine is single-goroutine by
// design: protocol handlers must not block, they schedule continuations.
//
// Event dispatch is the hottest path in every experiment, so the engine
// offers two things beyond a plain priority queue:
//
//   - Two interchangeable schedulers (see Scheduler): a hierarchical timing
//     wheel (the default — O(1) amortized insert/extract, tuned to the
//     simulator's short event horizons) and the original 4-ary heap, kept
//     for differential testing. Both dispatch in exactly the same
//     (time, seq) order, so they are bit-for-bit equivalent.
//   - Typed events (ScheduleEvent/AtEvent): a pre-bound Handler plus a
//     uint64 argument, so hot event producers (simnet deliveries, NVM
//     completions, worker-pool completions) schedule without allocating a
//     closure per event.
package sim

// Handler consumes a typed event. Implementations are long-lived simulation
// components (a network delivery record, an NVM device, a worker pool); the
// argument is an implementation-defined token, typically an index into the
// handler's own pooled state. Scheduling a Handler allocates nothing.
type Handler interface {
	OnEvent(arg uint64)
}

// event is one scheduled action: either a closure or a (Handler, arg) pair.
type event struct {
	at  int64
	seq uint64
	fn  func() // nil for typed events
	h   Handler
	arg uint64
}

// run executes the event's action.
func (e *event) run() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.h.OnEvent(e.arg)
}

// before reports dispatch ordering: earlier time first, FIFO within a time.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler selects the engine's pending-event structure.
type Scheduler int

const (
	// SchedulerWheel is the hierarchical timing wheel (default): O(1)
	// amortized scheduling with a fine-grained near-future window and a
	// heap-backed overflow level for far events.
	SchedulerWheel Scheduler = iota
	// SchedulerHeap is the 4-ary min-heap, kept for differential testing
	// against the wheel (TestSchedulerDifferentialRandomized).
	SchedulerHeap
)

// EngineStats reports scheduler-level counters for one engine, for the
// -eventstats harness output and perf investigations.
type EngineStats struct {
	Processed  uint64 // events executed
	MaxPending int    // high-water mark of scheduled-but-unexecuted events
	Wheel      uint64 // events scheduled directly into the wheel window
	Overflow   uint64 // events that landed in the overflow level first
	Turns      uint64 // wheel turns (overflow re-bucketing passes)
	Ingress    uint64 // arrivals dispatched from the bound Ingress queue
}

// Merge accumulates other into s (summing counters, taking the max pending
// high-water mark), for aggregating per-LP engines into one run-level view.
func (s *EngineStats) Merge(other EngineStats) {
	s.Processed += other.Processed
	s.Wheel += other.Wheel
	s.Overflow += other.Overflow
	s.Turns += other.Turns
	s.Ingress += other.Ingress
	if other.MaxPending > s.MaxPending {
		s.MaxPending = other.MaxPending
	}
}

// Engine is a discrete-event simulator clock and scheduler.
// The zero value is ready to use at time 0 with the timing-wheel scheduler.
type Engine struct {
	now        int64
	seq        uint64
	processed  uint64
	ingressed  uint64
	stopped    bool
	maxPending int

	// schedLB is a lower bound on the scheduler's head time: no pending
	// local event is earlier than it. Pops tighten it (dispatch order is
	// monotone; a failed probe reveals the exact head), pushes relax it.
	// dispatchOne uses it to pop an ingress arrival without probing the
	// scheduler at all when the bound already proves the arrival wins.
	schedLB int64

	// ing, when bound, feeds externally keyed arrivals into the dispatch
	// loop; at equal timestamps arrivals run before locally scheduled
	// events (see Ingress).
	ing *Ingress

	useHeap bool
	heap    eventHeap
	wheel   timingWheel
}

// New returns an Engine starting at simulated time 0, using the
// timing-wheel scheduler.
func New() *Engine { return &Engine{} }

// NewWithScheduler returns an Engine using the given scheduler. Both
// schedulers dispatch in identical (time, seq) order; SchedulerHeap exists
// so differential tests can prove that.
func NewWithScheduler(s Scheduler) *Engine {
	return &Engine{useHeap: s == SchedulerHeap}
}

// Now returns the current simulated time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events, including
// queued ingress arrivals.
func (e *Engine) Pending() int {
	n := 0
	if e.ing != nil {
		n = e.ing.Len()
	}
	if e.useHeap {
		return n + e.heap.len()
	}
	return n + e.wheel.len()
}

// BindIngress attaches an arrival queue to the engine. The dispatch loops
// interleave its entries with locally scheduled events in time order, with
// arrivals winning ties — the canonical order both the sequential and the
// LP cluster engines share.
func (e *Engine) BindIngress(ing *Ingress) { e.ing = ing }

// Stats returns the engine's scheduler counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Processed:  e.processed,
		MaxPending: e.maxPending,
		Wheel:      e.wheel.wheelEvents,
		Overflow:   e.wheel.overflowEvents,
		Turns:      e.wheel.turns,
		Ingress:    e.ingressed,
	}
}

// Reserve grows the pending-event storage so at least n events can be in
// flight without reallocation. Cluster setup calls it once with the expected
// steady-state event count, so the hot scheduling path never pays for
// incremental growth.
func (e *Engine) Reserve(n int) {
	if e.useHeap {
		e.heap.reserve(n)
		return
	}
	e.wheel.reserve(n)
}

// Schedule runs fn after delay nanoseconds of simulated time.
// A negative delay is treated as zero (run at the current time, after any
// events already scheduled for it).
func (e *Engine) Schedule(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute simulated time t. Times in the past are clamped to
// the present.
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// ScheduleEvent runs h.OnEvent(arg) after delay nanoseconds of simulated
// time — the closure-free flavor of Schedule for pre-bound hot handlers.
func (e *Engine) ScheduleEvent(delay int64, h Handler, arg uint64) {
	if delay < 0 {
		delay = 0
	}
	e.AtEvent(e.now+delay, h, arg)
}

// AtEvent runs h.OnEvent(arg) at absolute simulated time t — the
// closure-free flavor of At. Times in the past are clamped to the present.
func (e *Engine) AtEvent(t int64, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h, arg: arg})
}

// push hands the event to the active scheduler and tracks the pending
// high-water mark.
func (e *Engine) push(ev event) {
	if ev.at < e.schedLB {
		e.schedLB = ev.at
	}
	var pending int
	if e.useHeap {
		e.heap.push(ev)
		pending = e.heap.len()
	} else {
		e.wheel.push(ev, e.now)
		pending = e.wheel.len()
	}
	if pending > e.maxPending {
		e.maxPending = pending
	}
}

// headHint returns the scheduler head time recorded by the last failed
// popIfAtMost probe (maxTime when the scheduler was empty). Valid only
// immediately after a failed probe, before any push.
func (e *Engine) headHint() int64 {
	if e.useHeap {
		return e.heap.headHint
	}
	return e.wheel.headHint
}

const maxTime = int64(^uint64(0) >> 1)

// dispatchOne executes the next event at or before until — the earlier of
// the scheduler head and the ingress head, arrivals first on ties — and
// reports whether anything ran.
func (e *Engine) dispatchOne(until int64) bool {
	// Local events strictly before a pending arrival run first; at the
	// arrival's own timestamp the arrival wins. When schedLB already
	// proves no local event precedes the arrival, skip the scheduler
	// probe — arrival bursts between local events then cost O(1) here
	// instead of a wheel scan each.
	limit, arrival := until, false
	if e.ing != nil && e.ing.Len() > 0 {
		if ia := e.ing.HeadAt(); ia <= until {
			if ia <= e.schedLB {
				return e.popArrival()
			}
			limit, arrival = ia-1, true
		}
	}
	var ev event
	var ok bool
	if e.useHeap {
		ev, ok = e.heap.popIfAtMost(limit)
	} else {
		ev, ok = e.wheel.popIfAtMost(limit)
	}
	if !ok {
		if arrival {
			e.schedLB = e.headHint()
			return e.popArrival()
		}
		return false
	}
	e.schedLB = ev.at
	e.now = ev.at
	e.processed++
	ev.run()
	return true
}

// popArrival dispatches the ingress head. Call only when one is pending.
func (e *Engine) popArrival() bool {
	ent := e.ing.Pop()
	e.now = ent.At
	e.processed++
	e.ingressed++
	ent.H.OnEvent(ent.Arg)
	return true
}

// Run executes events in timestamp order until the queue is empty, the
// simulated clock passes until, or Stop is called. It returns the simulated
// time at which it stopped. Events scheduled exactly at until are executed.
func (e *Engine) Run(until int64) int64 {
	e.stopped = false
	for !e.stopped && e.dispatchOne(until) {
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.now
}

// RunAll executes every pending event (including events scheduled by events)
// with no time bound, returning the final simulated time. Use only in tests
// and workloads known to quiesce.
func (e *Engine) RunAll() int64 {
	e.stopped = false
	for !e.stopped && e.dispatchOne(maxTime) {
	}
	return e.now
}

// Step executes exactly one event if any is pending and reports whether it
// did.
func (e *Engine) Step() bool {
	return e.dispatchOne(maxTime)
}

// Stop makes the current Run/RunAll call return after the event in progress.
func (e *Engine) Stop() { e.stopped = true }
