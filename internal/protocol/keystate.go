package protocol

// keyState is the per-key hot record at one replica: the scalars the read
// and write paths consult on every access. It holds no pointers, so a
// replica's dense key array is cleared in one memclr and never scanned by
// the garbage collector. Everything a key needs only while it has
// operations in flight — wait queues, persist callbacks, the transient
// stamp sets — lives in a keySide record of the replica's side slab,
// allocated the first time the key needs one.
type keyState struct {
	visible   Stamp  // stamp of the current visible (volatile) version
	persisted Stamp  // stamp of the latest locally persisted version
	lockTxn   uint64 // transaction with an in-flight write to this key
	committed Stamp  // latest transactionally committed version (Xact only)

	// Write-back coalescing: at most one persist per key is in flight; newer
	// stamps arriving meanwhile mark the key dirty and ride the follow-up
	// write-back. issuedStamp is the stamp the in-flight write covers (at
	// most one, so it lives here rather than in a per-write record).
	dirtyStamp  Stamp
	issuedStamp Stamp

	side            int32 // 1-based index of the key's keySide; 0 = none yet
	persistInFlight bool
}

// keySide is the cold part of a key's state, reached from keyState.side.
type keySide struct {
	// transC holds stamps INVed but not yet validated for consistency;
	// transP holds stamps not yet validated for persistency (VAL_p).
	transC stampSet
	transP stampSet

	consWait []func() // reads waiting for consistency validation
	persWait []func() // reads waiting for local persistence

	// Callbacks waiting on the key's coalesced write-back fire once their
	// stamp is covered. spareCbs is the double-buffer that lets completion
	// snapshot-and-swap persistCbs without reallocating.
	persistCbs []persistCb
	spareCbs   []persistCb
}

// persistCb defers a durability callback onto an in-flight coalesced persist.
type persistCb struct {
	st   Stamp
	done func()
}

// sideChunk is how many keySide records one side-slab block holds. Blocks
// never move once allocated, so a *keySide stays valid while callbacks
// allocate side records for other keys.
const (
	sideShift = 6
	sideChunk = 1 << sideShift
)

// sideOf returns ks's side record, allocating it on first use.
func (r *Replica) sideOf(ks *keyState) *keySide {
	if ks.side == 0 {
		if r.nside%sideChunk == 0 {
			r.sides = append(r.sides, make([]keySide, sideChunk))
		}
		r.nside++
		ks.side = r.nside
	}
	return r.sideIf(ks)
}

// sideIf returns ks's side record, or nil if the key never needed one.
func (r *Replica) sideIf(ks *keyState) *keySide {
	if ks.side == 0 {
		return nil
	}
	i := ks.side - 1
	return &r.sides[i>>sideShift][i&(sideChunk-1)]
}

// stampSetInline is how many stamps a stampSet holds without allocating. A
// key rarely has more than two strong writes in flight at once.
const stampSetInline = 2

// stampSet is a small set of stamps: the first stampSetInline members live
// inline, the rest in an overflow slice whose capacity is kept for reuse.
// Member order is unspecified; callers only add, delete and count.
type stampSet struct {
	n      int
	inline [stampSetInline]Stamp
	over   []Stamp
}

// len returns the number of members.
func (s *stampSet) len() int { return s.n }

// slot returns the storage of member position i < s.n.
func (s *stampSet) slot(i int) *Stamp {
	if i < stampSetInline {
		return &s.inline[i]
	}
	return &s.over[i-stampSetInline]
}

// find returns st's member position, or -1.
func (s *stampSet) find(st Stamp) int {
	for i := 0; i < s.n; i++ {
		if *s.slot(i) == st {
			return i
		}
	}
	return -1
}

// add inserts st; adding a member again is a no-op.
func (s *stampSet) add(st Stamp) {
	if s.find(st) >= 0 {
		return
	}
	if s.n < stampSetInline {
		s.inline[s.n] = st
	} else {
		s.over = append(s.over, st)
	}
	s.n++
}

// del removes st if present, moving the last member into its position.
func (s *stampSet) del(st Stamp) {
	i := s.find(st)
	if i < 0 {
		return
	}
	s.n--
	*s.slot(i) = *s.slot(s.n)
	if s.n >= stampSetInline {
		s.over = s.over[:s.n-stampSetInline]
	}
}
