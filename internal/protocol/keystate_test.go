package protocol

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestKeyStateIsCompactAndPointerFree pins the hot per-key record's layout:
// a replica holds one keyState per key of the whole key space, so a pointer
// in it makes the collector scan every replica's array, and every byte is
// paid Keys times per replica. Queues, callbacks and stamp sets belong in
// keySide.
func TestKeyStateIsCompactAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(keyState{}); size > 64 {
		t.Fatalf("keyState is %d B, want <= 64", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("keyState%s is a %s: the hot record must hold no pointers", path, ty.Kind())
		}
	}
	walk("", reflect.TypeOf(keyState{}))
}

// TestStampSet checks add, delete and len against a map-backed model,
// inside the inline capacity and well past it, including re-adds and
// deletes of absent stamps.
func TestStampSet(t *testing.T) {
	var s stampSet
	want := map[Stamp]bool{}
	check := func(step string) {
		t.Helper()
		if s.len() != len(want) {
			t.Fatalf("%s: len = %d, want %d", step, s.len(), len(want))
		}
		for st := range want {
			if s.find(st) < 0 {
				t.Fatalf("%s: %v missing", step, st)
			}
		}
	}
	const n = 3*stampSetInline + 1
	for i := 1; i <= n; i++ {
		st := MakeStamp(uint64(i), i%5)
		s.add(st)
		s.add(st) // idempotent, like a map insert
		want[st] = true
		check("add")
	}
	s.del(MakeStamp(999, 1)) // absent: no-op
	check("delete absent")
	// Delete from the inline part, the middle of the overflow, and the end.
	for _, i := range []int{1, n / 2, n, 2, n - 1} {
		st := MakeStamp(uint64(i), i%5)
		s.del(st)
		s.del(st)
		delete(want, st)
		check("delete")
	}
	// Refill past the inline capacity: the overflow's capacity is reused.
	for i := n + 1; i <= n+2*stampSetInline; i++ {
		st := MakeStamp(uint64(i), 0)
		s.add(st)
		want[st] = true
		check("refill")
	}
	for st := range want {
		s.del(st)
		delete(want, st)
		check("drain")
	}
	if s.len() != 0 || len(s.over) != 0 {
		t.Fatalf("drained set has len %d, overflow %d", s.len(), len(s.over))
	}
}

// TestSideRecordsStayPut checks that side records handed out before the
// slab grows keep their address, since persist callbacks hold one across
// calls that allocate records for other keys.
func TestSideRecordsStayPut(t *testing.T) {
	r := &Replica{keys: make([]keyState, 3*sideChunk)}
	first := r.sideOf(&r.keys[0])
	first.transC.add(MakeStamp(1, 0))
	for k := range r.keys {
		r.sideOf(&r.keys[k])
	}
	if got := r.sideOf(&r.keys[0]); got != first || got.transC.len() != 1 {
		t.Fatal("key 0's side record moved or lost its state when the slab grew")
	}
	if r.sideIf(&keyState{}) != nil {
		t.Fatal("a key that never needed a side record reports one")
	}
	if int(r.nside) != len(r.keys) {
		t.Fatalf("handed out %d side records for %d keys", r.nside, len(r.keys))
	}
}
