package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles of the traced run with the standard
// library only: a gzip-compressed profile.proto message, decoded field by
// field, reduced to one stack of function names and one label set per
// sample. It then assigns each sample to a layer.

// profSample is one profile sample: its stack (leaf first, inlined frames
// expanded innermost first), its goroutine labels, and its sample count.
type profSample struct {
	stack  []string
	labels map[string]string
	count  int64
}

// profile.proto field numbers used here.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2
	sampleLabelField    = 3

	labelKeyField = 1
	labelStrField = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

// pbField is one decoded protobuf field: a varint, or a length-delimited
// byte string (fixed-width fields are skipped: profile.proto has none that
// matter here).
type pbField struct {
	num    int
	wire   int
	varint uint64
	data   []byte
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: truncated varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varint, n, err = readVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return nil, errors.New("profile: truncated field")
			}
			f.data, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uints reads a repeated integer field, packed or not.
func (f pbField) uints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed CPU profile as written by
// runtime/pprof. Each sample's count is its first value (samples/count).
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	for _, f := range top {
		if f.num == profStringField {
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	funcName := map[uint64]string{}
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs, vals []uint64
		labels     map[string]string
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case profFunctionField:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case functionIDField:
					id = g.varint
				case functionNameField:
					name = g.varint
				}
			}
			funcName[id] = str(name)
		case profLocationField:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case locationIDField:
					id = g.varint
				case locationLineField:
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == lineFunctionField {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profSampleField:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				switch g.num {
				case sampleLocationField, sampleValueField:
					vs, err := g.uints()
					if err != nil {
						return nil, err
					}
					if g.num == sampleLocationField {
						s.locs = append(s.locs, vs...)
					} else {
						s.vals = append(s.vals, vs...)
					}
				case sampleLabelField:
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					var k, v uint64
					for _, l := range ls {
						switch l.num {
						case labelKeyField:
							k = l.varint
						case labelStrField:
							v = l.varint
						}
					}
					if s.labels == nil {
						s.labels = map[string]string{}
					}
					s.labels[str(k)] = str(v)
				}
			}
			raws = append(raws, s)
		}
	}

	out := make([]profSample, 0, len(raws))
	for _, r := range raws {
		if len(r.vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := profSample{labels: r.labels, count: int64(r.vals[0])}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, funcName[fn])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// Layers a sample can be charged to besides the repro/internal packages.
const (
	layerMaps  = "runtime.maps"
	layerGC    = "runtime.gc"
	layerOther = "runtime.other"
)

// internalPrefix marks the simulator's own packages in function names.
const internalPrefix = "repro/internal/"

// mapFuncs and gcFuncs classify Go runtime code by function-name prefix.
// Map code covers both the swiss-table (internal/runtime/maps) and the
// older bucket implementation, and the hash functions maps call; GC code
// covers allocation, marking, sweeping, scavenging and write barriers.
var (
	mapFuncs = []string{
		"internal/runtime/maps.", "runtime.map", "runtime.evacuate", "runtime.growWork",
		"runtime.hashGrow", "runtime.makeBucketArray", "runtime.memhash", "runtime.aeshash",
		"runtime.strhash", "runtime.interhash", "runtime.nilinterhash", "runtime.typehash",
		"runtime.f32hash", "runtime.f64hash", "runtime.c64hash", "runtime.c128hash",
	}
	gcFuncs = []string{
		"runtime.mallocgc", "runtime.nextFreeFast", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.(*mcache).", "runtime.(*mcentral).",
		"runtime.(*mheap).", "runtime.(*mspan).", "runtime.(*pageAlloc).", "runtime.(*gcWork).",
		"runtime.(*gcControllerState).", "runtime.(*gcCPULimiterState).", "runtime.(*sweepLocked).",
		"runtime.(*sweepLocker).", "runtime.(*scavengerState).", "runtime.(*wbBuf).",
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.scanframeworker", "runtime.greyobject", "runtime.findObject", "runtime.heapBits",
		"runtime.heapSetType", "runtime.typePointers", "runtime.spanOf", "runtime.pageIndexOf",
		"runtime.wbBufFlush", "runtime.bulkBarrier", "runtime.memclrNoHeapPointersChunked",
		"runtime.deductAssistCredit", "runtime.markBits", "runtime.(*markBits).", "runtime.(*gcBits).",
		"runtime.mProf_Malloc", "runtime.profilealloc", "runtime.publicationBarrier",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntimeFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// layerOf charges one stack (leaf first) to a layer. The runtime frames at
// the leaf decide first: the innermost of them that is map code charges
// runtime.maps, GC or allocation code runtime.gc. Otherwise the sample goes
// to the package of its innermost repro/internal/<pkg> frame, and a stack
// with none of those goes to runtime.other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !isRuntimeFunc(fn) {
			break
		}
		switch {
		case hasAnyPrefix(fn, mapFuncs):
			return layerMaps
		case hasAnyPrefix(fn, gcFuncs):
			return layerGC
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return layerOther
}

// isBackgroundGC reports whether an unlabelled sample is the runtime's own
// concurrent collection work (mark workers, sweeper, scavenger), which runs
// on goroutines the benchmark's phase labels never reach.
func isBackgroundGC(stack []string) bool {
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return true
		}
	}
	return false
}

// measureSamples adds the samples of one profile taken during a measure
// phase to byLayer and returns how many it added. A sample counts when it
// carries the measure phase label, or when it is unlabelled background GC:
// the profiler runs only while the measure phase does, so that GC work is
// the measure phase's too.
func measureSamples(samples []profSample, byLayer map[string]int64) int64 {
	var n int64
	for _, s := range samples {
		ph, labelled := s.labels[phaseLabel]
		switch {
		case labelled && ph == "measure":
		case !labelled && isBackgroundGC(s.stack):
		default:
			continue
		}
		byLayer[layerOf(s.stack)] += s.count
		n += s.count
	}
	return n
}
