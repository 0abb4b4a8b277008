package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// This file folds CPU-profile samples to the benchmark's layers. It
// reads the gzipped protobuf that runtime/pprof writes with a minimal
// decoder for the few fields it needs (samples, locations, functions,
// the string table), so the benchmark needs nothing outside the
// standard library.

// cpuProfile profiles one traced timed phase into memory.
type cpuProfile struct {
	buf     bytes.Buffer
	running bool
	err     error
}

func (p *cpuProfile) start() {
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
	p.running = p.err == nil
}

// stop ends the profile and folds it to layers (nil if profiling
// could not start or the profile does not parse; err says why).
func (p *cpuProfile) stop() map[string]int64 {
	if !p.running {
		return nil
	}
	pprof.StopCPUProfile()
	p.running = false
	fold := map[string]int64{}
	if err := foldProfile(p.buf.Bytes(), fold); err != nil {
		p.err = err
		return nil
	}
	return fold
}

// cpuLayers are the layers a CPU sample can be charged to, in report
// order. "bench" is the benchmark's own harness and shims; "unmapped"
// is a sample whose stack holds no function the map below knows.
var cpuLayers = []string{
	"sim.sched", "sim.net", "wire", "core", "broadcast", "suspicion",
	"awareness", "coords", "metrics", "telemetry", "nettrans", "runtime",
	"bench", "unmapped",
}

// funcLayer maps one function name to a layer, or "" for a frame that
// says nothing by itself (standard library, runtime helpers called by
// the program). Simulator types are split by function, not package:
// the scheduler and its queues are sim.sched, the network and its ports
// are sim.net.
func funcLayer(fn string) string {
	const lg = "lifeguard/internal/"
	switch {
	case strings.HasPrefix(fn, lg+"sim."):
		rest := strings.TrimPrefix(fn, lg+"sim.")
		for _, p := range []string{"(*Scheduler)", "(*calendarQueue)", "(*heapQueue)", "eventHeap", "(*eventHeap)", "(*Event)", "(*Clock)", "(*NodeClock)", "(*nodeTimer)", "newCalendarQueue"} {
			if strings.HasPrefix(rest, p) {
				return "sim.sched"
			}
		}
		return "sim.net"
	case strings.HasPrefix(fn, lg+"bufpool."):
		return "sim.net"
	case strings.HasPrefix(fn, lg+"wire."):
		return "wire"
	case strings.HasPrefix(fn, lg+"core."), strings.HasPrefix(fn, lg+"timeutil."):
		return "core"
	case strings.HasPrefix(fn, lg+"broadcast."):
		return "broadcast"
	case strings.HasPrefix(fn, lg+"suspicion."):
		return "suspicion"
	case strings.HasPrefix(fn, lg+"awareness."):
		return "awareness"
	case strings.HasPrefix(fn, lg+"coords."):
		return "coords"
	case strings.HasPrefix(fn, lg+"metrics."):
		return "metrics"
	case strings.HasPrefix(fn, lg+"telemetry."):
		return "telemetry"
	case strings.HasPrefix(fn, lg+"nettrans."):
		return "nettrans"
	case strings.HasPrefix(fn, lg+"experiment."), strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// gcFrame reports frames that mean the sample is garbage-collector or
// allocator bookkeeping, charged to runtime wherever it was triggered.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.scanobject", "runtime.gcStart", "runtime.stopTheWorld", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// foldProfile charges every sample of a CPU profile to one layer and
// adds its CPU time (ns) to fold. A sample goes to runtime when its
// stack holds garbage-collector work; otherwise to the layer of the
// innermost frame that maps to one, so a map lookup or an allocation
// made by core code counts as core; otherwise to runtime when the stack
// is all runtime (scheduler, idle, signal handling), else unmapped.
func foldProfile(data []byte, fold map[string]int64) error {
	p, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var names []string
		for _, loc := range s.locs {
			names = append(names, p.locFuncs[loc]...)
		}
		fold[classify(names)] += s.value
	}
	return nil
}

// classify picks a layer for one stack, innermost frame first.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime"
		}
	}
	allRuntime := true
	for _, fn := range stack {
		if l := funcLayer(fn); l != "" {
			return l
		}
		if !strings.HasPrefix(fn, "runtime.") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "unmapped"
}

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

// parseProfile decodes the fields of a pprof profile.proto this file
// uses.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locLines := map[uint64][]uint64{}
	out := &profile{locFuncs: map[uint64][]string{}}
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(wt, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(wt, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			out.samples = append(out.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, fns := range locLines {
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				out.locFuncs[loc] = append(out.locFuncs[loc], strs[i])
			}
		}
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field, packed or not.
func varints(wt int, v uint64, b []byte) ([]uint64, error) {
	if wt == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
