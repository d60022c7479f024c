package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a CPU profile, as runtime/pprof writes it, into the
// simulator's layers. The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); only the handful of fields
// the fold needs are decoded, with the standard library alone.

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string // source file
}

// stackSample is one sampled stack, innermost frame first.
type stackSample struct {
	frames []frame
	weight int64
}

// cpuLayers lists the fold's classes in report order; each becomes a
// cpu.<class> metric.
var cpuLayers = []string{
	"sim", "pdes", "fabric", "ibv", "xport", "ucx", "core", "mpi", "cluster", "bench",
	"rt.switch", "rt.gc", "rt.memmove", "other",
}

// internalLayers are the repro/internal packages that are layers of their
// own. Frames in other internal packages (loggp, ploggp, trace, ...) are
// skipped, so their samples go to the layer that called them.
var internalLayers = map[string]bool{
	"sim": true, "fabric": true, "ibv": true, "xport": true, "ucx": true,
	"core": true, "mpi": true, "cluster": true, "bench": true,
}

// Runtime frame classes, matched by name prefix. Channel operations,
// parking and readying goroutines, and the scheduler are how sim.Proc
// switches; allocation and collection are the GC's; memmove is payload
// copying.
var (
	rtSwitchPrefixes = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
		"runtime.send", "runtime.recv", "runtime.gopark", "runtime.park_m",
		"runtime.goready", "runtime.ready", "runtime.schedule", "runtime.findRunnable",
		"runtime.mcall", "runtime.gosched", "runtime.goschedImpl", "runtime.execute",
		"runtime.gogo", "runtime.runq", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
		"runtime.semacquire", "runtime.semrelease", "runtime.newproc", "runtime.goexit0",
	}
	rtGCPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.gc", "runtime.scanobject",
		"runtime.scanblock", "runtime.scanstack", "runtime.markroot", "runtime.greyobject",
		"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.bulkBarrier",
		"runtime.wbBuf", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*gcWork)", "runtime.(*mspan)", "runtime.(*sweepLocked)",
	}
	rtMemmove = []string{"runtime.memmove", "runtime.typedmemmove"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// classify assigns a stack to one class. Runtime classes come first: the
// runtime frames at the top of the stack are scanned innermost first, and
// the first one that belongs to a class decides. Otherwise the innermost
// frame of a layer decides: a repro/internal layer package (sim frames from
// shard.go or ShardSet methods count as pdes), or the benchmark's own main
// package, which runs the workloads and counts as bench.
func classify(frames []frame) string {
	for _, f := range frames {
		if !isRuntimeFrame(f.fn) {
			break
		}
		switch {
		case hasAnyPrefix(f.fn, rtMemmove):
			return "rt.memmove"
		case hasAnyPrefix(f.fn, rtGCPrefixes):
			return "rt.gc"
		case hasAnyPrefix(f.fn, rtSwitchPrefixes):
			return "rt.switch"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "repro/simbench.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(f.fn, "repro/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		if !internalLayers[pkg] {
			continue
		}
		if pkg == "sim" && (strings.Contains(f.fn, ".(*ShardSet).") || strings.HasSuffix(f.file, "internal/sim/shard.go")) {
			return "pdes"
		}
		return pkg
	}
	return "other"
}

// foldShares returns each class's share of the total sample weight.
func foldShares(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[classify(s.frames)] += float64(s.weight) / float64(total)
	}
	return shares
}

// parseCPUProfile decodes the stacks of a gzipped pprof profile. The weight
// of a sample is its first value (the sample count for CPU profiles).
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	type function struct{ name, file int64 }
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]function{}
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var fn function
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			functions[id] = fn
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []frame
		for _, loc := range s.locs {
			for _, fid := range locations[loc] {
				fn := functions[fid]
				frames = append(frames, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, stackSample{frames: frames, weight: s.values[0]})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protocol buffer")

// eachField calls fn for every field of a protocol-buffer message: v holds
// a varint or fixed value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding: one
// value per field, or packed into a length-delimited payload.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
