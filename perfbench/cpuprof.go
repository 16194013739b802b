package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuModules are the buckets CPU self time is attributed to: one per
// repository package that forms a layer, the runtime split into scheduler/
// channel work and allocation/GC, and the standard library split by the
// fleet's heavy users.
var cpuModules = []string{
	"machine", "sim", "coherence", "cache", "noc", "dram", "mem",
	"workloads", "quality", "trace", "check", "harness", "wal",
	"repo_other", "perfbench",
	"runtime.sched", "runtime.gc", "runtime.other",
	"std.json", "std.net", "std.syscall", "std.other",
}

// profiler samples the process's CPU profile into memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends sampling and returns each module's share (percent) of the
// sampled CPU time, attributed by the leaf frame's package.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return moduleShares(p.buf.Bytes())
}

// moduleShares decodes a gzipped pprof profile with the standard library
// alone and attributes every sample's value to the module of its leaf
// function (the innermost inlined frame of the first location).
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeIdx   []int64 // sample_type[i].type string index
		samples   [][2][]uint64
		locLeaf   = map[uint64]uint64{} // location id → leaf function id
		funcNames = map[uint64]int64{}  // function id → name string index
	)
	err = protoFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s [2][]uint64
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				if n == 1 || n == 2 {
					s[n-1] = appendPacked(s[n-1], v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			seenLine := false
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					seenLine = true
					return protoFields(d, func(m int, v uint64, _ []byte) error {
						if m == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU-time value is the one typed "cpu"; the sample count is the
	// fallback for a profile without one.
	valIdx := 0
	for i, s := range typeIdx {
		if s >= 0 && int(s) < len(strs) && strs[s] == "cpu" {
			valIdx = i
		}
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	total := 0.0
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) <= valIdx {
			continue
		}
		name := ""
		if ni, ok := funcNames[locLeaf[s[0][0]]]; ok && ni >= 0 && int(ni) < len(strs) {
			name = strs[ni]
		}
		v := float64(int64(s[1][valIdx]))
		out[moduleOf(name)] += v
		total += v
	}
	if total > 0 {
		for k := range out {
			out[k] *= 100 / total
		}
	}
	return out, nil
}

// moduleOf maps a Go symbol ("ghostwriter/internal/sim.(*Engine).Drain",
// "runtime.mallocgc", "main.(*fleet).run") to its cpuModules bucket.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime":
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	case strings.HasPrefix(pkg, "ghostwriter/internal/"):
		rest := strings.TrimPrefix(pkg, "ghostwriter/internal/")
		switch {
		case rest == "coherence/check", rest == "coherence/mutate":
			return "check"
		case strings.HasPrefix(rest, "coherence"):
			return "coherence"
		}
		for _, m := range cpuModules[:13] {
			if rest == m {
				return m
			}
		}
		return "repo_other"
	case pkg == "ghostwriter":
		return "repo_other"
	case pkg == "encoding/json":
		return "std.json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio":
		return "std.net"
	case pkg == "syscall" || pkg == "os" || pkg == "internal/poll" ||
		strings.HasPrefix(pkg, "internal/syscall"):
		return "std.syscall"
	}
	return "std.other"
}

// runtimeBucket splits runtime self time into scheduler/channel handoff,
// allocation/GC, and the rest (memmove, maps, hashing, ...).
func runtimeBucket(fn string) string {
	for _, p := range []string{
		"malloc", "gc", "GC", "scanobject", "greyobject", "markBits", "mark",
		"sweep", "mspan", "mcache", "mcentral", "mheap", "heapBits", "memclr",
		"WriteBarrier", "wbBuf", "bulkBarrier", "newobject", "makeslice",
		"growslice", "newarray", "findObject", "pageAlloc", "scavenge",
		"nextFree", "refill", "allocSpan", "makemap", "_GC",
	} {
		if strings.Contains(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range []string{
		"chan", "select", "park", "sched", "findRunnable", "runq", "steal",
		"ready", "wakep", "futex", "note", "lock", "sema", "gogo", "mcall",
		"goexit", "newproc", "casgstatus", "execute", "gosched", "osyield",
		"usleep", "procyield", "netpoll", "stopm", "startm", "handoffp",
		"acquirep", "releasep", "spinning", "Timers", "timer", "systemstack",
		"morestack", "goready", "nanotime",
	} {
		if strings.Contains(fn, p) {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint/fixed value or the bytes of a
// length-delimited field.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field given either unpacked (v)
// or packed (data) encoding.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
