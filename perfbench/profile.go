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

// layerPkgs maps each layer to the package (source directory) its
// samples are charged to.
var layerPkgs = []struct{ pkg, layer string }{
	{"falcon/internal/sim", "sim"},
	{"falcon/internal/netsim", "netsim"},
	{"falcon/internal/routing", "routing"},
	{"falcon/internal/falcon/pdl", "pdl"},
	{"falcon/internal/falcon/tl", "tl"},
	{"falcon/internal/falcon/fae", "fae"},
	{"falcon/internal/falcon/cc", "cc"},
	{"falcon/internal/nic", "nic"},
	{"falcon/internal/core", "core"},
	{"falcon/internal/rdma", "rdma"},
	{"falcon/internal/workload", "workload"},
}

// cpuLayers lists every layer a CPU share is reported for. gc and runtime
// split the Go runtime's samples; other is the benchmark's own code and
// samples with no layer frame on the stack.
var cpuLayers = []string{"sim", "netsim", "routing", "pdl", "tl", "fae", "cc", "nic", "core", "rdma", "workload", "gc", "runtime", "other"}

// funcPkg returns the import path of a symbol name such as
// "falcon/internal/sim.(*Simulator).step.func1".
func funcPkg(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

// gcFuncPrefixes name the runtime functions that do garbage collection:
// mark workers and assists, sweeping, scavenging and write barriers.
var gcFuncPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.wbBufFlush", "runtime.deductSweepCredit",
}

// refLayer is where layerOfStack charges the reference kernel's samples,
// which no layer's share counts.
const refLayer = "ref"

// layerOfStack charges one sample, given its frames leaf first. A sample
// inside the reference kernel is refLayer's. A leaf in
// the Go runtime is "gc" work when a GC function is on the stack and
// "runtime" work otherwise. Any other leaf goes to the innermost frame in
// a layer package, so standard-library and helper-package code (wire,
// stats, sort, math/rand) counts against the layer that called it.
func layerOfStack(funcs []string) string {
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.(*refKernel).") {
			return refLayer
		}
	}
	if len(funcs) > 0 && isRuntimePkg(funcPkg(funcs[0])) {
		for _, fn := range funcs {
			for _, p := range gcFuncPrefixes {
				if strings.HasPrefix(fn, p) {
					return "gc"
				}
			}
		}
		return "runtime"
	}
	for _, fn := range funcs {
		pkg := funcPkg(fn)
		for _, lp := range layerPkgs {
			if pkg == lp.pkg {
				return lp.layer
			}
		}
		if pkg == "main" {
			break
		}
	}
	return "other"
}

// cpuByLayer decodes a runtime/pprof CPU profile and sums its CPU
// nanoseconds by layer.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("open cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	valueIdx := -1
	for i, vt := range p.sampleTypes {
		if p.str(vt) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("cpu profile has no cpu sample type")
	}
	funcName := make(map[uint64]string, len(p.funcs))
	for id, nameIdx := range p.funcs {
		funcName[id] = p.str(nameIdx)
	}
	out := make(map[string]int64)
	var frames []string
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				frames = append(frames, funcName[fid])
			}
		}
		out[layerOfStack(frames)] += s.values[valueIdx]
	}
	return out, nil
}

// profile is the part of the pprof protobuf message (profile.proto) the
// attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := eachField(msg, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, v, packed)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, packed); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// eachField walks one protobuf message. Varint and fixed fields pass
// their value; length-delimited fields pass their bytes (msg is nil for
// the others).
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field given either one value or
// its packed encoding.
func appendUints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
