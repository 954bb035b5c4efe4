package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a runtime/pprof profile (profile.proto) the
// harness reads: sample values and each sample's stack as function names,
// leaf first. Decoding it here keeps the benchmark on the standard library.
type profile struct {
	types   []string // sample value types, e.g. "cpu" or "delay"
	samples []profSample
}

type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	values []int64
}

// parseProfile decodes a gzipped profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []int64
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
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
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, b := range rawSample {
		var s profSample
		err := eachField(b, func(n, wire int, v uint64, pb []byte) error {
			var vals []uint64
			if wire == 2 {
				var err error
				if vals, err = packedVarints(pb); err != nil {
					return err
				}
			} else {
				vals = []uint64{v}
			}
			switch n {
			case 1:
				for _, loc := range vals {
					for _, fn := range locLines[loc] {
						s.stack = append(s.stack, str(funcName[fn]))
					}
				}
			case 2:
				for _, x := range vals {
					s.values = append(s.values, int64(x))
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// valueIndex returns the index of the sample value type named typ, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.types {
		if t == typ {
			return i
		}
	}
	return -1
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks the top-level fields of a protobuf message. Varint and
// fixed-width fields arrive in v, length-delimited ones in b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func packedVarints(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// module names the layer a function belongs to: the last path element of a
// vsensor/internal package ("vm", "server", …), "vsensor" for the facade,
// "runtime" for the Go runtime, "stdlib" for other standard packages and
// "other" for the rest (including this harness).
func module(fn string) string {
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "vsensor/internal/"):
		return strings.TrimPrefix(pkg, "vsensor/internal/")
	case pkg == "vsensor":
		return "vsensor"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "vsensor/"):
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	}
	return "other"
}

// gcFrames mark a CPU sample as garbage-collector work when any of them is
// on its stack: background and assist marking, sweeping and scavenging.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.sweepone":          true,
}

// cpuByModule splits CPU seconds by layer. A sample with a garbage
// collector frame anywhere on its stack counts as "runtime.gc". Any other
// sample counts for the module of its innermost repository frame, so
// runtime and standard-library work a layer asks for (copying, allocation,
// map and sync.Map lookups) is charged to that layer; a sample with no
// repository frame counts for the module of its leaf ("runtime", "stdlib"
// or "other"). Samples come in whole sampling periods, so each module's
// share of them is scaled to total, the process CPU time measured over the
// same interval, which is also reported as "total".
func cpuByModule(p *profile, total float64) map[string]float64 {
	out := map[string]float64{}
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return out
	}
	var sampled float64
	for _, s := range p.samples {
		if len(s.stack) == 0 || vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		sampled += sec
		mod := ""
		for _, fn := range s.stack {
			if gcFrames[fn] {
				mod = "runtime.gc"
				break
			}
		}
		if mod == "" {
			mod = ownerModule(s.stack)
		}
		out[mod] += sec
	}
	if sampled > 0 {
		for mod, sec := range out {
			out[mod] = sec / sampled * total
		}
	}
	out["total"] = total
	return out
}

// ownerModule is the module of the innermost repository frame of a stack,
// or of its leaf when no frame belongs to the repository.
func ownerModule(stack []string) string {
	for _, fn := range stack {
		if m := module(fn); m != "runtime" && m != "stdlib" && m != "other" {
			return m
		}
	}
	return module(stack[0])
}

// waitByModule sums the delay of a mutex or block profile by owner module,
// so a wait inside sync or the runtime lands on the layer that asked for
// it. Delays are summed over goroutines.
func waitByModule(p *profile) map[string]float64 {
	out := map[string]float64{}
	vi := p.valueIndex("delay")
	if vi < 0 {
		return out
	}
	for _, s := range p.samples {
		if len(s.stack) == 0 || vi >= len(s.values) {
			continue
		}
		out[ownerModule(s.stack)] += float64(s.values[vi]) / 1e9
	}
	return out
}
