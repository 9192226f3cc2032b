package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// layers are the simulator's layers in report order; every profiled CPU
// sample lands in exactly one, so their shares add up to 100%.
var layers = []string{
	"workload", "trace", "core", "ooo", "branch", "memhier", "coherence", "noc",
	"memory", "multicore", "engine", "simrun", "obs", "runtime", "other",
}

// layerOfPkg maps the repository's packages onto layers; packages of one
// layer share a line because they share a job (cache is the memory
// hierarchy's array, interconnect and noc are the two fabrics, statsim
// and sampling serve the estimator engines).
var layerOfPkg = map[string]string{
	"workload": "workload", "trace": "trace", "isa": "trace",
	"core": "core", "ooo": "ooo", "branch": "branch",
	"memhier": "memhier", "cache": "memhier", "coherence": "coherence",
	"noc": "noc", "interconnect": "noc", "memory": "memory",
	"multicore": "multicore", "sim": "multicore", "metrics": "multicore", "config": "multicore",
	"engine": "engine", "statsim": "engine", "sampling": "engine",
	"simrun": "simrun", "obs": "obs",
}

// layerOf attributes a function, by its fully qualified name, to a layer.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	if strings.HasPrefix(fn, internal) {
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if l, ok := layerOfPkg[pkg]; ok {
			return l
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// segmentKey is the pprof label that marks which kind of simulation a
// goroutine runs; goroutines started under it (simrun.Batch workers)
// inherit it.
const segmentKey = "segment"

// inSegment runs f with its CPU samples labelled seg.
func inSegment(seg string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(segmentKey, seg), func(context.Context) { f() })
}

// profile collects a CPU profile of the traced window and attributes
// self time to layers, per segment label.
type profile struct {
	buf bytes.Buffer
	ns  map[string]map[string]int64 // segment → layer → CPU ns
}

func newProfile() *profile { return &profile{ns: map[string]map[string]int64{}} }

func (p *profile) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile:", err)
	}
}

func (p *profile) stop() {
	pprof.StopCPUProfile()
	if err := p.parse(&p.buf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading the CPU profile:", err)
	}
}

// layerNS is the CPU time of layer in segment seg ("" = all segments).
func (p *profile) layerNS(seg, layer string) float64 {
	var s int64
	for k, m := range p.ns {
		if seg == "" || k == seg {
			s += m[layer]
		}
	}
	return float64(s)
}

func (p *profile) totalNS() float64 {
	var s float64
	for _, l := range layers {
		s += p.layerNS("", l)
	}
	return s
}

// shares is each layer's percentage of all profiled CPU time.
func (p *profile) shares() []metric {
	total := p.totalNS()
	var out []metric
	for _, l := range layers {
		out = append(out, one(l+".cpu_share", "%", 100*ratio(p.layerNS("", l), total)))
	}
	return out
}

// parse decodes a gzipped profile.proto message far enough to attribute
// each sample's CPU time to the function at its leaf (innermost inlined
// frame first) and to its segment label.
func (p *profile) parse(r io.Reader) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		loc   uint64
		value []int64
		label map[int64]int64
	}
	var (
		types    []int64 // sample_type[i].type as string index
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → name string index
		strs     []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			s := sample{label: map[int64]int64{}}
			first := true
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return packed(v, b, func(x uint64) {
						if first {
							s.loc, first = x, false
						}
					})
				case 2:
					return packed(v, b, func(x uint64) { s.value = append(s.value, int64(x)) })
				case 3:
					var key, str int64
					err := fields(b, func(n int, v uint64, _ []byte) error {
						switch n {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.label[key] = str
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seen := false
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if !seen {
						seen = true
						return fields(b, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
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
		return err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	segKey := int64(-1)
	for i, s := range strs {
		if s == segmentKey {
			segKey = int64(i)
		}
	}
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.value) {
			continue
		}
		seg := ""
		if v, ok := s.label[segKey]; ok {
			seg = str(v)
		}
		if p.ns[seg] == nil {
			p.ns[seg] = map[string]int64{}
		}
		p.ns[seg][layerOf(str(funcName[locFunc[s.loc]]))] += s.value[cpu]
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes; fixed-width
// fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// packed delivers a repeated varint field stored either packed (b set)
// or as a single value (v).
func packed(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		b = b[n:]
	}
	return nil
}
