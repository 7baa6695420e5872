package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	cp := &cpuProfile{}
	if err := pprof.StartCPUProfile(&cp.buf); err != nil {
		return nil, err
	}
	return cp, nil
}

// stop ends the profile and returns the CPU time per module, attributed
// to the function a sample was taken in (self time).
func (cp *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return selfByModule(cp.buf.Bytes())
}

// setHostShares fills the host.*_frac metrics from a module -> CPU map.
func (o *outcome) setHostShares(byModule map[string]float64) {
	var total float64
	for _, v := range byModule {
		total += v
	}
	if total <= 0 {
		return
	}
	for _, m := range hostModules {
		o.setLayer("host."+m+"_frac", byModule[m]/total)
	}
}

var hostModules = []string{"sim", "minimpi", "nettrans", "wire", "core", "arm", "magma", "blas", "runtime", "syscall", "other"}

// moduleOf maps a fully qualified Go function name onto a host module.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "dynacc/internal/sim", "dynacc/internal/minimpi", "dynacc/internal/nettrans",
		"dynacc/internal/wire", "dynacc/internal/core", "dynacc/internal/arm", "dynacc/internal/magma":
		return strings.TrimPrefix(pkg, "dynacc/internal/")
	case "dynacc/internal/blas", "dynacc/internal/lapack":
		return "blas"
	case "syscall", "internal/poll", "internal/runtime/syscall", "internal/syscall/unix":
		return "syscall"
	}
	switch fn {
	case "runtime.futex", "runtime.epollwait", "runtime.read", "runtime.write1", "runtime.usleep":
		return "syscall"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// selfByModule decodes a gzipped pprof CPU profile and sums each
// sample's CPU time onto the module of its innermost frame.
func selfByModule(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string index
	)
	err = eachField(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2: // sample
			var s sample
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return eachField(b, func(tag int, v uint64, _ []byte) error {
							if tag == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		v := s.vals[len(s.vals)-1] // cpu/nanoseconds follows samples/count
		name := ""
		if idx := fnName[locFn[s.locs[0]]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[moduleOf(name)] += float64(v) / 1e9
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes.
func eachField(b []byte, fn func(tag int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		tag, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
			if err := fn(tag, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			if err := fn(tag, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// appendVarints appends a repeated varint field: one value (unpacked) or
// a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
