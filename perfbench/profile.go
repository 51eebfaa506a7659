package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"

	"godsm/internal/core"
)

// cpuBuckets are the CPU self-share buckets, in report order: one per
// godsm module, obs standing for internal/obs, trace, metrics and check,
// then the Go runtime's scheduler, GC/allocation and system-call work,
// then everything else.
var cpuBuckets = []string{
	"apps", "core", "sim", "vm", "wire", "transport", "netsim", "kvload", "obs",
	"runtime_sched", "runtime_gc", "syscall", "other",
}

// moduleBucket maps a godsm/internal package to its bucket; packages not
// listed count as other.
var moduleBucket = map[string]string{
	"apps": "apps", "core": "core", "sim": "sim", "vm": "vm", "wire": "wire",
	"transport": "transport", "netsim": "netsim", "kvload": "kvload",
	"obs": "obs", "trace": "obs", "metrics": "obs", "check": "obs",
}

// frame is one stack frame of a CPU sample.
type frame struct {
	fn   string // function name, such as "godsm/internal/kvload.(*Sampler).key"
	file string // source file as the binary records it; may be empty
}

// godsmRoot is the directory prefix of the godsm module's source files as
// the binary records them, taken from a function known to live there.
var godsmRoot = func() string {
	f := runtime.FuncForPC(reflect.ValueOf(core.Run).Pointer())
	file, _ := f.FileLine(f.Entry())
	root, _, _ := strings.Cut(file, "internal/core/")
	return root
}()

// moduleOf returns the godsm/internal module a frame's code belongs to. The
// source file decides when known: a closure defined in a function the
// compiler inlined is named after the caller, so its name can point outside
// the module that holds its code.
func moduleOf(f frame) (string, bool) {
	rest, ok := strings.CutPrefix(f.file, godsmRoot+"internal/")
	if f.file == "" {
		rest, ok = strings.CutPrefix(pkgOf(f.fn), "godsm/internal/")
	}
	if !ok {
		return "", false
	}
	mod, _, _ := strings.Cut(rest, "/")
	return mod, true
}

// bucketOf attributes one CPU sample given its stack, leaf first. The run
// of runtime and syscall frames at the leaf decides the runtime buckets:
// any system-call frame in it makes the sample syscall, then any GC or
// allocation frame runtime_gc, then any scheduler or channel frame
// runtime_sched. Other samples go to the innermost godsm/internal/<module>
// frame, so runtime helpers such as memmove count for the module that
// called them.
func bucketOf(stack []frame) string {
	lead := 0
	for lead < len(stack) && isRuntimePkg(pkgOf(stack[lead].fn)) {
		lead++
	}
	for _, class := range []struct {
		bucket string
		match  func(string) bool
	}{{"syscall", isSyscallFrame}, {"runtime_gc", isGCFrame}, {"runtime_sched", isSchedFrame}} {
		for _, f := range stack[:lead] {
			if class.match(f.fn) {
				return class.bucket
			}
		}
	}
	for _, f := range stack {
		if mod, ok := moduleOf(f); ok {
			if b, ok := moduleBucket[mod]; ok {
				return b
			}
			return "other"
		}
	}
	return "other"
}

// pkgOf returns the import path of a pprof function name such as
// "godsm/internal/kvload.(*Sampler).key".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || pkg == "syscall" ||
		strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "internal/syscall/")
}

func isSyscallFrame(fn string) bool {
	pkg := pkgOf(fn)
	if pkg != "runtime" {
		return strings.Contains(pkg, "syscall")
	}
	return hasAnyPrefix(strings.TrimPrefix(fn, "runtime."), "entersyscall", "exitsyscall", "reentersyscall")
}

func isGCFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	return ok && hasAnyPrefix(name,
		"mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"rawstring", "rawbyteslice", "rawruneslice",
		"gc", "GC", "_GC", "scan", "grey", "markroot", "markBits", "sweep", "bgsweep",
		"bgscavenge", "wbBuf", "bulkBarrier", "findObject", "heapBits", "heapSetType",
		"nextFreeFast", "typePointers", "deductSweepCredit", "sysAlloc", "persistentalloc",
		"memclrNoHeapPointersChunked", "newMarkBits", "newAllocBits",
		"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcBits",
		"(*gcControllerState)", "(*gcCPULimiterState)", "(*pageAlloc)", "(*sweep",
		"(*scavengerState)", "(*consistentHeapStats)", "(*typePointers)")
}

func isSchedFrame(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	return ok && hasAnyPrefix(name,
		"schedule", "findRunnable", "findrunnable", "park_m", "gopark", "goready", "ready",
		"mcall", "runq", "globrunq", "stealWork", "netpoll", "futex", "notesleep",
		"notewakeup", "notetsleep", "stopm", "startm", "wakep", "handoffp", "acquirep",
		"releasep", "casgstatus", "execute", "gogo", "goexit", "gosched", "Gosched",
		"goyield", "checkTimers", "lock2", "unlock2", "lockWithRank", "unlockWithRank",
		"chansend", "chanrecv", "selectgo", "selectnb", "send", "recv", "closechan",
		"newproc", "mstart", "sysmon", "osyield", "usleep", "procyield", "semacquire",
		"semrelease", "readyWithTime", "resetspinning", "injectglist", "wakeNetPoller",
		"pidle", "mput", "mget", "(*waitq)", "(*semaRoot)", "(*timers)", "(*timer)",
		"_System")
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// cpuSample is one distinct stack of a CPU profile with its sample count.
type cpuSample struct {
	stack []frame // leaf first
	count int64
}

// parseCPUProfile decodes the gzipped protobuf runtime/pprof writes: just
// enough of perftools.profiles.Profile to rebuild each sample's stack of
// function names and source files, inlined frames included.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{}  // location id -> function ids, innermost first
		fnName  = map[uint64][2]uint64{} // function id -> name, file string indexes
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var names [2]uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					names[0] = v
				case 4:
					names[1] = v
				}
				return nil
			})
			fnName[id] = names
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []frame
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if n := fnName[fn]; n[0] < uint64(len(strs)) && n[1] < uint64(len(strs)) {
					stack = append(stack, frame{fn: strs[n[0]], file: strs[n[1]]})
				}
			}
		}
		out = append(out, cpuSample{stack: stack, count: int64(s.values[0])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which runtime/pprof writes
// packed (b) when it has more than two elements and one by one (v) below.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
