// Package trace records protocol events with virtual timestamps. A Log
// attached to a run (one of core.Config.Sinks) captures what the DSM did and
// when — faults, protection changes, diffs, barrier episodes, lock
// transfers, migrations — for debugging protocols and for studying their
// behaviour the way Figure 5 of the paper does.
//
// Recording is bounded: once Cap events are stored, further events are
// counted but dropped (head retention, New) or evict the oldest event
// (ring retention, NewTail), so tracing a long run cannot exhaust memory.
//
// A Log is one implementation of the Sink interface; the engine fans every
// event out to any number of Sinks, so the same run can fill a bounded Log
// and stream to machine-readable exporters (see internal/obs) at once.
package trace

import (
	"fmt"
	"io"
	"sync"

	"godsm/internal/sim"
)

// Kind classifies one protocol event.
type Kind uint8

// Event kinds, roughly in the order a page's life encounters them.
const (
	// Segv is a segmentation-violation trap (read or write).
	Segv Kind = iota + 1
	// Mprotect is one page-protection change; Arg is the new protection.
	Mprotect
	// Twin is a twin (page snapshot) creation.
	Twin
	// DiffCreate is a diff creation; Arg is the diff's payload bytes.
	DiffCreate
	// DiffApply is a diff application; Arg is the applied bytes.
	DiffApply
	// PageFetch is a whole-page fetch from a home; Arg is the version.
	PageFetch
	// DiffFetch is a diff-request round trip (homeless protocols); Arg is
	// the creator asked.
	DiffFetch
	// UpdatePush is a copyset-directed flush batch; Arg is the destination.
	UpdatePush
	// BarrierArrive marks a barrier arrival; Arg is the barrier sequence.
	BarrierArrive
	// BarrierRelease marks a barrier release; Arg is the barrier sequence.
	BarrierRelease
	// LockAcquire marks a lock acquisition; Arg is the lock id, Page -1.
	LockAcquire
	// LockGrant marks a token handoff; Arg is the lock id, Page the
	// requester.
	LockGrant
	// Migration marks a home-role transfer; Arg is the new home.
	Migration
	// OverdriveOn marks bar-s/bar-m entering steady-state overdrive.
	OverdriveOn
	// FlagSet marks a one-shot flag being set; Arg is the flag id.
	FlagSet
	// FlagWait marks a flag wait beginning; Arg is the flag id.
	FlagWait
	// NetDrop marks an injected packet drop; Arg is the message kind.
	NetDrop
	// NetDup marks an injected packet duplication; Arg is the message kind.
	NetDup
	// NetDelay marks an injected packet delay; Arg is the message kind.
	NetDelay
	// Retransmit marks a timed-out request re-send; Arg is the message kind.
	Retransmit
	// DupSuppress marks a duplicate request/reply detected and dropped by
	// the reliability layer; Arg is the message kind.
	DupSuppress
	// Crash marks a node's crash-stop failure; Arg is the barrier epoch it
	// completed before dying, Page -1.
	Crash
	// Restart marks a crashed node rejoining; Arg is the barrier sequence
	// it rejoins after, Page -1.
	Restart
	// Reelect marks a page's home re-election after its home crashed; Arg
	// is the new home.
	Reelect
	numKinds
)

var kindNames = [...]string{
	Segv:           "segv",
	Mprotect:       "mprotect",
	Twin:           "twin",
	DiffCreate:     "diff-create",
	DiffApply:      "diff-apply",
	PageFetch:      "page-fetch",
	DiffFetch:      "diff-fetch",
	UpdatePush:     "update-push",
	BarrierArrive:  "bar-arrive",
	BarrierRelease: "bar-release",
	LockAcquire:    "lock-acq",
	LockGrant:      "lock-grant",
	Migration:      "migration",
	OverdriveOn:    "overdrive-on",
	FlagSet:        "flag-set",
	FlagWait:       "flag-wait",
	NetDrop:        "net-drop",
	NetDup:         "net-dup",
	NetDelay:       "net-delay",
	Retransmit:     "retransmit",
	DupSuppress:    "dup-suppress",
	Crash:          "crash",
	Restart:        "restart",
	Reelect:        "reelect",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts Kind.String: "bar-release" → BarrierRelease. Unknown
// names are an error listing the event vocabulary's shape.
func ParseKind(s string) (Kind, error) {
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q (want e.g. %q, %q, %q)",
		s, Segv, BarrierRelease, NetDrop)
}

// Event is one recorded protocol action.
type Event struct {
	T    sim.Time
	Node int
	Kind Kind
	Page int   // page id, or -1 when not page-related
	Arg  int64 // kind-specific detail
}

func (e Event) String() string {
	if e.Page >= 0 {
		return fmt.Sprintf("%12v n%-2d %-12s page %-5d arg %d", e.T, e.Node, e.Kind, e.Page, e.Arg)
	}
	return fmt.Sprintf("%12v n%-2d %-12s %17s arg %d", e.T, e.Node, e.Kind, "", e.Arg)
}

// Sink consumes a stream of protocol events. Implementations must not
// retain e beyond the call unless they copy it (Event is a value type, so
// ordinary storage is a copy). Sinks that buffer output should expose a
// Close or Flush of their own; the engine never closes sinks it is handed.
type Sink interface {
	Emit(e Event)
}

// Log is a bounded event recorder and the package's reference Sink. The
// zero value records nothing; create one with New (keep the first cap
// events) or NewTail (keep the last cap events).
//
// A Log is safe for concurrent use: under the realtime kernel (and under
// cmd/dsmd, where HTTP handlers read a session's tail while the run is
// still emitting) producers and readers overlap, so every method takes
// the log's mutex. The lock is uncontended in sim mode, where the kernel
// runs one process at a time.
type Log struct {
	mu      sync.Mutex
	cap     int
	ring    bool
	events  []Event
	next    int // ring mode: index the next event overwrites
	dropped int64
}

// New returns a Log that retains the first cap events; once full, further
// events are counted but dropped. Head retention shows a run's warm-up.
func New(cap int) *Log {
	if cap <= 0 {
		cap = 1 << 16
	}
	return &Log{cap: cap}
}

// NewTail returns a Log that retains the last cap events, evicting the
// oldest once full (Dropped counts evictions). Tail retention shows a long
// run's steady state instead of its warm-up.
func NewTail(cap int) *Log {
	l := New(cap)
	l.ring = true
	return l
}

// Add records one event. Head logs drop it once full; tail logs evict the
// oldest recorded event instead.
func (l *Log) Add(t sim.Time, node int, kind Kind, page int, arg int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Event{T: t, Node: node, Kind: kind, Page: page, Arg: arg}
	if len(l.events) < l.cap {
		l.events = append(l.events, e)
		return
	}
	l.dropped++
	if l.ring {
		l.events[l.next] = e
		l.next = (l.next + 1) % l.cap
	}
}

// Emit implements Sink.
func (l *Log) Emit(e Event) { l.Add(e.T, e.Node, e.Kind, e.Page, e.Arg) }

// Events returns a copy of the recorded events in recording order (which
// is global virtual-time order under the sim kernel, since the simulation
// runs one process at a time). The copy is the caller's: it stays stable
// while concurrent producers keep appending.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eventsLocked()
}

// eventsLocked rebuilds recording order; the caller holds l.mu.
func (l *Log) eventsLocked() []Event {
	out := make([]Event, 0, len(l.events))
	if l.ring && l.next > 0 {
		out = append(out, l.events[l.next:]...)
		return append(out, l.events[:l.next]...)
	}
	return append(out, l.events...)
}

// Tail returns the last n recorded events in recording order (all of them
// if fewer are held).
func (l *Log) Tail(n int) []Event {
	ev := l.Events()
	if n < len(ev) {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// Dropped reports how many events did not fit: never-recorded events for a
// head log, evicted ones for a tail log.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Summary counts events per kind.
func (l *Log) Summary() map[Kind]int {
	m := make(map[Kind]int)
	if l == nil {
		return m
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		m[e.Kind]++
	}
	return m
}

// WriteTo dumps the full log as text.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range l.Events() {
		k, err := fmt.Fprintln(w, e.String())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	if dropped := l.Dropped(); dropped > 0 {
		verb := "dropped"
		if l.ring {
			verb = "evicted"
		}
		k, err := fmt.Fprintf(w, "... %d further events %s (cap %d)\n", dropped, verb, l.cap)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// WriteSummary dumps the per-kind counts as text, in kind order.
func (l *Log) WriteSummary(w io.Writer) (int64, error) {
	sum := l.Summary()
	var n int64
	for k := Kind(1); k < numKinds; k++ {
		if sum[k] == 0 {
			continue
		}
		c, err := fmt.Fprintf(w, "%-12s %8d\n", k, sum[k])
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
