package repro

import (
	"context"
	"fmt"
	"strings"

	"godsm/internal/apps"
	"godsm/internal/check"
	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/sim"
	"godsm/internal/sweep"
)

// The datastore experiment: the kv workload swept over key skew × write
// fraction × protocol. The paper's verdict — update protocols win on
// iterative scientific codes — rests on sharing patterns where last
// epoch's readers are next epoch's readers, so a pushed diff is a
// prepaid read. A replicated datastore breaks that assumption: an
// update protocol pays per epoch for every node that EVER cached a
// page (copysets only grow, and the kv version stamps dirty every
// page every epoch), while an invalidate protocol pays only for the
// pages a node actually re-reads. The sweep maps where the verdict
// flips: as the put fraction rises the per-epoch read set shrinks and
// wanders, the update families keep flushing to their accumulated
// subscribers, and the invalidate families' miss traffic drops below
// the flush traffic — the classic write-heavy datastore regime.
//
// A bar-u static-home column rides along: shard ownership is
// interleaved (owner = shard mod procs) while initial page homes are
// block-distributed, so disabling runtime home migration makes most
// apply-phase writes remote — the datastore-shaped version of the
// ablation-home experiment.

// datastoreSkews are the zipf exponents swept; 0 degenerates to
// uniform, 0.99 is the YCSB-style default, 1.2 is heavily skewed.
var datastoreSkews = []float64{0, 0.99, 1.2}

// datastoreWriteFracs are the put fractions swept, from the read-heavy
// regime the paper's apps resemble to the write-heavy regime where the
// datastore literature predicts invalidation wins.
var datastoreWriteFracs = []float64{0.05, 0.5, 0.95}

// datastoreProtocols are the contenders: both invalidate/update pairs
// plus the adaptive per-page hybrid (in neither family; it is shown to
// see which side it lands on per regime).
var datastoreProtocols = []core.ProtocolKind{
	core.ProtoBarI, core.ProtoBarU, core.ProtoLmwI, core.ProtoLmwU, core.ProtoBarA,
}

// datastoreUpdateFamily classifies the static protocols for the flip
// verdict; the adaptive hybrid is in neither family.
func datastoreUpdateFamily(p core.ProtocolKind) bool {
	return p == core.ProtoBarU || p == core.ProtoLmwU
}

func datastoreInvalidateFamily(p core.ProtocolKind) bool {
	return p == core.ProtoBarI || p == core.ProtoLmwI
}

// datastoreConfig builds the swept kv configuration for one grid point.
// It deviates from KVDefault in two deliberate ways: many more shards
// (so the store spans ~a page per shard and a node's per-epoch read set
// is a sliver of the segment, not all of it) and a low open-loop request
// rate (~40 ops per stream per epoch), putting the runs in the regime
// where protocol traffic, not op compute, is the cost — which is the
// question the sweep asks.
func (r *Runner) datastoreConfig(s, write float64) apps.KVConfig {
	cfg := apps.KVDefault()
	cfg.Keys = 1 << 16
	cfg.Shards = 1024
	cfg.Streams = 16
	cfg.Ops = 4480
	if r.Small {
		cfg = apps.KVSmall()
		cfg.Keys = 1 << 13
		cfg.Shards = 256
		cfg.Streams = 8
		cfg.Ops = 2240
	}
	cfg.Dist = kvload.Dist{Kind: kvload.DistZipf, S: s}
	cfg.Mix.Write = write
	return cfg
}

// datastoreJob runs one grid point under proto; staticHome additionally
// disables runtime home migration (bar-u only, the home column).
func (r *Runner) datastoreJob(s, write float64, proto core.ProtocolKind, staticHome bool) runJob {
	key := fmt.Sprintf("datastore/s=%g/w=%g/%v", s, write, proto)
	if staticHome {
		key += "/static-home"
	}
	procs := r.Procs
	if proto == core.ProtoSeq {
		procs = 1
	}
	return runJob{
		key:   key,
		app:   "kv",
		proto: proto.String(),
		procs: procs,
		run: func() (*core.Report, error) {
			a, err := apps.KV(r.datastoreConfig(s, write))
			if err != nil {
				return nil, err
			}
			rep, err := a.RunWith(procs, proto, apps.RunOpts{Model: r.Model, DisableMigration: staticHome})
			if err != nil {
				return nil, fmt.Errorf("repro: datastore s=%g w=%g under %v: %w", s, write, proto, err)
			}
			return rep, nil
		},
	}
}

// DatastoreCell is one protocol's measured window at one grid point.
type DatastoreCell struct {
	Protocol     string
	SimTimeUS    float64
	Messages     int64
	DataKB       int64
	RemoteMisses int64
	Diffs        int64
	Checksum     uint64
}

// DatastoreRow is one (skew, write fraction) grid point across the
// protocols, plus the bar-u static-home column.
type DatastoreRow struct {
	ZipfS     float64
	WriteFrac float64
	// Cells holds the per-protocol results in datastoreProtocols order.
	Cells []DatastoreCell
	// StaticHome is bar-u with runtime home migration disabled.
	StaticHome DatastoreCell
	// SeqChecksum is the uniprocessor baseline's result; every cell is
	// held to it before the row is returned.
	SeqChecksum uint64
	// InvalidateWins reports the flip verdict at this grid point: the
	// best invalidate-family protocol carries strictly fewer messages
	// than the best update-family one.
	InvalidateWins bool
}

// datastoreCell converts one cached report.
func datastoreCell(proto string, rep *core.Report) DatastoreCell {
	return DatastoreCell{
		Protocol:     proto,
		SimTimeUS:    float64(rep.Elapsed) / float64(sim.Microsecond),
		Messages:     rep.Total.Messages,
		DataKB:       rep.Total.DataBytes / 1024,
		RemoteMisses: rep.Total.RemoteMisses,
		Diffs:        rep.Total.Diffs,
		Checksum:     rep.Checksum,
	}
}

// Datastore computes the skew sweep: one row per (skew, write fraction)
// point, every cell's checksum held to the sequential baseline's.
func (r *Runner) Datastore() ([]DatastoreRow, error) {
	r.init()
	var rows []DatastoreRow
	for _, s := range datastoreSkews {
		for _, w := range datastoreWriteFracs {
			seq, err := r.runCached(r.datastoreJob(s, w, core.ProtoSeq, false))
			if err != nil {
				return nil, err
			}
			if !seq.HasChecksum {
				return nil, fmt.Errorf("repro: datastore s=%g w=%g: sequential run reports no checksum", s, w)
			}
			row := DatastoreRow{ZipfS: s, WriteFrac: w, SeqChecksum: seq.Checksum}
			bestUpd, bestInv := int64(-1), int64(-1)
			for _, proto := range datastoreProtocols {
				rep, err := r.runCached(r.datastoreJob(s, w, proto, false))
				if err != nil {
					return nil, err
				}
				c := datastoreCell(proto.String(), rep)
				if c.Checksum != seq.Checksum {
					return nil, fmt.Errorf("repro: datastore s=%g w=%g: %v checksum %#x, sequential has %#x",
						s, w, proto, c.Checksum, seq.Checksum)
				}
				row.Cells = append(row.Cells, c)
				if datastoreUpdateFamily(proto) && (bestUpd < 0 || c.Messages < bestUpd) {
					bestUpd = c.Messages
				}
				if datastoreInvalidateFamily(proto) && (bestInv < 0 || c.Messages < bestInv) {
					bestInv = c.Messages
				}
			}
			row.InvalidateWins = bestInv >= 0 && bestUpd >= 0 && bestInv < bestUpd
			static, err := r.runCached(r.datastoreJob(s, w, core.ProtoBarU, true))
			if err != nil {
				return nil, err
			}
			row.StaticHome = datastoreCell("bar-u/static-home", static)
			if row.StaticHome.Checksum != seq.Checksum {
				return nil, fmt.Errorf("repro: datastore s=%g w=%g: static-home checksum %#x, sequential has %#x",
					s, w, row.StaticHome.Checksum, seq.Checksum)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// DatastoreVerifyCell is one backend's result in the verify pass.
type DatastoreVerifyCell struct {
	Backend                     string
	Messages                    int64
	StaleRefetches, Retransmits int64
	RemoteMisses                int64
	Checksum                    uint64
}

// DatastoreVerify is the datastore analogue of the parity sweep, run on
// a trimmed configuration: one protocol per family with the consistency
// oracle attached in sim, then the same runs over the mem, udp and tcp
// transports, checksums held bit-identical and message counts held to
// the simulator's accounting modulo refetch/retransmit/miss slack.
type DatastoreVerify struct {
	Protocol core.ProtocolKind
	Cells    []DatastoreVerifyCell
}

// datastoreVerifyConfig is the verify pass's workload: KVSmall trimmed
// so the wall-clock transport runs stay in CI territory.
func datastoreVerifyConfig() apps.KVConfig {
	cfg := apps.KVSmall()
	cfg.Ops = 20_000
	return cfg
}

// DatastoreVerifySweep runs the verify pass. Like parity it lives
// outside the report cache: the transport runs are wall-clock and must
// not be cached or prefetched.
func (r *Runner) DatastoreVerifySweep(ctx context.Context) ([]DatastoreVerify, error) {
	r.init()
	app, err := apps.KV(datastoreVerifyConfig())
	if err != nil {
		return nil, err
	}
	protos := []core.ProtocolKind{core.ProtoBarI, core.ProtoBarU}
	rows := make([]DatastoreVerify, len(protos))
	err = sweep.EachContext(ctx, r.Parallel, len(protos), func(i int) error {
		proto := protos[i]
		row := DatastoreVerify{Protocol: proto}
		for _, be := range parityBackends {
			opts := apps.RunOpts{Model: r.Model}
			if be == "sim" {
				// The oracle holds every store and barrier to the
				// sequential semantics; its Finish error fails the run.
				opts.Check = check.New()
			} else {
				opts.Transport = be
			}
			rep, err := app.RunWith(r.Procs, proto, opts)
			if err != nil {
				return fmt.Errorf("repro: datastore verify: %v over %s: %w", proto, be, err)
			}
			row.Cells = append(row.Cells, DatastoreVerifyCell{
				Backend:        be,
				Messages:       rep.Total.Messages,
				StaleRefetches: rep.Total.StaleRefetches,
				Retransmits:    rep.Total.Retransmits,
				RemoteMisses:   rep.Total.RemoteMisses,
				Checksum:       rep.Checksum,
			})
		}
		ref := row.Cells[0]
		for _, c := range row.Cells[1:] {
			if c.Checksum != ref.Checksum {
				return fmt.Errorf("repro: datastore verify: %v: checksum over %s is %#x, simulator has %#x",
					proto, c.Backend, c.Checksum, ref.Checksum)
			}
			// Same slack accounting as the parity sweep: real transports
			// may add accounted refetches/retransmits and shift remote
			// misses, never more.
			extra := c.Messages - ref.Messages - (c.RemoteMisses - ref.RemoteMisses)
			if slack := c.StaleRefetches + c.Retransmits; extra < 0 || extra > slack {
				return fmt.Errorf("repro: datastore verify: %v over %s: %d messages vs simulator's %d (accounted slack %d, miss delta %d)",
					proto, c.Backend, c.Messages, ref.Messages, slack, c.RemoteMisses-ref.RemoteMisses)
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderDatastore renders the skew sweep plus the verify pass.
func (r *Runner) RenderDatastore() (string, error) {
	return r.RenderDatastoreContext(context.Background())
}

// RenderDatastoreContext is RenderDatastore with cancellation.
func (r *Runner) RenderDatastoreContext(ctx context.Context) (string, error) {
	rows, err := r.Datastore()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "KV datastore skew sweep (%d procs; messages | sim ms, measured window)\n", r.Procs)
	b.WriteString("Zipf exponent × put fraction under both protocol families. * marks the\n")
	b.WriteString("protocol with the fewest messages at that grid point; the verdict\n")
	b.WriteString("column says which family it belongs to.\n\n")
	fmt.Fprintf(&b, "%-6s %-6s", "zipf", "write")
	for _, p := range datastoreProtocols {
		fmt.Fprintf(&b, " %19v", p)
	}
	fmt.Fprintf(&b, " %19s  %s\n", "bar-u static-home", "verdict")
	flips := 0
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6g %-6g", row.ZipfS, row.WriteFrac)
		best := row.Cells[0].Messages
		for _, c := range row.Cells[1:] {
			if c.Messages < best {
				best = c.Messages
			}
		}
		for _, c := range row.Cells {
			mark := " "
			if c.Messages == best {
				mark = "*"
			}
			fmt.Fprintf(&b, " %s%9d|%8.1f", mark, c.Messages, c.SimTimeUS/1e3)
		}
		fmt.Fprintf(&b, "  %9d|%8.1f", row.StaticHome.Messages, row.StaticHome.SimTimeUS/1e3)
		verdict := "update"
		if row.InvalidateWins {
			verdict = "invalidate"
			flips++
		}
		fmt.Fprintf(&b, "  %s\n", verdict)
	}
	fmt.Fprintf(&b, "\ninvalidate family wins on messages in %d of %d regimes; every cell's\n", flips, len(rows))
	fmt.Fprintf(&b, "checksum matches the uniprocessor baseline for its grid point.\n")

	verify, err := r.DatastoreVerifySweep(ctx)
	if err != nil {
		return "", err
	}
	b.WriteString("\nVerify pass (trimmed config; sim runs carry the consistency oracle):\n")
	fmt.Fprintf(&b, "%-6s %-4s %8s %8s %8s %8s  %s\n",
		"proto", "on", "msgs", "refetch", "retrans", "misses", "checksum")
	for _, row := range verify {
		for _, c := range row.Cells {
			fmt.Fprintf(&b, "%-6v %-4s %8d %8d %8d %8d  %#x\n",
				row.Protocol, c.Backend, c.Messages, c.StaleRefetches, c.Retransmits,
				c.RemoteMisses, c.Checksum)
		}
	}
	b.WriteString("oracle clean; all backends agree.\n")
	return b.String(), nil
}
