package apps

import (
	"testing"

	"godsm/internal/core"
	"godsm/internal/cost"
	"godsm/internal/netsim"
)

// TestAppsAgreeWithSequential verifies the central property for every
// application at reduced scale: each protocol at each cluster size computes
// a bit-identical result to the uniprocessor run.
func TestAppsAgreeWithSequential(t *testing.T) {
	for _, app := range Small() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := app.RunWith(1, core.ProtoSeq, RunOpts{})
			if err != nil {
				t.Fatalf("seq: %v", err)
			}
			if !seq.HasChecksum {
				t.Fatal("app reports no checksum")
			}
			for _, proto := range core.Protocols() {
				if app.Dynamic && (proto == core.ProtoBarS || proto == core.ProtoBarM) {
					continue
				}
				for _, procs := range []int{2, 4} {
					r, err := app.RunWith(procs, proto, RunOpts{})
					if err != nil {
						t.Fatalf("%v/%d: %v", proto, procs, err)
					}
					if r.Checksum != seq.Checksum {
						t.Errorf("%v/%d procs: checksum %#x, want %#x", proto, procs, r.Checksum, seq.Checksum)
					}
				}
			}
		})
	}
}

// TestRunWithConfig holds RunWith to its contract: every RunOpts field
// reaches core unchanged, and the sequential baseline runs on one simulated
// node whatever procs, transport and kernel workers were asked for.
func TestRunWithConfig(t *testing.T) {
	jacobi := Jacobi(JacobiSmall())
	ref, err := jacobi.RunWith(1, core.ProtoSeq, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := jacobi.RunWith(8, core.ProtoSeq, RunOpts{Transport: "udp", KernelWorkers: 2})
	if err != nil {
		t.Fatalf("seq with procs/transport/workers set: %v", err)
	}
	if seq.Procs != 1 || seq.FrameBytes != 0 || seq.Elapsed != ref.Elapsed || seq.Checksum != ref.Checksum {
		t.Errorf("seq with procs/transport/workers set: %d procs, %d frame bytes, elapsed %v, checksum %#x; want the 1-node sim baseline (elapsed %v, checksum %#x)",
			seq.Procs, seq.FrameBytes, seq.Elapsed, seq.Checksum, ref.Elapsed, ref.Checksum)
	}

	hooked := 0
	if _, err := jacobi.RunWith(4, core.ProtoBarU, RunOpts{NetHook: func(*netsim.Net) { hooked++ }}); err != nil {
		t.Fatal(err)
	}
	if hooked != 1 {
		t.Errorf("NetHook called %d times, want 1", hooked)
	}

	// Home migration happens during warm-up, outside the measurement
	// window, so it shows in Elapsed rather than in HomeMigrations.
	expl := Expl(ExplSmall())
	migrated, err := expl.RunWith(8, core.ProtoBarU, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := expl.RunWith(8, core.ProtoBarU, RunOpts{DisableMigration: true})
	if err != nil {
		t.Fatal(err)
	}
	if static.Elapsed == migrated.Elapsed {
		t.Errorf("DisableMigration left elapsed unchanged at %v", static.Elapsed)
	}
	if static.Checksum != migrated.Checksum {
		t.Errorf("DisableMigration changed the checksum: %#x, want %#x", static.Checksum, migrated.Checksum)
	}
}

func TestDynamicAppRejectsOverdrive(t *testing.T) {
	barnes := Small()[0]
	if !barnes.Dynamic {
		t.Fatal("barnes must be marked dynamic")
	}
	if _, err := barnes.RunWith(4, core.ProtoBarS, RunOpts{}); err == nil {
		t.Fatal("bar-s accepted a dynamic app")
	}
	if _, err := barnes.RunWith(4, core.ProtoBarM, RunOpts{}); err == nil {
		t.Fatal("bar-m accepted a dynamic app")
	}
}

// TestBarnesDivergesUnderOverdrive runs barnes's body under bar-s anyway
// (bypassing the registry guard) and demands the protocol itself detect
// the divergence, reproducing why the paper excludes it. The body count
// must span several pages per array, otherwise the drifting partition is
// invisible at page granularity.
func TestBarnesDivergesUnderOverdrive(t *testing.T) {
	app := Barnes(BarnesConfig{Bodies: 2048, Warm: 3, Measure: 3, Theta: 0.9, InterCost: 400, Dt: 0.025})
	cfg := core.Config{
		Procs:        4,
		Protocol:     core.ProtoBarS,
		SegmentBytes: app.SegmentBytes,
	}
	if _, err := core.Run(cfg, app.Body); err == nil {
		t.Fatal("bar-s ran barnes without detecting the dynamic sharing pattern")
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"barnes", "expl", "fft", "jacobi", "shallow", "sor", "swm", "tomcat"} {
		a, err := ByName(want)
		if err != nil || a.Name != want {
			t.Errorf("ByName(%q) = %v, %v", want, a, err)
		}
	}
	if _, err := ByName("mp3d"); err == nil {
		t.Error("ByName accepted an unknown app")
	}
}

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("All() has %d apps, want 8", len(all))
	}
	for i, a := range all {
		if a.SegmentBytes <= 0 || a.Warm < 3 || a.Measure <= 0 || a.Body == nil {
			t.Errorf("app %d (%s) malformed: %+v", i, a.Name, a)
		}
	}
	small := Small()
	for i := range small {
		if small[i].Name != all[i].Name {
			t.Errorf("Small()[%d] = %s, All()[%d] = %s", i, small[i].Name, i, all[i].Name)
		}
		if small[i].SegmentBytes >= all[i].SegmentBytes {
			t.Errorf("%s: small segment %d not smaller than full %d",
				small[i].Name, small[i].SegmentBytes, all[i].SegmentBytes)
		}
	}
}

// TestStencilAppsMissFreeUnderBarU checks the paper's core claim on the
// static apps: bar-u eliminates remote misses in steady state.
func TestStencilAppsMissFreeUnderBarU(t *testing.T) {
	for _, app := range Small() {
		if app.Dynamic {
			continue
		}
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			r, err := app.RunWith(4, core.ProtoBarU, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Total.RemoteMisses != 0 {
				t.Errorf("%s: %d remote misses under bar-u, want 0", app.Name, r.Total.RemoteMisses)
			}
		})
	}
}

// TestOverdriveQuietUnderBarM checks §5: in steady state bar-m performs no
// segvs and no mprotects, yet communicates exactly as much as bar-u.
func TestOverdriveQuietUnderBarM(t *testing.T) {
	for _, app := range Small() {
		if app.Dynamic {
			continue
		}
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			bu, err := app.RunWith(4, core.ProtoBarU, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			bm, err := app.RunWith(4, core.ProtoBarM, RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if bm.Total.Segvs != 0 || bm.Total.Mprotects != 0 {
				t.Errorf("%s: bar-m segvs=%d mprotects=%d in steady state",
					app.Name, bm.Total.Segvs, bm.Total.Mprotects)
			}
			if bm.Total.Messages != bu.Total.Messages || bm.Total.DataBytes != bu.Total.DataBytes {
				t.Errorf("%s: bar-m traffic (%d msgs, %d B) != bar-u (%d msgs, %d B)",
					app.Name, bm.Total.Messages, bm.Total.DataBytes, bu.Total.Messages, bu.Total.DataBytes)
			}
			if bm.Elapsed >= bu.Elapsed {
				t.Errorf("%s: bar-m (%v) not faster than bar-u (%v)", app.Name, bm.Elapsed, bu.Elapsed)
			}
		})
	}
}

// TestIdealOSShrinksBarMGain is the §4 theory in reverse: with VM-stress
// effects disabled, bar-m's advantage over bar-u must shrink.
func TestIdealOSShrinksBarMGain(t *testing.T) {
	// Full-size swm: the small variant's per-epoch protection traffic
	// stays under the stress threshold.
	app := SWM(SWMDefault())
	gain := func(m *cost.Model) float64 {
		bu, err := app.RunWith(4, core.ProtoBarU, RunOpts{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		bm, err := app.RunWith(4, core.ProtoBarM, RunOpts{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		return float64(bu.Elapsed) / float64(bm.Elapsed)
	}
	stressed := gain(cost.Default())
	ideal := gain(cost.Ideal())
	if stressed <= ideal {
		t.Errorf("bar-m gain with stressed OS (%.3f) not larger than with ideal OS (%.3f)", stressed, ideal)
	}
}
