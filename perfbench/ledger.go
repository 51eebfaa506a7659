package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// layers.json is the layer ledger: for every metric, the clock it is read
// on and, for per-layer metrics, the layer, how it is measured, which
// metric it should move on which workload, and where it should stay flat.
// BENCHMARK.json's format has no room for it, so it lives here and the
// benchmark checks the two agree before it runs.
//
//go:embed layers.json
var ledgerJSON []byte

// ledgerRow holds the fields of a layers.json row the benchmark checks;
// layer, measured_by and note are for readers.
type ledgerRow struct {
	Name   string   `json:"name"`
	Clock  string   `json:"clock"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	FlatOn []string `json:"flat_on"`
}

type ledgerDoc struct {
	Seed struct {
		Default uint64   `json:"default"`
		Seeded  []string `json:"seeded"`
	} `json:"seed"`
	EndToEnd []ledgerRow `json:"end_to_end"`
	PerLayer []ledgerRow `json:"per_layer"`
}

var ledger ledgerDoc

func init() {
	if err := json.Unmarshal(ledgerJSON, &ledger); err != nil {
		panic(fmt.Sprintf("perfbench: layers.json: %v", err)) // embedded at build time
	}
}

// ledgerClock returns the clock a metric is read on.
func ledgerClock(name string) string {
	for _, r := range append(ledger.EndToEnd, ledger.PerLayer...) {
		if r.Name == name {
			return r.Clock
		}
	}
	return "?"
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclared reads BENCHMARK.json and checks it against the workloads
// this program runs and against the layer ledger.
func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var wls []string
	for _, w := range d.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		return nil, fmt.Errorf("%s lists workloads %v, the benchmark runs %v", path, wls, workloadNames)
	}
	if err := checkLedger(d.EndToEnd, ledger.EndToEnd, wls); err != nil {
		return nil, err
	}
	if err := checkLedger(d.PerLayer, ledger.PerLayer, wls); err != nil {
		return nil, err
	}
	return &d, nil
}

// checkLedger verifies rows name exactly the declared metrics, in order,
// and refer only to declared metrics and workloads.
func checkLedger(decl []metricDecl, rows []ledgerRow, workloads []string) error {
	if len(decl) != len(rows) {
		return fmt.Errorf("layers.json has %d rows where BENCHMARK.json declares %d metrics", len(rows), len(decl))
	}
	known := map[string]bool{}
	for _, r := range append(ledger.EndToEnd, ledger.PerLayer...) {
		known[r.Name] = true
	}
	for i, r := range rows {
		if r.Name != decl[i].Name {
			return fmt.Errorf("layers.json row %d is %s, BENCHMARK.json declares %s", i, r.Name, decl[i].Name)
		}
		if r.Clock != "host" && r.Clock != "virtual" {
			return fmt.Errorf("layers.json: %s has clock %q, want host or virtual", r.Name, r.Clock)
		}
		for _, m := range r.Moves {
			if !known[m] {
				return fmt.Errorf("layers.json: %s moves unknown metric %s", r.Name, m)
			}
		}
		for _, w := range append(slices.Clone(r.On), r.FlatOn...) {
			if !slices.Contains(workloads, w) {
				return fmt.Errorf("layers.json: %s names unknown workload %s", r.Name, w)
			}
		}
	}
	return nil
}
