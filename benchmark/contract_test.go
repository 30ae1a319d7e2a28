package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// contract is BENCHMARK.json's shape.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// layerDef is a per-layer row: no bound key at all.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantContract() contract {
	c := contract{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 12,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return c
}

const contractPath = "../BENCHMARK.json"

// TestContractMatchesCode keeps BENCHMARK.json and the names the program
// emits from drifting apart. UPDATE_CONTRACT=1 rewrites the file from the
// definitions in harness.go and main.go.
func TestContractMatchesCode(t *testing.T) {
	want := wantContract()
	if os.Getenv("UPDATE_CONTRACT") != "" {
		if err := writeJSON(contractPath, want); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the code's definitions; run UPDATE_CONTRACT=1 go test -run TestContractMatchesCode")
	}
}
