package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the harness against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsAtToyScale runs every workload of BENCHMARK.json on tiny
// inputs, untraced and traced, and requires each run to pass its
// correctness gates and to report exactly the metrics BENCHMARK.json
// names, with their units. It catches drift between the harness and the
// APIs it calls.
func TestWorkloadsAtToyScale(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			cfg := config{workload: w.Name, seed: 3, seconds: 1, trace: trace, dir: t.TempDir(), scale: 0.05}
			if workloads[w.Name] == nil {
				t.Fatalf("workload %s is not in the harness", w.Name)
			}
			res, rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", w.Name, trace, err)
			}
		}
	}
}

// TestFailedCheckReportsNoNumbers: a failed gate makes the run
// incorrect and strips every metric.
func TestFailedCheckReportsNoNumbers(t *testing.T) {
	tl := &tally{}
	tl.check(true, "fine")
	tl.check(false, "broken %d", 1)
	res := finish(&result{Metrics: map[string]metric{"setup_s": {1, "s"}}}, &report{}, tl)
	if res.Correct || res.Failed != 1 || res.Attempted != 2 || len(res.Metrics) != 0 {
		t.Fatalf("got %+v", res)
	}
}

// TestSelfTime: a layer's self time excludes the part of its span its
// children cover, and overlapping children count once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Req: 1, Layer: "server", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Layer: "increpair", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Layer: "wal", Start: 40, End: 70},
	}
	self := tr.selfTimes()
	if got := self["server"] * 1e9; int(got+0.5) != 40 {
		t.Errorf("server self %v ns, want 40", got)
	}
	if got := self["increpair"] * 1e9; int(got+0.5) != 40 {
		t.Errorf("increpair self %v ns, want 40", got)
	}
}
