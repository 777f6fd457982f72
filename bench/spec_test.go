package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark code must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		MetricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the names this
// package emits from drifting apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, w.Name, Workloads[i])
		}
	}
	var e2e []MetricSpec
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.MetricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, list := range []struct {
		what       string
		json, code []MetricSpec
	}{{"end_to_end", e2e, EndToEnd}, {"per_layer", spec.PerLayer, PerLayer}} {
		if len(list.json) != len(list.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", list.what, len(list.json), len(list.code))
			continue
		}
		for i, m := range list.json {
			check(m.Name)
			if m != list.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", list.what, i, m, list.code[i])
			}
		}
	}
}
