package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json as the driver reads it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// reportSpread is the difference between two run sets above which a metric
// is called out by name, whatever its bound allows.
const reportSpread = 0.10

// selfCheck measures every workload twice on the same code, each of the
// two on a cluster of its own, and fails, naming workload and metric, if
// any end-to-end metric differs between the two by more than its
// BENCHMARK.json bound. The twins' trials alternate, so a slow or fast
// stretch of the machine lands on both: what is left is the harness's own
// disagreement with itself, which is what the bounds have to cover.
func selfCheck(wls []*workload, cfg config, specPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var twins []*workload
	for _, wl := range wls {
		twins = append(twins, wl, wl)
	}
	both, err := runUntraced(twins, cfg)
	if err != nil {
		return err
	}
	var first, second []*result
	for i := 0; i < len(both); i += 2 {
		first, second = append(first, both[i]), append(second, both[i+1])
	}
	var over, wide []string
	fmt.Printf("%-16s %-20s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "differ", "bound")
	for i := range first {
		if first[i].Failed+second[i].Failed > 0 {
			over = append(over, fmt.Sprintf("%s: %d failed ops", first[i].Name, first[i].Failed+second[i].Failed))
		}
		for _, e := range spec.EndToEnd {
			a, b := first[i].Metrics[e.Name].Value, second[i].Metrics[e.Name].Value
			differ := 0.0
			if a != b {
				differ = math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			}
			fmt.Printf("%-16s %-20s %14.4f %14.4f %7.2f%% %7.2f%%\n", first[i].Name, e.Name, a, b, 100*differ, 100*e.Bound)
			what := fmt.Sprintf("%s %s: %.4f vs %.4f differ by %.1f%%", first[i].Name, e.Name, a, b, 100*differ)
			if differ > e.Bound {
				over = append(over, fmt.Sprintf("%s (bound %.0f%%)", what, 100*e.Bound))
			} else if differ > reportSpread {
				wide = append(wide, what)
			}
		}
	}
	for _, w := range wide {
		fmt.Println("spread above 10%, inside its bound:", w)
	}
	if len(over) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same code disagree:\n  %s", strings.Join(over, "\n  "))
	}
	fmt.Println("selfcheck: ok")
	return nil
}
