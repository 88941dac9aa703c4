package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each workload in two interleaved sets of n runs (A1,
// B1, A2, B2, ...), every run with its own seed, one process at a time,
// and prints per end-to-end metric each set's median and quartiles, the
// interquartile spread as a share of the median, and the difference
// between the two set medians against the metric's bound in
// BENCHMARK.json. The bounds there are set from what this reports.
func steadiness(n, seconds int, names []string) error {
	if len(names) == 0 {
		for w := range workloads {
			names = append(names, w)
		}
		sort.Strings(names)
	}
	bounds := readBounds("BENCHMARK.json")
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
		sets := [2]map[string][]float64{{}, {}}
		var shares [2][]string
		for i := 0; i < 2*n; i++ {
			seed := i + 1
			rep, err := runChild(w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !rep.Correct || rep.Failed > 0 {
				return fmt.Errorf("%s seed %d: output check failed or %d operations failed", w, seed, rep.Failed)
			}
			for k, m := range rep.Metrics {
				sets[i%2][k] = append(sets[i%2][k], m.Value)
			}
			shares[i%2] = append(shares[i%2], fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
			fmt.Fprintf(os.Stderr, "steady: %s seed %d:", w, seed)
			for _, k := range endToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4g", k, rep.Metrics[k].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		fmt.Printf("%s (%d runs per set, --seconds %d)\n", w, n, seconds)
		fmt.Printf("  failed/attempted  A: %s\n                    B: %s\n", strings.Join(shares[0], " "), strings.Join(shares[1], " "))
		fmt.Printf("  %-24s %12s %8s %12s %8s %9s %7s\n", "metric", "median A", "IQR% A", "median B", "IQR% B", "diff%", "bound%")
		keys := make([]string, 0, len(sets[0]))
		for k := range sets[0] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			a, b := sets[0][k], sets[1][k]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			fmt.Printf("  %-24s %12.4f %7.1f%% %12.4f %7.1f%% %8.1f%% %6.0f%%\n",
				k, ma, spread(a), mb, spread(b), 100*(mb-ma)/ma, 100*bounds[k])
		}
	}
	return nil
}

// spread is the interquartile distance as a percentage of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return 100 * (q3 - q1) / q2
}

// runChild runs one benchmark run as a child process of this binary and
// returns its result line.
func runChild(workload string, seed, seconds int) (*report, error) {
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// readBounds reads the end-to-end bounds from BENCHMARK.json (none when
// the file is absent).
func readBounds(path string) map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) == nil {
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}
