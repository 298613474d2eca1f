// Command perfbench is the repository benchmark: one command that runs a
// named workload against an in-process sosrnet.Server over loopback TCP,
// checks every session's result, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (README.md); with
// -trace 1 the run also replays each layer's public calls inside spans and
// prints the per-layer metrics and a per-layer session budget instead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hot-sync --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	wlName := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	scratch := flag.String("scratch", ".bench_build/run", "directory for the store and trace output")
	flag.Parse()

	wl := workloadByName(*wlName)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts := runOpts{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		scratch: *scratch,
		shape:   fullShape,
	}
	res, err := runWorkload(wl, opts, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric as a readable line, then the JSON line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
