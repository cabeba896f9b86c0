// Command perfbench is the repository's wire-level benchmark. It starts a
// GemStone server on loopback over a freshly bulk-loaded database, drives
// it closed-loop through wire.Client, checks every answer against a model
// the generator keeps for itself, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as one JSON object on the last
// line of standard output.
//
//	perfbench --workload send|commit|query --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spansDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: send, commit or query")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Int("seconds", 10, "run length the op count is sized for")
	trace := fl.Int("trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad flags (want send, commit or query; --seconds >= 1; --trace 0 or 1)\n", *workload)
		return 2
	}
	traced := *trace == 1
	epoch := time.Now()
	rounds, nOps := sp.rounds(*seconds), sp.opsPerRound(*seconds)
	var outs []*roundOut
	for i := 0; i < rounds; i++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured within the run.
		out, err := runRound(*workload, *seed, i, nOps, traced && i%2 == 1, epoch)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s round %d: %v\n", *workload, i, err)
			return 1
		}
		outs = append(outs, out)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, o := range outs {
		res.Attempted += o.ph.attempted
		res.Failed += o.ph.failed
		for _, f := range o.failures {
			fmt.Fprintf(stderr, "perfbench: op failed: %s\n", f)
		}
		for _, p := range o.problems {
			if res.Correct {
				fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
			}
			res.Correct = false
		}
	}
	if traced {
		perLayer(outs, res.Metrics)
		var recs []*recorder
		for _, o := range outs {
			recs = append(recs, o.recs...)
			if o.replayRec != nil {
				recs = append(recs, o.replayRec)
			}
		}
		file := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := writeSpans(file, recs); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", file)
		printSelfTimes(stdout, recs)
	} else {
		endToEnd(outs, res.Metrics, stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

const mib = 1 << 20

// endToEnd computes the metrics a host program sees, over every round.
func endToEnd(outs []*roundOut, m map[string]metric, w io.Writer) {
	var setups, rates, cpus, disks, heaps []float64
	var lat []int64
	for _, o := range outs {
		ok := len(o.ph.lat)
		setups = append(setups, o.setup.Seconds())
		rates = append(rates, float64(ok)/o.ph.elapsed.Seconds())
		cpus = append(cpus, float64(o.ph.cpu.Microseconds())/float64(max(ok, 1)))
		disks = append(disks, float64(o.disk)/mib)
		heaps = append(heaps, float64(o.heap)/mib)
		lat = append(lat, o.ph.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	// The 99th percentile is printed for reference only: on query it is
	// the tail of the §5.1 joins and moves by a third between identical
	// runs, too far for any bound the other metrics hold.
	tail := "n/a"
	if v, err := p99(lat); err == nil {
		tail = fmt.Sprintf("%.4f", float64(v)/1e6)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{median(rates), "op/s"}
	m["p50_ms"] = metric{float64(percentile(lat, 0.5)) / 1e6, "ms"}
	m["cpu_us_per_op"] = metric{median(cpus), "us"}
	m["heap_mb"] = metric{median(heaps), "MiB"}
	m["disk_mb"] = metric{median(disks), "MiB"}
	fmt.Fprintf(w, "rounds: %d, latency samples: %d, p99_ms: %s, ops/s by round:", len(outs), len(lat), tail)
	for _, r := range rates {
		fmt.Fprintf(w, " %.0f", r)
	}
	fmt.Fprintln(w)
}

// printSelfTimes prints, per span name, the mean self time of a span: its
// duration minus what its child spans cover. For an op span that is the
// host's own time between its wire calls; for a replay span, the
// harness's time between entry points.
func printSelfTimes(w io.Writer, recs []*recorder) {
	total, count := map[string]int64{}, map[string]int64{}
	for _, r := range recs {
		for name, ns := range selfTimes(r.spans) {
			total[name] += ns
		}
		for _, s := range r.spans {
			count[s.Name]++
		}
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "mean self time (us):")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%.1f", name, float64(total[name])/float64(count[name])/1e3)
	}
	fmt.Fprintln(w)
}
