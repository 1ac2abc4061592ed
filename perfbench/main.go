// Command perfbench is the repository benchmark. One run sets up every
// layer in process (the grid, a warm-restarted single-node daemon and a
// two-shard routed cluster on loopback ports), measures all three in
// alternating slices, the selected workload for 40% of the time and the
// other two for 30% each, checks the answers against the direct
// simulator, and prints one JSON result line.
//
//	go run . --workload grid_wide --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace
// 1 it carries the per-layer metrics of a run with the benchmark's layer
// spans on. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	// setupReps is how many times a run sets every layer up; setup_s is
	// the median.
	setupReps = 5
	// primaryShare is the share of --seconds the selected workload gets;
	// the other two split the rest. Their figures are checked against
	// the same bounds, so they keep nearly as much time.
	primaryShare = 0.4
	// warmShare is the part of each leg's share spent warming it up,
	// unmeasured.
	warmShare = 0.1
	// rounds is how many slices each leg's measured time is cut into.
	// The legs take turns, slice by slice, so each one samples the whole
	// run: a host that is slow for a few seconds slows every leg a
	// little instead of one leg a lot.
	rounds = 8
	// reconcileTolerance bounds |trace.unaccounted_frac| in traced runs.
	reconcileTolerance = 0.15
)

// leg is one workload's machinery. A run sets every leg up, warms each,
// measures them in alternating slices, finishes each (with its traced
// phase when tracing), and checks them last.
type leg interface {
	name() string
	setup(ctx context.Context, traced bool) error
	warm(ctx context.Context, d time.Duration) error
	// step measures one slice of about d and returns the work units it
	// completed (points or requests).
	step(ctx context.Context, d time.Duration) (int, error)
	// finish summarizes the slices; when traced it also runs the
	// traced phase, for budget.
	finish(ctx context.Context, traced bool, budget time.Duration) (*legOut, error)
	check(ctx context.Context) (int, error)
	close()
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	workload := flag.String("workload", "", "workload to measure: grid_wide, classify_open or sweep_routed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 35, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 measures per-layer metrics with layer spans on")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return 2, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	traced := *traceFlag == 1

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	ctx := context.Background()
	phases := map[string]float64{}
	phaseStart := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(phaseStart).Seconds()
		phaseStart = time.Now()
	}
	baseMB := liveHeapMB()
	cl, err := newClassifyLeg(*seed, work)
	if err != nil {
		return 1, err
	}
	legs, err := primaryFirst([]leg{newGridLeg(*seed), cl, newRoutedLeg(*seed)}, *workload)
	if err != nil {
		return 2, err
	}
	defer func() {
		for _, l := range legs {
			if l != nil {
				l.close()
			}
		}
	}()
	phase("inputs")

	var setups []float64
	legSetups := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		var took time.Duration
		for _, l := range legs {
			t := time.Now()
			if err := l.setup(ctx, traced); err != nil {
				return 1, fmt.Errorf("%s setup: %w", l.name(), err)
			}
			took += time.Since(t)
			legSetups[l.name()] = append(legSetups[l.name()], time.Since(t).Seconds())
		}
		setups = append(setups, took.Seconds())
		if i < setupReps-1 {
			for _, l := range legs {
				l.close()
			}
		}
	}

	phase("setup")
	total := time.Duration(*seconds) * time.Second
	res := result{Metrics: map[string]metric{}}
	rep := report{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		SetupS: setups, LegSetupS: legSetups, Legs: map[string]any{}}
	e2e := map[string]float64{"setup_s": medianOf(setups)}
	layer := map[string]float64{}
	shares := make([]time.Duration, len(legs))
	for i := range legs {
		shares[i] = time.Duration(float64(total) * primaryShare)
		if i > 0 {
			shares[i] = time.Duration(float64(total) * (1 - primaryShare) / float64(len(legs)-1))
		}
	}
	// The primary leg's runtime figures are read around its own warm-up
	// and slices only.
	var rt runtimeWatch
	for i, l := range legs {
		if i == 0 {
			rt.begin()
		}
		if err := l.warm(ctx, time.Duration(float64(shares[i])*warmShare)); err != nil {
			return 1, fmt.Errorf("%s warm-up: %w", l.name(), err)
		}
		if i == 0 {
			rt.end(0)
		}
	}
	phase("warm")
	measured := 1 - warmShare
	if traced {
		measured /= 2 // the other half runs the traced phase
	}
	for r := 0; r < rounds; r++ {
		for i, l := range legs {
			if i == 0 {
				rt.begin()
			}
			n, err := l.step(ctx, time.Duration(float64(shares[i])*measured/rounds))
			if err != nil {
				return 1, fmt.Errorf("%s: %w", l.name(), err)
			}
			if i == 0 {
				rt.end(n)
			}
		}
	}
	phase("measure")
	for i, l := range legs {
		out, err := l.finish(ctx, traced, time.Duration(float64(shares[i])*measured))
		if err != nil {
			return 1, fmt.Errorf("%s: %w", l.name(), err)
		}
		if i == 0 {
			rt.report(out)
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		rep.Invalid = append(rep.Invalid, out.invalid...)
		if traced {
			out.layer["trace.overhead_frac"] = out.overhead
			out.layer["trace.unaccounted_frac"] = 1 - out.reconcile
			if math.Abs(1-out.reconcile) > reconcileTolerance {
				rep.Invalid = append(rep.Invalid, fmt.Sprintf("%s: layer self times account for %.1f%% of wall time (tolerance %.0f%%)",
					l.name(), 100*out.reconcile, 100*reconcileTolerance))
			}
		}
		mergeFirst(e2e, out.e2e)
		mergeFirst(layer, out.layer)
		rep.Legs[l.name()] = out.report
	}

	phase("finish")
	// Correctness, outside every timed region.
	for _, l := range legs {
		n, err := l.check(ctx)
		res.Attempted += n
		if err != nil {
			res.Failed++
			rep.CheckErrors = append(rep.CheckErrors, fmt.Sprintf("%s: %v", l.name(), err))
		}
	}
	layer["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	// peak_heap_mb weighs the primary leg alone, at the end of the run,
	// when it holds the most (its last sweep's results, every cache
	// full): the other legs are dropped first.
	for i := 1; i < len(legs); i++ {
		legs[i].close()
		legs[i] = nil
	}
	e2e["peak_heap_mb"] = liveHeapMB() - baseMB
	phase("check")
	rep.PhaseS = phases
	res.Correct = res.Failed == 0 && len(rep.CheckErrors) == 0 && len(rep.Invalid) == 0

	cat := endToEnd
	vals := e2e
	if traced {
		cat, vals = perLayer, layer
	}
	for _, m := range cat {
		v, ok := vals[m.Name]
		if !ok {
			return 1, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	rep.Metrics = res.Metrics
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Printf("%-48s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if err := printJSON(map[string]any{"report": rep}); err != nil {
		return 1, err
	}
	if err := printJSON(res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("run failed its checks: %v %v", rep.CheckErrors, rep.Invalid)
	}
	return 0, nil
}

// primaryFirst orders the legs with the named workload first.
func primaryFirst(all []leg, workload string) ([]leg, error) {
	for i, l := range all {
		if l.name() == workload {
			out := []leg{l}
			out = append(out, all[:i]...)
			return append(out, all[i+1:]...), nil
		}
	}
	return nil, fmt.Errorf("unknown --workload %q (want grid_wide, classify_open or sweep_routed)", workload)
}

// mergeFirst copies src into dst without overwriting: the primary leg,
// merged first, owns every metric it measures.
func mergeFirst(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full account of a run, printed before the result.
type report struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Trace       int                  `json:"trace"`
	NumCPU      int                  `json:"num_cpu"`
	GOMAXPROCS  int                  `json:"gomaxprocs"`
	GoVersion   string               `json:"go_version"`
	SetupS      []float64            `json:"setup_s"`
	LegSetupS   map[string][]float64 `json:"leg_setup_s"`
	Legs        map[string]any       `json:"legs"`
	Metrics     map[string]metric    `json:"metrics"`
	CheckErrors []string             `json:"check_errors,omitempty"`
	Invalid     []string             `json:"invalid,omitempty"`
	PhaseS      map[string]float64   `json:"phase_s"` // wall time of each part of the run
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
